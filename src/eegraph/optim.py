"""Adam over the composite update directions, with decoupled weight decay.

A step updates the parameter vector `ParamSet.flat` in place, with the
directions laid out like it (`flat_directions`) and moment vectors shaped
like it (`adam_update`). A set stacked over a leading model axis has a
(k, P) matrix for `flat`; one update then steps every row, bitwise as
the one-model step of that row would, with one step counter for the
group; a single model is the one-row case of the same two calls.
Decay touches only the dense transforms, the tail of each row after the
packed adjacency; the adjacency's shrinkage comes from its own sparsity
penalty, so decaying it too would double-regularize.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .params import GradientSet, ParamSet


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.eps < 0 or self.weight_decay < 0:
            raise ConfigError("eps and weight_decay must be >= 0")


@dataclass
class AdamState:
    """Step counter plus first/second moment vectors shaped like `ParamSet.flat`."""

    cfg: AdamConfig
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: ParamSet, cfg: AdamConfig | None = None) -> "AdamState":
        return cls(cfg or AdamConfig(), np.zeros_like(params.flat), np.zeros_like(params.flat))


def flat_directions(
    params: ParamSet, directions: GradientSet, prefixes: list[str] | None = None
) -> np.ndarray:
    """The directions concatenated like `params.flat`, any model axis kept.

    Raises `DivergenceError` on a non-finite entry, naming the first model
    that has one (by its entry in `prefixes`) and that model's first
    non-finite tensor in `TENSOR_ORDER`.
    """
    names, dirs = params.tensors(), directions.tensors()
    lead = params.flat.shape[:-1]
    try:
        g = np.concatenate([dirs[name].reshape(lead + (-1,)) for name in names], axis=-1)
    except KeyError as exc:
        raise ConfigError(f"no update direction for tensor {exc.args[0]!r}") from None
    if not np.isfinite(g).all():
        rows = g.reshape(-1, g.shape[-1])
        row = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
        name = next(name for name in names
                    if not np.isfinite(dirs[name].reshape(len(rows), -1)[row]).all())
        prefix = prefixes[row] if prefixes else ""
        raise DivergenceError(f"{prefix}non-finite update direction for tensor {name!r}")
    return g


def adam_update(state: AdamState, params: ParamSet, g: np.ndarray) -> None:
    """Advance every row of `params.flat` one Adam step along `g`, in place.

    `g` is laid out like `params.flat` (see `flat_directions`) and the
    state's moments are shaped like it. Weight decay is applied to the
    pre-step parameter value, independent of the moments.
    """
    cfg = state.cfg
    state.t += 1
    bias1 = 1.0 - cfg.beta1**state.t
    bias2 = 1.0 - cfg.beta2**state.t
    m, v, p = state.m, state.v, params.flat
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g * g
    m_hat = m / bias1
    v_hat = v / bias2
    if cfg.weight_decay > 0.0:
        dense = p[..., params.adj.upper.shape[-1] :]
        dense -= cfg.lr * cfg.weight_decay * dense
    denom = np.sqrt(v_hat) + cfg.eps
    # eps = 0 with an untouched coordinate gives 0/0; the step is 0 there
    delta = np.divide(m_hat, denom, out=np.zeros_like(m_hat), where=denom > 0.0)
    p -= cfg.lr * delta
