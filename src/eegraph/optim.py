"""Adam over the composite update directions, with decoupled weight decay.

One step updates the parameter vector `ParamSet.flat` in place, with the
directions concatenated in its tensor order and moment vectors shaped
like it. Decay touches only the dense transforms, the tail of the vector
after the packed adjacency; the adjacency's shrinkage comes from its own
sparsity penalty, so decaying it too would double-regularize.
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


def adam_step(state: AdamState, params: ParamSet, directions: GradientSet) -> tuple[ParamSet, AdamState]:
    """Advance the parameter vector one Adam step along the directions.

    Mutates params and state in place and returns them. Weight decay is
    applied to the pre-step parameter value, independent of the moments.
    """
    cfg = state.cfg
    names, dirs = params.tensors(), directions.tensors()
    try:
        g = np.concatenate([dirs[name] for name in names], axis=None)
    except KeyError as exc:
        raise ConfigError(f"no update direction for tensor {exc.args[0]!r}") from None
    if not np.isfinite(g).all():
        name = next(name for name in names if not np.isfinite(dirs[name]).all())
        raise DivergenceError(f"non-finite update direction for tensor {name!r}")
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
        dense = p[params.adj.upper.size :]
        dense -= cfg.lr * cfg.weight_decay * dense
    denom = np.sqrt(v_hat) + cfg.eps
    # eps = 0 with an untouched coordinate gives 0/0; the step is 0 there
    delta = np.divide(m_hat, denom, out=np.zeros_like(m_hat), where=denom > 0.0)
    p -= cfg.lr * delta
    return params, state
