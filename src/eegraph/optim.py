"""Adam over the composite update directions, with decoupled weight decay.

A step updates the parameter vector `ParamSet.flat` in place along
`GradientSet.flat`, laid out like it, with moments shaped like it. A set
stacked over a leading model axis has a (k, P) matrix for `flat`; one
update then steps every row, bitwise as the one-model step of that row
would, with one step counter for the group; a single model is the
one-row case of the same two calls.
Decay touches only the dense transforms, the tail of each row after the
packed adjacency; the adjacency's shrinkage comes from its own sparsity
penalty, so decaying it too would double-regularize.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .params import ParamSet


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


def _check_finite(params: ParamSet, a: np.ndarray, prefixes: list[str] | None, what: str):
    """Unless `a`, laid out like `params.flat`, is finite, raise `DivergenceError` naming
    its first bad model (by its entry in `prefixes`) and that model's first bad tensor."""
    if np.isfinite(a).all():
        return
    rows = a.reshape(-1, a.shape[-1])
    row = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
    name = next(name for name, t in params.views_of(rows[row]).items() if not np.isfinite(t).all())
    prefix = prefixes[row] if prefixes else ""
    raise DivergenceError(f"{prefix}{what} for tensor {name!r}")


def adam_update(
    state: AdamState, params: ParamSet, g: np.ndarray, prefixes: list[str] | None = None
) -> None:
    """Advance every row of `params.flat` one Adam step along `g`, in place.

    `g` holds the directions laid out like `params.flat` (a `GradientSet.flat`),
    and the state's moments are shaped like it. Before anything is written,
    a `g` of another shape (a domain-head set stepped without a domain trace)
    raises `ConfigError`, and a non-finite `g`, or a second moment that
    overflows and would freeze its coordinate for good, `DivergenceError`
    (see `_check_finite`). Weight decay is applied to the pre-step
    parameter value, independent of the moments.
    With eps > 0 every denominator is at least eps, so the step divides
    plainly; with eps = 0 an untouched coordinate's 0/0 is masked to a
    step of 0.
    """
    if g.shape != params.flat.shape:
        raise ConfigError(f"directions of shape {g.shape} are not laid out like the "
                          f"parameters, of shape {params.flat.shape}")
    _check_finite(params, g, prefixes, "non-finite update direction")
    cfg = state.cfg
    t = state.t + 1
    bias1 = 1.0 - cfg.beta1**t
    bias2 = 1.0 - cfg.beta2**t
    with np.errstate(over="ignore"):
        v = state.v * cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        v_hat = v / bias2
    _check_finite(params, v_hat, prefixes, "Adam's second moment overflows")
    state.t, state.v = t, v
    m, p = state.m, params.flat
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    m_hat = m / bias1
    if cfg.weight_decay > 0.0:
        dense = p[..., params.adj.upper.shape[-1] :]
        dense -= cfg.lr * cfg.weight_decay * dense
    denom = np.sqrt(v_hat) + cfg.eps
    if cfg.eps > 0.0:
        delta = m_hat / denom  # every denominator is at least eps
    else:
        # eps = 0 with an untouched coordinate gives 0/0; the step is 0 there
        delta = np.divide(m_hat, denom, out=np.zeros_like(m_hat), where=denom > 0.0)
    p -= cfg.lr * delta
