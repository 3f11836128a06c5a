"""Model configuration and the learnable parameter/gradient containers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import SymmetricAdjacency

# Fixed tensor order of the parameter vector and the checkpoint layout.
# The packed adjacency comes first, so the dense weights are the tail of
# the vector: only they are subject to weight decay; shrinking the
# adjacency is the job of its own sparsity penalty.
TENSOR_ORDER = ("adj", "w_feat", "w_class", "w_dom")


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and fixed hyperparameters of the graph classifier."""

    n_channels: int
    in_dim: int          # features per channel (frequency bands)
    hidden_dim: int
    n_classes: int
    steps: int = 2       # propagation hops
    dropout: float = 0.7

    def __post_init__(self):
        for name in ("n_channels", "in_dim", "hidden_dim", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class ParamSet:
    """All learnable tensors, as views into one float64 vector `flat`.

    Construction copies the tensors into `flat` in `TENSOR_ORDER` and
    rebinds each field to its view, so the caller's arrays are not aliased
    and an in-place update of `flat` moves them all. A field rebound later
    no longer aliases `flat`. `w_dom` is present only with a domain head.
    Tensors with a leading model axis (see `stack`) make `flat` a (k, P)
    matrix with one model per row.
    """

    adj: SymmetricAdjacency
    w_feat: np.ndarray   # (in_dim, hidden_dim)
    w_class: np.ndarray  # (hidden_dim, n_classes)
    w_dom: np.ndarray | None = None  # (hidden_dim, 2)

    def __post_init__(self):
        arrays = [np.asarray(t, dtype=np.float64) for t in self.tensors().values()]
        lead = arrays[0].shape[:-1]
        self._bind(np.concatenate([a.reshape(lead + (-1,)) for a in arrays], axis=-1))

    def _bind(self, flat: np.ndarray) -> None:
        """Make `flat`, which holds this set's values in order, its vector."""
        shapes = [np.shape(t) for t in self.tensors().values()]
        cuts = np.cumsum([int(np.prod(s[flat.ndim - 1 :])) for s in shapes])[:-1]
        views = np.split(flat, cuts, axis=-1)
        upper, self.w_feat, self.w_class, *dom = (v.reshape(s) for v, s in zip(views, shapes))
        self.flat = flat
        self.adj = SymmetricAdjacency(self.adj.n, upper)
        self.w_dom = dom[0] if dom else None

    @classmethod
    def stack(cls, sets: list["ParamSet"]) -> "ParamSet":
        """One set over a leading model axis whose `flat` rows back `sets`.

        Each of `sets` is rebound to its row, so updating a model's own
        `flat` (as `adam_step` does) moves the stacked tensors too.
        """
        tensors = [s.tensors() for s in sets]
        stacked = cls(
            adj=SymmetricAdjacency(sets[0].adj.n, np.stack([t["adj"] for t in tensors])),
            **{name: np.stack([t[name] for t in tensors]) for name in tensors[0] if name != "adj"},
        )
        for i, s in enumerate(sets):
            s._bind(stacked.flat[i])
        return stacked

    def check_shapes(self, cfg: ModelConfig) -> None:
        if self.adj.n != cfg.n_channels:
            raise ConfigError(f"adjacency covers {self.adj.n} channels, config says {cfg.n_channels}")
        if self.w_feat.shape != (cfg.in_dim, cfg.hidden_dim):
            raise ConfigError(f"w_feat shape {self.w_feat.shape} != {(cfg.in_dim, cfg.hidden_dim)}")
        if self.w_class.shape != (cfg.hidden_dim, cfg.n_classes):
            raise ConfigError(f"w_class shape {self.w_class.shape} != {(cfg.hidden_dim, cfg.n_classes)}")
        if self.w_dom is not None and self.w_dom.shape != (cfg.hidden_dim, 2):
            raise ConfigError(f"w_dom shape {self.w_dom.shape} != {(cfg.hidden_dim, 2)}")

    def tensors(self) -> dict[str, np.ndarray]:
        """The tensors present, keyed by name in `TENSOR_ORDER`, adjacency packed."""
        present = (self.adj.upper, self.w_feat, self.w_class, self.w_dom)
        return {name: t for name, t in zip(TENSOR_ORDER, present) if t is not None}


@dataclass
class GradientSet:
    """Gradients mirroring ParamSet; adjacency gradient is packed."""

    adj: np.ndarray      # (n(n+1)/2,)
    w_feat: np.ndarray
    w_class: np.ndarray
    w_dom: np.ndarray | None = None

    @classmethod
    def zeros_like(cls, params: ParamSet) -> "GradientSet":
        return cls(**{name: np.zeros_like(t) for name, t in params.tensors().items()})

    def tensors(self) -> dict[str, np.ndarray]:
        present = (self.adj, self.w_feat, self.w_class, self.w_dom)
        return {name: t for name, t in zip(TENSOR_ORDER, present) if t is not None}


def xavier_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform initialization scaled by combined fan, as float64."""
    lim = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-lim, lim, size=(fan_in, fan_out)).astype(np.float64)
