"""Model configuration and the learnable parameter/gradient containers."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .graph import SymmetricAdjacency, n_upper

# Fixed tensor order of the parameter vector, which a checkpoint body is,
# byte for byte. The packed adjacency comes first, so the dense weights
# are the tail of the vector: only they are subject to weight decay;
# shrinking the adjacency is the job of its own sparsity penalty.
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
        for name in ("n_channels", "in_dim", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")
        _check_model_fields(self.hidden_dim, self.steps, self.dropout)

    def tensor_shapes(self, domain_head: bool) -> dict[str, tuple[int, ...]]:
        """The shape of each tensor, keyed by name in `TENSOR_ORDER`, adjacency packed."""
        shapes = {
            "adj": (n_upper(self.n_channels),),
            "w_feat": (self.in_dim, self.hidden_dim),
            "w_class": (self.hidden_dim, self.n_classes),
            "w_dom": (self.hidden_dim, 2),
        }
        if not domain_head:
            del shapes["w_dom"]
        return shapes


def _check_model_fields(hidden_dim: int, steps: int, dropout: float) -> None:
    """Refuse hidden_dim or steps below 1, or dropout outside [0, 1); TrainConfig shares this."""
    if hidden_dim < 1:
        raise ConfigError(f"hidden_dim must be >= 1, got {hidden_dim}")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if not 0.0 <= dropout < 1.0:
        raise ConfigError(f"dropout must be in [0, 1), got {dropout}")


def _cut(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of `flat` cut along its last axis, one per shape in order, any model axis
    leading: where parameters, directions and checkpoint bodies become tensors."""
    lead, start, views = flat.shape[:-1], 0, []
    for shape in shapes:
        end = start + math.prod(shape)
        views.append(flat[..., start:end].reshape(lead + shape))
        start = end
    return views


def _pack(tensors: dict[str, np.ndarray]) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Copies of the tensors in one float64 vector, any model axis kept, and their
    shapes past it; the packed adjacency comes first and has one axis per model."""
    arrays = [np.asarray(t, dtype=np.float64) for t in tensors.values()]
    lead = arrays[0].shape[:-1]
    flat = np.concatenate([a.reshape(lead + (-1,)) for a in arrays], axis=-1)
    return flat, [a.shape[len(lead) :] for a in arrays]


def _assign(obj, **fields) -> None:
    """Bind the fields of a frozen set; only its construction calls this."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class ParamSet:
    """All learnable tensors, as views into one float64 vector `flat`.

    Construction copies the tensors into `flat` in `TENSOR_ORDER` and
    binds each field to its view, so the caller's arrays are not aliased
    and an in-place update of `flat` moves them all; `from_flat` binds the
    views of a vector it is given. The set is frozen, so every field views
    `flat` for good; the tensors change only by in-place writes. `w_dom` is
    present only with a domain head. A (k, P) `flat` gives the tensors a
    leading model axis, one model per row; each row is a set of its own
    through `from_flat`.
    """

    adj: SymmetricAdjacency
    w_feat: np.ndarray   # (in_dim, hidden_dim)
    w_class: np.ndarray  # (hidden_dim, n_classes)
    w_dom: np.ndarray | None = None  # (hidden_dim, 2)

    def __post_init__(self):
        self._bind(*_pack(self.tensors()), self.adj.n)

    def _bind(self, flat: np.ndarray, shapes, n: int) -> None:
        """Make `flat`, which holds the tensors of `shapes` in order, this set's vector."""
        upper, w_feat, w_class, *dom = _cut(flat, shapes)
        _assign(self, flat=flat, adj=SymmetricAdjacency(n, upper), w_feat=w_feat,
                w_class=w_class, w_dom=dom[0] if dom else None)

    @classmethod
    def from_flat(cls, flat: np.ndarray, cfg: ModelConfig, domain_head: bool) -> "ParamSet":
        """The set whose vector is `flat` itself, laid out as `cfg` states."""
        params = cls.__new__(cls)
        params._bind(flat, cfg.tensor_shapes(domain_head).values(), cfg.n_channels)
        return params

    def check_shapes(self, cfg: ModelConfig) -> None:
        shapes = cfg.tensor_shapes(domain_head=self.w_dom is not None)
        for name, t in self.tensors().items():
            if t.shape != shapes[name]:
                raise ConfigError(f"{name} shape {t.shape} != {shapes[name]}")

    def tensors(self) -> dict[str, np.ndarray]:
        """The tensors present, keyed by name in `TENSOR_ORDER`, adjacency packed."""
        present = (self.adj.upper, self.w_feat, self.w_class, self.w_dom)
        return {name: t for name, t in zip(TENSOR_ORDER, present) if t is not None}

    def views_of(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """A vector laid out like this set's `flat`, as its tensors by name."""
        tensors = self.tensors()
        shapes = [t.shape[self.flat.ndim - 1 :] for t in tensors.values()]
        return dict(zip(tensors, _cut(flat, shapes)))


@dataclass(frozen=True)
class GradientSet:
    """Update directions as views into one vector `flat`, packed adjacency first;
    construction copies them in as `ParamSet`'s does, so the two lay out alike,
    and the set is frozen as `ParamSet` is. A backward that writes each
    direction in place binds an unwritten vector instead (`_unwritten`), so it
    copies nothing."""

    adj: np.ndarray      # (n(n+1)/2,)
    w_feat: np.ndarray
    w_class: np.ndarray
    w_dom: np.ndarray | None = None

    def __post_init__(self):
        self._bind(*_pack(self.tensors()))

    def _bind(self, flat: np.ndarray, shapes) -> None:
        adj, w_feat, w_class, *dom = _cut(flat, shapes)
        _assign(self, flat=flat, adj=adj, w_feat=w_feat, w_class=w_class,
                w_dom=dom[0] if dom else None)

    @classmethod
    def _unwritten(cls, cfg: ModelConfig, lead: tuple[int, ...], domain_head: bool) -> "GradientSet":
        """The set over a new, unwritten vector laid out as `cfg` states behind the
        model axes `lead`; its caller writes every view."""
        shapes, size = _layout(cfg, domain_head)
        directions = cls.__new__(cls)
        directions._bind(np.empty(lead + (size,)), shapes)
        return directions

    def tensors(self) -> dict[str, np.ndarray]:
        present = (self.adj, self.w_feat, self.w_class, self.w_dom)
        return {name: t for name, t in zip(TENSOR_ORDER, present) if t is not None}


@lru_cache(maxsize=64)
def _layout(cfg: ModelConfig, domain_head: bool) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The tensor shapes of `cfg` in order, and the length of their vector."""
    shapes = tuple(cfg.tensor_shapes(domain_head).values())
    return shapes, sum(math.prod(shape) for shape in shapes)


def xavier_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform initialization scaled by combined fan, as float64."""
    lim = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-lim, lim, size=(fan_in, fan_out)).astype(np.float64)
