"""Model configuration and the learnable parameter/gradient containers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import SymmetricAdjacency, n_upper

# Fixed tensor order used by the optimizer and the checkpoint layout.
TENSOR_ORDER = ("adj", "w_feat", "w_class", "w_dom")

# Only dense weight matrices are subject to weight decay; shrinking the
# adjacency is the job of its own sparsity penalty.
DECAYED = ("w_feat", "w_class", "w_dom")


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
    """All learnable tensors. `w_dom` is present only when a domain head is used."""

    adj: SymmetricAdjacency
    w_feat: np.ndarray   # (in_dim, hidden_dim)
    w_class: np.ndarray  # (hidden_dim, n_classes)
    w_dom: np.ndarray | None = None  # (hidden_dim, 2)

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
        """Flat parameter vectors/matrices keyed by name, adjacency packed."""
        out = {"adj": self.adj.upper, "w_feat": self.w_feat, "w_class": self.w_class}
        if self.w_dom is not None:
            out["w_dom"] = self.w_dom
        return out


@dataclass
class GradientSet:
    """Gradients mirroring ParamSet; adjacency gradient is packed."""

    adj: np.ndarray      # (n(n+1)/2,)
    w_feat: np.ndarray
    w_class: np.ndarray
    w_dom: np.ndarray | None = None

    @classmethod
    def zeros_like(cls, params: ParamSet) -> "GradientSet":
        return cls(
            adj=np.zeros_like(params.adj.upper),
            w_feat=np.zeros_like(params.w_feat),
            w_class=np.zeros_like(params.w_class),
            w_dom=None if params.w_dom is None else np.zeros_like(params.w_dom),
        )

    def tensors(self) -> dict[str, np.ndarray]:
        out = {"adj": self.adj, "w_feat": self.w_feat, "w_class": self.w_class}
        if self.w_dom is not None:
            out["w_dom"] = self.w_dom
        return out


def xavier_limit(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def xavier_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform initialization scaled by combined fan, as float64."""
    lim = xavier_limit(fan_in, fan_out)
    return rng.uniform(-lim, lim, size=(fan_in, fan_out)).astype(np.float64)
