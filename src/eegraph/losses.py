"""Training objectives: soft-label conversion, KL, sparsity and domain terms.

Hard labels become class distributions that put small probability mass on
emotionally adjacent classes and exact zeros on opposite ones, so label
noise between neighbors costs little while gross errors still register.
The domain term is a per-node binary cross-entropy whose gradient is
reversed (scaled by a schedule) before it reaches shared parameters.
The scalar losses take probabilities, or log-probabilities with
`log=True`, which stay finite for confident logits where a softmax
underflows to 0. Inputs with a leading model axis give one loss per model.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .graph import SymmetricAdjacency, diagonal_positions
from .params import GradientSet


# --- soft labels -----------------------------------------------------------

def chain_distribution(y: int, n_classes: int, epsilon: float) -> np.ndarray:
    """Soft label on an ordered class chain: leak 2ε/3 to the 1 or 2 neighbors.

    The true class keeps the rest; classes further than one step away get
    exactly zero. With 3 classes this is the negative/neutral/positive table.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"epsilon must be in [0, 1], got {epsilon}")
    if not 0 <= y < n_classes:
        raise ConfigError(f"class {y} out of range for {n_classes} classes")
    dist = np.zeros(n_classes, dtype=np.float64)
    if n_classes == 1:
        dist[0] = 1.0
        return dist
    neighbors = [c for c in (y - 1, y + 1) if 0 <= c < n_classes]
    leak = 2.0 * epsilon / 3.0
    for c in neighbors:
        dist[c] = leak / len(neighbors)
    dist[y] = 1.0 - leak
    return dist


def seed3_distribution(y: int, epsilon: float) -> np.ndarray:
    """Three-class scheme (negative, neutral, positive)."""
    return chain_distribution(y, 3, epsilon)


def seed4_distribution(y: int, epsilon: float) -> np.ndarray:
    """Four-class scheme (neutral, sad, fear, happy).

    Neutral and fear sit within one step of everything; sad and happy
    differ in both emotion dimensions, so each puts exact zero on the other.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"epsilon must be in [0, 1], got {epsilon}")
    e = epsilon
    table = {
        0: (1.0 - 3.0 * e / 4.0, e / 4.0, e / 4.0, e / 4.0),
        1: (e / 3.0, 1.0 - 2.0 * e / 3.0, e / 3.0, 0.0),
        2: (e / 4.0, e / 4.0, 1.0 - 3.0 * e / 4.0, e / 4.0),
        3: (e / 3.0, 0.0, e / 3.0, 1.0 - 2.0 * e / 3.0),
    }
    if y not in table:
        raise ConfigError(f"class {y} out of range for the 4-class scheme")
    return np.array(table[y], dtype=np.float64)


def scheme_classes(scheme: str | int) -> int:
    """Class count implied by a label scheme name or explicit count."""
    if scheme == "seed3":
        return 3
    if scheme == "seed4":
        return 4
    if isinstance(scheme, int):
        if scheme < 2:
            raise ConfigError(f"custom scheme needs >= 2 classes, got {scheme}")
        return scheme
    raise ConfigError(f"unknown label scheme {scheme!r}")


def label_distribution(y: int, scheme: str | int, epsilon: float) -> np.ndarray:
    """Dispatch one label through the scheme's conversion table."""
    if scheme == "seed3":
        return seed3_distribution(y, epsilon)
    if scheme == "seed4":
        return seed4_distribution(y, epsilon)
    return chain_distribution(y, scheme_classes(scheme), epsilon)


def convert_labels(labels: np.ndarray, scheme: str | int, epsilon: float) -> np.ndarray:
    """Vectorized conversion of hard labels to (N, C) target distributions."""
    labels = np.asarray(labels)
    return np.stack([label_distribution(int(y), scheme, epsilon) for y in labels])


def allowed_flips(scheme: str | int) -> dict[int, list[int]]:
    """For each class, the classes its label may plausibly flip to.

    Exactly the classes carrying nonzero mass in the conversion at ε > 0,
    so injected noise never crosses to an opposite emotion.
    """
    c = scheme_classes(scheme)
    out = {}
    for y in range(c):
        dist = label_distribution(y, scheme, 0.5)
        out[y] = [i for i in range(c) if i != y and dist[i] > 0.0]
    return out


# --- scalar losses ---------------------------------------------------------

def _per_model(total: np.ndarray) -> float | np.ndarray:
    """A float for one model, else the array of per-model values."""
    return float(total) if total.ndim == 0 else total


def kl_loss(pred: np.ndarray, targets: np.ndarray, *, log: bool = False) -> float | np.ndarray:
    """Sum over samples of KL(target ‖ prediction), with 0·log 0 = 0.

    `pred` holds (batch, classes) probabilities, or log-probabilities with
    `log=True`; a leading model axis gives one sum per model. Targets
    carry exact zeros by construction; the prediction is strictly positive
    wherever a softmax did not underflow, and its log is finite wherever
    the logits are.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ConfigError(f"prediction shape {p.shape} != target shape {t.shape}")
    mask = t > 0.0
    terms = np.zeros_like(t)
    log_p = p[mask] if log else np.log(p[mask])
    terms[mask] = t[mask] * (np.log(t[mask]) - log_p)
    return _per_model(terms.sum(axis=(-2, -1)))


def l1_penalty(adj: SymmetricAdjacency, alpha: float) -> float | np.ndarray:
    """alpha times the absolute sum over the full symmetric matrix.

    Off-diagonal parameters count twice so the penalty depends on the
    matrix, not on the packed storage choice; the sum is read from the
    packed triangle, one per model when it carries a model axis.
    """
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    mags = np.abs(adj.upper)
    return _per_model(
        alpha * (2.0 * mags.sum(axis=-1) - mags[..., diagonal_positions(adj.n)].sum(axis=-1))
    )


def domain_loss(
    source: np.ndarray, target: np.ndarray, *, log: bool = False, per_model: bool = False
) -> float | np.ndarray:
    """Negative log-likelihood of correct domain membership, summed.

    Inputs are (..., 2) probability stacks, or log-probabilities with
    `log=True`: index 0 scores "source", index 1 scores "target".
    Node-level stacks are (N, n, 2); the pooled variant passes (N, 2).
    Source and target batch sizes must match. With `per_model` the first
    axis indexes models, and the result holds one sum per model.
    """
    s = np.asarray(source, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if s.shape != t.shape:
        raise ConfigError(
            f"source and target domain batches differ: {s.shape} vs {t.shape}; "
            "resample the target to the source size first"
        )
    axes = tuple(range(1 if per_model else 0, s.ndim - 1))
    log_s, log_t = (s[..., 0], t[..., 1]) if log else (np.log(s[..., 0]), np.log(t[..., 1]))
    return _per_model(-(log_s.sum(axis=axes) + log_t.sum(axis=axes)))


def grl_beta(progress: float) -> float:
    """Reversal strength schedule: 0 at the start, saturating toward 1."""
    if not 0.0 <= progress <= 1.0:
        raise ConfigError(f"progress must be in [0, 1], got {progress}")
    return 2.0 / (1.0 + np.exp(-10.0 * progress)) - 1.0


# --- gradient composition --------------------------------------------------

def composite_directions(
    class_grads: GradientSet,
    domain_grads: GradientSet | None,
    beta: float,
) -> GradientSet:
    """Merge the two backward passes into per-parameter update directions.

    The domain head descends its own loss; the classifier head follows the
    classification objective; shared parameters follow the classification
    gradient minus beta times the domain gradient (the reversal). At
    beta = 0 the shared directions are taken verbatim from the
    classification pass, so a reversal-disabled run is bit-identical to
    one with no domain path at all.
    """
    if domain_grads is None:
        return GradientSet(
            adj=class_grads.adj.copy(),
            w_feat=class_grads.w_feat.copy(),
            w_class=class_grads.w_class.copy(),
            w_dom=None,
        )
    if beta == 0.0:
        return GradientSet(
            adj=class_grads.adj.copy(),
            w_feat=class_grads.w_feat.copy(),
            w_class=class_grads.w_class.copy(),
            w_dom=domain_grads.w_dom.copy(),
        )
    return GradientSet(
        adj=class_grads.adj - beta * domain_grads.adj,
        w_feat=class_grads.w_feat - beta * domain_grads.w_feat,
        w_class=class_grads.w_class.copy(),
        w_dom=domain_grads.w_dom.copy(),
    )
