"""Forward pass of the graph classifier and its domain head.

The band features are propagated over the normalized adjacency a fixed
number of hops, then projected per channel to the hidden width,
rectified, sum-pooled over channels, and classified. Propagating first
is the simple-graph-convolution order (S^K X) W: it equals S^K (X W),
but the hop chain runs in the narrow band width. Every intermediate
needed by the backward pass is kept on a trace object so gradients never
recompute the forward. Prediction runs the same forward over bounded row
chunks and keeps no trace past a chunk, so its memory does not grow with
the number of rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .electrodes import ElectrodeLayout, initial_adjacency
from .errors import ConfigError
from .graph import SymmetricAdjacency, normalized_propagator
from .params import ModelConfig, ParamSet, xavier_init

# Float64 elements in one (rows, n_channels, hidden_dim) array of a
# prediction chunk (2 MiB); sets how many rows one forward evaluates.
EVAL_CHUNK_ELEMENTS = 1 << 18


def relu(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0)


def softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax, safe for large logits."""
    shifted = a - a.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def init_params(
    cfg: ModelConfig,
    layout: ElectrodeLayout,
    seed: int | np.random.SeedSequence,
    *,
    domain_head: bool = False,
    adj: SymmetricAdjacency | None = None,
) -> ParamSet:
    """Fresh parameters: geometric adjacency plus fan-scaled dense weights.

    The three weight matrices draw from independent child streams of the
    seed so adding or removing the domain head never perturbs the others.
    """
    if adj is None:
        if layout is None:
            raise ConfigError("need either a layout or a prebuilt adjacency")
        if layout.n != cfg.n_channels:
            raise ConfigError(f"layout has {layout.n} electrodes, config wants {cfg.n_channels}")
        adj = initial_adjacency(layout)
    elif adj.n != cfg.n_channels:
        raise ConfigError(f"adjacency has {adj.n} nodes, config wants {cfg.n_channels}")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    streams = seed.spawn(3)
    params = ParamSet(
        adj=adj,
        w_feat=xavier_init(np.random.default_rng(streams[0]), cfg.in_dim, cfg.hidden_dim),
        w_class=xavier_init(np.random.default_rng(streams[1]), cfg.hidden_dim, cfg.n_classes),
        w_dom=xavier_init(np.random.default_rng(streams[2]), cfg.hidden_dim, 2)
        if domain_head
        else None,
    )
    params.check_shapes(cfg)
    return params


def sample_dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Keep mask of 0/1 floats; each unit survives with probability 1 - rate."""
    return (rng.random(shape) >= rate).astype(np.float64)


@dataclass
class ForwardTrace:
    """Everything the classifier computed for b source rows, then any target rows."""

    prop: np.ndarray           # (n, n) normalized propagator
    hops: list[np.ndarray]     # x, Sx, ..., S^steps x, each (rows, n, in_dim)
    z: np.ndarray              # (rows, n, hidden_dim) (S^steps x) W: propagated, then projected
    relu_z: np.ndarray         # (rows, n, hidden_dim)
    pooled: np.ndarray         # (rows, hidden_dim), pre-dropout
    mask: np.ndarray | None    # (b, hidden_dim) keep mask, None in eval
    keep_scale: float          # 1 / (1 - dropout) when mask is set, else 1
    pooled_drop: np.ndarray    # (b, hidden_dim) fed to the classifier
    logits: np.ndarray         # (b, n_classes)
    probs: np.ndarray          # (b, n_classes)


def _feature_rows(cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    """Float64 (rows, channels, bands) features; a 2-D sample is one row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
    if x.shape[1:] != (cfg.n_channels, cfg.in_dim):
        raise ConfigError(
            f"features of shape {x.shape} do not match "
            f"({cfg.n_channels} channels, {cfg.in_dim} bands)"
        )
    return x


def forward(
    cfg: ModelConfig,
    params: ParamSet,
    x: np.ndarray,
    *,
    mask: np.ndarray | None = None,
    target: np.ndarray | None = None,
) -> ForwardTrace:
    """Run the classifier on a (batch, channels, bands) feature stack.

    Pass a dropout keep mask to train; omit it to evaluate. The mask is
    sampled by the caller so a fixed mask can be replayed under gradient
    checks and ablation comparisons. Any `target` rows run behind the rows
    of `x` through propagation, projection, ReLU and pooling, bitwise per
    row, for the domain head; the mask and the classifier see only `x`.
    """
    x = _feature_rows(cfg, x)
    b = len(x)
    if target is not None:
        x = np.concatenate([x, _feature_rows(cfg, target)])
    prop = normalized_propagator(params.adj)
    hops = [x]
    for _ in range(cfg.steps):
        hops.append(np.matmul(prop, hops[-1]))
    z = np.matmul(hops[-1], params.w_feat)
    relu_z = relu(z)
    pooled = relu_z.sum(axis=1)
    keep_scale = 1.0
    pooled_drop = pooled[:b]
    if mask is not None:
        if mask.shape != pooled_drop.shape:
            raise ConfigError(f"dropout mask shape {mask.shape} != pooled {pooled_drop.shape}")
        keep_scale = 1.0 / (1.0 - cfg.dropout)
        pooled_drop = pooled_drop * mask * keep_scale
    logits = pooled_drop @ params.w_class
    return ForwardTrace(
        prop=prop,
        hops=hops,
        z=z,
        relu_z=relu_z,
        pooled=pooled,
        mask=mask,
        keep_scale=keep_scale,
        pooled_drop=pooled_drop,
        logits=logits,
        probs=softmax(logits),
    )


@dataclass
class DomainTrace:
    """Domain-head outputs; per channel at node level, per sample at graph level."""

    level: str                 # "node" or "graph"
    inputs: np.ndarray         # what the head consumed
    logits: np.ndarray         # (b, n, 2) or (b, 2)
    probs: np.ndarray


def domain_forward(params: ParamSet, trace: ForwardTrace, level: str = "node") -> DomainTrace:
    """Score source-vs-target membership from the shared representation.

    Node level reads each channel's rectified embedding; graph level reads
    the pooled vector before dropout. Both share the same (hidden, 2) head.
    """
    if params.w_dom is None:
        raise ConfigError("domain head requested but w_dom is not allocated")
    if level == "node":
        inputs = trace.relu_z
    elif level == "graph":
        inputs = trace.pooled
    else:
        raise ConfigError(f"unknown domain head level {level!r}")
    logits = inputs @ params.w_dom
    return DomainTrace(level=level, inputs=inputs, logits=logits, probs=softmax(logits))


def predict_proba(cfg: ModelConfig, params: ParamSet, x: np.ndarray) -> np.ndarray:
    """Class probabilities with dropout off, in bounded row chunks.

    A (samples, channels, bands) stack runs through `forward` a chunk of
    rows at a time, each chunk's hidden-width arrays holding at most
    `EVAL_CHUNK_ELEMENTS` elements (one row if a row alone is larger), and
    keeps only the chunks' `probs`. Rows widen to float64 one chunk at a
    time. The hidden-width arrays are bitwise those of one forward over
    all rows; the probabilities may differ from it in the last bits,
    because BLAS can order the sums of the (rows, hidden) @ (hidden,
    classes) head product differently for another row count.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        # a single (channels, bands) sample, or a shape forward rejects
        return forward(cfg, params, x).probs
    rows = max(1, EVAL_CHUNK_ELEMENTS // (cfg.n_channels * cfg.hidden_dim))
    # an empty stack still runs one (empty) chunk, for its shape checks
    return np.concatenate(
        [forward(cfg, params, x[i : i + rows]).probs for i in range(0, max(len(x), 1), rows)]
    )


def predict(cfg: ModelConfig, params: ParamSet, x: np.ndarray) -> np.ndarray:
    """Hard labels with dropout off; ties break toward the lower class index."""
    return predict_proba(cfg, params, x).argmax(axis=1)
