"""Forward pass of the graph classifier and its domain head.

The band features are propagated over the normalized adjacency a fixed
number of hops, then projected per channel to the hidden width,
rectified, sum-pooled over channels, and classified. Propagating first
is the simple-graph-convolution order (S^K X) W: it equals S^K (X W),
but the hop chain runs in the narrow band width. Every intermediate
needed by the backward pass is kept on a trace object so gradients never
recompute the forward. The projection is rectified in place, so one
hidden-width array per forward is made and kept (`relu_z`); pooling and
the softmax reductions run as elementwise passes over the short axes.
The parameters and features may carry a leading model axis (a (k, P)
`ParamSet.flat`): each model then runs on its own rows, with GEMMs of
the same per-model shapes, so each model's arrays are bitwise those of a
forward on it alone. Prediction runs the same forward over
bounded row chunks with one propagator and keeps no trace past a chunk,
so its memory does not grow with the number of rows. Large passes run
in two halves on two threads (`halves.by_row_halves`), bitwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .electrodes import ElectrodeLayout, initial_adjacency
from .errors import ConfigError
from .graph import SymmetricAdjacency, _normalize, degree, normalized_propagator
from .halves import by_row_halves
from .params import ModelConfig, ParamSet, xavier_init

# Float64 elements in one (rows, n_channels, hidden_dim) array of a
# prediction chunk (2 MiB); sets how many rows one forward evaluates.
EVAL_CHUNK_ELEMENTS = 1 << 18


def relu(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(a, 0.0, out=out)


def _softmax_pair(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the last axis and its logsumexp log, from one max shift.

    The class axis is short (2 for the domain head), so the max and the
    sum run column by column, elementwise over all rows, rather than as
    one numpy reduction call per row. The max is exact in any order. The
    sum adds the columns left to right; below 8 columns numpy's own
    reduction does the same, so the bits are those of `a.max(axis=-1)`
    and `e.sum(axis=-1)`, and from 8 on they can differ in the last bit.
    """
    cols = a.shape[-1]
    top = a[..., 0]
    for j in range(1, cols):
        top = np.maximum(top, a[..., j])
    shifted = a - top[..., None]
    e = np.exp(shifted)
    total = e[..., 0]
    for j in range(1, cols):
        total = total + e[..., j]
    total = total[..., None]
    return e / total, shifted - np.log(total)


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
    """Everything the classifier computed for b source rows, then any target rows.

    Shapes are per model; a leading model axis, if any, comes first.
    """

    full: np.ndarray | None    # (n, n) unpacked adjacency; None if the propagator was given
    deg: np.ndarray | None     # (n,) degrees of `full`
    prop: np.ndarray           # (n, n) normalized propagator
    hops: list[np.ndarray]     # x, Sx, ..., S^steps x, each (rows, n, in_dim)
    relu_z: np.ndarray         # (rows, n, hidden_dim) relu((S^steps x) W), rectified in place
    pooled: np.ndarray         # (rows, hidden_dim), pre-dropout
    mask: np.ndarray | None    # (b, hidden_dim) keep mask, None in eval
    keep_scale: float          # 1 / (1 - dropout) when mask is set, else 1
    pooled_drop: np.ndarray    # (b, hidden_dim) fed to the classifier
    logits: np.ndarray         # (b, n_classes)
    probs: np.ndarray          # (b, n_classes)
    log_probs: np.ndarray      # (b, n_classes) logsumexp log of probs


def _feature_rows(cfg: ModelConfig, x: np.ndarray, lead: tuple[int, ...] = ()) -> np.ndarray:
    """(*lead, rows, channels, bands) features in their own dtype; any other shape
    raises `ConfigError`."""
    x = np.asarray(x)
    if x.ndim != len(lead) + 3 or x.shape[: len(lead)] != lead or x.shape[-2:] != (
        cfg.n_channels, cfg.in_dim
    ):
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
    prop: np.ndarray | None = None,
) -> ForwardTrace:
    """Run the classifier on a (batch, channels, bands) feature stack.

    Pass a dropout keep mask to train; omit it to evaluate. The mask is
    sampled by the caller so a fixed mask can be replayed under gradient
    checks and ablation comparisons. Any `target` rows run behind those of
    `x` through the encoder pass, bitwise per row and in two row halves
    when large (`halves.by_row_halves`); the mask and classifier see `x`.
    With stacked parameters, `x`, `target` and `mask` carry the same
    leading model axis. `prop`, the propagator of `params.adj`, skips
    normalizing the adjacency again (evaluation chunks); the trace then
    has no `full` and `deg` and cannot be differentiated.
    """
    lead = params.flat.shape[:-1]
    x = _feature_rows(cfg, x, lead)
    b = x.shape[-3]
    # widened to float64 as they are joined: one pass over the rows
    if target is None:
        x = x.astype(np.float64, copy=False)
    else:
        x = np.concatenate([x, _feature_rows(cfg, target, lead)], axis=-3, dtype=np.float64)
    full = deg = None
    if prop is None:
        full = params.adj.full()
        deg = degree(full)
        prop = _normalize(full, deg)
    hops = [x] + [np.empty(x.shape) for _ in range(cfg.steps)]
    relu_z = np.empty(x.shape[:-1] + (cfg.hidden_dim,))
    pooled = np.empty(x.shape[:-2] + (cfg.hidden_dim,))

    # one propagator and one projection per model, broadcast over its rows
    prop_rows, w_feat_rows = prop[..., None, :, :], params.w_feat[..., None, :, :]

    def encode(r: slice) -> None:
        h = x[..., r, :, :]
        for hop in hops[1:]:
            h = np.matmul(prop_rows, h, out=hop[..., r, :, :])
        # z = (S^steps x) W is rectified in place: nothing reads z after the
        # ReLU, and relu_z > 0 is the same gate as z > 0 for every float
        z = np.matmul(h, w_feat_rows, out=relu_z[..., r, :, :])
        relu(z, out=z)
        # einsum adds the channels in order, as sum(axis=-2) does for hidden
        # widths above 1 (bitwise), but without a reduction call per row
        np.einsum("...ch->...h", z, out=pooled[..., r, :])

    by_row_halves(x.shape[-3], relu_z.size, encode)
    keep_scale = 1.0
    pooled_drop = pooled[..., :b, :]
    if mask is not None:
        if mask.shape != pooled_drop.shape:
            raise ConfigError(f"dropout mask shape {mask.shape} != pooled {pooled_drop.shape}")
        keep_scale = 1.0 / (1.0 - cfg.dropout)
        pooled_drop = pooled_drop * mask * keep_scale
    logits = pooled_drop @ params.w_class
    probs, log_probs = _softmax_pair(logits)
    return ForwardTrace(
        full=full,
        deg=deg,
        prop=prop,
        hops=hops,
        relu_z=relu_z,
        pooled=pooled,
        mask=mask,
        keep_scale=keep_scale,
        pooled_drop=pooled_drop,
        logits=logits,
        probs=probs,
        log_probs=log_probs,
    )


@dataclass
class DomainTrace:
    """Domain-head outputs; per channel at node level, per sample at graph level."""

    level: str                 # "node" or "graph"
    inputs: np.ndarray         # what the head consumed
    logits: np.ndarray         # (b, n, 2) or (b, 2), after any model axis
    probs: np.ndarray
    log_probs: np.ndarray


def domain_forward(params: ParamSet, trace: ForwardTrace, level: str = "node") -> DomainTrace:
    """Score source-vs-target membership from the shared representation.

    Node level reads each channel's rectified embedding; graph level reads
    the pooled vector before dropout. Both share the same (hidden, 2) head.
    """
    if params.w_dom is None:
        raise ConfigError("domain head requested but w_dom is not allocated")
    if level == "node":
        inputs, w_dom = trace.relu_z, params.w_dom[..., None, :, :]
    elif level == "graph":
        inputs, w_dom = trace.pooled, params.w_dom
    else:
        raise ConfigError(f"unknown domain head level {level!r}")
    logits = inputs @ w_dom
    probs, log_probs = _softmax_pair(logits)
    return DomainTrace(level=level, inputs=inputs, logits=logits, probs=probs, log_probs=log_probs)


def predict_proba(
    cfg: ModelConfig, params: ParamSet, x: np.ndarray, *, rows: np.ndarray | None = None
) -> np.ndarray:
    """Class probabilities with dropout off, in bounded row chunks.

    The (samples, channels, bands) stack runs through `forward` a chunk of
    rows at a time, each chunk's hidden-width arrays holding at most
    `EVAL_CHUNK_ELEMENTS` elements (one row if a row alone is larger), and
    keeps only the chunks' `probs`. Rows widen to float64 one chunk at a
    time. The hidden-width arrays are bitwise those of one forward over
    all rows, split or not; the probabilities may differ in the last bits,
    because BLAS can order the sums of the (rows, hidden) @ (hidden,
    classes) head product differently for another row count. `rows`
    selects the rows of `x` to score, in order: each chunk gathers only
    its own rows, so the result is bitwise that for `x[rows]` and no
    copy of the selection is made.
    """
    x = _feature_rows(cfg, x)
    step = max(1, EVAL_CHUNK_ELEMENTS // (cfg.n_channels * cfg.hidden_dim))
    n = len(x) if rows is None else len(rows)
    prop = normalized_propagator(params.adj)
    # an empty stack still runs one (empty) chunk, for its (0, classes) shape
    return np.concatenate([
        forward(cfg, params, x[i : i + step] if rows is None
                else np.take(x, rows[i : i + step], axis=0), prop=prop).probs
        for i in range(0, max(n, 1), step)
    ])


def predict(
    cfg: ModelConfig, params: ParamSet, x: np.ndarray, *, rows: np.ndarray | None = None
) -> np.ndarray:
    """Hard labels with dropout off; ties break toward the lower class index."""
    return predict_proba(cfg, params, x, rows=rows).argmax(axis=1)
