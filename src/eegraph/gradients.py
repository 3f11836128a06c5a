"""Reverse-mode gradients for the fixed network topology, plus the
finite-difference checker that keeps them honest.

The computation graph never changes shape, so each adjoint is written out
by hand instead of taping operations. The classifier and the domain head
reach the shared parameters through the same propagation chain, so a
training step takes one forward trace of the source rows with the target
rows stacked behind them, combines both gradients at its rectified node
features relu_z, gates the sum by the ReLU once and runs one backward
through the chain (`step_directions`), built from GEMMs only. The gate
reads `relu_z > 0`, since the forward keeps no pre-activation z.
`domain_backward` gives the discrimination loss's own gradient, gated on
its own, through that same backward. A trace with a leading model axis
gives directions with that axis, each model's bitwise those of a step on
it alone. Each direction is written in place into its view of one vector
laid out like the parameters, which the optimizer steps along as it is.
Subgradients at the ReLU and absolute-value kinks are taken as 0.
Everything runs in float64.
"""
from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError
from .graph import SymmetricAdjacency, diagonal_positions, fold_full_gradient, n_upper, unpack_upper
from .halves import by_row_halves
from .losses import convert_labels, domain_loss, kl_loss, l1_penalty
from .model import DomainTrace, ForwardTrace, domain_forward, forward, sample_dropout_mask
from .params import GradientSet, ModelConfig, ParamSet


def _shared_backward(
    cfg: ModelConfig,
    params: ParamSet,
    trace: ForwardTrace,
    g_z: np.ndarray,
    alpha: float,
    out: GradientSet,
) -> None:
    """Push the gradient at z back to the shared parameters, into `out.adj` (packed)
    and `out.w_feat`.

    `g_z` is the gradient at z = (S^K x) W of the trace's leading rows;
    rows past it get none and are not read. The projection comes last in
    the forward, so its gradient is one GEMM over all rows, and one GEMM
    by W^T takes the gradient down to the band width before the hop chain.
    The band-width rows are laid out as (n, rows * in_dim) matrices: each
    hop costs one GEMM for the propagator gradient and one for the chain
    (none after the first hop, since nothing reads the gradient at x), and
    the normalization adjoint runs once, on the trace's unpacked adjacency
    and degrees. Adds the L1 subgradient of weight alpha. The trace must
    come from a training forward pass on `params`; any leading model axis
    of `g_z` is kept, and each GEMM keeps its per-model shape.
    """
    prop, n, rows = trace.prop, cfg.n_channels, g_z.shape[-3]
    lead = g_z.shape[:-3]

    def band_rows(hop: np.ndarray) -> np.ndarray:
        # (rows, n, in_dim) -> (n, rows * in_dim), per model
        return hop[..., :rows, :, :].swapaxes(-3, -2).reshape(lead + (n, -1))

    g_z = g_z.reshape(lead + (-1, cfg.hidden_dim))
    top = trace.hops[-1][..., :rows, :, :].reshape(lead + (-1, cfg.in_dim))
    np.matmul(top.swapaxes(-1, -2), g_z, out=out.w_feat)
    g_h = band_rows((g_z @ params.w_feat.swapaxes(-1, -2)).reshape(lead + (rows, n, -1)))
    # the last hop's term first; adding it to +0.0 turns a -0.0 entry into +0.0,
    # as a sum started from zeros does
    g_prop = g_h @ band_rows(trace.hops[cfg.steps - 1]).swapaxes(-1, -2)
    g_prop += 0.0
    for hop in range(cfg.steps - 1, 0, -1):
        g_h = prop.swapaxes(-1, -2) @ g_h
        g_prop += g_h @ band_rows(trace.hops[hop - 1]).swapaxes(-1, -2)

    # Adjoint of S = D^(-1/2) A D^(-1/2) with D from |A|: each matrix entry
    # feeds S directly and also through its own row's degree; the degree
    # path carries the sign of the entry because degrees sum absolute values.
    full, deg = trace.full, trace.deg
    inv_sqrt = 1.0 / np.sqrt(deg)
    gs = g_prop * prop
    g_deg = -(gs.sum(axis=-1) + gs.sum(axis=-2)) / (2.0 * deg)
    g_full = (g_prop * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
              + np.sign(full) * g_deg[..., :, None])
    np.add(fold_full_gradient(g_full), l1_subgradient(params.adj, alpha), out=out.adj)


def l1_subgradient(adj: SymmetricAdjacency, alpha: float) -> np.ndarray:
    """Packed subgradient of the full-matrix absolute sum, 0 at 0.

    Read from the packed triangle: an off-diagonal parameter backs two
    mirrored entries, so its sign counts twice. One product of the signs
    with a cached coefficient per packed position.
    """
    return np.sign(adj.upper) * _l1_coefficients(adj.n, alpha)


@lru_cache(maxsize=64)
def _l1_coefficients(n: int, alpha: float) -> np.ndarray:
    """2 alpha at each off-diagonal packed position, alpha on the diagonal."""
    coefficients = np.full(n_upper(n), 2.0 * alpha)
    coefficients[diagonal_positions(n)] = alpha
    coefficients.setflags(write=False)
    return coefficients


def _relu_gate(trace: ForwardTrace, g_relu: np.ndarray) -> np.ndarray:
    """The gradient at z of a gradient at relu_z, for the trace's leading rows.

    `g_relu` may be broadcast over channels (a pooled gradient). The gate
    is a multiply, so a non-finite gradient at a dead unit stays NaN for
    the optimizer's finite check (`optim.adam_update`) to report. The
    0/1 gate is written as floats into the output, then multiplied in
    place: one float array, no bool temporary, in two row halves when large.
    """
    out = np.empty(g_relu.shape[:-2] + trace.relu_z.shape[-2:])

    def gate(r: slice) -> None:
        rows = np.greater(trace.relu_z[..., r, :, :], 0.0, out=out[..., r, :, :])
        np.multiply(rows, g_relu[..., r, :, :], out=rows)

    by_row_halves(out.shape[-3], out.size, gate)
    return out


def _class_head_backward(
    params: ParamSet, trace: ForwardTrace, targets: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """The summed KL's gradient at the source rows' relu_z; the classifier head's
    gradient is written into `out`.

    Sum pooling hands every node the pooled gradient, so the result is
    (rows, 1, hidden), broadcast over the channels.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != trace.probs.shape:
        raise ConfigError(f"targets shape {targets.shape} != probs {trace.probs.shape}")
    g_logits = trace.probs - targets
    np.matmul(trace.pooled_drop.swapaxes(-1, -2), g_logits, out=out)
    g_pooled = g_logits @ params.w_class.swapaxes(-1, -2)
    if trace.mask is not None:
        g_pooled *= trace.mask
        g_pooled *= trace.keep_scale
    return g_pooled[..., None, :]


@lru_cache(maxsize=64)
def _domain_labels(rows: int, cut: int) -> np.ndarray:
    """(rows, 2) one-hot domains: source (1, 0) below row `cut`, target (0, 1) from it."""
    labels = np.zeros((rows, 2))
    labels[:cut, 0] = 1.0
    labels[cut:, 1] = 1.0
    labels.setflags(write=False)
    return labels


def _domain_head_backward(
    params: ParamSet, dom: DomainTrace, n_source: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Domain-head gradient, written into `out` when given, and the discrimination
    loss's gradient at relu_z.

    Rows below `n_source` are source (domain 0), the rest target (domain 1);
    the gradient at the logits is the probabilities minus a cached one-hot
    of the domains, one subtraction over every model. The head's gradient
    sums a source GEMM and a target GEMM, in that order, so it does not
    depend on how the rows were stacked. At graph level the gradient at
    relu_z is (rows, 1, hidden), broadcast over the channels. The gradient
    at relu_z is a new array, free for its caller to scale in place.
    """
    if params.w_dom is None:
        raise ConfigError("domain gradients requested without a domain head")
    # each model's rows as one block of (rows * n, 2) at node level, source first
    lead = params.w_dom.shape[:-2]  # the model axes
    cut = n_source * (dom.probs.shape[-2] if dom.level == "node" else 1)
    probs = dom.probs.reshape(lead + (-1, 2))
    g_dlogits = probs - _domain_labels(probs.shape[-2], cut)
    inputs = dom.inputs.reshape(lead + (-1, dom.inputs.shape[-1]))
    g_w_dom = np.add(inputs[..., :cut, :].swapaxes(-1, -2) @ g_dlogits[..., :cut, :],
                     inputs[..., cut:, :].swapaxes(-1, -2) @ g_dlogits[..., cut:, :], out=out)
    g_dlogits = g_dlogits.reshape(dom.probs.shape)
    w_dom_t = params.w_dom.swapaxes(-1, -2)
    if dom.level == "node":
        return g_w_dom, g_dlogits @ w_dom_t[..., None, :, :]
    return g_w_dom, (g_dlogits @ w_dom_t)[..., None, :]


def domain_backward(
    cfg: ModelConfig,
    params: ParamSet,
    source: tuple[ForwardTrace, DomainTrace],
    target: tuple[ForwardTrace, DomainTrace],
) -> GradientSet:
    """Gradient of the source/target discrimination loss.

    Both domains share the adjacency and feature transform, so their hop
    chains are stacked, source rows first, and their gradients at z go
    through one shared backward. The classifier head is untouched (zeros).
    """
    (src, src_dom), (tgt, tgt_dom) = source, target
    out = GradientSet._unwritten(cfg, params.flat.shape[:-1], domain_head=True)
    g_w_dom_src, g_src = _domain_head_backward(params, src_dom, len(src.relu_z))
    g_w_dom_tgt, g_tgt = _domain_head_backward(params, tgt_dom, 0)
    np.add(g_w_dom_src, g_w_dom_tgt, out=out.w_dom)
    out.w_class[...] = 0.0
    stacked = replace(src, hops=[np.concatenate(pair) for pair in zip(src.hops, tgt.hops)])
    g_z = np.concatenate([_relu_gate(src, g_src), _relu_gate(tgt, g_tgt)])
    _shared_backward(cfg, params, stacked, g_z, 0.0, out)
    return out


def step_directions(
    cfg: ModelConfig,
    params: ParamSet,
    trace: ForwardTrace,
    targets: np.ndarray,
    alpha: float,
    domain: DomainTrace | None = None,
    beta: float = 0.0,
) -> GradientSet:
    """Per-parameter update directions of one training step.

    The classifier head follows the classification objective (KL plus
    L1) and the domain head descends its own loss. The shared parameters
    follow the classification gradient minus beta times the domain
    gradient (the reversal); both reach them through the same propagation
    chain, so the two are combined at relu_z (source rows, below
    len(targets): class minus beta times domain; target rows: minus beta
    times domain), gated by the ReLU once and pushed back in one shared
    backward. `trace` holds the target rows behind the source rows and
    `domain` is its domain-head trace, or None with the domain path off.
    At beta = 0 the target rows are skipped and the source rows carry the
    gated class gradient verbatim, so a reversal-disabled step is
    bit-identical to one with no domain path.

    Each direction is written in place into its view of one new vector
    laid out like `params.flat` (its `flat`), so nothing is copied
    together after the backward. Without `domain` the vector has no
    `w_dom` part, even when `params` has a domain head.
    """
    out = GradientSet._unwritten(cfg, params.flat.shape[:-1], domain_head=domain is not None)
    g_relu = _class_head_backward(params, trace, targets, out.w_class)
    if domain is not None:
        b = g_relu.shape[-3]
        _, g_dom = _domain_head_backward(params, domain, b, out.w_dom)
        if beta != 0.0:
            # source rows g_relu - beta * g_dom, target rows -beta * g_dom
            g_dom *= -beta
            g_dom[..., :b, :, :] += g_relu
            g_relu = g_dom
    _shared_backward(cfg, params, trace, _relu_gate(trace, g_relu), alpha, out)
    return out


# --- finite-difference verification ---------------------------------------

def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))


def grad_check(
    params: ParamSet,
    loss_fn: Callable[[ParamSet], float],
    grad_fn: Callable[[ParamSet], GradientSet],
    h: float = 1e-5,
    names: Iterable[str] | None = None,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Perturbs every scalar of the selected tensors in place (adjacency
    scalars are the packed triangle parameters, so the finite difference
    moves both mirrored matrix entries, matching what the fold reports).
    """
    analytic = grad_fn(params).tensors()
    tensors = params.tensors()
    worst = 0.0
    for name in tensors if names is None else names:
        flat, gflat = tensors[name].reshape(-1), analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(params)
            flat[i] = orig - h
            down = loss_fn(params)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            worst = max(worst, relative_error(float(gflat[i]), numeric))
    return worst


def _random_check_instance(cfg: ModelConfig, seed: int, batch: int):
    """One random model + batch pair for the full-model check.

    Adjacency magnitudes stay well away from 0 so the absolute-value kink
    in the degree never sits inside the finite-difference window.
    """
    streams = np.random.SeedSequence(seed).spawn(6)
    rngs = [np.random.default_rng(s) for s in streams]
    mag = rngs[0].uniform(0.3, 1.0, size=n_upper(cfg.n_channels))
    sign = np.where(rngs[0].random(n_upper(cfg.n_channels)) < 0.5, -1.0, 1.0)
    full = unpack_upper(mag * sign, cfg.n_channels)
    np.fill_diagonal(full, 1.0)
    adj = SymmetricAdjacency.from_full(full)
    params = ParamSet(
        adj=adj,
        w_feat=rngs[1].normal(0.0, 0.5, size=(cfg.in_dim, cfg.hidden_dim)),
        w_class=rngs[2].normal(0.0, 0.5, size=(cfg.hidden_dim, cfg.n_classes)),
        w_dom=rngs[3].normal(0.0, 0.5, size=(cfg.hidden_dim, 2)),
    )
    x_src = rngs[4].normal(0.0, 1.0, size=(batch, cfg.n_channels, cfg.in_dim))
    x_tgt = rngs[4].normal(0.0, 1.0, size=(batch, cfg.n_channels, cfg.in_dim))
    labels = rngs[4].integers(0, cfg.n_classes, size=batch)
    mask = sample_dropout_mask(rngs[5], (batch, cfg.hidden_dim), cfg.dropout)
    return params, x_src, x_tgt, labels, mask


def model_grad_check(
    seed: int = 0,
    size: str = "default",
    h: float = 1e-5,
    beta: float = 0.5,
    alpha: float = 0.01,
    epsilon: float = 0.1,
    corrupt: str | None = None,
) -> float:
    """Check the training step's directions on a random small model.

    Three scalars are differentiated, one per update rule, each against
    the directions `step_directions` hands the optimizer: the classifier
    head against the classification objective, the domain head against the
    domain objective, and the shared parameters against classification
    minus beta times domain. The directions come from one stacked forward,
    the losses from separate source and target forwards. Instances whose
    pre-activations sit within 10h of a ReLU kink are redrawn. `corrupt`
    names a tensor whose analytic gradient gets damaged (negative control).
    The kink test computes the pre-activations (S^K x) W from the trace's
    last hop, since the trace keeps only their rectification.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if size == "small":
        cfg = ModelConfig(n_channels=3, in_dim=2, hidden_dim=2, n_classes=2, steps=1)
        batch = 2
    elif size == "default":
        cfg = ModelConfig(n_channels=4, in_dim=3, hidden_dim=2, n_classes=3, steps=2)
        batch = 3
    else:
        raise ConfigError(f"unknown check size {size!r}")
    scheme = "seed3" if cfg.n_classes == 3 else cfg.n_classes

    for attempt_seed in range(seed, seed + 50):
        params, x_src, x_tgt, labels, mask = _random_check_instance(cfg, attempt_seed, batch)
        z = forward(cfg, params, x_src, target=x_tgt).hops[-1] @ params.w_feat
        if np.abs(z).min() >= 10.0 * h:
            break
    else:
        raise ConfigError("could not draw a kink-free instance")

    targets = convert_labels(labels, scheme, epsilon)

    def phi_class(p: ParamSet) -> float:
        tr = forward(cfg, p, x_src, mask=mask)
        return kl_loss(tr.probs, targets) + l1_penalty(p.adj, alpha)

    def phi_domain(p: ParamSet) -> float:
        s = forward(cfg, p, x_src, mask=mask)
        t = forward(cfg, p, x_tgt)
        return domain_loss(domain_forward(p, s, "node").probs, domain_forward(p, t, "node").probs)

    if corrupt is not None and corrupt not in params.tensors():
        raise ConfigError(f"cannot corrupt unknown tensor {corrupt!r}")

    def phi_shared(p: ParamSet) -> float:
        return phi_class(p) - beta * phi_domain(p)

    def directions(p: ParamSet) -> GradientSet:
        tr = forward(cfg, p, x_src, mask=mask, target=x_tgt)
        g = step_directions(cfg, p, tr, targets, alpha, domain_forward(p, tr, "node"), beta)
        if corrupt is not None:
            g.tensors()[corrupt] += 1e-2
        return g

    return max(
        grad_check(params, phi_class, directions, h=h, names=["w_class"]),
        grad_check(params, phi_domain, directions, h=h, names=["w_dom"]),
        grad_check(params, phi_shared, directions, h=h, names=["adj", "w_feat"]),
    )
