"""Each rewritten expression of the training step against the expression it
replaced, inlined here, byte for byte.

The step writes its directions in place into one vector, subtracts a cached
one-hot from the domain probabilities, takes the L1 subgradient as one
product with cached coefficients, starts the propagator gradient from its
first GEMM. Each must give the bytes of the out-of-place form: every
gradient a fresh array, copied into one vector by `GradientSet` keyword
construction. (Adam's plain divide at eps > 0 is checked against the masked
divide by `test_optim.py::test_vector_step_matches_per_tensor_loop_bitwise`.)
"""
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from eegraph.graph import SymmetricAdjacency, diagonal_positions, fold_full_gradient
from eegraph.gradients import _domain_head_backward, l1_subgradient, step_directions
from eegraph.losses import convert_labels
from eegraph.model import domain_forward, forward, init_params, sample_dropout_mask
from eegraph.params import GradientSet, ModelConfig, ParamSet


def l1_subgradient_masked(adj, alpha):
    sign = np.sign(adj.upper)
    g = 2.0 * alpha * sign
    diag = diagonal_positions(adj.n)
    g[..., diag] = alpha * sign[..., diag]
    return g


def domain_head_backward_strided(params, dom, n_source):
    lead = params.w_dom.shape[:-2]
    cut = n_source * (dom.probs.shape[-2] if dom.level == "node" else 1)
    g_dlogits = dom.probs.reshape(lead + (-1, 2)).copy()
    inputs = dom.inputs.reshape(lead + (-1, dom.inputs.shape[-1]))
    g_dlogits[..., :cut, 0] -= 1.0
    g_dlogits[..., cut:, 1] -= 1.0
    g_w_dom = (inputs[..., :cut, :].swapaxes(-1, -2) @ g_dlogits[..., :cut, :]
               + inputs[..., cut:, :].swapaxes(-1, -2) @ g_dlogits[..., cut:, :])
    g_dlogits = g_dlogits.reshape(dom.probs.shape)
    w_dom_t = params.w_dom.swapaxes(-1, -2)
    if dom.level == "node":
        return g_w_dom, g_dlogits @ w_dom_t[..., None, :, :]
    return g_w_dom, (g_dlogits @ w_dom_t)[..., None, :]


def step_directions_out_of_place(cfg, params, trace, targets, alpha, domain=None, beta=0.0):
    """The training step's directions with every gradient a fresh array."""
    g_logits = trace.probs - targets
    g_w_class = trace.pooled_drop.swapaxes(-1, -2) @ g_logits
    g_pooled = g_logits @ params.w_class.swapaxes(-1, -2)
    if trace.mask is not None:
        g_pooled = g_pooled * trace.mask * trace.keep_scale
    g_relu = g_pooled[..., None, :]
    g_w_dom = None
    if domain is not None:
        b = g_relu.shape[-3]
        g_w_dom, g_dom = domain_head_backward_strided(params, domain, b)
        if beta != 0.0:
            reversed_dom = -beta * g_dom
            reversed_dom[..., :b, :, :] += g_relu
            g_relu = reversed_dom
    rows = g_relu.shape[-3]
    g_z = (trace.relu_z[..., :rows, :, :] > 0.0) * g_relu

    prop, n = trace.prop, cfg.n_channels
    lead = g_z.shape[:-3]

    def band_rows(hop):
        return hop[..., :rows, :, :].swapaxes(-3, -2).reshape(lead + (n, -1))

    g_z = g_z.reshape(lead + (-1, cfg.hidden_dim))
    top = trace.hops[-1][..., :rows, :, :].reshape(lead + (-1, cfg.in_dim))
    g_w_feat = top.swapaxes(-1, -2) @ g_z
    g_h = band_rows((g_z @ params.w_feat.swapaxes(-1, -2)).reshape(lead + (rows, n, -1)))
    g_prop = np.zeros_like(prop)
    for hop in range(cfg.steps, 0, -1):
        g_prop += g_h @ band_rows(trace.hops[hop - 1]).swapaxes(-1, -2)
        if hop > 1:
            g_h = prop.swapaxes(-1, -2) @ g_h
    full, deg = trace.full, trace.deg
    inv_sqrt = 1.0 / np.sqrt(deg)
    gs = g_prop * prop
    g_deg = -(gs.sum(axis=-1) + gs.sum(axis=-2)) / (2.0 * deg)
    g_full = (g_prop * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
              + np.sign(full) * g_deg[..., :, None])
    g_adj = fold_full_gradient(g_full) + l1_subgradient_masked(params.adj, alpha)
    return GradientSet(adj=g_adj, w_feat=g_w_feat, w_class=g_w_class, w_dom=g_w_dom)


def random_step(rng, k, n, batch, steps, masked, scheme, classes):
    """Parameters (stacked when k is set), a training trace with target rows behind the
    source rows, and soft targets."""
    cfg = ModelConfig(n_channels=n, in_dim=3, hidden_dim=4, n_classes=classes, steps=steps,
                      dropout=0.5 if masked else 0.0)
    full = rng.uniform(0.2, 1.0, size=(n, n)) * rng.choice([-1.0, 1.0], size=(n, n))
    full = (full + full.T) / 2
    np.fill_diagonal(full, 1.0)
    first = init_params(cfg, None, int(rng.integers(1000)), domain_head=True,
                        adj=SymmetricAdjacency.from_full(full))
    lead = () if k is None else (k,)
    flat = np.tile(first.flat, lead + (1,)) + rng.normal(0.0, 0.05, size=lead + first.flat.shape)
    params = ParamSet.from_flat(flat, cfg, True)
    x = rng.normal(size=lead + (batch, n, cfg.in_dim))
    tx = rng.normal(size=lead + (batch, n, cfg.in_dim))
    mask = sample_dropout_mask(rng, lead + (batch, cfg.hidden_dim), 0.5) if masked else None
    targets = convert_labels(rng.integers(0, classes, size=lead + (batch,)).ravel(), scheme, 0.3)
    targets = targets.reshape(lead + (batch, classes))
    return cfg, params, forward(cfg, params, x, mask=mask, target=tx), targets


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**16), k=st.sampled_from([None, 1, 3]), n=st.sampled_from([2, 4, 9]),
       batch=st.integers(1, 4), steps=st.integers(1, 3), masked=st.booleans(),
       level=st.sampled_from([None, "node", "graph"]), beta=st.sampled_from([0.0, 0.4, 1.0]),
       alpha=st.sampled_from([0.0, 0.01]), scheme=st.sampled_from(["seed3", "seed4", 2]))
def test_in_place_directions_are_the_bytes_of_keyword_construction(
        seed, k, n, batch, steps, masked, level, beta, alpha, scheme):
    classes = {"seed3": 3, "seed4": 4}.get(scheme, scheme)
    cfg, params, trace, targets = random_step(np.random.default_rng(seed), k, n, batch, steps,
                                              masked, scheme, classes)
    domain = None if level is None else domain_forward(params, trace, level)
    got = step_directions(cfg, params, trace, targets, alpha, domain, beta)
    want = step_directions_out_of_place(cfg, params, trace, targets, alpha, domain, beta)
    # a set with a domain head stepped without a domain trace gets no w_dom direction
    assert list(got.tensors()) == list(want.tensors())
    assert got.flat.shape == want.flat.shape
    assert got.flat.tobytes() == want.flat.tobytes()
    for name, t in got.tensors().items():
        assert np.shares_memory(t, got.flat), name


@settings(derandomize=True, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**16), k=st.sampled_from([None, 1, 3]), rows=st.integers(1, 6),
       n=st.integers(1, 5), level=st.sampled_from(["node", "graph"]), data=st.data())
def test_one_hot_domain_gradient_is_the_bytes_of_the_strided_subtractions(
        seed, k, rows, n, level, data):
    # cut 0 makes every row a target row; cut == rows makes every row a source row
    n_source = data.draw(st.sampled_from(sorted({0, rows, rows // 2})))
    rng = np.random.default_rng(seed)
    lead = () if k is None else (k,)
    h = 4
    w_dom = rng.normal(size=lead + (h, 2))
    params = ParamSet.from_flat(np.concatenate(
        [rng.normal(size=lead + (n * (n + 1) // 2 + 3 * h + h * 2,)), w_dom.reshape(lead + (-1,))],
        axis=-1), ModelConfig(n_channels=n, in_dim=3, hidden_dim=h, n_classes=2), True)
    relu_z = np.maximum(rng.normal(size=lead + (rows, n, h)), 0.0)
    dom = domain_forward(params, SimpleNamespace(relu_z=relu_z, pooled=relu_z.sum(axis=-2)), level)
    want_w_dom, want_g = domain_head_backward_strided(params, dom, n_source)
    got_w_dom, got_g = _domain_head_backward(params, dom, n_source)
    assert got_w_dom.tobytes() == want_w_dom.tobytes()
    assert got_g.shape == want_g.shape and got_g.tobytes() == want_g.tobytes()
    # written into a view of a vector with the model axis leading, as the step does
    vector = np.full(lead + (2 * h + 1,), np.nan)
    out = vector[..., 1:].reshape(lead + (h, 2))
    assert _domain_head_backward(params, dom, n_source, out)[0] is out
    assert out.tobytes() == want_w_dom.tobytes()
    assert np.isnan(vector[..., 0]).all()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**16), k=st.sampled_from([None, 1, 3]), n=st.integers(1, 62),
       alpha=st.sampled_from([0.0, 1e-3, 0.01, 0.3, 1.0]), zeros=st.booleans())
def test_l1_coefficient_product_is_the_bytes_of_the_masked_rewrite(seed, k, n, alpha, zeros):
    rng = np.random.default_rng(seed)
    lead = () if k is None else (k,)
    upper = rng.normal(size=lead + (n * (n + 1) // 2,))
    if zeros:  # the kink, with both signs of zero
        upper[..., ::3] = 0.0
        upper[..., 1::5] = -0.0
    adj = SymmetricAdjacency(n, upper)
    assert l1_subgradient(adj, alpha).tobytes() == l1_subgradient_masked(adj, alpha).tobytes()

