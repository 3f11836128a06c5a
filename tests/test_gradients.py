"""Analytic backward passes against central differences."""
from dataclasses import replace
from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from eegraph.electrodes import ring_layout
from eegraph.errors import ConfigError
from eegraph.graph import (
    SymmetricAdjacency,
    diagonal_positions,
    fold_full_gradient,
    n_upper,
    normalized_propagator,
    propagate,
)
from eegraph.gradients import (
    _relu_gate,
    domain_backward,
    grad_check,
    l1_subgradient,
    model_grad_check,
    relative_error,
    step_directions,
)
from eegraph.losses import (
    composite_directions,
    convert_labels,
    domain_loss,
    kl_loss,
    l1_penalty,
    scheme_classes,
)
from eegraph.model import domain_forward, forward, init_params, sample_dropout_mask
from eegraph.params import GradientSet, ModelConfig, ParamSet

CFG = ModelConfig(n_channels=5, in_dim=3, hidden_dim=4, n_classes=3, steps=2)


def build(seed, domain_head=False):
    rng = np.random.default_rng(seed)
    n = CFG.n_channels
    # magnitudes well away from the |.| kink at zero
    full = rng.uniform(0.3, 1.0, size=(n, n)) * rng.choice([-1.0, 1.0], size=(n, n))
    full = (full + full.T) / 2
    np.fill_diagonal(full, 1.0)
    params = init_params(
        CFG, None, seed, domain_head=domain_head, adj=SymmetricAdjacency.from_full(full)
    )
    x = rng.normal(size=(3, n, CFG.in_dim))
    return params, x


def test_relative_error_scales():
    assert relative_error(1.0, 1.0) == 0.0
    assert relative_error(1.0, 1.0 + 1e-6) < 1e-6
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-12, 2e-12) == pytest.approx(1e-12 / 1e-8)


def test_grad_check_accepts_correct_quadratic():
    params, _ = build(0)

    def loss(p):
        return float((p.w_class**2).sum())

    def grads(p):
        from eegraph.params import GradientSet

        return GradientSet(
            adj=np.zeros_like(p.adj.upper),
            w_feat=np.zeros_like(p.w_feat),
            w_class=2.0 * p.w_class,
            w_dom=None,
        )

    assert grad_check(params, loss, grads, names=["w_class"]) < 1e-8


def test_grad_check_flags_wrong_gradient():
    params, _ = build(1)

    def loss(p):
        return float((p.w_class**2).sum())

    def grads(p):
        from eegraph.params import GradientSet

        return GradientSet(
            adj=np.zeros_like(p.adj.upper),
            w_feat=np.zeros_like(p.w_feat),
            w_class=2.0 * p.w_class + 0.01,
            w_dom=None,
        )

    assert grad_check(params, loss, grads, names=["w_class"]) > 1e-3


def test_grad_check_restores_parameters():
    params, _ = build(2)
    before = {k: v.copy() for k, v in params.tensors().items()}

    def loss(p):
        return float((p.w_feat**2).sum() + np.abs(p.adj.upper).sum())

    def grads(p):
        from eegraph.params import GradientSet

        return GradientSet(
            adj=np.sign(p.adj.upper),
            w_feat=2.0 * p.w_feat,
            w_class=np.zeros_like(p.w_class),
            w_dom=None,
        )

    grad_check(params, loss, grads, names=["adj", "w_feat"])
    after = params.tensors()
    for k, v in before.items():
        assert np.array_equal(v, after[k])


def test_class_backward_logit_rule():
    # d(sum KL)/d logits is probs - targets; check through w_class by hand
    params, x = build(3)
    tr = forward(CFG, params, x)
    targets = convert_labels(np.array([0, 1, 2]), "seed3", 0.1)
    g = step_directions(CFG, params, tr, targets, alpha=0.0)
    expect = tr.pooled_drop.T @ (tr.probs - targets)
    assert np.allclose(g.w_class, expect, atol=1e-14)
    assert g.w_dom is None


def test_class_backward_matches_finite_difference():
    params, x = build(4)
    targets = convert_labels(np.array([1, 2, 0]), "seed3", 0.2)
    alpha = 0.05

    def loss(p):
        tr = forward(CFG, p, x)
        return kl_loss(tr.probs, targets) + l1_penalty(p.adj, alpha)

    def grads(p):
        return step_directions(CFG, p, forward(CFG, p, x), targets, alpha)

    assert grad_check(params, loss, grads) < 1e-5


def test_class_backward_respects_dropout_mask():
    params, x = build(5)
    mask = sample_dropout_mask(np.random.default_rng(6), (3, CFG.hidden_dim), 0.5)
    cfg = replace(CFG, dropout=0.5)
    targets = convert_labels(np.array([0, 0, 1]), "seed3", 0.0)

    def loss(p):
        tr = forward(cfg, p, x, mask=mask)
        return kl_loss(tr.probs, targets)

    def grads(p):
        return step_directions(cfg, p, forward(cfg, p, x, mask=mask), targets, 0.0)

    assert grad_check(params, loss, grads) < 1e-5
    # a dropped unit's classifier column gets no gradient
    g = grads(params)
    dead = np.flatnonzero(mask.sum(axis=0) == 0)
    for u in dead:
        assert np.array_equal(g.w_class[u], np.zeros(CFG.n_classes))


def test_domain_backward_matches_finite_difference_node_level():
    params, xs = build(7, domain_head=True)
    xt = np.random.default_rng(8).normal(size=xs.shape)

    def run(p):
        ts = forward(CFG, p, xs)
        tt = forward(CFG, p, xt)
        return (ts, domain_forward(p, ts, "node")), (tt, domain_forward(p, tt, "node"))

    def loss(p):
        s, t = run(p)
        return domain_loss(s[1].probs, t[1].probs)

    def grads(p):
        s, t = run(p)
        return domain_backward(CFG, p, s, t)

    assert grad_check(params, loss, grads) < 1e-5


def test_domain_backward_matches_finite_difference_graph_level():
    params, xs = build(9, domain_head=True)
    xt = np.random.default_rng(10).normal(size=xs.shape)

    def run(p):
        ts = forward(CFG, p, xs)
        tt = forward(CFG, p, xt)
        return (ts, domain_forward(p, ts, "graph")), (tt, domain_forward(p, tt, "graph"))

    def loss(p):
        s, t = run(p)
        return domain_loss(s[1].probs, t[1].probs)

    def grads(p):
        s, t = run(p)
        return domain_backward(CFG, p, s, t)

    assert grad_check(params, loss, grads) < 1e-5


def test_domain_backward_leaves_classifier_alone():
    params, xs = build(11, domain_head=True)
    xt = np.random.default_rng(12).normal(size=xs.shape)
    ts, tt = forward(CFG, params, xs), forward(CFG, params, xt)
    g = domain_backward(
        CFG,
        params,
        (ts, domain_forward(params, ts, "node")),
        (tt, domain_forward(params, tt, "node")),
    )
    assert np.array_equal(g.w_class, np.zeros_like(params.w_class))
    assert g.w_dom is not None and np.abs(g.w_dom).sum() > 0


def assert_same_directions(got, ref, exact, rtol=1e-12):
    assert set(got.tensors()) == set(ref.tensors())
    for name, want in ref.tensors().items():
        if exact:
            assert np.array_equal(got.tensors()[name], want), name
        else:
            err = np.abs(got.tensors()[name] - want).max()
            assert err <= rtol * np.abs(want).max(), name


def domain_rows(dom, rows):
    """The domain-head trace of a slice of its rows."""
    return replace(dom, inputs=dom.inputs[rows], logits=dom.logits[rows], probs=dom.probs[rows])


@pytest.mark.parametrize("n", [4, 62])
@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("steps", [1, 2, 3])
@pytest.mark.parametrize("masked", [False, True])
def test_step_directions_match_composed_backwards(n, batch, steps, masked):
    # the fused backward against the two per-objective passes composed under
    # the reversal rule: equal to rounding, bit-equal where no domain
    # gradient reaches the shared parameters
    cfg = ModelConfig(n_channels=n, in_dim=5, hidden_dim=4, n_classes=3, steps=steps,
                      dropout=0.5)
    params = init_params(cfg, ring_layout(n), n + steps, domain_head=True)
    rng = np.random.default_rng(batch)
    xs = rng.normal(size=(batch, n, cfg.in_dim))
    xt = rng.normal(size=(batch, n, cfg.in_dim))
    mask = sample_dropout_mask(rng, (batch, cfg.hidden_dim), 0.5) if masked else None
    targets = convert_labels(rng.integers(0, 3, size=batch), "seed3", 0.2)
    alpha = 0.01
    src = forward(cfg, params, xs, mask=mask)
    tgt = forward(cfg, params, xt)
    stacked = forward(cfg, params, xs, mask=mask, target=xt)
    cls = step_directions(cfg, params, src, targets, alpha)  # the class objective alone
    assert_same_directions(cls, composite_directions(cls, None, 0.0), exact=True)
    for level in ("node", "graph"):
        domain = domain_forward(params, stacked, level)
        # the reference reads the stacked domain head's halves, so the
        # domain head's own gradient is bitwise at every level
        dom = domain_backward(cfg, params, (src, domain_rows(domain, slice(None, batch))),
                              (tgt, domain_rows(domain, slice(batch, None))))
        for beta in (0.0, 0.3, 1.0):
            got = step_directions(cfg, params, stacked, targets, alpha, domain, beta)
            ref = composite_directions(cls, dom, beta)
            assert_same_directions(got, ref, exact=beta == 0.0)


def project_first_reference(cfg, params, xs, mask, targets, alpha, xt=None, level="node",
                            beta=0.0):
    """Training directions through the project-first chain S^K (X W), written
    out plainly and independently of the fused core: every trace walks its
    own hidden-width hops, and the two objectives are composed at the end.
    """
    prop = normalized_propagator(params.adj)
    full = params.adj.full()

    def chain(x):
        hidden = [x @ params.w_feat]
        for _ in range(cfg.steps):
            hidden.append(np.matmul(prop, hidden[-1]))
        return hidden

    def shared(x, hidden, g_z):
        g_h = g_z
        g_prop = np.zeros_like(prop)
        for hop in range(cfg.steps, 0, -1):
            for b in range(len(x)):
                g_prop += g_h[b] @ hidden[hop - 1][b].T
            g_h = np.matmul(prop.T, g_h)
        g_w_feat = sum(x[b].T @ g_h[b] for b in range(len(x)))
        deg = np.abs(full).sum(axis=1)
        g_full = np.zeros_like(full)
        for i in range(cfg.n_channels):
            for j in range(cfg.n_channels):
                # S_ij = A_ij / sqrt(d_i d_j), d_i = sum_k |A_ik|
                g_full[i, j] += g_prop[i, j] / np.sqrt(deg[i] * deg[j])
                d_deg = -0.5 * g_prop[i, j] * prop[i, j]
                g_full[i, :] += np.sign(full[i, :]) * d_deg / deg[i]
                g_full[j, :] += np.sign(full[j, :]) * d_deg / deg[j]
        return fold_full_gradient(g_full), g_w_feat

    hs = chain(xs)
    z = hs[-1]
    relu_z = np.maximum(z, 0.0)
    keep = np.ones((len(xs), cfg.hidden_dim)) if mask is None else mask / (1.0 - cfg.dropout)
    pooled_drop = relu_z.sum(axis=1) * keep
    probs = np.exp(pooled_drop @ params.w_class)
    probs /= probs.sum(axis=1, keepdims=True)
    g_logits = probs - targets
    g_pooled = (g_logits @ params.w_class.T) * keep
    g_adj, g_w_feat = shared(xs, hs, (z > 0.0) * g_pooled[:, None, :])
    g_adj = g_adj + fold_full_gradient(alpha * np.sign(full))
    cls = GradientSet(adj=g_adj, w_feat=g_w_feat, w_class=pooled_drop.T @ g_logits, w_dom=None)
    if xt is None:
        return cls

    g_adj_dom = np.zeros_like(g_adj)
    g_w_feat_dom = np.zeros_like(g_w_feat)
    g_w_dom = np.zeros_like(params.w_dom)
    for x, domain_index in ((xs, 0), (xt, 1)):
        hidden = chain(x)
        z = hidden[-1]
        inputs = np.maximum(z, 0.0) if level == "node" else np.maximum(z, 0.0).sum(axis=1)
        logits = inputs @ params.w_dom
        g_dlogits = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        g_dlogits[..., domain_index] -= 1.0
        g_w_dom += inputs.reshape(-1, cfg.hidden_dim).T @ g_dlogits.reshape(-1, 2)
        g_inputs = g_dlogits @ params.w_dom.T
        if level == "graph":
            g_inputs = g_inputs[:, None, :]
        g_a, g_w = shared(x, hidden, (z > 0.0) * g_inputs)
        g_adj_dom += g_a
        g_w_feat_dom += g_w
    return GradientSet(
        adj=cls.adj - beta * g_adj_dom,
        w_feat=cls.w_feat - beta * g_w_feat_dom,
        w_class=cls.w_class,
        w_dom=g_w_dom,
    )


@pytest.mark.parametrize("n", [4, 62])
@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("steps", [1, 2, 3])
@pytest.mark.parametrize("masked", [False, True])
def test_step_directions_match_project_first_reference(n, batch, steps, masked):
    # the propagate-first core against the project-first chain, which shares
    # no code with it; equal to rounding for every objective combination
    cfg = ModelConfig(n_channels=n, in_dim=5, hidden_dim=4, n_classes=3, steps=steps,
                      dropout=0.5)
    params = init_params(cfg, ring_layout(n), 2 * n + steps, domain_head=True)
    rng = np.random.default_rng(batch + 100)
    xs = rng.normal(size=(batch, n, cfg.in_dim))
    xt = rng.normal(size=(batch, n, cfg.in_dim))
    mask = sample_dropout_mask(rng, (batch, cfg.hidden_dim), 0.5) if masked else None
    targets = convert_labels(rng.integers(0, 3, size=batch), "seed3", 0.2)
    alpha = 0.01
    src = forward(cfg, params, xs, mask=mask)
    stacked = forward(cfg, params, xs, mask=mask, target=xt)

    assert_same_directions(step_directions(cfg, params, src, targets, alpha),
                           project_first_reference(cfg, params, xs, mask, targets, alpha),
                           exact=False, rtol=1e-10)
    for level in ("node", "graph"):
        domain = domain_forward(params, stacked, level)
        for beta in (0.0, 0.3):
            got = step_directions(cfg, params, stacked, targets, alpha, domain, beta)
            ref = project_first_reference(cfg, params, xs, mask, targets, alpha, xt, level, beta)
            assert_same_directions(got, ref, exact=False, rtol=1e-10)


def test_forward_z_matches_project_first_chain():
    n, steps = 62, 3
    cfg = ModelConfig(n_channels=n, in_dim=5, hidden_dim=16, n_classes=3, steps=steps)
    params = init_params(cfg, ring_layout(n), 5)
    x = np.random.default_rng(6).normal(size=(8, n, cfg.in_dim))
    want = propagate(normalized_propagator(params.adj), x @ params.w_feat, steps)
    tr = forward(cfg, params, x)
    np.testing.assert_allclose(tr.hops[-1] @ params.w_feat, want, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(tr.relu_z, np.maximum(want, 0.0), rtol=0.0, atol=1e-12)


def test_step_directions_need_a_domain_head():
    params, x = build(14, domain_head=True)
    tr = forward(CFG, params, x, target=x)
    dom = domain_forward(params, tr)
    no_dom = ParamSet(params.adj, params.w_feat, params.w_class)  # the same set, no w_dom
    targets = convert_labels(np.array([0, 1, 2]), "seed3", 0.0)
    with pytest.raises(ConfigError):
        step_directions(CFG, no_dom, tr, targets, 0.0, dom, 0.5)


def test_l1_subgradient_values():
    full = np.array([[1.0, -0.4, 0.0], [-0.4, 1.0, 0.2], [0.0, 0.2, 1.0]])
    adj = SymmetricAdjacency.from_full(full)
    g = adj_grad = l1_subgradient(adj, 0.5)
    got = SymmetricAdjacency(3, adj_grad).full()
    # mirrored off-diagonal parameters collect both entries' signs
    assert got[0, 1] == -1.0
    assert got[1, 2] == 1.0
    assert got[0, 2] == 0.0
    assert got[0, 0] == 0.5
    assert g.shape == adj.upper.shape


def test_l1_subgradient_matches_finite_difference():
    params, _ = build(13)

    def loss(p):
        return l1_penalty(p.adj, 0.3)

    def grads(p):
        from eegraph.params import GradientSet

        return GradientSet(
            adj=l1_subgradient(p.adj, 0.3),
            w_feat=np.zeros_like(p.w_feat),
            w_class=np.zeros_like(p.w_class),
            w_dom=None,
        )

    assert grad_check(params, loss, grads, names=["adj"]) < 1e-8


@pytest.mark.parametrize("n", [4, 62])
def test_l1_terms_read_from_the_packed_triangle(n):
    # the packed forms agree with the full-matrix definitions: the
    # subgradient bit for bit, the penalty to rounding
    rng = np.random.default_rng(n)
    full = rng.normal(size=(n, n))
    full = full + full.T
    full[rng.random((n, n)) < 0.3] = 0.0
    full = np.triu(full) + np.triu(full, 1).T
    adj = SymmetricAdjacency.from_full(full)
    for alpha in (0.0, 0.01, 0.7):
        want = fold_full_gradient(alpha * np.sign(adj.full()))
        assert np.array_equal(l1_subgradient(adj, alpha), want)
        ref = alpha * np.abs(adj.full()).sum()
        assert abs(l1_penalty(adj, alpha) - ref) <= 1e-12 * ref


def test_model_check_default_instance():
    assert model_grad_check(seed=0) < 1e-4


def test_model_check_small_instance():
    assert model_grad_check(seed=0, size="small") < 1e-4


def test_model_check_seed_sweep():
    for seed in range(3):
        assert model_grad_check(seed=seed, size="small") < 1e-4


def test_model_check_negative_control():
    # a corrupted analytic tensor must blow past the threshold
    for tensor in ("adj", "w_feat", "w_class", "w_dom"):
        assert model_grad_check(seed=0, size="small", corrupt=tensor) > 1e-3


def test_model_check_rejects_unknown_corrupt_name():
    with pytest.raises(Exception):
        model_grad_check(seed=0, size="small", corrupt="w_nope")


@pytest.mark.parametrize("level", ["node", "graph"])
@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_stacked_step_directions_match_each_model_bitwise(level, beta):
    from eegraph.params import ParamSet

    models = [build(seed, domain_head=True)[0] for seed in range(3)]
    alone = [build(seed, domain_head=True)[0] for seed in range(3)]
    stacked = ParamSet.from_flat(np.stack([m.flat for m in models]), CFG, True)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 4, CFG.n_channels, CFG.in_dim))
    tx = rng.normal(size=(3, 4, CFG.n_channels, CFG.in_dim))
    mask = sample_dropout_mask(rng, (3, 4, CFG.hidden_dim), 0.5)
    targets = rng.dirichlet(np.ones(CFG.n_classes), size=(3, 4))
    cfg = replace(CFG, dropout=0.5)
    tr = forward(cfg, stacked, x, mask=mask, target=tx)
    got = step_directions(cfg, stacked, tr, targets, 0.01, domain_forward(stacked, tr, level), beta)
    for i, p in enumerate(alone):
        ref_tr = forward(cfg, p, x[i], mask=mask[i], target=tx[i])
        want = step_directions(cfg, p, ref_tr, targets[i], 0.01, domain_forward(p, ref_tr, level), beta)
        for name, g in want.tensors().items():
            assert np.array_equal(got.tensors()[name][i], g), name


def test_backward_reads_the_unpacked_adjacency_from_the_trace(monkeypatch):
    # the forward unpacks the packed triangle once; the backward reuses it
    import importlib

    graph = importlib.import_module("eegraph.graph")
    unpacks = []
    real = graph.unpack_upper

    def counted(*args):
        unpacks.append(1)
        return real(*args)

    monkeypatch.setattr(graph, "unpack_upper", counted)
    params, x = build(4, domain_head=True)
    rng = np.random.default_rng(4)
    tr = forward(CFG, params, x, target=rng.normal(size=x.shape))
    assert len(unpacks) == 1
    targets = convert_labels(np.array([0, 1, 2]), "seed3", 0.2)
    step_directions(CFG, params, tr, targets, 0.01, domain_forward(params, tr, "node"), 0.5)
    assert len(unpacks) == 1


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), models=st.sampled_from([(), (2,)]), rows=st.integers(1, 4),
       extra=st.integers(0, 2), n=st.integers(1, 3), pooled=st.booleans())
def test_relu_gate_is_bitwise_the_masked_product(data, models, rows, extra, n, pooled):
    # the trace may hold target rows past the gradient's; a pooled gradient
    # broadcasts over channels; dead units keep -0.0 and NaN exactly
    h = 3
    relu_z = data.draw(hnp.arrays(np.float64, models + (rows + extra, n, h),
                                  elements=st.sampled_from([0.0, 0.5, 2.0])))
    special = st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf])
    values = st.floats(-3, 3, allow_nan=False) | special
    g = data.draw(hnp.arrays(np.float64, models + (rows, 1 if pooled else n, h), elements=values))
    with np.errstate(invalid="ignore"):  # 0 * inf at a dead unit, as in training
        got = _relu_gate(SimpleNamespace(relu_z=relu_z), g)
        want = (relu_z[..., :rows, :, :] > 0.0) * g
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _kink_free_step(cfg, seed, batch, masked, h):
    """Parameters and a source/target batch whose pre-activations all sit more than
    10 h from the ReLU kink, with adjacency magnitudes in [0.3, 1] away from the
    |.| kinks (one weight in five negative, so long hop chains do not cancel out);
    the first of successive seeds that draws one."""
    for attempt in range(seed, seed + 50):
        rng = np.random.default_rng(attempt)
        upper = rng.uniform(0.3, 1.0, n_upper(cfg.n_channels)) * rng.choice(
            [-1.0, 1.0], n_upper(cfg.n_channels), p=[0.2, 0.8])
        upper[diagonal_positions(cfg.n_channels)] = 1.0
        params = init_params(cfg, None, attempt, domain_head=True,
                             adj=SymmetricAdjacency(cfg.n_channels, upper))
        x_src = rng.normal(size=(batch, cfg.n_channels, cfg.in_dim))
        x_tgt = rng.normal(size=(batch, cfg.n_channels, cfg.in_dim))
        mask = sample_dropout_mask(rng, (batch, cfg.hidden_dim), cfg.dropout) if masked else None
        labels = rng.integers(0, cfg.n_classes, size=batch)
        z = forward(cfg, params, x_src, target=x_tgt).hops[-1] @ params.w_feat
        if np.abs(z).min() > 10 * h:
            return params, x_src, x_tgt, mask, labels, rng
    raise AssertionError("no kink-free instance")


@settings(derandomize=True, deadline=None, max_examples=120)
@given(seed=st.integers(0, 2**16), n=st.sampled_from([2, 3, 5, 17, 62]), batch=st.integers(1, 3),
       steps=st.integers(1, 3), level=st.sampled_from(["node", "graph"]), masked=st.booleans(),
       epsilon=st.floats(0.0, 1.0), scheme=st.sampled_from(["seed3", "seed4", 2, 5]))
def test_step_directions_match_finite_differences_across_shapes(
        seed, n, batch, steps, level, masked, epsilon, scheme):
    # the directions of one training step against central differences of the
    # objective each update rule follows, at sampled coordinates of every tensor
    h, alpha, beta = 1e-6, 0.01, 0.5
    cfg = ModelConfig(n_channels=n, in_dim=3, hidden_dim=3, n_classes=scheme_classes(scheme),
                      steps=steps, dropout=0.5 if masked else 0.0)
    params, x_src, x_tgt, mask, labels, rng = _kink_free_step(cfg, seed, batch, masked, h)
    targets = convert_labels(labels, scheme, epsilon)
    trace = forward(cfg, params, x_src, mask=mask, target=x_tgt)
    directions = step_directions(cfg, params, trace, targets, alpha,
                                 domain_forward(params, trace, level), beta).tensors()

    def phi_class(p):
        return (kl_loss(forward(cfg, p, x_src, mask=mask).log_probs, targets, log=True)
                + l1_penalty(p.adj, alpha))

    def phi_domain(p):
        source = domain_forward(p, forward(cfg, p, x_src), level)
        target = domain_forward(p, forward(cfg, p, x_tgt), level)
        return domain_loss(source.log_probs, target.log_probs, log=True)

    objectives = {
        "w_class": phi_class,
        "w_dom": phi_domain,
        "adj": lambda p: phi_class(p) - beta * phi_domain(p),
        "w_feat": lambda p: phi_class(p) - beta * phi_domain(p),
    }
    for name, t in params.tensors().items():
        flat, analytic = t.reshape(-1), directions[name].reshape(-1)
        for i in rng.choice(flat.size, size=min(flat.size, 6), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = objectives[name](params)
            flat[i] = orig - h
            down = objectives[name](params)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            assert abs(analytic[i] - numeric) <= 1e-6 * (1.0 + abs(analytic[i])), (name, i)
