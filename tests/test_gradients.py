"""Analytic backward passes against central differences."""
import numpy as np
import pytest

from eegraph.electrodes import ring_layout
from eegraph.errors import ConfigError
from eegraph.graph import SymmetricAdjacency
from eegraph.gradients import (
    class_backward,
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
)
from eegraph.model import domain_forward, forward, init_params, sample_dropout_mask
from eegraph.params import ModelConfig

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
    g = class_backward(CFG, params, tr, targets, alpha=0.0)
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
        return class_backward(CFG, p, forward(CFG, p, x), targets, alpha)

    assert grad_check(params, loss, grads) < 1e-5


def test_class_backward_respects_dropout_mask():
    params, x = build(5)
    mask = sample_dropout_mask(np.random.default_rng(6), (3, CFG.hidden_dim), 0.5)
    cfg = CFG.with_(dropout=0.5)
    targets = convert_labels(np.array([0, 0, 1]), "seed3", 0.0)

    def loss(p):
        tr = forward(cfg, p, x, mask=mask)
        return kl_loss(tr.probs, targets)

    def grads(p):
        return class_backward(cfg, p, forward(cfg, p, x, mask=mask), targets, 0.0)

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


def assert_same_directions(got, ref, exact):
    assert set(got.tensors()) == set(ref.tensors())
    for name, want in ref.tensors().items():
        if exact:
            assert np.array_equal(got.tensors()[name], want), name
        else:
            err = np.abs(got.tensors()[name] - want).max()
            assert err <= 1e-12 * np.abs(want).max(), name


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
    cls = class_backward(cfg, params, src, targets, alpha)

    off = step_directions(cfg, params, src, targets, alpha)
    assert_same_directions(off, composite_directions(cls, None, 0.0), exact=True)
    for level in ("node", "graph"):
        sd, td = domain_forward(params, src, level), domain_forward(params, tgt, level)
        dom = domain_backward(cfg, params, (src, sd), (tgt, td))
        for beta in (0.0, 0.3, 1.0):
            got = step_directions(cfg, params, src, targets, alpha, (sd, tgt, td), beta)
            ref = composite_directions(cls, dom, beta)
            assert_same_directions(got, ref, exact=beta == 0.0)


def test_step_directions_need_a_domain_head():
    params, x = build(14)
    tr = forward(CFG, params, x)
    dom = (None, tr, None)
    targets = convert_labels(np.array([0, 1, 2]), "seed3", 0.0)
    with pytest.raises(ConfigError):
        step_directions(CFG, params, tr, targets, 0.0, dom, 0.5)


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
