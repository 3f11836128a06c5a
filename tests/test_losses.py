"""Soft label tables, the three loss terms, and gradient composition."""
import numpy as np
import pytest

from eegraph.errors import ConfigError
from eegraph.losses import (
    allowed_flips,
    chain_distribution,
    composite_directions,
    convert_labels,
    domain_loss,
    grl_beta,
    kl_loss,
    l1_penalty,
    label_distribution,
    scheme_classes,
    seed3_distribution,
    seed4_distribution,
)
from eegraph.graph import SymmetricAdjacency
from eegraph.model import _softmax_pair, softmax

EPS_GRID = [k / 10 for k in range(11)]


def log_softmax(a):
    # the log-probabilities the forward keeps on its traces
    return _softmax_pair(a)[1]


def test_scheme_classes():
    assert scheme_classes("seed3") == 3
    assert scheme_classes("seed4") == 4
    assert scheme_classes(5) == 5
    with pytest.raises(ConfigError):
        scheme_classes(1)
    with pytest.raises(ConfigError):
        scheme_classes("seed5")


def test_three_class_exact_values():
    # middle class leaks to both sides, edge classes to their one neighbor
    assert np.array_equal(seed3_distribution(0, 0.2), [13 / 15, 2 / 15, 0.0])
    assert np.array_equal(seed3_distribution(1, 0.2), [1 / 15, 13 / 15, 1 / 15])
    assert np.array_equal(seed3_distribution(2, 0.2), [0.0, 2 / 15, 13 / 15])


def test_four_class_exact_values():
    assert np.array_equal(seed4_distribution(0, 0.2), [17 / 20, 1 / 20, 1 / 20, 1 / 20])
    assert np.array_equal(seed4_distribution(1, 0.2), [1 / 15, 13 / 15, 1 / 15, 0.0])
    assert np.array_equal(seed4_distribution(2, 0.2), [1 / 20, 1 / 20, 17 / 20, 1 / 20])
    assert np.array_equal(seed4_distribution(3, 0.2), [1 / 15, 0.0, 1 / 15, 13 / 15])


def test_epsilon_zero_is_one_hot():
    for scheme, c in (("seed3", 3), ("seed4", 4), (6, 6)):
        for y in range(c):
            dist = label_distribution(y, scheme, 0.0)
            expect = np.zeros(c)
            expect[y] = 1.0
            assert np.array_equal(dist, expect)


def test_grid_sums_and_support():
    for scheme, c in (("seed3", 3), ("seed4", 4)):
        for eps in EPS_GRID:
            for y in range(c):
                dist = label_distribution(y, scheme, eps)
                assert abs(dist.sum() - 1.0) <= 1e-12
                assert dist.min() >= 0.0
                zero_at = set(np.flatnonzero(dist == 0.0))
                expect_zero = set(range(c)) - set(allowed_flips(scheme)[y]) - {y}
                if eps == 0.0:
                    assert zero_at == set(range(c)) - {y}
                else:
                    assert zero_at == expect_zero


def test_chain_matches_three_class_table():
    for eps in EPS_GRID:
        for y in range(3):
            assert np.array_equal(chain_distribution(y, 3, eps), seed3_distribution(y, eps))


def test_chain_five_classes():
    dist = chain_distribution(2, 5, 0.3)
    assert dist[2] == 1 - 2 * 0.3 / 3
    assert dist[1] == 2 * 0.3 / 3 / 2 and dist[3] == 2 * 0.3 / 3 / 2
    assert dist[0] == 0.0 and dist[4] == 0.0
    edge = chain_distribution(0, 5, 0.3)
    assert edge[0] == 1 - 2 * 0.3 / 3
    assert edge[1] == 2 * 0.3 / 3


def test_allowed_flips_are_the_neighbors():
    assert allowed_flips("seed3") == {0: [1], 1: [0, 2], 2: [1]}
    assert allowed_flips("seed4") == {0: [1, 2, 3], 1: [0, 2], 2: [0, 1, 3], 3: [0, 2]}
    assert allowed_flips(5)[2] == [1, 3]
    assert allowed_flips(5)[0] == [1]


def test_allowed_flips_match_support_at_half():
    for scheme, c in (("seed3", 3), ("seed4", 4), (5, 5)):
        flips = allowed_flips(scheme)
        for y in range(c):
            dist = label_distribution(y, scheme, 0.5)
            support = [int(i) for i in np.flatnonzero(dist) if i != y]
            assert support == flips[y]


def test_convert_labels_stacks_rows():
    out = convert_labels(np.array([0, 2, 1]), "seed3", 0.2)
    assert out.shape == (3, 3)
    assert np.array_equal(out[0], seed3_distribution(0, 0.2))
    assert np.array_equal(out[1], seed3_distribution(2, 0.2))
    with pytest.raises(ConfigError):
        convert_labels(np.array([0, 3]), "seed3", 0.2)


def test_kl_zero_when_equal():
    t = convert_labels(np.array([0, 1, 2]), "seed3", 0.2)
    assert kl_loss(t, t.copy()) == pytest.approx(0.0, abs=1e-15)


def test_kl_hand_value():
    t = np.array([[1.0, 0.0]])
    p = np.array([[0.5, 0.5]])
    assert kl_loss(p, t) == pytest.approx(np.log(2.0))


def test_kl_ignores_zero_target_slots():
    # the prediction may be tiny where the target is exactly zero
    t = np.array([[0.0, 1.0]])
    p = np.array([[1e-300, 1.0 - 1e-300]])
    assert np.isfinite(kl_loss(p, t))
    assert kl_loss(p, t) == pytest.approx(0.0, abs=1e-12)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = rng.dirichlet(np.ones(4), size=6)
        p = rng.dirichlet(np.ones(4), size=6)
        assert kl_loss(p, t) >= -1e-12


def test_kl_sums_over_batch():
    t = np.array([[1.0, 0.0], [1.0, 0.0]])
    p = np.array([[0.5, 0.5], [0.25, 0.75]])
    assert kl_loss(p, t) == pytest.approx(np.log(2.0) + np.log(4.0))


def test_kl_from_confident_logits_is_finite():
    # a logit gap of 800 underflows softmax to an exact 0, so the KL read
    # from probabilities is inf; from logsumexp log-probabilities it is
    # the finite value t2 * 805 plus the target's own entropy term
    logits = np.array([[800.0, 0.0, -5.0]])
    target = convert_labels(np.array([1]), "seed3", 0.4)
    with np.errstate(divide="ignore"):
        assert kl_loss(softmax(logits), target) == np.inf
    got = kl_loss(log_softmax(logits), target, log=True)
    t = target[0]
    want = t[0] * np.log(t[0]) + t[1] * (np.log(t[1]) + 800.0) + t[2] * (np.log(t[2]) + 805.0)
    assert np.isfinite(got) and got == pytest.approx(want, rel=1e-12)


def test_domain_loss_from_confident_logits_is_finite():
    logits = np.array([[900.0, 0.0]])
    with np.errstate(divide="ignore"):
        assert domain_loss(softmax(logits), softmax(logits)) == np.inf
    got = domain_loss(log_softmax(logits), log_softmax(logits), log=True)
    assert got == pytest.approx(900.0, rel=1e-12)


def test_log_losses_match_probability_losses():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 4))
    target = rng.dirichlet(np.ones(4), size=6)
    assert kl_loss(log_softmax(logits), target, log=True) == pytest.approx(
        kl_loss(softmax(logits), target), rel=1e-12)
    dom = rng.normal(size=(6, 5, 2))
    assert domain_loss(log_softmax(dom[:3]), log_softmax(dom[3:]), log=True) == pytest.approx(
        domain_loss(softmax(dom[:3]), softmax(dom[3:])), rel=1e-12)


def test_losses_keep_a_leading_model_axis():
    # one loss per model, each bitwise the loss of that model alone
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(3, 7, 4))
    target = rng.dirichlet(np.ones(4), size=(3, 7))
    dom = log_softmax(rng.normal(size=(3, 10, 6, 2)))
    upper = rng.normal(size=(3, 10))
    kl = kl_loss(log_softmax(logits), target, log=True)
    per_node = domain_loss(dom[:, :5], dom[:, 5:], log=True, per_model=True)
    pooled = domain_loss(dom[:, :5, 0], dom[:, 5:, 0], log=True, per_model=True)
    l1 = l1_penalty(SymmetricAdjacency(4, upper), 0.3)
    for i in range(3):
        assert kl[i] == kl_loss(log_softmax(logits[i]), target[i], log=True)
        assert per_node[i] == domain_loss(dom[i, :5], dom[i, 5:], log=True)
        assert pooled[i] == domain_loss(dom[i, :5, 0], dom[i, 5:, 0], log=True)
        assert l1[i] == l1_penalty(SymmetricAdjacency(4, upper[i]), 0.3)


def test_l1_counts_mirrored_entries_twice():
    adj = SymmetricAdjacency.from_full(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    # |1| + |-0.5| + |-0.5| + |1| = 3
    assert l1_penalty(adj, 0.01) == pytest.approx(0.03)
    assert l1_penalty(adj, 0.0) == 0.0


def test_l1_scales_linearly():
    rng = np.random.default_rng(1)
    full = rng.normal(size=(5, 5))
    adj = SymmetricAdjacency.from_full((full + full.T) / 2)
    assert l1_penalty(adj, 0.4) == pytest.approx(2 * l1_penalty(adj, 0.2))


def test_domain_loss_hand_value():
    s = np.array([[0.5, 0.5]])
    t = np.array([[0.5, 0.5]])
    assert domain_loss(s, t) == pytest.approx(2 * np.log(2.0))


def test_domain_loss_perfect_discriminator():
    s = np.array([[1.0 - 1e-12, 1e-12]])
    t = np.array([[1e-12, 1.0 - 1e-12]])
    assert domain_loss(s, t) == pytest.approx(0.0, abs=1e-9)


def test_domain_loss_uniform_node_level():
    # N graphs of n nodes, every node undecided: 2 N n ln 2 total
    n_graphs, n_nodes = 3, 62
    u = np.full((n_graphs, n_nodes, 2), 0.5)
    got = domain_loss(u, u.copy())
    assert got == pytest.approx(2 * n_graphs * n_nodes * np.log(2.0), abs=1e-9)


def test_domain_loss_shape_mismatch():
    with pytest.raises(ConfigError):
        domain_loss(np.full((3, 2), 0.5), np.full((4, 2), 0.5))


def test_grl_schedule_endpoints():
    assert grl_beta(0.0) == 0.0
    assert abs(grl_beta(1.0) - 0.99990920) < 1e-4
    assert grl_beta(0.5) == pytest.approx(2 / (1 + np.exp(-5.0)) - 1)


def test_grl_schedule_monotone():
    grid = np.linspace(0, 1, 101)
    vals = [grl_beta(p) for p in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v < 1.0 for v in vals)


def make_grad_pair(seed):
    rng = np.random.default_rng(seed)
    from eegraph.params import GradientSet

    cls = GradientSet(
        adj=rng.normal(size=6),
        w_feat=rng.normal(size=(3, 4)),
        w_class=rng.normal(size=(4, 2)),
        w_dom=None,
    )
    dom = GradientSet(
        adj=rng.normal(size=6),
        w_feat=rng.normal(size=(3, 4)),
        w_class=np.zeros((4, 2)),
        w_dom=rng.normal(size=(4, 2)),
    )
    return cls, dom


def test_composite_shared_tensors_subtract_scaled_domain():
    cls, dom = make_grad_pair(2)
    out = composite_directions(cls, dom, 0.5)
    assert np.array_equal(out.adj, cls.adj - 0.5 * dom.adj)
    assert np.array_equal(out.w_feat, cls.w_feat - 0.5 * dom.w_feat)
    assert np.array_equal(out.w_class, cls.w_class)
    # the head itself descends its own loss, never reversed
    assert np.array_equal(out.w_dom, dom.w_dom)


def test_composite_beta_zero_is_verbatim():
    cls, dom = make_grad_pair(3)
    cls.adj[0] = -0.0
    out = composite_directions(cls, dom, 0.0)
    assert np.array_equal(out.adj, cls.adj)
    # bitwise: -0.0 survives, which x - 0.0*g would flip
    assert np.signbit(out.adj[0])
    assert out.adj is not cls.adj


def test_composite_without_domain():
    cls, _ = make_grad_pair(4)
    out = composite_directions(cls, None, 0.7)
    assert np.array_equal(out.adj, cls.adj)
    assert out.w_dom is None


def test_composite_full_reversal_at_beta_one():
    # with no class signal the shared tensors get the exact negated domain grad
    from eegraph.params import GradientSet

    _, dom = make_grad_pair(5)
    zero_cls = GradientSet(
        adj=np.zeros_like(dom.adj),
        w_feat=np.zeros_like(dom.w_feat),
        w_class=np.zeros_like(dom.w_class),
        w_dom=None,
    )
    out = composite_directions(zero_cls, dom, 1.0)
    assert np.array_equal(out.adj, -dom.adj)
    assert np.array_equal(out.w_feat, -dom.w_feat)
