"""Forward pass, dropout, and the two domain head variants."""
from dataclasses import fields, replace

import numpy as np
import pytest

from eegraph.electrodes import ring_layout
from eegraph.errors import ConfigError
from eegraph.graph import SymmetricAdjacency, normalized_propagator, propagate
from eegraph.model import (
    domain_forward,
    forward,
    init_params,
    predict,
    predict_proba,
    relu,
    sample_dropout_mask,
    softmax,
)
from eegraph.params import ModelConfig

CFG = ModelConfig(n_channels=6, in_dim=4, hidden_dim=5, n_classes=3, steps=2)


def make_params(seed=0, domain_head=False, cfg=CFG):
    return init_params(cfg, ring_layout(cfg.n_channels), seed, domain_head=domain_head)


def test_relu_kills_negatives_keeps_zero():
    x = np.array([-2.0, -0.0, 0.0, 3.5])
    out = relu(x)
    assert np.array_equal(out, [0.0, 0.0, 0.0, 3.5])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        logits = rng.normal(scale=50, size=(4, 3))
        p = softmax(logits)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert p.min() >= 0


def test_softmax_shift_invariance():
    logits = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(softmax(logits), softmax(logits + 1000.0))


def test_softmax_extreme_logits_stay_finite():
    p = softmax(np.array([[900.0, -900.0, 0.0]]))
    assert np.isfinite(p).all()
    assert p[0, 0] == pytest.approx(1.0)


def test_init_shapes():
    p = make_params(domain_head=True)
    assert p.adj.n == 6
    assert p.w_feat.shape == (4, 5)
    assert p.w_class.shape == (5, 3)
    assert p.w_dom.shape == (5, 2)


def test_init_without_domain_head():
    p = make_params(domain_head=False)
    assert p.w_dom is None


def test_init_seed_determinism():
    a, b = make_params(7, True), make_params(7, True)
    assert np.array_equal(a.w_feat, b.w_feat)
    assert np.array_equal(a.w_class, b.w_class)
    assert np.array_equal(a.w_dom, b.w_dom)
    c = make_params(8, True)
    assert not np.array_equal(a.w_feat, c.w_feat)


def test_init_within_uniform_limits():
    p = make_params(3)
    lim_feat = np.sqrt(6.0 / (4 + 5))
    assert np.abs(p.w_feat).max() <= lim_feat
    lim_cls = np.sqrt(6.0 / (5 + 3))
    assert np.abs(p.w_class).max() <= lim_cls


def test_forward_trace_shapes():
    p = make_params()
    x = np.random.default_rng(1).normal(size=(7, 6, 4))
    tr = forward(CFG, p, x)
    assert tr.prop.shape == (6, 6)
    assert len(tr.hops) == CFG.steps + 1
    assert tr.z.shape == (7, 6, 5)
    assert tr.pooled.shape == (7, 5)
    assert tr.logits.shape == (7, 3)
    assert tr.probs.shape == (7, 3)


def test_forward_promotes_single_sample():
    p = make_params()
    x = np.random.default_rng(2).normal(size=(6, 4))
    tr = forward(CFG, p, x)
    assert tr.z.shape == (1, 6, 5)


def test_forward_rejects_wrong_channel_count():
    p = make_params()
    with pytest.raises(ConfigError):
        forward(CFG, p, np.zeros((2, 5, 4)))
    with pytest.raises(ConfigError):
        forward(CFG, p, np.zeros((2, 6, 3)))


def test_hidden_chain_matches_propagate():
    # hop k of the trace is S^k X W computed independently
    p = make_params(4)
    x = np.random.default_rng(4).normal(size=(3, 6, 4))
    tr = forward(CFG, p, x)
    h0 = x @ p.w_feat
    assert np.array_equal(tr.hops[0] @ p.w_feat, h0)
    s = normalized_propagator(p.adj)
    for k in range(1, CFG.steps + 1):
        assert np.allclose(tr.hops[k] @ p.w_feat, propagate(s, h0, k), atol=1e-12)


def test_trace_keeps_no_hidden_width_hop():
    # the hops are stored at the band width; only z and its rectification
    # are hidden-width node tensors, whatever the hop count
    cfg = ModelConfig(n_channels=62, in_dim=5, hidden_dim=64, n_classes=3, steps=3)
    p = make_params(cfg=cfg)
    x = np.random.default_rng(7).normal(size=(8, 62, 5))
    tr = forward(cfg, p, x)
    assert len(tr.hops) == cfg.steps + 1
    for hop in tr.hops:
        assert hop.shape == (8, 62, 5)
    wide = [f.name for f in fields(tr) if np.shape(getattr(tr, f.name)) == (8, 62, 64)]
    assert sorted(wide) == ["relu_z", "z"]


def test_single_step_is_one_smoothing_application():
    cfg = replace(CFG, steps=1)
    p = make_params(cfg=cfg)
    x = np.random.default_rng(5).normal(size=(2, 6, 4))
    tr = forward(cfg, p, x)
    s = normalized_propagator(p.adj)
    assert np.allclose(tr.z, np.einsum("ij,bjk->bik", s, x @ p.w_feat))


def test_pooling_sums_rectified_nodes():
    p = make_params(6)
    x = np.random.default_rng(6).normal(size=(4, 6, 4))
    tr = forward(CFG, p, x)
    assert np.array_equal(tr.relu_z, np.maximum(tr.z, 0.0))
    assert np.allclose(tr.pooled, tr.relu_z.sum(axis=1))


def test_eval_forward_has_no_dropout():
    p = make_params()
    x = np.random.default_rng(7).normal(size=(3, 6, 4))
    tr = forward(CFG, p, x)
    assert tr.mask is None
    assert tr.keep_scale == 1.0
    assert np.array_equal(tr.pooled_drop, tr.pooled)


def test_dropout_mask_zeroes_and_rescales():
    p = make_params()
    x = np.random.default_rng(8).normal(size=(5, 6, 4))
    rng = np.random.default_rng(9)
    mask = sample_dropout_mask(rng, (5, 5), CFG.dropout)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    tr = forward(CFG, p, x, mask=mask)
    expect = tr.pooled * mask * (1.0 / (1.0 - CFG.dropout))
    assert np.array_equal(tr.pooled_drop, expect)
    # dropped units contribute nothing to the logits
    assert np.array_equal(tr.logits, tr.pooled_drop @ p.w_class)


def test_dropout_mask_rate_statistics():
    rng = np.random.default_rng(10)
    mask = sample_dropout_mask(rng, (2000, 50), 0.7)
    assert mask.mean() == pytest.approx(0.3, abs=0.01)


def test_dropout_rate_zero_keeps_everything():
    rng = np.random.default_rng(11)
    mask = sample_dropout_mask(rng, (100, 8), 0.0)
    assert np.array_equal(mask, np.ones((100, 8)))


def test_dropout_is_unbiased_on_average():
    # inverted scaling keeps the expected pooled value unchanged
    cfg = replace(CFG, dropout=0.5)
    p = make_params(cfg=cfg)
    x = np.random.default_rng(12).normal(size=(1, 6, 4))
    rng = np.random.default_rng(13)
    acc = np.zeros(cfg.hidden_dim)
    n = 4000
    for _ in range(n):
        mask = sample_dropout_mask(rng, (1, cfg.hidden_dim), cfg.dropout)
        acc += forward(cfg, p, x, mask=mask).pooled_drop[0]
    clean = forward(cfg, p, x).pooled[0]
    assert np.allclose(acc / n, clean, atol=0.05 * np.abs(clean).max() + 0.02)


def test_node_domain_head_shapes_and_rows():
    p = make_params(domain_head=True)
    x = np.random.default_rng(14).normal(size=(3, 6, 4))
    tr = forward(CFG, p, x)
    dom = domain_forward(p, tr, level="node")
    assert dom.level == "node"
    assert dom.probs.shape == (3, 6, 2)
    assert np.allclose(dom.probs.sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(dom.logits, tr.relu_z @ p.w_dom)


def test_graph_domain_head_uses_clean_pooled():
    p = make_params(domain_head=True)
    x = np.random.default_rng(15).normal(size=(3, 6, 4))
    mask = sample_dropout_mask(np.random.default_rng(16), (3, 5), CFG.dropout)
    tr = forward(CFG, p, x, mask=mask)
    dom = domain_forward(p, tr, level="graph")
    assert dom.probs.shape == (3, 2)
    # reads the pooled vector before dropout, so the mask is irrelevant here
    assert np.allclose(dom.logits, tr.pooled @ p.w_dom)


def test_single_channel_graph_equals_node():
    cfg = ModelConfig(n_channels=1, in_dim=3, hidden_dim=4, n_classes=2, steps=1)
    adj = SymmetricAdjacency.identity(1)
    p = init_params(cfg, None, 21, domain_head=True, adj=adj)
    x = np.random.default_rng(22).normal(size=(5, 1, 3))
    tr = forward(cfg, p, x)
    node = domain_forward(p, tr, level="node")
    graph = domain_forward(p, tr, level="graph")
    assert np.array_equal(node.probs[:, 0, :], graph.probs)


def test_domain_head_missing_raises():
    p = make_params(domain_head=False)
    x = np.zeros((1, 6, 4))
    tr = forward(CFG, p, x)
    with pytest.raises(ConfigError):
        domain_forward(p, tr, level="node")


def test_predict_and_ties():
    p = make_params()
    x = np.random.default_rng(17).normal(size=(9, 6, 4))
    probs = predict_proba(CFG, p, x)
    assert np.array_equal(predict(CFG, p, x), probs.argmax(axis=-1))
    # all-zero weights tie every class; argmax picks the first
    zero = make_params()
    zero.w_class[:] = 0.0
    assert np.array_equal(predict(CFG, zero, x), np.zeros(9, dtype=np.int64))


def test_forward_determinism():
    p = make_params()
    x = np.random.default_rng(18).normal(size=(3, 6, 4))
    a = forward(CFG, p, x)
    b = forward(CFG, p, x)
    assert np.array_equal(a.probs, b.probs)
