"""Forward pass, dropout, and the two domain head variants."""
import tracemalloc
from dataclasses import fields, replace

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from eegraph.electrodes import ring_layout
from eegraph.errors import ConfigError
from eegraph.graph import SymmetricAdjacency, normalized_propagator, propagate
from eegraph.model import (
    EVAL_CHUNK_ELEMENTS,
    _softmax_pair,
    domain_forward,
    forward,
    init_params,
    predict,
    predict_proba,
    relu,
    sample_dropout_mask,
)
from eegraph.params import ModelConfig, ParamSet

CFG = ModelConfig(n_channels=6, in_dim=4, hidden_dim=5, n_classes=3, steps=2)


def softmax(a):
    return _softmax_pair(a)[0]


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


def max_sum_softmax(a):
    """The softmax pair from numpy's own max and sum reductions."""
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    return e / total, shifted - np.log(total)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(a=hnp.arrays(
    np.float64,
    st.tuples(hnp.array_shapes(min_dims=1, max_dims=3, max_side=5), st.integers(2, 7)).map(
        lambda t: t[0] + (t[1],)),
    elements=st.floats(allow_nan=True, allow_infinity=True) | st.floats(-800.0, 800.0),
))
@example(a=np.array([[-0.0, 0.0, -1000.0]]))
@example(a=np.array([[[900.0, -900.0], [np.nan, 1.0]], [[np.inf, 1.0], [-np.inf, -np.inf]]]))
def test_softmax_pair_is_bitwise_the_max_sum_reductions(a):
    # widths 2-7 cover every class count in use and the domain head's 2;
    # the 1-3 leading axes stand for rows, channels and a model axis
    with np.errstate(all="ignore"):
        got, want = _softmax_pair(a), max_sum_softmax(a)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


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
    assert tr.relu_z.shape == (7, 6, 5)
    assert tr.pooled.shape == (7, 5)
    assert tr.logits.shape == (7, 3)
    assert tr.probs.shape == (7, 3)


def test_forward_promotes_single_sample():
    p = make_params()
    x = np.random.default_rng(2).normal(size=(6, 4))
    tr = forward(CFG, p, x)
    assert tr.relu_z.shape == (1, 6, 5)


def test_forward_rejects_wrong_channel_count():
    p = make_params()
    with pytest.raises(ConfigError):
        forward(CFG, p, np.zeros((2, 5, 4)))
    with pytest.raises(ConfigError):
        forward(CFG, p, np.zeros((2, 6, 3)))


@pytest.mark.parametrize("n", [4, 62])
@pytest.mark.parametrize("hidden", [8, 16, 64])
@pytest.mark.parametrize("batch", [1, 3, 5, 12, 13, 129])
def test_stacked_forward_matches_separate_forwards(n, hidden, batch):
    cfg = ModelConfig(n_channels=n, in_dim=5, hidden_dim=hidden, n_classes=3, steps=2,
                      dropout=0.5)
    p = make_params(seed=n + hidden, domain_head=True, cfg=cfg)
    rng = np.random.default_rng(batch)
    xs = rng.normal(size=(batch, n, cfg.in_dim))
    xt = rng.normal(size=(batch, n, cfg.in_dim))
    mask = sample_dropout_mask(rng, (batch, hidden), cfg.dropout)
    stacked = forward(cfg, p, xs, mask=mask, target=xt)
    src, tgt = forward(cfg, p, xs, mask=mask), forward(cfg, p, xt)
    for k, hop in enumerate(stacked.hops):
        assert np.array_equal(hop, np.concatenate([src.hops[k], tgt.hops[k]]))
    for name in ("relu_z", "pooled"):
        want = np.concatenate([getattr(src, name), getattr(tgt, name)])
        assert np.array_equal(getattr(stacked, name), want), name
    for name in ("pooled_drop", "logits", "probs"):
        assert np.array_equal(getattr(stacked, name), getattr(src, name)), name
    node = domain_forward(p, stacked, "node").probs
    assert np.array_equal(node, np.concatenate([domain_forward(p, src, "node").probs,
                                                domain_forward(p, tgt, "node").probs]))
    # the graph head is one 2-D (rows, hidden) @ (hidden, 2) GEMM, which BLAS
    # may sum in another order when the row count doubles
    graph = domain_forward(p, stacked, "graph").probs
    want = np.concatenate([domain_forward(p, src, "graph").probs,
                           domain_forward(p, tgt, "graph").probs])
    np.testing.assert_allclose(graph, want, rtol=1e-12, atol=0.0)


def test_stacked_forward_rejects_bad_target_and_mask():
    p = make_params()
    rng = np.random.default_rng(3)
    xs, xt = rng.normal(size=(2, 6, 4)), rng.normal(size=(2, 6, 4))
    for bad in (np.zeros((2, 5, 4)), np.zeros((2, 6, 3)), np.zeros(4)):
        with pytest.raises(ConfigError):
            forward(CFG, p, xs, target=bad)
    # the mask covers the rows of x only, never the target rows behind them
    with pytest.raises(ConfigError):
        forward(CFG, p, xs, mask=np.ones((4, 5)), target=xt)
    with pytest.raises(ConfigError):
        forward(CFG, p, xs, mask=np.ones((3, 5)))
    assert forward(CFG, p, xs, mask=np.ones((2, 5)), target=xt).relu_z.shape == (4, 6, 5)


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
    # the hops are stored at the band width; z is rectified in place, so
    # relu_z is the one hidden-width node tensor, whatever the hop count
    cfg = ModelConfig(n_channels=62, in_dim=5, hidden_dim=64, n_classes=3, steps=3)
    p = make_params(cfg=cfg)
    x = np.random.default_rng(7).normal(size=(8, 62, 5))
    tr = forward(cfg, p, x)
    assert len(tr.hops) == cfg.steps + 1
    for hop in tr.hops:
        assert hop.shape == (8, 62, 5)
    wide = [f.name for f in fields(tr) if np.shape(getattr(tr, f.name)) == (8, 62, 64)]
    assert wide == ["relu_z"]


def test_single_step_is_one_smoothing_application():
    cfg = replace(CFG, steps=1)
    p = make_params(cfg=cfg)
    x = np.random.default_rng(5).normal(size=(2, 6, 4))
    tr = forward(cfg, p, x)
    s = normalized_propagator(p.adj)
    assert np.allclose(tr.hops[-1] @ p.w_feat, np.einsum("ij,bjk->bik", s, x @ p.w_feat))


def test_pooling_sums_rectified_nodes():
    p = make_params(6)
    x = np.random.default_rng(6).normal(size=(4, 6, 4))
    tr = forward(CFG, p, x)
    assert np.array_equal(tr.relu_z, np.maximum(tr.hops[-1] @ p.w_feat, 0.0))
    assert np.allclose(tr.pooled, tr.relu_z.sum(axis=1))


def with_workload_pool_shapes(test):
    """Pin the (model axis, rows, channels, hidden) shapes of the three benchmark
    workloads' training steps, stacked target rows included, and of their
    prediction chunks."""
    for lead, rows, n, hidden in [(8, 24, 4, 8), (1, 32, 62, 16), (1, 128, 62, 64),
                                  (None, 8192, 4, 8), (None, 264, 62, 16), (None, 66, 62, 64)]:
        test = example(lead=lead, rows=rows, n=n, hidden=hidden, seed=rows)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=30)
@given(lead=st.sampled_from([None, 1, 3]), rows=st.integers(0, 40),
       n=st.integers(2, 62), hidden=st.integers(1, 70), seed=st.integers(0, 2**16))
@with_workload_pool_shapes
def test_pooling_is_bitwise_the_channel_sum(lead, rows, n, hidden, seed):
    cfg = ModelConfig(n_channels=n, in_dim=5, hidden_dim=hidden, n_classes=3, steps=2)
    models = [make_params(seed=seed + k, cfg=cfg) for k in range(lead or 1)]
    p = models[0] if lead is None else ParamSet.stack(models)
    shape = (rows, n, cfg.in_dim) if lead is None else (lead, rows, n, cfg.in_dim)
    tr = forward(cfg, p, np.random.default_rng(seed).normal(scale=2.0, size=shape))
    want = tr.relu_z.sum(axis=-2)
    if hidden > 1:
        assert tr.pooled.tobytes() == want.tobytes()
    else:
        # one hidden unit leaves the channel axis contiguous, where numpy's
        # reduction and einsum each unroll their sums, in different orders
        np.testing.assert_allclose(tr.pooled, want, rtol=1e-14, atol=0.0)


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
    adj = SymmetricAdjacency.from_full(np.eye(1))
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


# the seed62_wide shape (66 rows per prediction chunk) and the gate shape (8192)
CHUNK_SHAPES = {
    "n62_h64": ModelConfig(n_channels=62, in_dim=5, hidden_dim=64, n_classes=3, steps=2),
    "gate": ModelConfig(n_channels=4, in_dim=5, hidden_dim=8, n_classes=4, steps=2),
}


def rows_per_chunk(cfg):
    return max(1, EVAL_CHUNK_ELEMENTS // (cfg.n_channels * cfg.hidden_dim))


def with_boundary_examples(test):
    """Pin the row counts 0, 1, rows - 1, rows, rows + 1 and 2 rows + 1 on both shapes."""
    for shape in CHUNK_SHAPES:
        for chunks, extra in [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]:
            for f32 in (False, True):
                test = example(shape=shape, chunks=chunks, extra=extra, f32=f32)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    shape=st.sampled_from(sorted(CHUNK_SHAPES)),
    chunks=st.integers(0, 2),
    extra=st.integers(-1, 1),
    f32=st.booleans(),
)
@with_boundary_examples
def test_chunked_predict_matches_one_forward(shape, chunks, extra, f32):
    cfg = CHUNK_SHAPES[shape]
    count = max(0, chunks * rows_per_chunk(cfg) + extra)
    p = make_params(seed=3, cfg=cfg)
    x = np.random.default_rng(count).normal(scale=3.0, size=(count, cfg.n_channels, cfg.in_dim))
    if f32:
        x = x.astype(np.float32)
    ref = forward(cfg, p, x).probs
    probs = predict_proba(cfg, p, x)
    # Every hidden-width array is bitwise per row, but BLAS may sum the
    # (rows, hidden) @ (hidden, classes) head in another order when the
    # row count changes, so the probabilities agree to rounding only.
    assert probs.shape == ref.shape
    np.testing.assert_allclose(probs, ref, rtol=0.0, atol=1e-12)
    labels = predict(cfg, p, x)
    assert np.array_equal(labels, probs.argmax(axis=1))
    assert np.array_equal(labels, ref.argmax(axis=1))


@pytest.mark.parametrize("shape", sorted(CHUNK_SHAPES))
def test_chunked_predict_single_sample(shape):
    cfg = CHUNK_SHAPES[shape]
    p = make_params(seed=3, cfg=cfg)
    x = np.random.default_rng(8).normal(size=(cfg.n_channels, cfg.in_dim)).astype(np.float32)
    probs = predict_proba(cfg, p, x)
    assert np.array_equal(probs, forward(cfg, p, x[None]).probs)
    assert np.array_equal(predict(cfg, p, x), probs.argmax(axis=1))


@pytest.mark.parametrize("f32", [False, True], ids=["f64", "f32"])
@pytest.mark.parametrize("shape", sorted(CHUNK_SHAPES))
def test_predict_over_rows_is_bitwise_the_gathered_stack(shape, f32):
    # rows across two chunk boundaries, out of order and repeated
    cfg = CHUNK_SHAPES[shape]
    p = make_params(seed=3, cfg=cfg)
    rng = np.random.default_rng(4)
    count = 2 * rows_per_chunk(cfg) + 5
    x = rng.normal(scale=3.0, size=(count + 7, cfg.n_channels, cfg.in_dim))
    if f32:
        x = x.astype(np.float32)
    rows = rng.choice(count + 7, size=count)
    assert np.array_equal(predict_proba(cfg, p, x, rows=rows), predict_proba(cfg, p, x[rows]))
    assert np.array_equal(predict(cfg, p, x, rows=rows), predict(cfg, p, x[rows]))
    assert predict_proba(cfg, p, x, rows=rows[:0]).shape == (0, cfg.n_classes)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(chunk_rows=st.integers(1, rows_per_chunk(CHUNK_SHAPES["n62_h64"])),
       count=st.integers(0, 150), seed=st.integers(0, 2**16))
@example(chunk_rows=1, count=3, seed=0)
@example(chunk_rows=51, count=67, seed=1)   # the smallest 62x64 chunk that splits
@example(chunk_rows=66, count=133, seed=2)  # the default chunk
def test_chunked_predict_over_rows_sweeps_chunk_sizes(chunk_rows, count, seed):
    from eegraph import halves, model

    cfg = CHUNK_SHAPES["n62_h64"]
    p = make_params(seed=3, cfg=cfg)
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=3.0, size=(count + 5, cfg.n_channels, cfg.in_dim)).astype(np.float32)
    rows = rng.choice(count + 5, size=count)  # out of order, with repeats
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "EVAL_CHUNK_ELEMENTS", chunk_rows * cfg.n_channels * cfg.hidden_dim)
        mp.setattr(halves, "_usable_cpus", lambda: 2)  # chunks of 51+ rows split
        probs = predict_proba(cfg, p, x, rows=rows)
        assert np.array_equal(probs, predict_proba(cfg, p, x[rows]))
    whole = forward(cfg, p, x[rows]).probs
    np.testing.assert_allclose(probs, whole, rtol=1e-12, atol=0.0)


def test_predict_memory_is_bounded_by_the_chunk():
    # one forward over all 2400 rows would hold two 76 MB hidden-width arrays
    cfg = CHUNK_SHAPES["n62_h64"]
    p = make_params(cfg=cfg)
    x = np.random.default_rng(0).normal(size=(2400, cfg.n_channels, cfg.in_dim))
    tracemalloc.start()
    try:
        predict(cfg, p, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _count_calls(monkeypatch, module_name, name):
    import importlib

    module = importlib.import_module(module_name)
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_predict_normalizes_the_adjacency_once(monkeypatch):
    # 2400 rows at 62 channels and h64 run as 37 chunks of 66 rows
    cfg = CHUNK_SHAPES["n62_h64"]
    p = make_params(cfg=cfg)
    x = np.random.default_rng(0).normal(size=(2400, cfg.n_channels, cfg.in_dim))
    want = np.concatenate([forward(cfg, p, x[i : i + 66]).probs for i in range(0, 2400, 66)])
    props = _count_calls(monkeypatch, "eegraph.model", "normalized_propagator")
    unpacks = _count_calls(monkeypatch, "eegraph.graph", "unpack_upper")
    got = predict_proba(cfg, p, x)
    assert rows_per_chunk(cfg) == 66
    assert len(props) == 1 and len(unpacks) == 1
    assert np.array_equal(got, want)


def test_evaluation_trace_cannot_be_differentiated():
    p = make_params()
    x = np.random.default_rng(0).normal(size=(3, CFG.n_channels, CFG.in_dim))
    tr = forward(CFG, p, x, prop=normalized_propagator(p.adj))
    assert tr.full is None and tr.deg is None
    assert np.array_equal(tr.probs, forward(CFG, p, x).probs)


def test_stacked_parameters_forward_each_model_bitwise():
    # a leading model axis runs every model on its own rows, each bitwise
    # the forward of that model alone
    from eegraph.params import ParamSet

    models = [make_params(seed=s, domain_head=True) for s in range(3)]
    alone = [make_params(seed=s, domain_head=True) for s in range(3)]
    stacked = ParamSet.stack(models)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 7, CFG.n_channels, CFG.in_dim))
    tx = rng.normal(size=(3, 7, CFG.n_channels, CFG.in_dim))
    mask = sample_dropout_mask(rng, (3, 7, CFG.hidden_dim), 0.5)
    tr = forward(CFG, stacked, x, mask=mask, target=tx)
    for level in ("node", "graph"):
        dom = domain_forward(stacked, tr, level)
        for i, p in enumerate(alone):
            ref = forward(CFG, p, x[i], mask=mask[i], target=tx[i])
            for name in ("full", "deg", "prop", "relu_z", "pooled", "logits", "probs", "log_probs"):
                assert np.array_equal(getattr(tr, name)[i], getattr(ref, name)), name
            ref_dom = domain_forward(p, ref, level)
            assert np.array_equal(dom.probs[i], ref_dom.probs)
            assert np.array_equal(dom.log_probs[i], ref_dom.log_probs)
    # the stacked rows are the models' own vectors
    models[1].flat[0] += 1.0
    assert stacked.adj.upper[1, 0] == models[1].adj.upper[0]
    with pytest.raises(ConfigError):
        forward(CFG, stacked, x[0])
