"""Row halves on two threads: the split path is bitwise the serial one.

Each test forces a path: `_usable_cpus` set to 2 splits every pass of at
least `SPLIT_ELEMENTS` elements, on any machine; set to 1, nothing splits.
"""
import multiprocessing
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from eegraph import halves
from eegraph.data import SynthConfig, split_loso, synthesize
from eegraph.electrodes import ring_layout
from eegraph.errors import DivergenceError
from eegraph.gradients import step_directions
from eegraph.losses import convert_labels
from eegraph.model import domain_forward, forward, init_params, predict_proba, sample_dropout_mask
from eegraph.params import ModelConfig, ParamSet
from eegraph.train import TrainConfig, train

WIDE = ModelConfig(n_channels=62, in_dim=5, hidden_dim=64, n_classes=3, steps=2, dropout=0.5)
SMALL = ModelConfig(n_channels=6, in_dim=4, hidden_dim=5, n_classes=3, steps=2, dropout=0.5)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(halves, "_usable_cpus", lambda: 2)


def _record(seen):
    def run(r):
        seen.append((r, threading.current_thread()))
    return run


def test_a_large_pass_runs_as_two_halves_on_one_worker(two_cpus):
    workers = set()
    for rows, mid in [(7, 4), (8, 4), (2, 1)]:
        seen = []
        halves.by_row_halves(rows, halves.SPLIT_ELEMENTS, _record(seen))
        (first, here), (second, worker) = sorted(seen, key=lambda call: call[0].start)
        assert (first, second) == (slice(0, mid), slice(mid, rows))
        assert here is threading.current_thread() and worker is not here
        workers.add(worker)
    assert len(workers) == 1 and workers.pop().name.startswith("eegraph-rows")
    assert sum(t.name.startswith("eegraph-rows") for t in threading.enumerate()) == 1


@pytest.mark.parametrize("rows, elements, cpus", [
    (8, halves.SPLIT_ELEMENTS - 1, 2),   # too small to pay for the hand-off
    (1, halves.SPLIT_ELEMENTS, 2),       # one row cannot be halved
    (0, halves.SPLIT_ELEMENTS, 2),
    (8, halves.SPLIT_ELEMENTS, 1),       # one usable CPU
])
def test_a_small_pass_or_one_cpu_stays_on_the_calling_thread(monkeypatch, rows, elements, cpus):
    monkeypatch.setattr(halves, "_usable_cpus", lambda: cpus)
    seen = []
    halves.by_row_halves(rows, elements, _record(seen))
    assert seen == [(slice(0, rows), threading.current_thread())]


def test_a_call_from_the_worker_runs_serially(two_cpus):
    # splitting there would wait on the worker from the worker itself
    seen = []

    def outer(r):
        if r.start:  # the worker's half
            halves.by_row_halves(8, halves.SPLIT_ELEMENTS, _record(seen))

    caller = threading.Thread(target=halves.by_row_halves, args=(2, halves.SPLIT_ELEMENTS, outer),
                              daemon=True)
    caller.start()
    caller.join(30)
    assert not caller.is_alive()
    [(rows, thread)] = seen
    assert rows == slice(0, 8) and thread.name.startswith("eegraph-rows")


def test_an_error_surfaces_after_both_halves_and_the_first_half_wins(two_cpus):
    finished = threading.Event()

    def run(r):
        if r.start == 0:
            raise ValueError("first half")
        time.sleep(0.2)
        finished.set()
        raise KeyError("second half")

    with pytest.raises(ValueError, match="first half"):
        halves.by_row_halves(4, halves.SPLIT_ELEMENTS, run)
    assert finished.is_set()


def test_an_error_of_the_worker_half_reaches_the_caller(two_cpus):
    def run(r):
        if r.start:
            raise KeyError("second half")

    with pytest.raises(KeyError, match="second half"):
        halves.by_row_halves(4, halves.SPLIT_ELEMENTS, run)


def test_the_worker_holds_nothing_of_a_finished_pass(two_cpus):
    # a pass's arrays are freed when its caller drops them, not at the next split
    arrays = np.zeros(4)
    freed = weakref.ref(arrays)

    def run(r, arrays=arrays):
        arrays[r] = 1.0

    halves.by_row_halves(4, halves.SPLIT_ELEMENTS, run)
    del run, arrays
    assert freed() is None


@pytest.mark.filterwarnings("error")
def test_the_worker_half_runs_under_the_callers_errstate(two_cpus):
    def run(r):
        if r.start:
            np.subtract(np.full(3, np.inf), np.inf)

    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            halves.by_row_halves(4, halves.SPLIT_ELEMENTS, run)
    with np.errstate(invalid="ignore"):
        halves.by_row_halves(4, halves.SPLIT_ELEMENTS, run)


def _instance(cfg, k, rows, target_rows, seed=0):
    """Parameters (stacked when k > 1), features, target, mask and soft targets."""
    models = [init_params(cfg, ring_layout(cfg.n_channels), seed + i, domain_head=True)
              for i in range(k)]
    params = ParamSet.stack(models) if k > 1 else models[0]
    lead = (k,) if k > 1 else ()
    rng = np.random.default_rng(seed)
    x = rng.normal(size=lead + (rows, cfg.n_channels, cfg.in_dim))
    tx = (rng.normal(size=lead + (target_rows, cfg.n_channels, cfg.in_dim))
          if target_rows else None)
    mask = sample_dropout_mask(rng, lead + (rows, cfg.hidden_dim), cfg.dropout)
    labels = rng.integers(0, cfg.n_classes, size=k * rows)
    targets = convert_labels(labels, "seed3", 0.2).reshape(lead + (rows, cfg.n_classes))
    return params, x, tx, mask, targets


def _step(cfg, case, domain, beta):
    params, x, tx, mask, targets = case
    trace = forward(cfg, params, x, mask=mask, target=tx)
    dom = domain_forward(params, trace, "node") if domain else None
    return trace, step_directions(cfg, params, trace, targets, 0.01, dom, beta)


TRACE_ARRAYS = ("full", "deg", "prop", "relu_z", "pooled", "mask", "pooled_drop",
                "logits", "probs", "log_probs")


@pytest.mark.parametrize("cfg, threshold", [(SMALL, 0), (WIDE, None)],
                         ids=["every_pass", "wide_as_measured"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("rows, target_rows, domain, beta", [
    (129, 0, False, 0.0),    # class only, odd rows
    (64, 64, True, 0.3),     # node-level domain with the reversal on
    (67, 33, True, 0.3),     # odd source and target rows
    (67, 66, True, 0.0),     # reversal off: target rows carry no gradient
])
def test_split_trace_and_directions_are_bitwise_serial(
    monkeypatch, cfg, threshold, k, rows, target_rows, domain, beta
):
    if threshold is not None:
        monkeypatch.setattr(halves, "SPLIT_ELEMENTS", threshold)
        monkeypatch.setattr(halves, "SPLIT_ROW_ELEMENTS", threshold)
    case = _instance(cfg, k, rows, target_rows)
    handoffs = []
    inbox = halves._inbox
    monkeypatch.setattr(halves, "_inbox", lambda: handoffs.append(1) or inbox())
    results, sent = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(halves, "_usable_cpus", lambda: cpus)
        results.append(_step(cfg, case, domain, beta))
        sent.append(len(handoffs))
    (serial, g_serial), (split, g_split) = results
    # serially nothing reaches the worker; split, the forward and the gate do
    assert sent[0] == 0 and sent[1] >= 2
    for name in TRACE_ARRAYS:
        a, b = getattr(serial, name), getattr(split, name)
        assert (a is None and b is None) or np.array_equal(a, b), name
    assert len(serial.hops) == len(split.hops)
    for a, b in zip(serial.hops, split.hops):
        assert np.array_equal(a, b)
    for name, tensor in g_serial.tensors().items():
        assert np.array_equal(tensor, g_split.tensors()[name]), name
    assert np.array_equal(g_serial.flat, g_split.flat)


def _handoffs(monkeypatch, call):
    """How many passes `call` hands to the worker."""
    sent = []
    inbox = halves._inbox
    monkeypatch.setattr(halves, "_inbox", lambda: sent.append(1) or inbox())
    call()
    monkeypatch.setattr(halves, "_inbox", inbox)
    return len(sent)


def test_the_benchmark_passes_split_as_measured(monkeypatch, two_cpus):
    # seed62_wide: the forward and the gate of its 128- and 96-row steps
    # split, and so does each 66-row prediction chunk, but not the 12-row
    # last chunk of 1,200 rows; at width 16 (seed62) nothing splits: not
    # the 32-row steps (16 source rows, 16 target rows), not the 264- and
    # 147-row chunks of 675 rows, not the 135-row held-out chunk
    narrow = ModelConfig(n_channels=62, in_dim=5, hidden_dim=16, n_classes=3, dropout=0.5)
    for cfg, rows, target_rows, want in [(WIDE, 128, 0, 2), (WIDE, 96, 0, 2),
                                         (narrow, 16, 16, 0)]:
        case = _instance(cfg, 1, rows, target_rows)
        assert _handoffs(monkeypatch, lambda: _step(cfg, case, target_rows > 0, 0.3)) == want
    rng = np.random.default_rng(0)
    for cfg, rows, want in [(WIDE, 1200, 18), (narrow, 675, 0), (narrow, 135, 0)]:
        params = init_params(cfg, ring_layout(62), 0)
        x = rng.normal(size=(rows, 62, 5)).astype(np.float32)
        assert _handoffs(monkeypatch, lambda: predict_proba(cfg, params, x)) == want


@pytest.mark.parametrize("rows", [0, 1, 66, 67, 133, 200])
def test_split_prediction_is_bitwise_serial(monkeypatch, rows):
    params, *_ = _instance(WIDE, 1, 1, 0)
    x = np.random.default_rng(rows).normal(size=(rows, 62, 5))
    monkeypatch.setattr(halves, "SPLIT_ELEMENTS", 0)  # every chunk splits
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(halves, "_usable_cpus", lambda: cpus)
        results.append(predict_proba(WIDE, params, x))
    assert np.array_equal(*results)


def test_concurrent_callers_share_the_worker_and_stay_bitwise(monkeypatch):
    # four calling threads and the worker on two CPUs, switching often
    params, x, *_ = _instance(WIDE, 1, 129, 0)
    monkeypatch.setattr(halves, "_usable_cpus", lambda: 1)
    want = forward(WIDE, params, x).probs
    monkeypatch.setattr(halves, "_usable_cpus", lambda: 2)
    results = [[] for _ in range(4)]

    def call(i):
        for _ in range(5):
            results[i].append(forward(WIDE, params, x).probs)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [len(r) for r in results] == [5] * 4
    assert all(np.array_equal(probs, want) for r in results for probs in r)
    assert sum(t.name.startswith("eegraph-rows") for t in threading.enumerate()) == 1


def _forward_in_child(conn, cfg, params, x):
    conn.send(forward(cfg, params, x).probs)
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform cannot fork")
def test_a_forked_child_makes_its_own_worker(two_cpus):
    params, x, *_ = _instance(WIDE, 1, 129, 0)
    want = forward(WIDE, params, x).probs   # starts the parent's worker
    assert any(t.name.startswith("eegraph-rows") for t in threading.enumerate())
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_forward_in_child, args=(send, WIDE, params, x))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the child's split forward did not finish"
        got = receive.recv()
    finally:
        child.join(60)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("node_dat", [False, True])
def test_a_non_finite_row_in_a_split_batch_raises_the_serial_error(monkeypatch, node_dat):
    cohort = synthesize(SynthConfig(subjects=2, trials_per_class=1, samples_per_trial=50,
                                    n_channels=62, n_bands=5, n_classes=3, seed=5))
    fold, held_out = split_loso(cohort)[0]
    fold.features[::7, 0, 0] = np.inf
    cfg = TrainConfig(epochs=1, batch_size=128, hidden_dim=64, dropout=0.5, node_dat=node_dat)
    messages = []
    for cpus in (1, 2):
        monkeypatch.setattr(halves, "_usable_cpus", lambda: cpus)
        with pytest.raises(DivergenceError) as exc:
            train(fold, held_out, cfg)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "epoch 0, batch 0" in messages[0]
