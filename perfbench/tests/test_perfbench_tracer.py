"""The tracer's span arithmetic and its tolerance of missing names."""
import json

import numpy as np

import run
import tracer
from tracer import Tracer, layer_metrics, self_times


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    t = Tracer(wraps=[("m", "outer", "outer"), ("m", "inner", "inner")], clock=clock)

    def inner():
        clock.now += 3

    traced_inner = t.wrap(inner, "inner")

    def outer():
        clock.now += 5
        traced_inner()
        clock.now += 2
        traced_inner()

    t.wrap(outer, "outer")()
    summary = t.summary()
    assert summary["outer"] == {"calls": 1, "total_ns": 13.0, "self_ns": 7.0}
    assert summary["inner"] == {"calls": 2, "total_ns": 6.0, "self_ns": 6.0}
    spans = t.spans()
    assert spans["id"].tolist() == [0, 1, 2]
    assert spans["parent"].tolist() == [tracer.NO_PARENT, 0, 0]
    assert self_times(spans).tolist() == [7, 3, 3]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = Tracer(wraps=[("m", "f", "f")], clock=clock)

    def boom():
        clock.now += 4
        raise ValueError("x")

    try:
        t.wrap(boom, "f")()
    except ValueError:
        pass
    assert t.summary()["f"] == {"calls": 1, "total_ns": 4.0, "self_ns": 4.0}
    assert t._stack == [tracer.NO_PARENT]


def test_missing_names_are_reported_absent_not_fatal():
    import eegraph.losses as losses

    original = losses.kl_loss
    wraps = [
        ("eegraph.losses", "no_such_function", "losses.no_such_function"),
        ("eegraph.no_such_module", "f", "nowhere.f"),
        ("eegraph.losses", "kl_loss", "losses.kl_loss"),
    ]
    with Tracer(wraps=wraps) as t:
        assert losses.kl_loss is not original
        losses.kl_loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
    assert losses.kl_loss is original
    assert t.absent == ["eegraph.losses.no_such_function", "eegraph.no_such_module.f"]
    assert t.summary()["losses.kl_loss"]["calls"] == 1
    # every layer figure is still produced when none of its spans exist
    metrics = layer_metrics({}, steps=10, folds=2)
    assert metrics["losses.composite_directions.self_ms"] == (0.0, "ms/step")
    assert metrics["data.synthesize_s"] == (0.0, "s")


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1:] == ["perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w["why"] for name, w in run.workloads().items()
    }
    traced = set(layer_metrics({}, steps=1, folds=1)) | {
        "checkpoint.bytes_per_fold", "trace.samples_per_s",
        "trace.untraced_samples_per_s", "trace.overhead_pct",
    }
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {m["name"] for m in spec["end_to_end"]} == {
        "samples_per_s", "setup_s", "peak_rss_mb", "heldout_acc",
    }
    layer_map = json.loads((run.HERE / "workloads.json").read_text())["layers"]
    mapped = {name for layer in layer_map.values() for name in layer["metrics"]}
    assert mapped <= traced
