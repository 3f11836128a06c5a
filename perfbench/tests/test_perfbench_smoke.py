"""Seconds-long end-to-end runs of the benchmark at tiny workload sizes."""
import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
from tracer import Tracer, layer_metrics


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(run.workloads()))
def test_tiny_workload_runs_and_checks_out(workload, tmp_path):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                 "--tiny", "--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # 7 setup writes, one gradcheck, at least two train runs
    assert result["attempted"] >= 10
    metrics = result["metrics"]
    assert set(metrics) == {"samples_per_s", "setup_s", "peak_rss_mb", "heldout_acc"}
    assert all(m["value"] > 0 for m in metrics.values())
    assert any(line.startswith("failed_fraction 0 ") for line in lines)
    assert any(line.startswith("env ") for line in lines)


def test_tiny_traced_run_reports_every_layer(tmp_path):
    proc = bench("--workload", "seed62", "--seed", "0", "--seconds", "1", "--trace", "1",
                 "--tiny", "--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["gradients.class_backward.calls_per_step"] == 1.0
    assert m["gradients.domain_backward.calls_per_step"] == 1.0
    assert m["model.domain_forward.calls_per_step"] == 2.0
    assert m["checkpoint.bytes_per_fold"] > 0
    assert (tmp_path / "seed62-seed0-trace1" / "spans.npz").is_file()


def traced_calls(tmp_path, name):
    """calls_per_step figures of one in-process traced tiny gate run."""
    from eegraph import cli

    synth, train = run.workload_configs("gate", 0, tiny=True)
    (tmp_path / "synth.json").write_text(json.dumps(synth))
    (tmp_path / "train.json").write_text(json.dumps(train))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--config", str(tmp_path / "synth.json"),
                         "--out", str(tmp_path / "bundle")]) == 0
        with Tracer() as t:
            assert cli.main(["train", "--data", str(tmp_path / "bundle"),
                             "--config", str(tmp_path / "train.json"),
                             "--protocol", "loso", "--out", str(tmp_path / name)]) == 0
    summary = t.summary()
    steps = summary["optim.adam_step"]["calls"]
    metrics = layer_metrics(summary, steps, summary["train.train"]["calls"])
    return steps, {k: v for k, v in metrics.items() if k.endswith("calls_per_step")}


def test_calls_per_step_repeat_exactly(tmp_path):
    first = traced_calls(tmp_path, "a")
    second = traced_calls(tmp_path, "b")
    assert first == second
    steps, calls = first
    assert steps > 0
    assert calls["gradients.class_backward.calls_per_step"] == (1.0, "calls/step")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "gate", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
