"""A call-count guard on the `gate` benchmark shape.

Wall time on a shared 2-vCPU machine cannot resolve a few-percent change
at the gate shape, where the cost is per-call overhead; a count of calls
can. `sys.setprofile` sees every Python-level call and every builtin
call, but no ufunc call (`np.add`, `@`). A call counts when the frame
that makes it is package code, so the figure does not depend on how
numpy implements its own functions.
"""
import json
import os
import sys
from pathlib import Path

import numpy as np

import eegraph
from eegraph.data import SynthConfig, load_dataset, save_dataset, synthesize
from eegraph.eval import run_protocol
from eegraph.train import TrainConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
PACKAGE = os.path.dirname(eegraph.__file__) + os.sep

# one epoch of the gate's LOSO run: 8 folds in one lockstep group, each fold
# 1,008 training rows at batch 12
STEPS = 84
# calls from package frames over that epoch, measured on numpy 2.4.6 and
# Python 3.11.7 (167.6 per step); one more call per step fails the test
MAX_CALLS = 14_078


def _gate_run(tmp_path):
    spec = json.loads(WORKLOADS.read_text())["workloads"]["gate"]
    synth = SynthConfig(**spec["synth"], seed=spec["synth_seed"]["base"])
    cfg = TrainConfig(**{**spec["train"], "epochs": 1, "seed": spec["train_seed"]["base"]})
    save_dataset(synthesize(synth), tmp_path / "gate")
    ds = load_dataset(tmp_path / "gate")  # float32 features, as the benchmark reads them
    return lambda: run_protocol(ds, "loso", cfg)


def _calls_from_package(run) -> int:
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        caller = frame.f_back if event == "call" else frame if event == "c_call" else None
        if caller is not None and caller.f_code.co_filename.startswith(PACKAGE):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return count


def test_a_gate_step_makes_no_more_calls_than_measured(tmp_path):
    run = _gate_run(tmp_path)
    run()  # caches and lazy imports are warm from here on, whatever ran before
    calls = _calls_from_package(run)
    assert calls == _calls_from_package(run), "the count is not repeatable"
    assert calls <= MAX_CALLS, (
        f"{calls / STEPS:.1f} calls per gate step, at most {MAX_CALLS / STEPS:.1f} "
        f"measured (numpy {np.__version__})"
    )
