"""The benchmark harness in perfbench/ still accepts the trainer's runs.

perfbench counts calls to the names it wraps and refuses a traced run
whose step count differs from the model steps the workload implies, so a
trainer change that rebinds or renames a traced function can break the
benchmark while every unit test passes. An untraced run checks that
every fold checkpoint reloads and scores what `report.json` says on
perfbench's own copied LOSO folds, and that repeated runs write the same
report; those checks read the data path that folds and bundles take. A
traced run must also time the bundle's synthesis and write.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [1, 0], ids=["traced", "untraced"])
@pytest.mark.parametrize("workload", ["gate", "seed62", "seed62_wide"])
def test_tiny_run_is_accepted(tmp_path, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny",
         "--workdir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    if trace:
        # `eegraph synth` reaches the data path through the names perfbench
        # wraps in eegraph.cli; a rebinding there would hide setup from it
        for name in ("data.synthesize_s", "data.save_dataset_s"):
            assert result["metrics"][name]["value"] > 0, name
