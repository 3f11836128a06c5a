"""The benchmark harness in perfbench/ still accepts a traced run of the trainer.

perfbench counts calls to the names it wraps and refuses a traced run
whose step count differs from the model steps the workload implies, so a
trainer change that rebinds or renames a traced function can break the
benchmark while every unit test passes.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tiny_traced_gate_run_is_accepted(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "gate",
         "--seed", "0", "--seconds", "1", "--trace", "1", "--tiny", "--workdir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
