"""tools/ab_time.py on the `gate` workload's smoke-run size: a tree against
itself, and a directory that holds no package."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOOL = ROOT / "tools" / "ab_time.py"


def ab_time(parent, change, *args):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", "gate", *args],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_timed_against_itself_reports_every_figure():
    proc = ab_time(SRC, SRC, "--pairs", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "gate seed 0 tiny, 1 alternating pairs"
    for side in ("parent", "change"):
        for figure in ("wall_s", "cpu_s"):
            assert sum(line.startswith(f"{side} {figure}: median ") for line in lines) == 1
    assert lines[-1].startswith("change faster in ")
    assert "/1 pairs; median parent/change wall ratio " in lines[-1]


def test_a_directory_without_the_package_is_refused(tmp_path):
    proc = ab_time(SRC, tmp_path, "--pairs", "1", "--tiny")
    assert proc.returncode == 2
    assert "holds no eegraph package" in proc.stderr
