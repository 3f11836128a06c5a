"""tools/same_artifacts.py on its smallest case: a tree against itself and
against a copy whose synthetic generator was edited."""
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOOL = ROOT / "tools" / "same_artifacts.py"


def compare(parent, change):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--case", "gate_tiny"],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_writes_the_same_artifacts_as_itself():
    proc = compare(SRC, SRC)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "gate_tiny: identical\n"


def test_an_edited_generator_is_named_by_its_first_differing_file(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC / "eegraph", copy / "eegraph",
                    ignore=shutil.ignore_patterns("__pycache__"))
    data = copy / "eegraph" / "data.py"
    text = data.read_text()
    assert text.count("\nTRIAL_JITTER = 0.25\n") == 1
    data.write_text(text.replace("\nTRIAL_JITTER = 0.25\n", "\nTRIAL_JITTER = 0.3\n"))
    proc = compare(SRC, copy)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "gate_tiny: differs at bundle/features.f32\n"


def test_a_directory_without_the_package_is_refused(tmp_path):
    proc = compare(SRC, tmp_path)
    assert proc.returncode == 2
    assert "holds no eegraph package" in proc.stderr
