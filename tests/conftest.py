"""Session setup shared by every test module.

`pythonpath = ["src"]` in pyproject.toml reaches the pytest process only;
tests that start `python -m eegraph` in a child process need the checkout's
`src` on the child's `PYTHONPATH` too, so a fresh checkout runs the suite
without an install.
"""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_sessionstart(session):
    rest = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + os.pathsep + rest if rest else SRC
