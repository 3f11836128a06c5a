"""The package root exports exactly the surface the README documents."""
import re
from pathlib import Path

import eegraph

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_matches_readme_and_resolves():
    paragraph = next(p for p in README.read_text().split("\n\n") if "`__all__`" in p)
    documented = [name for name in re.findall(r"`([^`]+)`", paragraph) if name != "__all__"]
    assert eegraph.__all__ == documented
    for name in eegraph.__all__:
        assert getattr(eegraph, name) is not None
    # perfbench/run.py reads these from the package root
    for name in ("load_dataset", "split_loso", "evaluate", "load_checkpoint", "EegraphError"):
        assert hasattr(eegraph, name)
