"""Every public top-level function and class is reached from the package itself.

A public `def` or `class` that no package code imports or uses is dead to
the CLI and to training. It is either deleted or listed in `KEPT` with the
reason it stays.
"""
import ast
from pathlib import Path

import eegraph

PACKAGE = Path(eegraph.__file__).resolve().parent

KEPT = {
    "propagate": "acceptance gate 2 checks propagation against a summation oracle with it",
    "composite_directions": "acceptance gate 5 stitches the two backward passes with it",
    "domain_backward": "acceptance gate 5 checks the reversed domain gradient with it",
    "class_backward": "the fused backward's test reference",
    "label_distribution": "acceptance gate 4 states the soft-label invariants on it",
    "load_layout": "the way a real montage reaches run_protocol",
    "load_global_pairs": "the way a real montage's hemisphere pairs reach run_protocol",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk_package():
    """(public top-level definitions by name, names referenced anywhere in the package)."""
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = None
            if isinstance(stmt, DEFINITIONS):
                own = stmt.name
                if not own.startswith("_"):
                    defined[own] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:  # a definition does not reach itself
                    referenced.add(name)
    return defined, referenced


def test_every_public_definition_is_reached_or_kept_on_purpose():
    defined, referenced = _walk_package()
    unreached = sorted(f"{defined[name]}: {name}" for name in defined
                       if name not in referenced and name not in KEPT)
    assert unreached == []


def test_kept_names_exist_and_are_otherwise_unreached():
    defined, referenced = _walk_package()
    assert sorted(name for name in KEPT if name not in defined) == []
    assert sorted(name for name in KEPT if name in referenced) == []
