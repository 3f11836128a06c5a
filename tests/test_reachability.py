"""Every public definition is reached from the package itself.

A public top-level `def` or `class`, or a public method or property of a
public top-level class, that no package code uses is dead to the CLI and
to training. It is either deleted or listed in `KEPT` with the reason it
stays. The re-exports of `__init__.py` do not count as uses.

Names are matched, not types. A method or property counts as reached
when an attribute of its name is read on something other than a module
brought in by `import`: `params.tensors()` reaches every `tensors`
method, while `np.zeros_like` reaches no method called `zeros_like`.
"""
import ast
import textwrap
from pathlib import Path

import eegraph

PACKAGE = Path(eegraph.__file__).resolve().parent

KEPT = {
    "propagate": "acceptance gate 2 checks propagation against a summation oracle with it",
    "composite_directions": "acceptance gate 5 stitches the two backward passes with it",
    "domain_backward": "acceptance gate 5 checks the reversed domain gradient with it",
    "label_distribution": "acceptance gate 4 states the soft-label invariants on it",
    "load_layout": "the way a real montage reaches run_protocol",
    "load_global_pairs": "the way a real montage's hemisphere pairs reach run_protocol",
    "split_loso": "perfbench's RunChecker splits folds with it",
    "train": "the public one-job entry",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _imported_modules(tree: ast.Module) -> set[str]:
    """The names that `import x` and `import x as y` bind (numpy as np, json, ...)."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}


def _root(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _scan(sources):
    """Scan (file name, source) pairs.

    Returns the public definitions, keyed "name" at top level and
    "Class.name" for methods and properties, with their file names; the
    names used anywhere (as names, imports or attributes); and the
    attribute names read on anything but an imported module. A definition
    does not reach itself: a function's own name inside it, or a method's
    own attribute inside it, is not counted.
    """
    defined, used, attributes = {}, set(), set()
    for file_name, source in sources:
        tree = ast.parse(source, filename=file_name)
        modules = _imported_modules(tree)

        def collect(node, own_name=None, own_attribute=None):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.alias):
                    name = sub.name
                elif isinstance(sub, ast.Attribute):
                    root = _root(sub)
                    if isinstance(root, ast.Name) and root.id in modules:
                        continue
                    name = sub.attr
                    if name != own_attribute:
                        attributes.add(name)
                else:
                    continue
                if name not in (own_name, own_attribute):
                    used.add(name)

        for stmt in tree.body:
            if not isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
                collect(stmt)
                continue
            if _public(stmt.name):
                defined[stmt.name] = file_name
            if not isinstance(stmt, ast.ClassDef):
                collect(stmt, own_name=stmt.name)
                continue
            for node in (*stmt.decorator_list, *stmt.bases, *stmt.keywords):
                collect(node, own_name=stmt.name)
            for item in stmt.body:
                if isinstance(item, FUNCTIONS):
                    if _public(stmt.name) and _public(item.name):
                        defined[f"{stmt.name}.{item.name}"] = file_name
                    collect(item, own_name=stmt.name, own_attribute=item.name)
                else:
                    collect(item, own_name=stmt.name)
    return defined, used, attributes


def _unreached(defined, used, attributes) -> list[str]:
    def reached(key):
        return key.rpartition(".")[2] in attributes if "." in key else key in used

    return sorted(key for key in defined if not reached(key))


def _scan_package():
    # a re-export in __init__.py names a definition but does not use it
    return _scan((path.name, path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "__init__.py")


def test_every_public_definition_is_reached_or_kept_on_purpose():
    defined, used, attributes = _scan_package()
    unreached = [f"{defined[key]}: {key}"
                 for key in _unreached(defined, used, attributes) if key not in KEPT]
    assert unreached == []


def test_kept_names_exist_and_are_otherwise_unreached():
    defined, used, attributes = _scan_package()
    assert sorted(key for key in KEPT if key not in defined) == []
    assert sorted(set(KEPT) - set(_unreached(defined, used, attributes))) == []


def test_the_scan_tells_a_method_from_a_module_function_of_its_name():
    source = textwrap.dedent('''
        import numpy as np
        import importlib.resources

        class Grads:
            def zeros_like(self):
                return np.zeros_like(self.flat)

            def files(self):
                return self.files()

            @property
            def size(self):
                return 0

        def total(g):
            return importlib.resources.files("x"), g.size
    ''')
    # `size` is read as `g.size`; `files` only on a module and inside itself
    assert _unreached(*_scan([("m.py", source)])) == [
        "Grads", "Grads.files", "Grads.zeros_like", "total"]
