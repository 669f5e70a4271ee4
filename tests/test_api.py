"""Every public function and class has a consumer outside the tests.

A function or class in a module's ``__all__`` (in a module without one,
any top-level definition without a leading underscore) is consumed when
another module of the package, or a non-test file under ``bench/``, names
it in code (not in a comment or string), or when a consumed definition of
its own module names it, private helpers included: `engine_for` is
consumed because `cut_dp`, which the CLI calls, calls it, and `CutBounds`
because `cut_dp` returns it.  Code that runs on import counts as a
consumer.  The package ``__init__`` re-exports names and consumes none.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import randmera

PACKAGE = Path(randmera.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _identifiers(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name that ``node`` mentions in code."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unconsumed() -> list[str]:
    """``module.name`` of every public function or class that no consumer names."""
    trees = {p.stem: _tree(p) for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    outside = set()
    for path in BENCH.glob("*.py"):
        if not path.name.startswith("test_"):
            outside |= _identifiers(_tree(path))
    missing = []
    for name in sorted(trees.keys() - {"__main__"}):
        definitions, live = {}, set()
        for node in trees[name].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[node.name] = node
            else:
                live |= _identifiers(node)  # code that runs on import
        module = importlib.import_module(f"randmera.{name}")
        exported = getattr(module, "__all__", [d for d in definitions if not d.startswith("_")])
        public = {
            attr
            for attr in exported
            if inspect.isfunction(getattr(module, attr)) or inspect.isclass(getattr(module, attr))
        }
        for other, tree in trees.items():
            if other != name:
                live |= _identifiers(tree)
        live = (live | outside) & set(definitions)
        frontier = live
        while frontier:
            reached = set().union(*(_identifiers(definitions[d]) for d in frontier))
            frontier = (reached & set(definitions)) - live
            live |= frontier
        missing += [f"{name}.{attr}" for attr in sorted(public - live)]
    return missing


def test_every_public_function_and_class_has_a_consumer():
    assert unconsumed() == []


@pytest.mark.parametrize("attr", randmera.__all__)
def test_every_package_export_resolves(attr):
    assert hasattr(randmera, attr)
