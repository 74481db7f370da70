"""Every name ``talbot`` exports has a caller in the package or the benchmark.

The scan walks the syntax trees of ``src/talbot/*.py`` (without
``__init__.py``) and ``perfbench/*.py`` and counts a name as used when it
appears as a ``Name`` or an ``Attribute`` outside its own definition.
Imports and re-exports are not uses, and neither are the tests.
"""
import ast
import types
from pathlib import Path

import talbot

ROOT = Path(__file__).resolve().parents[1]

#: Exported names allowed without a caller, each with the reason.
KEEP = {
    "dirichlet_approx": "ROADMAP item 1",
    "gauss_coefficient_sum": "ROADMAP item 1",
}


def _sources() -> list[Path]:
    package = sorted((ROOT / "src" / "talbot").glob("*.py"))
    return [p for p in package if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))


def _used_names() -> set[str]:
    """Names loaded as a Name or Attribute outside a def or class of that name."""
    used: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in _sources():
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), frozenset())
    return used


def _exported() -> set[str]:
    return {name for name in talbot.__all__
            if not isinstance(getattr(talbot, name), types.ModuleType)}


def test_every_export_has_a_caller():
    dead = _exported() - _used_names() - set(KEEP)
    assert not dead, f"exported but never used by the package or perfbench: {sorted(dead)}"


def test_keep_list_is_current():
    # an entry leaves the list once its planned caller lands
    assert set(KEEP) <= _exported()
    assert not set(KEEP) & _used_names()
