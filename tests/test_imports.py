"""No file under ``src/`` or ``tests/`` imports a name it does not use.

A name counts as used when the file reads it, names it inside a string
annotation (``"RepairPlan | None"``, the way a ``TYPE_CHECKING``
import is used), or lists it in ``__all__``.  A re-export that no file
here reads but another tree imports from this module is marked on its
import line with ``# noqa: F401``.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(REPO).as_posix()
    for tree in ("src", "tests")
    for path in (REPO / tree).rglob("*.py")
)


def _annotation_names(node: ast.AST | None) -> set[str]:
    """The names an annotation reads, string annotations included."""
    names: set[str] = set()
    if node is None:
        return names
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for every name ``source`` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_import():
    found = {path: unused_imports((REPO / path).read_text()) for path in FILES}
    assert {path: names for path, names in found.items() if names} == {}


class TestTheScan:
    def test_an_unused_import_is_found(self):
        assert unused_imports("import os\nfrom a import b, c\nc()\n") == [
            (1, "os"),
            (2, "b"),
        ]

    def test_string_annotations_and_all_count_as_uses(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from a import Plan, Report\n"
            "from b import Exported\n"
            "__all__ = ['Exported']\n"
            "def f(plan: 'Plan | None') -> 'list[Report]': ...\n"
        )
        assert unused_imports(source) == []

    def test_a_marked_re_export_is_kept(self):
        assert unused_imports("from a import b  # noqa: F401\n") == []
