"""Every module under src/ and tests/ references each name it imports, and
src/ references each top-level private function and class it defines."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
SRC = {p.stem: p.read_text() for p in (ROOT / "src").rglob("*.py")}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no ``Name`` node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_name():
    source = "from __future__ import annotations\nimport os\nfrom a.b import c, d as e\nc()\n"
    assert unused_imports(source) == ["e", "os"]


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module._name`` of each top-level private function or class of the
    named sources that no other node of them reads: a ``Name`` in its own
    module, an attribute anywhere, or an import from its module."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    attributes, imported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rsplit(".", 1)[-1]
                imported.update((module, a.name) for a in node.names)
    out = []
    for module, tree in trees.items():
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in names | attributes
                    and (module, node.name) not in imported):
                out.append(f"{module}.{node.name}")
    return sorted(out)


def test_no_unreferenced_private_definition():
    assert unreferenced_private_definitions(SRC) == []


def test_scan_flags_an_unreferenced_private_definition():
    sources = {
        "a": "def _used():\n    pass\n\n\ndef _orphan():\n    pass\n\n\n"
             "class _Kept:\n    pass\n\n\ndef __dunder__():\n    pass\n\n\n_used()\n",
        "b": "from .a import _Kept\n\n\ndef _by_attribute():\n    pass\n\n\n"
             "def _unread():\n    pass\n\n\nx = object()._by_attribute\n",
    }
    assert unreferenced_private_definitions(sources) == ["a._orphan", "b._unread"]
