"""Every module under src/ and tests/ references each name it imports, and
src/ references each top-level private function and class it defines, in
its own module when another module reads it.  The top-level public
definitions, and the public methods of top-level classes, that src/ never
reads are frozen lists."""

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


def _definitions(tree, private: bool) -> list[str]:
    """Names of the top-level private (or public) functions and classes of a module."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private and not node.name.startswith("__")]


def _names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _outside_reads(tree) -> tuple[set[str], set[tuple[str, str]]]:
    """The attribute names a module reads, and the (module, name) pairs it imports."""
    attributes, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rsplit(".", 1)[-1]
            imported.update((module, a.name) for a in node.names)
    return attributes, imported


def _public_methods(tree) -> list[tuple[str, str]]:
    """(``Class.method``, method) of each public method of a module's top-level classes.

    A dunder or private method is skipped; a property is a method.
    """
    return [(f"{node.name}.{item.name}", item.name) for node in tree.body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def _unread(sources: dict[str, str], definitions) -> list[str]:
    """``module.label`` of each (label, name) of ``definitions(tree)`` that no
    node of the sources reads: a ``Name`` in its own module, an attribute
    anywhere, or an import from its module."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    attributes, imported = set(), set()
    for tree in trees.values():
        tree_attributes, tree_imported = _outside_reads(tree)
        attributes |= tree_attributes
        imported |= tree_imported
    return sorted(f"{module}.{label}" for module, tree in trees.items()
                  for label, name in definitions(tree)
                  if name not in _names(tree) | attributes
                  and (module, name) not in imported)


def _unread_definitions(sources: dict[str, str], private: bool) -> list[str]:
    return _unread(sources, lambda tree: [(name, name) for name in _definitions(tree, private)])


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module._name`` of each top-level private function or class of the
    named sources that no other node of them reads: a ``Name`` in its own
    module, an attribute anywhere, or an import from its module."""
    return _unread_definitions(sources, private=True)


def public_definitions_without_src_reader(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level public function or class of the
    named sources that none of them reads, by the same three routes."""
    return _unread_definitions(sources, private=False)


def public_methods_without_src_reader(sources: dict[str, str]) -> list[str]:
    """``module.Class.method`` of each public method of the top-level classes
    of the named sources that none of them reads, by the same three routes."""
    return _unread(sources, _public_methods)


def privates_read_only_elsewhere(sources: dict[str, str]) -> list[str]:
    """``module._name`` of each top-level private function or class of the
    named sources that no ``Name`` of its own module reads, while another
    module imports it or reads it as an attribute: it belongs with that reader."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = {module: _outside_reads(tree) for module, tree in trees.items()}
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in _definitions(tree, private=True)
                  if name not in _names(tree)
                  and any(name in attributes or (module, name) in imported
                          for other, (attributes, imported) in reads.items()
                          if other != module))


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


# The public API that only tests, perfbench and users call; ROADMAP item 12
# either gives each one a report row or removes it.  A definition that
# gains a reader in src/ leaves this list, and a new one must be named here.
PUBLIC_WITHOUT_SRC_READER = [
    "cauchy.ricci_series",
    "clifford.classify_even",
    "geometry.custom_metric",
    "geometry.divergence_free_draw",
    "geometry.function_from_spec",
    "geometry.parallel_form_residual",
    "geometry.parallel_forms_10_1",
    "geometry.random_polynomial",
    "octospin.bracket_element",
    "octospin.clifford_map_mx",
    "octospin.p_invariant",
    "octospin.sample_element",
    "octospin.sigma_10_1",
    "octospin.spin101_element",
    "octospin.vector_inner_10_1",
    "orbits.is_pure",
    "orbits.spin_stabilizer_dimension",
]


def test_public_definitions_without_src_reader_are_listed():
    assert public_definitions_without_src_reader(SRC) == PUBLIC_WITHOUT_SRC_READER


def test_scan_flags_a_public_definition_without_reader():
    sources = {
        "a": "def used():\n    pass\n\n\ndef orphan():\n    pass\n\n\n"
             "class Imported:\n    pass\n\n\ndef _private():\n    pass\n\n\n"
             "def __dunder__():\n    pass\n\n\nused()\n",
        "b": "from .a import Imported\n\n\ndef by_attribute():\n    pass\n\n\n"
             "def unread():\n    pass\n\n\nx = object().by_attribute\n",
    }
    assert public_definitions_without_src_reader(sources) == ["a.orphan", "b.unread"]


# The public methods of src/ classes that src/ never reads, each with who
# does.  A method that gains a reader in src/ leaves this list, and a new
# one must be named here with its reason, so a test-only method cannot
# creep back unnoticed (ROADMAP item 12's method inventory).
PUBLIC_METHODS_WITHOUT_SRC_READER = {
    "clifford.SpinRepresentation.vector_action": "tests of the vector module",
    "geometry.CoordinateMetric.stabilizer_dimension": "tests and the acceptance battery",
    "jets.Jet.coefficient": "order-guarded coefficient read, the jet tests' reference",
    "jets.JetContext.mul_arrays": "perfbench tracer target; the table tests read it",
    "jets.JetSeries.arity": "the benchmark's spec writer",
    "jets.JetSeries.coefficient": "exact coefficient read of the series tests",
    "jets.JetSeries.evaluate": "the tests' reference for values",
    "jets.JetSeries.table": "the benchmark's spec writer",
    "orbits.SpinOrbitModel.act_spinor": "equivariance tests and the acceptance battery",
    "orbits.SpinOrbitModel.act_vector": "equivariance tests and the acceptance battery",
    "orbits.SpinOrbitModel.orbit_invariant": "orbit tests",
    "orbits.SpinOrbitModel.orbit_label": "orbit tests",
    "orbits.SpinOrbitModel.sample_spinor": "orbit tests and the acceptance battery",
    "orbits.SpinOrbitModel.square_spinor": "squaring tests and the acceptance battery",
    "orbits.SpinOrbitModel.stabilizer_dimension": "orbit tests and the acceptance battery",
    "orbits.SpinOrbitModel.vector_square": "orbit tests",
}


def test_public_methods_without_src_reader_are_listed():
    assert public_methods_without_src_reader(SRC) == sorted(PUBLIC_METHODS_WITHOUT_SRC_READER)


def test_scan_flags_a_public_method_without_reader():
    sources = {
        "a": "class A:\n    def used(self):\n        pass\n\n"
             "    def orphan(self):\n        pass\n\n"
             "    @property\n    def shown(self):\n        pass\n\n"
             "    def _private(self):\n        pass\n\n"
             "    def __call__(self):\n        pass\n\n\n"
             "def top():\n    pass\n\n\nA().used()\n",
        "b": "class B:\n    def by_attribute(self):\n        pass\n\n"
             "    def by_name(self):\n        pass\n\n"
             "    def unread(self):\n        pass\n\n\n"
             "x = object().by_attribute\nby_name = 1\nprint(by_name)\n",
    }
    assert public_methods_without_src_reader(sources) == ["a.A.orphan", "a.A.shown",
                                                          "b.B.unread"]


def test_no_private_read_only_elsewhere():
    assert privates_read_only_elsewhere(SRC) == []


def test_scan_flags_a_private_read_only_elsewhere():
    sources = {
        "a": "def _imported():\n    pass\n\n\ndef _by_attribute():\n    pass\n\n\n"
             "def _shared():\n    pass\n\n\ndef _own_attribute():\n    pass\n\n\n"
             "class _Orphan:\n    pass\n\n\n_shared()\nx = object()._own_attribute\n",
        "b": "from . import a\nfrom .a import _imported, _shared\n\n\n"
             "_imported()\n_shared()\na._by_attribute()\n",
    }
    assert privates_read_only_elsewhere(sources) == ["a._by_attribute", "a._imported"]
