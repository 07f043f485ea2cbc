"""Every imported name is used, only `bits.integer` tests for an int, and only
`complexes` and `subdivision` touch a facet index: static scans of the package
and the tests with `ast`, needing no linter."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads, with their lines."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    """`__init__.py` re-exports what it imports, so it is left out."""
    paths = sorted([*ROOT.glob("src/affinetask/*.py"), *ROOT.glob("tests/*.py")])
    assert len(paths) > 20
    found = {str(p.relative_to(ROOT)): unused_imports(p) for p in paths
             if p.name != "__init__.py"}
    assert {p: names for p, names in found.items() if names} == {}


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nfrom math import comb, factorial as f\n"
                      "x: os.PathLike = comb(2, 1)\n")
    assert unused_imports(module) == ["f (line 3)"]


def int_type_tests(path: Path) -> list[int]:
    """The lines of a module that compare `type(...)` with `int` by `is`,
    `is not`, `==` or `!=`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
            and any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                    and isinstance(right, ast.Name) and right.id == "int"
                    for op, right in zip(node.ops, node.comparators))]


def test_only_bits_tests_for_an_int():
    """The rule "an integer input is an int, never a bool, float or string"
    lives in `bits.integer`; every other module calls it."""
    found = {p.name: int_type_tests(p) for p in ROOT.glob("src/affinetask/*.py")}
    assert {name for name, lines in found.items() if lines} == {"bits.py"}


def test_the_scan_sees_an_int_type_test(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(x):\n    return type(x) is str\n"
                      "ok = type(1) is not int or type(2) == int\n"
                      "isinstance(3, int)\n")
    assert int_type_tests(module) == [3, 3]


def names_of(path: Path) -> set[str]:
    """The names a module reads, imports or reads as attributes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.name.rpartition(".")[2] for node in ast.walk(tree)
               if isinstance(node, ast.alias)})


FACET_INDEX = {"facet_index", "in_one_facet"}


def test_only_complexes_and_subdivision_name_a_facet_index():
    """"Do these keys lie in one facet?" is answered in two places: a
    `ChromaticComplex` on vertices and a `subdivision.CodeComplex` on vertex
    codes. Every other module asks one of them, never the index itself."""
    paths = [*ROOT.glob("src/affinetask/*.py"), *ROOT.glob("tests/*.py")]
    found = {p.name for p in paths if names_of(p) & FACET_INDEX}
    assert found == {"complexes.py", "subdivision.py"}


def test_the_scan_sees_a_facet_index_named(tmp_path):
    module = tmp_path / "m.py"
    for text in ("from affinetask.complexes import in_one_facet\n",
                 "from affinetask import complexes\ncomplexes.facet_index([])\n"):
        module.write_text(text)
        assert names_of(module) & FACET_INDEX, text
    module.write_text("x = 'facet_index'\n")
    assert not names_of(module) & FACET_INDEX
