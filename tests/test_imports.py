"""Every imported name is used: a static scan of the package and the tests
with `ast`, needing no linter."""
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
