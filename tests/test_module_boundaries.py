"""No module of ``ttk`` imports a private name from a sibling module: a
helper that two modules share is public in the module that defines it."""

import ast
import pathlib

import ttk

SOURCES = sorted(pathlib.Path(ttk.__file__).parent.glob("*.py"))


def _private_sibling_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [f"{path.name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_name_is_imported_from_a_sibling():
    assert {"typecheck.py", "termify.py", "parametricity.py"} <= \
        {path.name for path in SOURCES}
    found = [hit for path in SOURCES for hit in _private_sibling_imports(path)]
    assert found == []
