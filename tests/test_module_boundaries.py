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


# The sort names of the surface grammar.  ``surface`` reads them, and the
# shape tags of ``generate`` name what to draw before an entity exists;
# everywhere else the class of an entity says its sort.
SORTS = {"ctx", "ty", "sub", "tm"}
GRAMMAR = {"surface.py", "generate.py"}


def _is_sort(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_sort(elt) for elt in node.elts)
    return isinstance(node, ast.Constant) and node.value in SORTS


def _sort_dispatches(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.MatchValue) and _is_sort(node.value)
            or isinstance(node, ast.Compare)
            and any(map(_is_sort, [node.left, *node.comparators]))]


def test_no_sort_string_is_matched_outside_the_grammar():
    assert GRAMMAR < {path.name for path in SOURCES}
    found = [hit for path in SOURCES if path.name not in GRAMMAR
             for hit in _sort_dispatches(path)]
    assert found == []
