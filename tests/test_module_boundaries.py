"""No module of ``ttk`` imports a private name from a sibling module: a
helper that two modules share is public in the module that defines it.
Only the grammar matches on sort names, and no module matches on class
patterns."""

import ast
import pathlib

import ttk
from ttk import syntax, values

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


# The sort names of the surface grammar.  ``surface`` reads them;
# everywhere else the class of an entity says its sort.
SORTS = {"ctx", "ty", "sub", "tm"}
GRAMMAR = {"surface.py"}


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


# The kernel dispatches on the exact class of a node, ``type(x) is C``:
# one cheap test, where a class pattern such as ``case TmSub(t, sub):``
# costs an ``isinstance``, a ``__match_args__`` lookup and one ``getattr``
# per sub-pattern.  Value patterns on strings and ints stay.
def _class_patterns(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.MatchClass)]


def test_no_class_pattern_is_matched():
    found = [hit for path in SOURCES for hit in _class_patterns(path)]
    assert found == []


def test_node_classes_are_final():
    # an exact-class test decides what ``isinstance`` would only while no
    # node class has a subclass
    # a set: ``values`` imports the leaves of ``syntax``, its own values
    nodes = {cls for module in (syntax, values)
             for cls in vars(module).values()
             if isinstance(cls, type) and "_interned" in vars(cls)}
    assert len(nodes) == 43
    assert [cls for cls in nodes if cls.__subclasses__()] == []
