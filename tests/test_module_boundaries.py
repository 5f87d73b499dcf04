"""No module of ``ttk`` imports a private name from a sibling module: a
helper that two modules share is public in the module that defines it.
Only the grammar matches on sort names, no module matches on class
patterns, and no call picks the scope it passes by a node's ``reach``.
A kernel error is caught only at the two top levels, and one function
turns a type error into one."""

import ast
import pathlib

import ttk
from ttk import syntax, values
from ttk.typecheck import TypeCheckError

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


# A judgement rebinds a closed node's scope itself (see ``ttk.caches``),
# so no call picks the scope it passes by the node's ``reach``.  A
# conditional on ``x.reach`` stays only where it skips building something:
# a substitution's environment, a slice, a concatenation or an extended
# context.  One whose true branch is a bare name builds nothing; it only
# chooses between a scope the caller already has and the empty one.
def _key_only_reach_tests(source, name):
    return [f"{name}:{node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.IfExp)
            and isinstance(node.test, ast.Attribute)
            and node.test.attr == "reach" and isinstance(node.body, ast.Name)]


def test_no_conditional_picks_a_scope_by_reach():
    assert _key_only_reach_tests(
        "evaluate(env if x.reach else (), x)\n"
        "evaluate(env[:-1] if x.reach else (), x)\n"
        "infer_ty(ctx.extend(a) if b.reach else EMPTY, b)\n", "t") == ["t:1"]
    found = [hit for path in SOURCES for hit in _key_only_reach_tests(
        path.read_text(encoding="utf-8"), path.name)]
    assert found == []


# A failure after the input has checked is a ``KernelError``: ``ttk run``
# catches one in ``cli`` and the suites count one in ``suites``.  No module
# tells the kinds apart, and only ``typecheck.after_check`` turns a
# ``TypeCheckError`` into one.
KERNEL_ERRORS = {"IsoFailure", "NonCanonical", "TranslationIllTyped",
                 "InternalStuck"}


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _handlers(path):
    """(function, caught names, raised names) of each ``except`` clause."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [(f"{path.name[:-3]}.{fn.name}", _names(handler.type),
             set().union(*(_names(r.exc) for r in ast.walk(handler)
                           if isinstance(r, ast.Raise) and r.exc)))
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for handler in ast.walk(fn)
            if isinstance(handler, ast.ExceptHandler) and handler.type]


def test_kernel_errors_derive_from_one_base():
    for name in KERNEL_ERRORS:
        assert issubclass(getattr(ttk, name), ttk.KernelError), name
    assert not issubclass(ttk.TranslationIllTyped, TypeCheckError)


def test_a_kernel_error_is_caught_only_at_the_top():
    handlers = [h for path in SOURCES for h in _handlers(path)]
    assert [fn for fn, caught, _ in handlers if caught & KERNEL_ERRORS] == []
    assert {fn.split(".")[0] for fn, caught, _ in handlers
            if "KernelError" in caught} == {"cli", "suites"}


def test_one_function_turns_a_type_error_into_a_kernel_error():
    handlers = [h for path in SOURCES for h in _handlers(path)]
    assert [fn for fn, caught, raised in handlers
            if "TypeCheckError" in caught
            and raised & (KERNEL_ERRORS | {"KernelError"})] == \
        ["typecheck.after_check"]
