"""What importing ttk builds: node classes read their fields from their
own annotations, the frozen records are named tuples, the package root
imports a module only when one of its names is asked for, and ``ttk
run`` loads neither ``hashlib`` nor ``argparse``, the suites, the
generator or ``dataclasses``.  A module's classes are built when it is
imported, so this is what ``ttk run`` pays before it reads its file."""

import collections
import dataclasses
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ttk
from ttk import surface, syntax, values
from ttk.equations import EqInstance
from ttk.generate import GenConfig
from ttk.injectivity import CtxIso
from ttk.surface import Directive
from ttk.syntax import (
    App, Bool, Code, Comp, EMPTY, El, Eps, Ext, FalseLit, Fst, IdSub, IdTy,
    If, J, Lam, Pair, Pi, Refl, Sigma, Snd, Top, TrueLit, Tt, TmSub, TySub,
    Univ, Var0, Wk,
)
from ttk.typecheck import Translated

SRC = pathlib.Path(ttk.__file__).resolve().parent

NODE_CLASSES = sorted(
    {cls for module in (syntax, values) for cls in vars(module).values()
     if isinstance(cls, type) and "_interned" in vars(cls)},
    key=lambda cls: cls.__name__)


def test_node_classes_are_built_from_their_annotations():
    assert len(NODE_CLASSES) == 43
    for cls in NODE_CLASSES:
        assert not dataclasses.is_dataclass(cls), cls.__name__
        assert cls.__match_args__ == tuple(cls.__annotations__), cls.__name__
    assert Pair.__match_args__ == ("fst_ty", "snd_ty", "fst", "snd")
    assert syntax.Ctx.__match_args__ == ("prefix", "entry")
    assert Bool.__match_args__ == ()


# The surface form of each syntax class: keyword, sort, argument sorts
# and the field that may be left out, as they were when the classes were
# built through ``dataclasses``.
FORMS = {
    IdSub: ("id", "sub", (), None),
    Comp: ("comp", "sub", ("sub", "sub"), None),
    Eps: ("eps", "sub", (), None),
    Ext: ("ext", "sub", ("sub", "ty", "tm"), "ann"),
    Wk: ("p", "sub", (), None),
    TySub: ("tysub", "ty", ("ty", "sub"), None),
    Pi: ("pi", "ty", ("ty", "ty"), None),
    Sigma: ("sigma", "ty", ("ty", "ty"), None),
    Top: ("top", "ty", (), None),
    Univ: ("u", "ty", ("level",), None),
    El: ("el", "ty", ("tm",), None),
    Bool: ("bool", "ty", (), None),
    IdTy: ("idt", "ty", ("ty", "tm", "tm"), None),
    TmSub: ("tmsub", "tm", ("tm", "sub"), None),
    Var0: ("q", "tm", (), None),
    Lam: ("lam", "tm", ("ty", "tm"), None),
    App: ("app", "tm", ("tm",), None),
    Pair: ("pair", "tm", ("ty", "ty", "tm", "tm"), None),
    Fst: ("fst", "tm", ("tm",), None),
    Snd: ("snd", "tm", ("tm",), None),
    Tt: ("tt", "tm", (), None),
    Code: ("code", "tm", ("ty",), None),
    TrueLit: ("true", "tm", (), None),
    FalseLit: ("false", "tm", (), None),
    If: ("if", "tm", ("ty", "tm", "tm", "tm"), None),
    Refl: ("refl", "tm", ("tm",), None),
    J: ("j", "tm", ("ty", "tm", "tm"), None),
}


def test_the_keyword_table_reads_the_annotations():
    assert set(surface._BY_CLASS) == set(FORMS)
    for cls, (keyword, sort, args, optional) in FORMS.items():
        form = surface._BY_CLASS[cls]
        assert (form.keyword, form.sort, form.args, form.optional) == \
            (keyword, sort, args, optional), cls.__name__
        assert form.fields == cls.__match_args__
        assert surface._BY_KEYWORD[keyword] is form


# One record of each kind, built by keyword, and its repr.
RECORDS = [
    (Translated(scope=EMPTY, payload=Tt(), classifier=Top()),
     "Translated(scope=Ctx.of(), payload=Tt(), classifier=Top())"),
    (EqInstance(ctx=EMPTY, classifier=None, lhs=Bool(), rhs=Bool()),
     "EqInstance(ctx=Ctx.of(), classifier=None, lhs=Bool(), rhs=Bool())"),
    (GenConfig(seed=1),
     "GenConfig(seed=1, max_nodes=12, max_level=2, max_ctx_len=4)"),
    (CtxIso(fwd=Eps(), bwd=IdSub()), "CtxIso(fwd=Eps(), bwd=IdSub())"),
    (Directive(kind="canon", args=(TrueLit(),)),
     "Directive(kind='canon', args=(TrueLit(),))"),
]


@pytest.mark.parametrize("record, text", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_frozen_named_tuples(record, text):
    cls = type(record)
    assert issubclass(cls, tuple) and cls._fields == cls.__match_args__
    assert not dataclasses.is_dataclass(cls)
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_record_defaults_and_methods():
    cfg = GenConfig(seed=1)
    assert (cfg.max_nodes, cfg.max_level, cfg.max_ctx_len) == (12, 2, 4)
    assert GenConfig(7, max_nodes=6) == GenConfig(seed=7, max_nodes=6,
                                                  max_level=2, max_ctx_len=4)


def test_only_the_suite_reports_are_dataclasses():
    # the mutable suite rows and reports stay dataclasses; the node base
    # raises its own ``syntax.FrozenInstanceError``, so that ``ttk run``
    # does not load ``dataclasses`` and the ``inspect`` it imports
    found = [f"{path.name}: {line.strip()}"
             for path in sorted(SRC.glob("*.py")) if path.name != "suites.py"
             for line in path.read_text(encoding="utf-8").splitlines()
             if "dataclass" in line]
    assert found == []


def test_the_package_root_names_each_export_once():
    counts = collections.Counter(name for names in ttk._EXPORTS.values()
                                 for name in names.split())
    assert [name for name, n in counts.items() if n > 1] == []
    assert sorted(ttk.__all__) == sorted(counts)
    for module, names in ttk._EXPORTS.items():
        defining = importlib.import_module(f"ttk.{module}")
        for name in names.split():
            assert getattr(ttk, name) is vars(defining)[name], name
    with pytest.raises(AttributeError):
        ttk.no_such_export
    with pytest.raises(AttributeError):
        getattr(ttk, "_no_such_module")


_IMPORT_ONLY = """import json, sys
import ttk
loaded = sorted(name for name in sys.modules if name.startswith("ttk."))
keywords = ttk.surface.KEYWORDS[ttk.Bool]
print(json.dumps([loaded, keywords]))
"""


def test_importing_ttk_loads_no_module_of_it():
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_ONLY],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)), capture_output=True,
        text=True, timeout=120)
    assert done.stderr == ""
    # a module still resolves as an attribute after a bare ``import ttk``
    assert json.loads(done.stdout) == [[], "bool"]


# What ``ttk run`` never uses: OpenSSL's ``hashlib``, the argument parser
# and its ``gettext``, the suites with the equation schemas and the
# generator they draw from, and ``dataclasses`` with its ``inspect``.
NOT_ON_THE_RUN_PATH = ("hashlib", "argparse", "gettext", "ttk.suites",
                       "ttk.equations", "ttk.generate", "dataclasses",
                       "inspect")

_RUN_THEN_SELFTEST = """\
import contextlib, io, json, sys
import ttk.cli
with contextlib.redirect_stdout(io.StringIO()):
    run = ttk.cli.main(["run", sys.argv[1]])
    loaded = [name for name in sys.argv[2:] if name in sys.modules]
    selftest = ttk.cli.main(["selftest", "--suite", "canon", "--count", "1"])
print(json.dumps([run, loaded, selftest]))
"""


def test_ttk_run_does_not_import_hashlib():
    demo = pathlib.Path(__file__).resolve().parent.parent / "demo"
    done = subprocess.run(
        [sys.executable, "-c", _RUN_THEN_SELFTEST, str(demo / "idfun.tt"),
         *NOT_ON_THE_RUN_PATH],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)), capture_output=True,
        text=True, timeout=120)
    assert done.stderr == ""
    run, loaded, selftest = json.loads(done.stdout)
    assert run == 0
    assert loaded == []
    # the parser and the suites still load when a command needs them
    assert selftest == 0
