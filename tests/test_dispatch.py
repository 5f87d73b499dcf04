"""Every kernel dispatcher rejects what is not of its sort.

The evaluator, readback, checker and both translations dispatch on the
exact class of a node.  A node of another sort, or an object that is no
node at all, falls through every test to the dispatcher's own error:
``TypeCheckError`` from the checker and the translations, whose input
may be anything, and ``InternalStuck`` from evaluation, readback and the
eliminators, which only run on checked input.  Each translation is one
fold over every sort, so only an object that is no node reaches its
error, wherever it stands: alone, or in place of a type, a substitution
or a term inside a node the fold translates.
"""

import pytest

from ttk.parametricity import param
from ttk.semantics import (
    eval_sub, evaluate, readback_ne, readback_tm, readback_ty, vapp, vfst,
    vif, vj, vsnd,
)
from ttk.syntax import (
    EMPTY, Bool, Code, Comp, Ctx, Fst, IdSub, Pi, Top, TrueLit, Tt, Univ,
    Var0, Wk,
)
from ttk.termify import termify
from ttk.typecheck import (
    TypeCheckError, infer_ty, normalize_ty_in, synth_sub, synth_tm,
)
from ttk.values import Closure, InternalStuck, NVar, VNe

# A node of another sort, by the sort a checker takes.
OTHER_SORT = {"ty": Var0(), "sub": Bool(), "tm": Wk()}
CHECKERS = [(infer_ty, "ty"), (synth_sub, "sub"), (synth_tm, "tm")]
# Each dispatcher's own error, by the sort it takes; a fold takes every sort.
MESSAGES = {"ty": "not a type expression",
            "sub": "not a substitution expression",
            "tm": "not a term expression", None: "not an expression"}
FOREIGN = [(foreign, fn, sort) for foreign in ("other-sort", "object")
           for fn, sort in CHECKERS]
FOLDS = (termify, param)


class Stranger:
    """An object that is no node, with the ``reach`` of a node in its
    place, so that a node can hold it as a child."""

    def __init__(self, reach):
        self.reach = reach


# A fold is given an object that is no node alone, or in place of a type,
# a substitution or a term inside a node it translates: by sort, the
# stranger's reach and the node that holds it.
PLACES = {"ty": (0, Code), "sub": ((0, 0), lambda x: Comp(x, IdSub())),
          "tm": (0, Fst)}
FOREIGN += [("object", fold, sort) for fold in FOLDS
            for sort in (None, *PLACES)]


@pytest.mark.parametrize("foreign, fn, sort", FOREIGN, ids=[
    f"{foreign}-{fn.__name__}" + (f"_{sort}" if fn in FOLDS and sort else "")
    for foreign, fn, sort in FOREIGN])
def test_checkers_and_translations_reject_a_foreign_object(foreign, fn, sort):
    fold = fn in FOLDS
    if foreign == "other-sort":
        x = arg = OTHER_SORT[sort]
    elif fold and sort:
        reach, holder = PLACES[sort]
        x = Stranger(reach)
        arg = holder(x)
    else:
        x = arg = object()
    # a checker in a nonempty context first reads the argument's ``reach``
    for ctx in [EMPTY] if fold else [EMPTY, Ctx.of(Bool())]:
        with pytest.raises(TypeCheckError) as err:
            fn(ctx, arg)
        assert err.value.message == MESSAGES[None if fold else sort]
        assert err.value.expr is x


def test_a_negative_universe_level_is_rejected():
    with pytest.raises(TypeCheckError) as err:
        infer_ty(EMPTY, Univ(-1))
    assert err.value.message == "negative universe level"


# A neutral boolean: stuck, at a type that only ``if`` eliminates.
NE_BOOL = VNe(NVar(0), Bool())
MOTIVE = Closure((), Bool())

# Each dispatcher, called on its foreign argument, with an argument of the
# wrong kind: syntax of another sort, a value where syntax belongs or the
# other way round, or a value that the eliminator cannot take.  A leaf
# such as ``Bool()`` or ``Tt()`` is syntax and its own value at once, so
# a row passes one only where it fits neither way, and syntax ``Pi`` where
# a ``VPi`` belongs.  ``evaluate`` takes terms and types alike, so its
# wrong kinds are a substitution and a value; its rows keep the names
# ``eval_tm`` and ``eval_ty`` of the term and the type evaluator that it
# joins into one fold.  The evaluators are called
# in an empty and in a nonempty environment, and ``normalize_ty_in`` in a
# nonempty context: there they first read the argument's ``reach``, which
# is a pair for a substitution, also a closed one such as ``IdSub()``, and
# which a value and an object that is no syntax lack.  Readback is called
# at depth 0 and above, where it first reads the level ``reach`` of its
# arguments, which an object that is no node lacks.
STUCK = {
    "eval_tm": (lambda x: evaluate((), x), IdSub()),
    "eval_tm-in-env": (lambda x: evaluate((Tt(),), x), Wk()),
    "eval_ty": (lambda x: evaluate((), x), NE_BOOL),
    "eval_ty-in-env": (lambda x: evaluate((Tt(),), x), NE_BOOL),
    "eval_ty-closed-in-env": (lambda x: evaluate((Tt(),), x), IdSub()),
    "eval_sub": (lambda x: eval_sub((), x), Top()),
    "eval_sub-in-env": (lambda x: eval_sub((Tt(),), x), Top()),
    "normalize_ty_in-in-ctx": (lambda x: normalize_ty_in(Ctx.of(Bool()), x),
                               NE_BOOL),
    "readback_tm": (lambda x: readback_tm(0, Tt(), x), Pi(Bool(), Bool())),
    "readback_tm-at-bool": (lambda x: readback_tm(0, x, Bool()), Tt()),
    "readback_ty": (lambda x: readback_ty(0, x), Tt()),
    "readback_tm-at-depth": (lambda x: readback_tm(2, Tt(), x),
                             Pi(Bool(), Bool())),
    "readback_tm-at-bool-at-depth": (lambda x: readback_tm(2, x, Bool()),
                                     Tt()),
    "readback_ty-at-depth": (lambda x: readback_ty(2, x), Tt()),
    "readback_ne": (lambda x: readback_ne(0, x), Tt()),
    "vapp": (lambda x: vapp(x, Tt()), NE_BOOL),
    "vfst": (vfst, NE_BOOL),
    "vsnd": (vsnd, TrueLit()),
    "vif": (lambda x: vif(MOTIVE, TrueLit(), TrueLit(), x), Tt()),
    "vj": (lambda x: vj(MOTIVE, Tt(), x), NE_BOOL),
}


@pytest.mark.parametrize("name", list(STUCK))
@pytest.mark.parametrize("foreign", ["wrong-kind", "object"])
def test_evaluation_and_readback_are_stuck_on_a_foreign_object(name, foreign):
    call, wrong = STUCK[name]
    with pytest.raises(InternalStuck):
        call(wrong if foreign == "wrong-kind" else object())
