"""Every kernel dispatcher rejects what is not of its sort.

The evaluator, readback, checker and both translations dispatch on the
exact class of a node.  A node of another sort, or an object that is no
node at all, falls through every test to the dispatcher's own error:
``TypeCheckError`` from the checker and the translations, whose input
may be anything, and ``InternalStuck`` from evaluation, readback and the
eliminators, which only run on checked input.
"""

import pytest

from ttk.parametricity import param_sub, param_tm, param_ty
from ttk.semantics import (
    eval_sub, eval_tm, eval_ty, readback_ne, readback_tm, readback_ty, vapp,
    vfst, vif, vj, vsnd,
)
from ttk.syntax import EMPTY, Bool, Top, TrueLit, Univ, Var0, Wk
from ttk.termify import termify_sub, termify_tm, termify_ty
from ttk.typecheck import TypeCheckError, infer_ty, synth_sub, synth_tm
from ttk.values import InternalStuck, NVar, TyClosure, VBool, VNe, VTrue, VTt

# A node of another sort, by the sort a dispatcher takes.
OTHER_SORT = {"ty": Var0(), "sub": Bool(), "tm": Wk()}

CHECKERS = [(infer_ty, "ty"), (synth_sub, "sub"), (synth_tm, "tm"),
            (termify_ty, "ty"), (termify_sub, "sub"), (termify_tm, "tm"),
            (param_ty, "ty"), (param_sub, "sub"), (param_tm, "tm")]
NOUNS = {"ty": "type", "sub": "substitution", "tm": "term"}


@pytest.mark.parametrize("fn, sort", CHECKERS,
                         ids=[fn.__name__ for fn, _ in CHECKERS])
@pytest.mark.parametrize("foreign", ["other-sort", "object"])
def test_checkers_and_translations_reject_a_foreign_object(fn, sort, foreign):
    x = OTHER_SORT[sort] if foreign == "other-sort" else object()
    with pytest.raises(TypeCheckError) as err:
        fn(EMPTY, x)
    assert err.value.message == f"not a {NOUNS[sort]} expression"
    assert err.value.expr is x


def test_a_negative_universe_level_is_rejected():
    with pytest.raises(TypeCheckError) as err:
        infer_ty(EMPTY, Univ(-1))
    assert err.value.message == "negative universe level"


# A neutral boolean: stuck, at a type that only ``if`` eliminates.
NE_BOOL = VNe(NVar(0, VBool()), VBool())
MOTIVE = TyClosure((), Bool())

# Each dispatcher, called on its foreign argument, with an argument of the
# wrong kind: syntax of another sort, a value where syntax belongs or the
# other way round, or a value that the eliminator cannot take.  The
# evaluators are called in an empty and in a nonempty environment: in a
# nonempty one they first read the argument's ``reach``, which a closed
# node of another sort has and an object that is no syntax lacks.
STUCK = {
    "eval_tm": (lambda x: eval_tm((), x), Bool()),
    "eval_tm-in-env": (lambda x: eval_tm((VTt(),), x), Bool()),
    "eval_ty": (lambda x: eval_ty((), x), Var0()),
    "eval_ty-in-env": (lambda x: eval_ty((VTt(),), x), Var0()),
    "eval_ty-closed-in-env": (lambda x: eval_ty((VTt(),), x), TrueLit()),
    "eval_sub": (lambda x: eval_sub((), x), Top()),
    "eval_sub-in-env": (lambda x: eval_sub((VTt(),), x), Top()),
    "readback_tm": (lambda x: readback_tm(0, VTt(), x), Bool()),
    "readback_tm-at-bool": (lambda x: readback_tm(0, x, VBool()), VTt()),
    "readback_ty": (lambda x: readback_ty(0, x), VTt()),
    "readback_ne": (lambda x: readback_ne(0, x), VTt()),
    "vapp": (lambda x: vapp(x, VTt()), NE_BOOL),
    "vfst": (vfst, NE_BOOL),
    "vsnd": (vsnd, VTrue()),
    "vif": (lambda x: vif(MOTIVE, VTrue(), VTrue(), x), VTt()),
    "vj": (lambda x: vj(MOTIVE, VTt(), x), NE_BOOL),
}


@pytest.mark.parametrize("name", list(STUCK))
@pytest.mark.parametrize("foreign", ["wrong-kind", "object"])
def test_evaluation_and_readback_are_stuck_on_a_foreign_object(name, foreign):
    call, wrong = STUCK[name]
    with pytest.raises(InternalStuck):
        call(wrong if foreign == "wrong-kind" else object())
