import pytest

from ttk.syntax import (
    Bool, Comp, Ctx, EMPTY, El, FalseLit, IdSub, IdTy, If, J, Pi, Refl,
    Top, TrueLit, Tt, TmSub, TySub, Univ, Var0, Wk,
)
from ttk.conversion import conv_tm
from ttk.parametricity import param, param_entity
from ttk.typecheck import TranslationIllTyped, TypeCheckError, infer_ty


def test_empty_context_predicate_is_unit():
    assert param(EMPTY, None) == Top()
    ent = param_entity(EMPTY)
    assert ent.classifier == 0


def test_true_witness():
    ent = param_entity(EMPTY, TrueLit())
    assert ent.payload == Tt()  # booleans carry the trivial predicate


def test_universe_predicate_space():
    ctx = Ctx.of(Bool())
    ent = param_entity(ctx, Univ(0))
    assert ent.classifier == 1  # matches the universe's own level
    assert ent.payload == Pi(El(Var0()), TySub(Univ(0), Wk()))


def test_clause_coverage_all_constructors():
    # one translated entity per constructor; missing clauses would raise
    from cases import CONSTRUCTOR_CASES
    for _, ctx, entity in CONSTRUCTOR_CASES:
        param_entity(ctx, entity)  # verifies internally


def test_substitution_compatibility_instances():
    # the witness of t[id] converts to the witness of t
    ctx = Ctx.of(Bool())
    t = If(TySub(Bool(), Wk()), FalseLit(), TrueLit(), Var0())
    direct = param_entity(ctx, t)
    routed = param_entity(ctx, TmSub(t, IdSub()))
    assert conv_tm(direct.scope, direct.classifier, direct.payload,
                   routed.payload)


def test_predicate_levels_follow_the_source():
    ctx = Ctx.of(Univ(1))
    samples = [Bool(), Univ(0), Pi(Univ(0), El(Var0())), El(Var0())]
    for ty in samples:
        ent = param_entity(ctx, ty)
        assert ent.classifier == infer_ty(ctx, ty)


def test_equality_predicate_relates_transported_witnesses():
    # the predicate of an equality type is itself an equality type
    ent = param_entity(EMPTY, IdTy(Bool(), TrueLit(), TrueLit()))
    assert isinstance(ent.payload, IdTy)


def test_refl_witness_is_refl():
    ent = param_entity(EMPTY, Refl(FalseLit()))
    assert isinstance(ent.payload, Refl)


def test_j_witness_on_neutral_equation():
    ctx = Ctx.of(Top(), IdTy(TySub(Top(), Wk()), Tt(), Var0()))
    ent = param_entity(
        ctx, J(TySub(Bool(), Comp(Wk(), Wk())), TrueLit(), Var0()))
    assert isinstance(ent.payload, J)


def test_translation_rejects_ill_typed_input():
    # Ill-typed input is a user error, raised before translating; a
    # TranslationIllTyped would report it as a bug of the translation.
    with pytest.raises(TypeCheckError) as info:
        param_entity(EMPTY, Var0())
    assert not isinstance(info.value, TranslationIllTyped)
