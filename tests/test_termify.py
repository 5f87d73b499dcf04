import pytest

import ttk.termify
from ttk import caches
from ttk.syntax import (
    App, Bool, Code, Comp, Ctx, EMPTY, El, Eps, Ext, FalseLit, IdSub,
    IdTy, If, J, Lam, Pair, Pi, Refl, Sigma, Snd, Top, TrueLit, Tt, TmSub,
    TySub, Univ, Var0, Wk, apply1,
)
from ttk.conversion import conv_tm
from ttk.equations import EqInstance
from ttk.generate import GenConfig, GenExhausted, InstanceGen, derive_seed
from ttk.termify import (
    decoded, termified_classifier, termify, termify_entity,
    verify_termified_equation,
)
from ttk.typecheck import TranslationIllTyped, TypeCheckError, infer_ty


def test_empty_context_is_coded_unit():
    ent = termify_entity(EMPTY)
    assert ent.payload == Code(Top())
    assert ent.classifier == Univ(0)


def test_identity_substitution_clause():
    ent = termify_entity(EMPTY, IdSub())
    assert ent.payload == Lam(El(Code(Top())), Var0())


def test_extended_context_clause():
    # hand-composed from the empty-context, boolean, and extension clauses
    ent = termify_entity(Ctx.of(Bool()))
    expected = Code(Sigma(
        El(Code(Top())),
        El(App(Lam(El(Code(Top())), Code(Bool()))))))
    assert ent.payload == expected
    assert ent.classifier == Univ(0)


def test_type_preservation_on_samples():
    made = {"ctx": 0, "ty": 0, "sub": 0, "tm": 0}
    seed = 0
    while min(made.values()) < 15 and seed < 300:
        gen = InstanceGen(GenConfig(seed=derive_seed(11, "tpres", seed), max_nodes=7))
        seed += 1
        try:
            ctx = gen.draw_ctx()
            ty = gen.draw_ty(ctx)
            tm = gen.draw_tm(ctx, ty)
            sub = gen.draw_sub(ctx, gen.draw_ctx())
        except GenExhausted:
            continue
        for sort, ent in (("ctx", None), ("ty", ty), ("tm", tm), ("sub", sub)):
            termify_entity(ctx, ent)  # checks the payload
            made[sort] += 1
    assert min(made.values()) >= 15


def test_outputs_are_closed():
    ctx = Ctx.of(Bool(), TySub(Bool(), Wk()))
    ent = termify_entity(ctx, Var0())
    assert ent.scope == EMPTY  # and the payload checked there


def test_model_law_idl_on_weakening():
    ctx = Ctx.of(Bool())
    inst = EqInstance(ctx, EMPTY, Comp(IdSub(), Wk()), Wk())
    assert verify_termified_equation(inst)


def test_model_law_bool_sub_on_eps():
    inst = EqInstance(EMPTY, None, TySub(Bool(), Eps()), Bool())
    assert verify_termified_equation(inst)


def test_model_law_pi_eta_on_translated_function():
    fn = Lam(Bool(), Var0())
    inst = EqInstance(EMPTY, Pi(Bool(), TySub(Bool(), Wk())),
                      Lam(Bool(), App(fn)), fn)
    assert verify_termified_equation(inst)


def test_homomorphism_on_type_substitution():
    # translating A[sub] equals the substitution clause applied to the
    # translations of A and sub
    ctx = Ctx.of(Bool())
    sub = Ext(Eps(), Bool(), TrueLit())
    cod = Ctx.of(Bool())
    ty = IdTy(Bool(), Var0(), TrueLit())
    whole = termify(ctx, TySub(ty, sub))
    assembled = Lam(decoded(ctx), TmSub(
        App(termify(cod, ty)),
        Ext(Eps(), decoded(cod), App(TmSub(termify(ctx, sub), Eps())))))
    classifier = termified_classifier(ctx, TySub(ty, sub),
                                      infer_ty(ctx, TySub(ty, sub)))
    assert conv_tm(EMPTY, classifier, whole, assembled)


def test_eliminator_clauses_verify():
    cases = [
        (EMPTY, If(Bool(), TrueLit(), FalseLit(), TrueLit())),
        (EMPTY, J(Bool(), FalseLit(), Refl(TrueLit()))),
        (EMPTY, Snd(Pair(Bool(), TySub(Top(), Wk()), TrueLit(), Tt()))),
        (Ctx.of(Pi(Bool(), Bool())), apply1(Var0(), TrueLit())),
        (Ctx.of(Univ(1)), El(Var0())),
        (Ctx.of(Univ(0)), Code(El(Var0()))),
    ]
    for ctx, entity in cases:
        termify_entity(ctx, entity)


def test_verify_flags_translation_bugs(monkeypatch):
    # a fold whose output is ill-typed
    monkeypatch.setattr(ttk.termify, "termify", lambda ctx, x: TrueLit())
    with pytest.raises(TranslationIllTyped, match="closed-term clause for "
                       "TrueLit produced an ill-typed output"):
        termify_entity(EMPTY, TrueLit())


def test_clause_type_errors_are_translation_bugs(monkeypatch):
    # a clause that raises the checker's own error on checked input
    def failing(ctx, x):
        raise TypeCheckError("clause bug")
    monkeypatch.setattr(ttk.termify, "termify", failing)
    with pytest.raises(TranslationIllTyped, match="clause for Bool"):
        termify_entity(EMPTY, Bool())


def test_the_context_has_one_memo_key():
    # ``decoded`` and the entity API reach the fold with the same key, so
    # translating the context after decoding it is a hit, not a miss
    ctx = Ctx.of(Bool(), IdTy(TySub(Bool(), Wk()), TrueLit(), Var0()))
    caches.clear_all()
    decoded(ctx)
    before = caches.stats()["ttk.termify.termify"]
    termify_entity(ctx)
    after = caches.stats()["ttk.termify.termify"]
    assert after["misses"] == before["misses"]
    assert after["hits"] == before["hits"] + 1
