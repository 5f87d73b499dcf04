from ttk.conversion import conv_sub
from ttk.syntax import (
    Bool, Code, Comp, Ctx, EMPTY, El, Eps, Ext, FalseLit, IdSub, If, Lam, Pi,
    Top, TrueLit, Tt, Univ, Var0, Wk,
)
from ttk.termify import decoded
from ttk.generate import GenConfig, GenExhausted, InstanceGen, derive_seed
from ttk.injectivity import (
    COMPONENT_CASES, build_ctx_iso, check_embedding, injectivity_probe,
)


def _round_trips(ctx, iso):
    """Both composites of the isomorphism are the identity."""
    target = EMPTY.extend(decoded(ctx))
    return (conv_sub(target, target, Comp(iso.fwd, iso.bwd), IdSub())
            and conv_sub(ctx, ctx, Comp(iso.bwd, iso.fwd), IdSub()))


def test_iso_base_case_shape():
    iso = build_ctx_iso(EMPTY)
    assert iso.fwd == Ext(Eps(), El(Code(Top())), Tt())
    assert iso.bwd == Eps()
    assert _round_trips(EMPTY, iso)


def test_iso_step_cases():
    for ctx in (Ctx.of(Bool()), Ctx.of(Bool(), Bool()),
                Ctx.of(Univ(0), El(Var0()))):
        assert _round_trips(ctx, build_ctx_iso(ctx))


def test_embedding_examples():
    assert check_embedding("tm", EMPTY, TrueLit()).accepted
    assert check_embedding("ty", EMPTY, Bool()).accepted
    assert check_embedding("sub", Ctx.of(Bool()), Wk()).accepted


def test_component_equation_cases():
    for name, sort, ctx, entity in COMPONENT_CASES:
        if sort == "ctx":
            assert _round_trips(ctx, build_ctx_iso(ctx)), name
        else:
            assert check_embedding(sort, ctx, entity).accepted, name


def test_probe_reflexive_pair():
    result = injectivity_probe("tm", EMPTY, Bool(), TrueLit(), TrueLit())
    assert result.translations_equal and result.sources_equal
    assert not result.counterexample


def test_probe_separates_extensional_pair():
    # neither the sources nor their translations are convertible
    f = Lam(Bool(), If(Bool(), TrueLit(), FalseLit(), Var0()))
    g = Lam(Bool(), Var0())
    result = injectivity_probe("tm", EMPTY, Pi(Bool(), Bool()), f, g)
    assert not result.translations_equal
    assert not result.sources_equal
    assert not result.counterexample


def test_probe_on_generated_pairs():
    checked = 0
    seed = 0
    while checked < 30 and seed < 200:
        gen = InstanceGen(GenConfig(seed=derive_seed(23, "probe", seed), max_nodes=6))
        seed += 1
        try:
            ctx = gen.draw_ctx()
            ty = gen.draw_ty(ctx)
            lhs = gen.draw_tm(ctx, ty)
            rhs = gen.draw_tm(ctx, ty)
        except GenExhausted:
            continue
        result = injectivity_probe("tm", ctx, ty, lhs, rhs)
        assert not result.counterexample
        checked += 1
    assert checked >= 30
