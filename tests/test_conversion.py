import pytest

from ttk.syntax import (
    Bool, Code, Comp, Ctx, EMPTY, El, Eps, Ext, FalseLit, IdSub, IdTy, If,
    J, Lam, Pair, Pi, Sigma, Top, TrueLit, Tt, TmSub, TySub, Univ, Var0,
    Wk, apply1, v,
)
from ttk.semantics import evaluate, readback_tm, readback_ty, vapp
from ttk.values import Closure, fresh
from ttk.conversion import conv_sub, conv_tm, conv_ty, normalize_tm, normalize_ty
from ttk.surface import parse_ctx, parse_tm, print_tm, read_sexpr
from ttk.typecheck import TypeCheckError, synth_tm


BOOL_CTX = Ctx.of(Bool())
FUN_CTX = Ctx.of(Pi(Bool(), Bool()))


def test_eval_beta():
    assert evaluate((), apply1(Lam(Bool(), Var0()), TrueLit())) == TrueLit()


def test_a_lambda_evaluates_to_a_closure():
    # a λ's value is the one closure class, applied by evaluating its body
    closure = evaluate((), Lam(Bool(), Var0()))
    assert closure is Closure((), Var0())
    assert vapp(closure, TrueLit()) is TrueLit()


def test_eval_if_on_literal():
    tm = If(Bool(), FalseLit(), TrueLit(), TrueLit())
    assert evaluate((), tm) == FalseLit()


def test_eval_type_substitution():
    assert evaluate((), TySub(Bool(), Eps())) == Bool()


# Each leaf, a construct without a subterm, with the type it has.
LEAVES = {"top": (Top(), None), "bool": (Bool(), None), "u3": (Univ(3), None),
          "tt": (Tt(), Top()), "true": (TrueLit(), Bool()),
          "false": (FalseLit(), Bool())}


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("name", list(LEAVES))
def test_a_leaf_is_its_own_value(name, depth):
    # the node itself, in an empty and in a nonempty environment or depth
    leaf, ty = LEAVES[name]
    env = tuple(fresh(lvl, Bool()) for lvl in range(depth))
    assert evaluate(env, leaf) is leaf
    if ty is None:
        assert readback_ty(depth, leaf) is leaf
    else:
        assert readback_tm(depth, leaf, ty) is leaf


def test_readback_unit_eta():
    # any unit-typed value reads back as tt, neutral variables included
    assert normalize_tm(Ctx.of(Top()), Var0()) == Tt()
    assert readback_tm(1, fresh(0, Top()), Top()) == Tt()
    assert readback_tm(1, fresh(0, Bool()), Bool()) == Var0()


def test_readback_neutral_bool_var():
    assert normalize_tm(BOOL_CTX, Var0()) == Var0()


def test_readback_pi_eta():
    # the eta expansion of a function variable normalizes like the variable
    expanded = Lam(Bool(), apply1(v(1), v(0)))
    assert normalize_tm(FUN_CTX, expanded) == normalize_tm(FUN_CTX, v(0))


def test_normalize_strips_substitutions():
    assert normalize_tm(EMPTY, TmSub(TrueLit(), Eps())) == TrueLit()
    assert normalize_tm(BOOL_CTX, Var0()) == Var0()
    assert normalize_tm(EMPTY, TmSub(TmSub(TrueLit(), IdSub()), IdSub())) == TrueLit()


def test_normalize_idempotent_on_samples():
    samples = [
        (EMPTY, apply1(Lam(Bool(), Var0()), TrueLit())),
        (BOOL_CTX, If(Bool(), FalseLit(), Var0(), Var0())),
        (FUN_CTX, v(0)),
        (EMPTY, Lam(Univ(0), Lam(El(Var0()), Var0()))),
        (EMPTY, Pair(Bool(), TySub(Top(), Wk()), TrueLit(), Tt())),
    ]
    for ctx, tm in samples:
        once = normalize_tm(ctx, tm)
        assert normalize_tm(ctx, once) == once


def test_normal_forms_retypecheck():
    ctx = Ctx.of(Pi(Bool(), Bool()), Bool())
    tm = apply1(v(1), If(Bool(), v(0), FalseLit(), v(0)))
    nf = normalize_tm(ctx, tm)
    assert conv_ty(ctx, synth_tm(ctx, nf), synth_tm(ctx, tm))


def test_conv_bool_beta():
    lhs = If(Bool(), TrueLit(), FalseLit(), TrueLit())
    assert conv_tm(EMPTY, Bool(), lhs, TrueLit())


def test_conv_rejects_extensionally_equal_functions():
    # pointwise-equal but definitionally distinct closed functions
    f = Lam(Bool(), If(Bool(), TrueLit(), FalseLit(), Var0()))
    g = Lam(Bool(), Var0())
    assert not conv_tm(EMPTY, Pi(Bool(), Bool()), f, g)
    for b in (TrueLit(), FalseLit()):
        assert conv_tm(EMPTY, Bool(), apply1(f, b), apply1(g, b))


def test_conv_sub_identity_laws():
    sigma = Ext(Eps(), Bool(), TrueLit())
    assert conv_sub(EMPTY, Ctx.of(Bool()), Comp(IdSub(), sigma), sigma)
    assert conv_sub(EMPTY, Ctx.of(Bool()), Comp(sigma, IdSub()), sigma)


def test_conv_sub_empty_eta():
    # every substitution into the empty context equals eps
    assert conv_sub(BOOL_CTX, EMPTY, Eps(), Comp(Eps(), Wk()))


def test_conv_sub_pair_eta():
    # (p, q) = id
    assert conv_sub(BOOL_CTX, BOOL_CTX, Ext(Wk(), Bool(), Var0()), IdSub())


def test_top_collapse():
    ctx = Ctx.of(Top())
    assert conv_tm(ctx, Top(), Var0(), Tt())
    assert conv_tm(ctx, Top(), TmSub(Tt(), Eps()), Var0())


def test_no_bool_eta():
    assert not conv_tm(BOOL_CTX, Bool(), Var0(), TrueLit())
    assert not conv_tm(BOOL_CTX, Bool(), Var0(), FalseLit())


def test_no_id_eta():
    # J on a neutral equation stays stuck
    ctx = Ctx.of(Bool(), IdTy(TySub(Bool(), Wk()), TrueLit(), Var0()))
    stuck = J(TySub(Bool(), Comp(Wk(), Wk())), FalseLit(), Var0())
    nf = normalize_tm(ctx, stuck)
    assert isinstance(nf, J)


def test_universe_roundtrips_collapse():
    ctx = Ctx.of(Univ(0))
    # El (c A) = A and c (El a) = a leave no roundtrip in normal forms
    assert conv_ty(EMPTY, El(Code(Bool())), Bool())
    assert conv_tm(ctx, Univ(0), Code(El(Var0())), Var0())
    assert normalize_ty(ctx, El(Code(El(Var0())))) == El(Var0())


def test_conv_checks_classifier():
    with pytest.raises(TypeCheckError):
        conv_tm(EMPTY, Bool(), Tt(), TrueLit())


def test_conv_ty_levels_matter():
    assert not conv_ty(EMPTY, Univ(0), Univ(1))
    assert not conv_ty(EMPTY, Bool(), Top())


def test_conv_equivalence_on_samples():
    ctx = Ctx.of(Bool())
    t = If(Bool(), Var0(), FalseLit(), TrueLit())
    u = normalize_tm(ctx, t)
    w = TmSub(t, IdSub())
    # reflexive, symmetric, transitive
    assert conv_tm(ctx, Bool(), t, t)
    assert conv_tm(ctx, Bool(), t, u) and conv_tm(ctx, Bool(), u, t)
    assert conv_tm(ctx, Bool(), u, w) and conv_tm(ctx, Bool(), t, w)


def test_conv_congruence_under_constructors():
    ctx = Ctx.of(Bool())
    t = apply1(Lam(Bool(), Var0()), Var0())
    u = Var0()
    assert conv_tm(ctx, Bool(), t, u)
    # wrap both sides with the same constructors
    assert conv_tm(EMPTY, Pi(Bool(), Bool()), Lam(Bool(), t), Lam(Bool(), u))
    assert conv_tm(
        ctx, Sigma(Bool(), TySub(Bool(), Wk())),
        Pair(Bool(), TySub(Bool(), Wk()), t, t),
        Pair(Bool(), TySub(Bool(), Wk()), u, u),
    )
    assert conv_ty(ctx, IdTy(Bool(), t, t), IdTy(Bool(), u, u))
    assert conv_tm(ctx, Bool(), If(Bool(), t, u, u), If(Bool(), u, t, u))


def test_conv_congruence_exhaustive_hosts():
    # one congruence check per constructor that can host a boolean-valued
    # or boolean-typed argument position
    from ttk.syntax import Code, Comp, Eps, Fst, J, Refl, Snd
    from ttk.typecheck import ctxs_convertible, synth_sub
    ctx = Ctx.of(Bool())
    t = apply1(Lam(Bool(), Var0()), Var0())  # conv-equal pair (t, u)
    u = Var0()
    bb = TySub(Bool(), Wk())
    checks = [
        conv_tm(ctx, Bool(), TmSub(t, IdSub()), TmSub(u, IdSub())),
        conv_tm(EMPTY, Pi(Bool(), Bool()), Lam(Bool(), t), Lam(Bool(), u)),
        conv_tm(ctx, Bool(), apply1(Lam(Bool(), Var0()), t),
                apply1(Lam(Bool(), Var0()), u)),
        conv_tm(ctx, Sigma(Bool(), bb), Pair(Bool(), bb, t, u),
                Pair(Bool(), bb, u, t)),
        conv_tm(ctx, Bool(), Fst(Pair(Bool(), bb, t, u)),
                Fst(Pair(Bool(), bb, u, t))),
        conv_tm(ctx, Bool(), Snd(Pair(Bool(), bb, u, t)),
                Snd(Pair(Bool(), bb, t, u))),
        conv_tm(ctx, Univ(0), Code(IdTy(Bool(), t, t)),
                Code(IdTy(Bool(), u, u))),
        conv_tm(ctx, Bool(), If(bb, t, t, t), If(bb, u, u, u)),
        conv_tm(ctx, IdTy(Bool(), t, u), Refl(t), Refl(u)),
        conv_tm(ctx, Bool(), J(TySub(Bool(), Comp(Wk(), Wk())), t, Refl(u)),
                J(TySub(Bool(), Comp(Wk(), Wk())), u, Refl(t))),
        conv_ty(ctx, El(Code(IdTy(Bool(), t, t))), IdTy(Bool(), u, u)),
        conv_ty(ctx, Pi(IdTy(Bool(), t, t), Top()),
                Pi(IdTy(Bool(), u, u), Top())),
        conv_ty(ctx, Sigma(Top(), IdTy(bb, TmSub(t, Wk()), TmSub(t, Wk()))),
                Sigma(Top(), IdTy(bb, TmSub(u, Wk()), TmSub(u, Wk())))),
        conv_ty(ctx, TySub(Bool(), Ext(Eps(), Bool(), t)),
                TySub(Bool(), Ext(Eps(), Bool(), u))),
        conv_sub(ctx, Ctx.of(Bool()), Ext(Eps(), Bool(), t),
                 Ext(Eps(), Bool(), u)),
        conv_sub(ctx, Ctx.of(Bool()),
                 Comp(Ext(Eps(), Bool(), t), IdSub()),
                 Ext(Eps(), Bool(), u)),
    ]
    assert all(checks)
    # substitutions with convertible bodies also synthesize convertible
    # codomains
    assert ctxs_convertible(
        synth_sub(ctx, Ext(IdSub(), None, t)),
        synth_sub(ctx, Ext(IdSub(), None, u)))


# One stuck eliminator per spine former, with the printed normal form it
# must read back as.  Each reads a type off its head: an argument at the
# domain of the function, a projection at the Σ, an ``if`` or ``J``
# applied at its motive, and the universe variable under a code.
STUCK_SPINES = {
    "app": ("(ctx (pi (pi (bool) (bool)) (bool)) (pi (bool) (bool)))",
            "(dollar (v 1) (v 0))",
            "(tmsub #1=(app (v 1)) (ext (id) (pi (bool) (bool)) "
            "(lam (bool) (tmsub #1# (ext (id) (bool) (q))))))"),
    "fst": ("(ctx (sigma (pi (bool) (bool)) (top)))", "(fst (q))",
            "(lam (bool) (tmsub (app (fst (v 1))) (ext (id) (bool) (q))))"),
    "snd": ("(ctx (sigma (bool) (pi (bool) (bool))))",
            "(dollar (snd (q)) (fst (q)))",
            "(tmsub (app (snd (q))) (ext (id) (bool) (fst (q))))"),
    "snd-dependent": ("(ctx (sigma (u 0) (el (q))))", "(snd (q))",
                      "(snd (q))"),
    "if": ("(ctx (bool))",
           "(dollar (if (pi (bool) (bool)) (lam (bool) (q)) "
           "(lam (bool) (true)) (q)) (false))",
           "(tmsub (app (if (pi (bool) (bool)) (lam (bool) (q)) "
           "(lam (bool) (true)) (q))) (ext (id) (bool) (false)))"),
    "j": ("(ctx (bool) (idt (tysub (bool) (p)) (true) (q)))",
          "(j (idt (bool) (true) (v 1)) (refl (true)) (q))",
          "(j (idt (bool) (true) (v 1)) (refl (true)) (q))"),
    "j-applied": ("(ctx (bool) (idt (tysub (bool) (p)) (true) (q)))",
                  "(dollar (j (pi (bool) (bool)) (lam (bool) (q)) (q)) "
                  "(true))",
                  "(tmsub (app (j (pi (bool) (bool)) (lam (bool) (q)) (q))) "
                  "(ext (id) (bool) (true)))"),
    "code-el": ("(ctx (u 0))", "(code (el (q)))", "(q)"),
}


@pytest.mark.parametrize("name", list(STUCK_SPINES))
def test_stuck_eliminator_reads_back_as_a_spine(name):
    ctx, tm, expected = STUCK_SPINES[name]
    nf = normalize_tm(parse_ctx(read_sexpr(ctx)), parse_tm(read_sexpr(tm)))
    assert print_tm(nf) == expected
