import pytest

from ttk.syntax import (
    Bool, EMPTY, FalseLit, If, Lam, TrueLit, Tt, TySub, Var0, Wk,
    apply1,
)
from ttk.canonicity import canonicity_verdict
from ttk.conversion import conv_tm
from ttk.typecheck import TypeCheckError


def test_literals():
    # the verdict is the certified literal itself
    assert canonicity_verdict(TrueLit()) is TrueLit()
    assert canonicity_verdict(FalseLit()) is FalseLit()


def test_branching_selects_first_branch_on_true():
    tm = If(Bool(), FalseLit(), TrueLit(), TrueLit())
    assert canonicity_verdict(tm) is FalseLit()


def test_beta_redex():
    tm = apply1(Lam(Bool(), Var0()), FalseLit())
    assert canonicity_verdict(tm) is FalseLit()


def test_non_boolean_rejected():
    with pytest.raises(TypeCheckError):
        canonicity_verdict(Tt())


def test_determinism():
    tm = If(TySub(Bool(), Wk()), FalseLit(), TrueLit(), TrueLit())
    assert canonicity_verdict(tm) == canonicity_verdict(tm)


def test_verdict_agrees_with_conversion_and_excludes_the_other():
    samples = [
        TrueLit(),
        apply1(Lam(Bool(), Var0()), TrueLit()),
        If(Bool(), FalseLit(), TrueLit(), FalseLit()),
    ]
    for tm in samples:
        verdict = canonicity_verdict(tm)
        other = FalseLit() if verdict is TrueLit() else TrueLit()
        assert conv_tm(EMPTY, Bool(), tm, verdict)
        assert not conv_tm(EMPTY, Bool(), tm, other)


def test_agreement_with_independent_machine():
    # a thunk-based weak-head machine, written separately from the kernel's
    # evaluator, must reach the same literal on generated closed booleans
    from naive_eval import naive_bool_value
    from ttk.generate import GenConfig, GenExhausted, InstanceGen, derive_seed
    checked = 0
    seed = 0
    while checked < 150 and seed < 700:
        gen = InstanceGen(GenConfig(seed=derive_seed(31, "machine", seed),
                                    max_nodes=10))
        seed += 1
        try:
            tm = gen.draw_tm(EMPTY, Bool())
        except GenExhausted:
            continue
        # a verdict is certified, or canonicity_verdict raises
        assert naive_bool_value(tm) == (canonicity_verdict(tm) is TrueLit())
        checked += 1
    assert checked >= 150
