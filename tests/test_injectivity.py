import pytest

import ttk.injectivity
from ttk import caches
from ttk.cli import main
from ttk.conversion import conv_sub
from ttk.equations import EqInstance, check_instance, injectivity_probe
from ttk.syntax import (
    Bool, Code, Comp, Ctx, EMPTY, El, Eps, Ext, FalseLit, IdSub, If, Lam, Pi,
    Top, TrueLit, Tt, Univ, Var0, Wk,
)
from ttk.termify import decoded, point_pair, verify_termified_equation
from ttk.generate import GenConfig, GenExhausted, InstanceGen, derive_seed
from ttk.injectivity import (
    COMPONENT_CASES, IsoFailure, build_ctx_iso, check_embedding,
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


def test_iso_is_certified_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return conv_sub(*args)
    monkeypatch.setattr(ttk.injectivity, "conv_sub", counting)
    ctx = Ctx.of(Bool(), Univ(0), El(Var0()), Bool(), Pi(Bool(), Bool()))
    iso = build_ctx_iso(ctx)
    assert len(calls) == 2
    assert _round_trips(ctx, iso)


@pytest.mark.parametrize("corrupt", [1, 2])
def test_one_certificate_catches_a_broken_prefix(monkeypatch, corrupt):
    # only the prefix of length ``corrupt`` sends its last entry to (true);
    # every entry is (bool), so the broken pair is still well typed
    def broken(ctx, head, tail):
        return point_pair(ctx, head, TrueLit() if len(ctx) == corrupt
                          else tail)
    monkeypatch.setattr(ttk.injectivity, "point_pair", broken)
    with pytest.raises(IsoFailure):
        build_ctx_iso(Ctx.of(Bool(), Bool(), Bool()))


@pytest.mark.parametrize("entity", ["", " (q)", " (p)"])
def test_inject_on_a_long_telescope(capsys, tmp_path, entity):
    # one certificate per context: 100 entries take about 25,000 misses.
    # CPython 3.12.1's C recursion limit refuses 124 entries.
    f = tmp_path / "long.tt"
    f.write_text("(inject (ctx" + " (bool)" * 100 + ")" + entity + ")")
    caches.clear_all()
    before = sum(s["misses"] for s in caches.stats().values())
    assert main(["run", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "RESULT: accept"
    misses = sum(s["misses"] for s in caches.stats().values()) - before
    assert misses < 50_000


def test_embedding_examples():
    assert check_embedding(EMPTY, TrueLit()) is True
    assert check_embedding(EMPTY, Bool()) is True
    assert check_embedding(Ctx.of(Bool()), Wk()) is True
    assert check_embedding(Ctx.of(Bool())) is True


def test_component_equation_cases():
    for name, ctx, entity in COMPONENT_CASES:
        if entity is None:
            assert _round_trips(ctx, build_ctx_iso(ctx)), name
        else:
            assert check_embedding(ctx, entity) is True, name


def test_probe_reflexive_pair():
    inst = EqInstance(EMPTY, Bool(), TrueLit(), TrueLit())
    assert verify_termified_equation(inst) and check_instance(inst)
    assert not injectivity_probe(inst)


def test_probe_separates_extensional_pair():
    # neither the sources nor their translations are convertible
    f = Lam(Bool(), If(Bool(), TrueLit(), FalseLit(), Var0()))
    g = Lam(Bool(), Var0())
    inst = EqInstance(EMPTY, Pi(Bool(), Bool()), f, g)
    assert not verify_termified_equation(inst)
    assert not check_instance(inst)
    assert not injectivity_probe(inst)


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
        inst = EqInstance(ctx, ty, lhs, rhs)
        if verify_termified_equation(inst):
            assert check_instance(inst)
        assert not injectivity_probe(inst)
        checked += 1
    assert checked >= 30
