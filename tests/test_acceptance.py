"""Acceptance gate: every criterion at its stated size and budget, one
pass/fail line per criterion."""

import time

import pytest

from ttk.syntax import (
    Bool, EMPTY, El, FalseLit, If, Lam, Pi, Top, TrueLit, Tt, Ctx, Univ,
    Var0, apply1, v,
)
from ttk.caches import clear_all
from ttk.canonicity import canonicity_verdict
from ttk.conversion import conv_tm, conv_ty, normalize_tm
from ttk.generate import GenConfig, GenExhausted, InstanceGen, derive_seed
from ttk.parametricity import param_entity
from ttk.suites import (
    run_canonicity_suite, run_equation_suite, run_injectivity_suite,
    run_parametricity_suite, run_termified_suite,
)
from ttk.typecheck import synth_tm, types_convertible

from cases import CONSTRUCTOR_CASES

SEED = 1


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_all()
    yield


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""),
          flush=True)
    assert ok, f"{name}: {detail}"


def _sample_terms(count, max_nodes=8, tag="hygiene"):
    out = []
    seed = 0
    while len(out) < count and seed < count * 10:
        gen = InstanceGen(GenConfig(seed=derive_seed(SEED, tag, seed),
                                    max_nodes=max_nodes))
        seed += 1
        try:
            ctx = gen.draw_ctx()
            ty = gen.draw_ty(ctx)
            tm = gen.draw_tm(ctx, ty)
        except GenExhausted:
            continue
        out.append((ctx, ty, tm))
    assert len(out) == count
    return out


def test_criterion_equation_suite():
    start = time.monotonic()
    report = run_equation_suite(seed=SEED, count=100, max_nodes=12, max_level=2)
    elapsed = time.monotonic() - start
    complete = all(row.passed >= 100 and row.failed == 0 for row in report.rows)
    detail = f"{len(report.rows)} schemas x 100 instances in {elapsed:.1f}s"
    for row in report.rows:
        for line in row.detail:
            print("  counterexample:", line)
    _criterion("equation-suite", complete and elapsed < 120.0, detail)


def test_criterion_termified_suite():
    start = time.monotonic()
    report = run_termified_suite(seed=SEED, count=50, max_nodes=8, max_level=2)
    elapsed = time.monotonic() - start
    complete = all(row.passed >= 50 and row.failed == 0 for row in report.rows)
    detail = f"{len(report.rows)} schemas x 50 instances in {elapsed:.1f}s"
    for row in report.rows:
        for line in row.detail:
            print("  counterexample:", line)
    _criterion("termified-model-suite", complete and elapsed < 180.0, detail)


def test_criterion_injectivity_suite():
    report = run_injectivity_suite(seed=SEED, count=100)
    by_label = {row.label: row for row in report.rows}
    ok = (
        by_label["ctx-isomorphisms"].passed >= 100
        and all(by_label[f"embedding-{s}"].passed >= 100
                for s in ("ty", "sub", "tm"))
        and by_label["component-equations"].passed >= 26
        and by_label["injectivity-probe"].passed >= 100
        and report.ok
    )
    detail = ", ".join(f"{row.label}={row.passed}" for row in report.rows)
    _criterion("injectivity-suite", ok, detail)


def test_criterion_canonicity_suite():
    report = run_canonicity_suite(seed=SEED, count=100)
    verdicts, coverage = report.rows
    ok = verdicts.passed >= 100 and verdicts.failed == 0 and coverage.ok()
    _criterion("canonicity-suite", ok,
               f"{verdicts.passed} certified verdicts")


def test_criterion_parametricity_suite():
    report = run_parametricity_suite(seed=SEED, count=100)
    ok = all(row.passed >= 100 and row.failed == 0 for row in report.rows)
    missing = []
    for sort, ctx, entity in CONSTRUCTOR_CASES:
        try:
            param_entity(ctx, entity)
        except Exception:
            missing.append((sort, type(entity).__name__))
    ok = ok and not missing
    _criterion("parametricity-suite", ok,
               f"100 per sort, missing clauses: {len(missing)}")


def test_criterion_distinguished_examples():
    idfun = Lam(Univ(0), Lam(El(Var0()), Var0()))
    expected = Pi(Univ(0), Pi(El(v(0)), El(v(1))))
    idfun_ok = conv_ty(EMPTY, synth_tm(EMPTY, idfun), expected)

    f = Lam(Bool(), If(Bool(), TrueLit(), FalseLit(), Var0()))
    g = Lam(Bool(), Var0())
    distinct = not conv_tm(EMPTY, Pi(Bool(), Bool()), f, g)
    # a verdict is certified, or canonicity_verdict raises
    agree = all(
        canonicity_verdict(apply1(f, b)) == canonicity_verdict(apply1(g, b))
        for b in (TrueLit(), FalseLit()))
    _criterion("distinguished-examples", idfun_ok and distinct and agree,
               f"idfun={idfun_ok}, pair-rejected={distinct}, verdicts-agree={agree}")


def test_criterion_kernel_hygiene():
    samples = _sample_terms(60)
    idempotent = all(
        normalize_tm(ctx, normalize_tm(ctx, tm)) == normalize_tm(ctx, tm)
        for ctx, ty, tm in samples)
    retypecheck = all(
        types_convertible(ctx, synth_tm(ctx, normalize_tm(ctx, tm)),
                          synth_tm(ctx, tm))
        for ctx, ty, tm in samples)

    equivalence = True
    congruence = True
    for ctx, ty, tm in samples[:30]:
        nf = normalize_tm(ctx, tm)
        equivalence &= conv_tm(ctx, ty, tm, tm)
        equivalence &= conv_tm(ctx, ty, tm, nf) and conv_tm(ctx, ty, nf, tm)
        wrapped_l = apply1(Lam(ty, Var0()), tm)
        wrapped_r = apply1(Lam(ty, Var0()), nf)
        equivalence &= conv_tm(ctx, ty, wrapped_l, tm)  # transitive chain
        congruence &= conv_tm(ctx, ty, wrapped_l, wrapped_r)

    top_eta = normalize_tm(Ctx.of(Top()), Var0()) == Tt()
    fn_ctx = Ctx.of(Pi(Bool(), Bool()))
    pi_eta = conv_tm(fn_ctx, Pi(Bool(), Bool()),
                     Lam(Bool(), apply1(v(1), v(0))), v(0))
    ok = idempotent and retypecheck and equivalence and congruence \
        and top_eta and pi_eta
    _criterion(
        "kernel-hygiene", ok,
        f"idempotent={idempotent}, retypecheck={retypecheck}, "
        f"equiv={equivalence}, congr={congruence}, eta={top_eta and pi_eta}")
