"""Verification suites over generated instances.

Five suites mirror the package's claims: the defining equations hold in
the kernel, they still hold after the closed-term translation, the
embedding equations and context isomorphisms certify, closed booleans are
canonical, and the parametricity translation is type-preserving on every
sort.  Each suite is deterministic in its seed; failures carry a printed
counterexample, re-generated at smaller sizes first when possible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .syntax import (
    Bool, Comp, EMPTY, Fst, IdSub, If, J, Lam, Pair, Refl, Snd, Tt,
    TrueLit, TySub, TmSub, Var0, Wk, apply1, walk_constructors,
)
from .caches import clear_all
from .canonicity import NonCanonical, canonicity_verdict
from .equations import EqInstance, SCHEMA_NAMES, build_instance, check_instance
from .generate import GenConfig, GenExhausted, InstanceGen, derive_seed
from .injectivity import (
    COMPONENT_CASES, IsoFailure, build_ctx_iso, check_embedding,
    injectivity_probe,
)
from .parametricity import TranslationIllTyped, param_entity
from .surface import print_ctx, print_entity
from .termify import verify_termified_equation
from .typecheck import TypeCheckError, infer_ty


@dataclass
class SuiteRow:
    label: str
    passed: int = 0
    failed: int = 0
    detail: list = field(default_factory=list)

    def ok(self) -> bool:
        return self.failed == 0


@dataclass
class SuiteReport:
    name: str
    rows: list
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(row.ok() for row in self.rows)

    def lines(self) -> list[str]:
        width = max((len(r.label) for r in self.rows), default=8)
        out = [f"suite {self.name} ({self.elapsed:.1f}s)"]
        for row in self.rows:
            status = "ok" if row.ok() else "FAIL"
            out.append(f"  {row.label:<{width}}  {row.passed:4d} passed"
                       f"  {row.failed:4d} failed  {status}")
            out.extend("    " + line for line in row.detail)
        return out


def _dump_instance(inst: EqInstance) -> list[str]:
    lines = [f"ctx: {print_ctx(inst.ctx)}",
             f"lhs: {print_entity(inst.kind, inst.lhs)}",
             f"rhs: {print_entity(inst.kind, inst.rhs)}"]
    if inst.kind == "tm":
        lines.insert(1, f"at:  {print_entity('ty', inst.classifier)}")
    elif inst.kind == "sub":
        lines.insert(1, f"to:  {print_ctx(inst.classifier)}")
    return lines


def _eq_instance(name: str, seed: int, case: int, max_nodes: int,
                 max_level: int, retries: int = 60) -> EqInstance:
    for attempt in range(retries):
        cfg = GenConfig(seed=derive_seed(seed, name, case, attempt),
                        max_nodes=max_nodes, max_level=max_level)
        try:
            return build_instance(name, InstanceGen(cfg))
        except GenExhausted:
            continue
    raise GenExhausted(f"schema {name}: no instance within {retries} retries")


def _shrunk(name: str, seed: int, check, max_nodes: int, max_level: int,
            budget: int = 40) -> EqInstance | None:
    """Look for a smaller rejected instance of the same schema."""
    for nodes in range(2, max_nodes + 1):
        for attempt in range(budget // max_nodes + 2):
            cfg = GenConfig(seed=derive_seed(seed, "shrink", name, nodes, attempt),
                            max_nodes=nodes, max_level=max_level)
            try:
                inst = build_instance(name, InstanceGen(cfg))
            except GenExhausted:
                continue
            try:
                if not check(inst):
                    return inst
            except TypeCheckError:
                continue
    return None


def _run_schema_suite(name: str, seed: int, count: int, max_nodes: int,
                      max_level: int, check, schemas) -> SuiteReport:
    start = time.time()
    rows = []
    for schema in schemas:
        row = SuiteRow(schema)
        for case in range(count):
            try:
                inst = _eq_instance(schema, seed, case, max_nodes, max_level)
            except GenExhausted as err:
                row.failed += 1
                row.detail.append(str(err))
                continue
            if check(inst):
                row.passed += 1
            else:
                row.failed += 1
                smaller = _shrunk(schema, seed, check, max_nodes, max_level)
                row.detail.extend(_dump_instance(smaller or inst))
                break  # one counterexample per schema is enough
        rows.append(row)
    return SuiteReport(name, rows, time.time() - start)


def run_equation_suite(seed: int = 1, count: int = 100, max_nodes: int = 12,
                       max_level: int = 2, schemas=None) -> SuiteReport:
    return _run_schema_suite("equations", seed, count, max_nodes, max_level,
                             check_instance, schemas or SCHEMA_NAMES)


def run_termified_suite(seed: int = 1, count: int = 50, max_nodes: int = 8,
                        max_level: int = 2, schemas=None) -> SuiteReport:
    return _run_schema_suite("termified", seed, count, max_nodes, max_level,
                             verify_termified_equation, schemas or SCHEMA_NAMES)


# ---------------------------------------------------------------------------
# Injectivity
# ---------------------------------------------------------------------------

def _draw(seed_parts, build, retries: int = 60):
    for attempt in range(retries):
        cfg = GenConfig(seed=derive_seed(*seed_parts, attempt), max_nodes=8)
        gen = InstanceGen(cfg)
        try:
            return build(gen)
        except GenExhausted:
            continue
    raise GenExhausted(f"no instance for {seed_parts}")


def run_injectivity_suite(seed: int = 1, count: int = 100) -> SuiteReport:
    start = time.time()
    iso_row = SuiteRow("ctx-isomorphisms")
    for case in range(count):
        try:
            ctx = _draw((seed, "iso", case), lambda g: g.draw_ctx())
            build_ctx_iso(ctx)
            iso_row.passed += 1
        except (IsoFailure, GenExhausted) as err:
            iso_row.failed += 1
            iso_row.detail.append(str(err))

    embed_rows = []
    for sort in ("ty", "sub", "tm"):
        row = SuiteRow(f"embedding-{sort}")
        for case in range(count):
            try:
                ctx, entity = _draw((seed, "embed", sort, case),
                                    lambda g: _entity_draw(g, sort))
                report = check_embedding(sort, ctx, entity)
            except GenExhausted as err:
                row.failed += 1
                row.detail.append(str(err))
                continue
            if report.accepted:
                row.passed += 1
            else:
                row.failed += 1
                row.detail.append(f"ctx: {print_ctx(ctx)}")
                row.detail.append(f"entity: {print_entity(sort, entity)}")
        embed_rows.append(row)

    component_row = SuiteRow("component-equations")
    for name, sort, ctx, entity in COMPONENT_CASES:
        try:
            if sort == "ctx":
                build_ctx_iso(ctx)
                accepted = True
            else:
                accepted = check_embedding(sort, ctx, entity).accepted
        except IsoFailure:
            accepted = False
        if accepted:
            component_row.passed += 1
        else:
            component_row.failed += 1
            component_row.detail.append(f"case {name}")

    probe_row = SuiteRow("injectivity-probe")
    for case in range(count):
        sort = ("tm", "ty", "sub")[case % 3]
        equalish = case % 2 == 0
        try:
            kind, ctx, classifier, lhs, rhs = _draw(
                (seed, "probe", case), lambda g: _probe_draw(g, sort, equalish))
            result = injectivity_probe(kind, ctx, classifier, lhs, rhs)
        except GenExhausted as err:
            probe_row.failed += 1
            probe_row.detail.append(str(err))
            continue
        if result.counterexample:
            probe_row.failed += 1
            probe_row.detail.append(
                f"counterexample ctx={print_ctx(ctx)} "
                f"lhs={print_entity(sort, lhs)} rhs={print_entity(sort, rhs)}")
        else:
            probe_row.passed += 1

    rows = [iso_row, *embed_rows, component_row, probe_row]
    return SuiteReport("injectivity", rows, time.time() - start)


def _entity_draw(gen: InstanceGen, sort: str):
    """A context and an entity of ``sort`` in it (None for ``ctx``)."""
    ctx = gen.draw_ctx()
    match sort:
        case "ctx":
            return ctx, None
        case "ty":
            return ctx, gen.draw_ty(ctx)
        case "sub":
            return ctx, gen.draw_sub(ctx, gen.draw_ctx())
        case "tm":
            return ctx, gen.draw_tm(ctx, gen.draw_ty(ctx))
    raise ValueError(sort)


def _probe_draw(gen: InstanceGen, sort: str, equalish: bool):
    """A pair at one classifier; half the draws are equal by construction
    so the probe's implication is exercised in both directions."""
    ctx = gen.draw_ctx()
    match sort:
        case "ty":
            lhs = gen.draw_ty(ctx)
            rhs = TySub(lhs, IdSub()) if equalish \
                else gen.draw_ty_at_level(ctx, infer_ty(ctx, lhs))
            return "ty", ctx, None, lhs, rhs
        case "sub":
            cod = gen.draw_ctx()
            lhs = gen.draw_sub(ctx, cod)
            rhs = Comp(lhs, IdSub()) if equalish else gen.draw_sub(ctx, cod)
            return "sub", ctx, cod, lhs, rhs
        case "tm":
            ty = gen.draw_ty(ctx)
            lhs = gen.draw_tm(ctx, ty)
            rhs = TmSub(lhs, IdSub()) if equalish else gen.draw_tm(ctx, ty)
            return "tm", ctx, ty, lhs, rhs
    raise ValueError(sort)


# ---------------------------------------------------------------------------
# Canonicity
# ---------------------------------------------------------------------------

def _wrapped_bool(gen: InstanceGen, flavour: int):
    """Closed boolean built around a generated core, forcing one eliminator."""
    core = gen.draw_tm(EMPTY, Bool())
    match flavour:
        case 0:
            scrut = gen.draw_tm(EMPTY, Bool())
            return If(TySub(Bool(), Wk()), core, gen.draw_tm(EMPTY, Bool()), scrut)
        case 1:
            return J(TySub(Bool(), Comp(Wk(), Wk())), core, Refl(Tt()))
        case 2:
            return Fst(Pair(Bool(), TySub(Bool(), Wk()), core, TrueLit()))
        case 3:
            return Snd(Pair(Bool(), TySub(Bool(), Wk()), TrueLit(), core))
        case 4:
            return apply1(Lam(Bool(), Var0()), core)
    return core


def run_canonicity_suite(seed: int = 1, count: int = 100) -> SuiteReport:
    start = time.time()
    row = SuiteRow("closed-booleans")
    seen: set[str] = set()
    for case in range(count):
        try:
            tm = _draw((seed, "canon", case),
                       lambda g: _wrapped_bool(g, case % 6))
        except GenExhausted as err:
            row.failed += 1
            row.detail.append(str(err))
            continue
        walk_constructors(tm, seen)
        try:
            verdict = canonicity_verdict(tm)
        except NonCanonical as err:
            row.failed += 1
            row.detail.append(f"non-canonical: {print_entity('tm', tm)} ({err})")
            continue
        if verdict.certified:
            row.passed += 1
        else:
            row.failed += 1
            row.detail.append(f"uncertified: {print_entity('tm', tm)}")

    coverage = SuiteRow("eliminator-coverage")
    for needed in ("If", "J", "Fst", "Snd", "TmSub"):
        if needed in seen:
            coverage.passed += 1
        else:
            coverage.failed += 1
            coverage.detail.append(f"no instance contained {needed}")
    return SuiteReport("canonicity", [row, coverage], time.time() - start)


# ---------------------------------------------------------------------------
# Parametricity
# ---------------------------------------------------------------------------

def run_parametricity_suite(seed: int = 1, count: int = 100) -> SuiteReport:
    start = time.time()
    rows = []
    for sort in ("ctx", "ty", "sub", "tm"):
        row = SuiteRow(f"sort-{sort}")
        for case in range(count):
            try:
                ctx, entity = _draw((seed, "param", sort, case),
                                    lambda g: _entity_draw(g, sort))
                param_entity(sort, ctx, entity)
                row.passed += 1
            except GenExhausted as err:
                row.failed += 1
                row.detail.append(str(err))
            except TranslationIllTyped as err:
                row.failed += 1
                row.detail.append(str(err).splitlines()[0])
                if entity is not None:
                    row.detail.append(f"entity: {print_entity(sort, entity)}")
        rows.append(row)
    return SuiteReport("parametricity", rows, time.time() - start)


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------

SUITES = ("equations", "termified", "inject", "canon", "param")


def run_suites(which: str = "all", seed: int = 1, count: int | None = None,
               max_nodes: int | None = None) -> list[SuiteReport]:
    selected = SUITES if which == "all" else (which,)
    reports = []
    for name in selected:
        clear_all()
        match name:
            case "equations":
                reports.append(run_equation_suite(
                    seed, count or 100, max_nodes or 12))
            case "termified":
                reports.append(run_termified_suite(
                    seed, count or 50, max_nodes or 8))
            case "inject":
                reports.append(run_injectivity_suite(seed, count or 100))
            case "canon":
                reports.append(run_canonicity_suite(seed, count or 100))
            case "param":
                reports.append(run_parametricity_suite(seed, count or 100))
            case _:
                raise ValueError(f"unknown suite {name!r}")
    return reports
