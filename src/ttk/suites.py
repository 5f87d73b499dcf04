"""Verification suites over generated instances.

Five suites mirror the package's claims: the defining equations hold in
the kernel, they still hold after the closed-term translation, the
embedding equations and context isomorphisms certify, closed booleans are
canonical, and the parametricity translation is type-preserving on every
sort.  Each suite is deterministic in its seed.

A suite only says what each case draws and how a failure prints: it
yields one (row label, thunk) pair per case, where the thunk computes the
outcome, a list of the lines that show a failure or any other value for
a pass, and ``_tally`` runs and counts them.
One rule holds for every row: every case runs and is counted, and every
failure adds its lines, so a row's passed and failed add up to its cases.
A suite draws only well-typed input, so a case that raises a
``KernelError`` or a ``TypeCheckError`` fails with the error's lines.
A failing equation case is shown re-drawn at the smallest size at which
it still fails, or as first drawn if none does.  A case that draws no
instance within ``RETRIES`` seeds fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .syntax import (
    Bool, Comp, Ctx, EMPTY, Fst, IdSub, If, J, Lam, Pair, Refl, Snd, Tt,
    TrueLit, TySub, TmSub, Var0, Wk, apply1, walk_constructors,
)
from .caches import case_scope
from .canonicity import canonicity_verdict
from .equations import EqInstance, SCHEMA_NAMES, build_instance, check_instance
from .generate import GenConfig, GenExhausted, InstanceGen, derive_seed
from .injectivity import COMPONENT_CASES, check_embedding, injectivity_probe
from .parametricity import param_entity
from .surface import print_entity
from .termify import verify_termified_equation
from .typecheck import TypeCheckError, infer_ty
from .values import KernelError


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
    lines = [f"ctx: {print_entity(inst.ctx)}",
             f"lhs: {print_entity(inst.lhs)}",
             f"rhs: {print_entity(inst.rhs)}"]
    if isinstance(inst.classifier, Ctx):
        lines.insert(1, f"to:  {print_entity(inst.classifier)}")
    elif inst.classifier is not None:
        lines.insert(1, f"at:  {print_entity(inst.classifier)}")
    return lines


def _error_lines(err: Exception) -> list[str]:
    """The lines that show an error a case raised."""
    return f"{type(err).__name__}: {err}".splitlines()


# The seeds one case may draw from before it fails for want of an instance.
RETRIES = 60


def _draw(seed_parts, build, max_nodes: int = 8, max_level: int = 2):
    """What ``build`` draws from the first generator, seeded by
    ``seed_parts`` and the attempt number, that does not run out."""
    for attempt in range(RETRIES):
        cfg = GenConfig(seed=derive_seed(*seed_parts, attempt),
                        max_nodes=max_nodes, max_level=max_level)
        try:
            return build(InstanceGen(cfg))
        except GenExhausted:
            continue
    raise GenExhausted(f"no instance for {seed_parts}")


def _case(seed_parts, build, judge, *sizes):
    """The thunk of one case: ``judge`` of what ``_draw`` draws."""
    def outcome():
        try:
            drawn = _draw(seed_parts, build, *sizes)
        except GenExhausted as err:
            return [str(err)]
        return judge(drawn)
    return outcome


def _tally(name: str, cases) -> SuiteReport:
    """Count (row label, thunk) pairs into rows, in order of first
    appearance.  A thunk computes one case's outcome in its own
    ``caches.case_scope``: a pass, or the lines of a failure.  It
    runs before ``cases`` advances, so it may read the loop variables of
    the generator that made it, and advancing does no kernel work."""
    start = time.perf_counter()
    rows: dict[str, SuiteRow] = {}
    for label, thunk in cases:
        with case_scope():
            try:
                outcome = thunk()
            except (KernelError, TypeCheckError) as err:
                outcome = _error_lines(err)
        row = rows.setdefault(label, SuiteRow(label))
        if isinstance(outcome, list):
            row.failed += 1
            row.detail.extend(outcome)
        else:
            row.passed += 1
    return SuiteReport(name, list(rows.values()), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Equations, in the kernel and termified
# ---------------------------------------------------------------------------

def _failure(check, inst: EqInstance) -> list[str] | None:
    """None if ``check`` holds of ``inst``, else the lines that show the
    failing instance, after the error's if ``check`` raised one."""
    try:
        return None if check(inst) else _dump_instance(inst)
    except (KernelError, TypeCheckError) as err:
        return _error_lines(err) + _dump_instance(inst)


def _shrunk(schema: str, seed: int, case: int, check, max_nodes: int,
            max_level: int) -> list[str] | None:
    """The case re-drawn at each smaller size: the failure lines of the
    first instance that ``check`` rejects or raises on."""
    for nodes in range(2, max_nodes):
        try:
            inst = _draw((seed, schema, case),
                         lambda g: build_instance(schema, g), nodes, max_level)
        except (GenExhausted, KernelError, TypeCheckError):
            continue
        shown = _failure(check, inst)
        if shown is not None:
            return shown
    return None


def _schema_cases(seed: int, count: int, max_nodes: int, max_level: int,
                  check, schemas):
    """One row per schema: ``check`` holds of each drawn instance."""
    for schema in schemas:
        for case in range(count):
            yield schema, _case(
                (seed, schema, case), lambda g: build_instance(schema, g),
                lambda inst: None if (shown := _failure(check, inst)) is None
                else _shrunk(schema, seed, case, check, max_nodes, max_level)
                or shown,
                max_nodes, max_level)


def run_equation_suite(seed: int = 1, count: int = 100, max_nodes: int = 12,
                       max_level: int = 2, schemas=None) -> SuiteReport:
    return _tally("equations", _schema_cases(
        seed, count, max_nodes, max_level, check_instance,
        schemas or SCHEMA_NAMES))


def run_termified_suite(seed: int = 1, count: int = 50, max_nodes: int = 8,
                        max_level: int = 2, schemas=None) -> SuiteReport:
    return _tally("termified", _schema_cases(
        seed, count, max_nodes, max_level, verify_termified_equation,
        schemas or SCHEMA_NAMES))


# ---------------------------------------------------------------------------
# Injectivity
# ---------------------------------------------------------------------------

def _probe(inst: EqInstance):
    return ["counterexample", *_dump_instance(inst)] \
        if injectivity_probe(inst) else None


def _injectivity_cases(seed: int, count: int, max_nodes: int):
    for case in range(count):
        yield "ctx-isomorphisms", _case(
            (seed, "iso", case), lambda g: g.draw_ctx(), check_embedding,
            max_nodes)
    for sort in ("ty", "sub", "tm"):
        for case in range(count):
            yield f"embedding-{sort}", _case(
                (seed, "embed", sort, case), lambda g: _entity_draw(g, sort),
                lambda drawn: check_embedding(*drawn), max_nodes)
    for _, ctx, entity in COMPONENT_CASES:
        yield "component-equations", lambda: check_embedding(ctx, entity)
    for case in range(count):
        yield "injectivity-probe", _case(
            (seed, "probe", case), lambda g: _probe_draw(g, case), _probe,
            max_nodes)


def run_injectivity_suite(seed: int = 1, count: int = 100,
                          max_nodes: int = 8) -> SuiteReport:
    return _tally("injectivity", _injectivity_cases(seed, count, max_nodes))


# The entity each sort label draws in a context (None for the context).
_DRAWS = {
    "ctx": lambda gen, ctx: None,
    "ty": lambda gen, ctx: gen.draw_ty(ctx),
    "sub": lambda gen, ctx: gen.draw_sub(ctx, gen.draw_ctx()),
    "tm": lambda gen, ctx: gen.draw_tm(ctx, gen.draw_ty(ctx)),
}


def _entity_draw(gen: InstanceGen, sort: str):
    """A context and an entity of ``sort`` in it (None for ``ctx``)."""
    ctx = gen.draw_ctx()
    return ctx, _DRAWS[sort](gen, ctx)


def _probe_draw(gen: InstanceGen, case: int) -> EqInstance:
    """A pair of terms, types or substitutions by ``case % 3``, at one
    classifier; even cases are equal by construction so the probe's
    implication is exercised in both directions."""
    ctx = gen.draw_ctx()
    equalish = case % 2 == 0
    if case % 3 == 1:
        lhs = gen.draw_ty(ctx)
        rhs = TySub(lhs, IdSub()) if equalish \
            else gen.draw_ty_at_level(ctx, infer_ty(ctx, lhs))
        return EqInstance(ctx, None, lhs, rhs)
    if case % 3 == 2:
        cod = gen.draw_ctx()
        lhs = gen.draw_sub(ctx, cod)
        rhs = Comp(lhs, IdSub()) if equalish else gen.draw_sub(ctx, cod)
        return EqInstance(ctx, cod, lhs, rhs)
    ty = gen.draw_ty(ctx)
    lhs = gen.draw_tm(ctx, ty)
    rhs = TmSub(lhs, IdSub()) if equalish else gen.draw_tm(ctx, ty)
    return EqInstance(ctx, ty, lhs, rhs)


# ---------------------------------------------------------------------------
# Canonicity
# ---------------------------------------------------------------------------

# The eliminator that each wrapper flavour of ``_wrapped_bool`` forces,
# by flavour; flavour 5 leaves the core bare.
_ELIMINATORS = ("If", "J", "Fst", "Snd", "TmSub")


def _wrapped_bool(gen: InstanceGen, flavour: int):
    """Closed boolean built around a generated core, forcing the eliminator
    ``_ELIMINATORS[flavour]``."""
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


def _canonical(tm, seen: set[str]):
    """The verdict of ``tm``; its constructors are added to ``seen``."""
    walk_constructors(tm, seen)
    return canonicity_verdict(tm)


def _canonicity_cases(seed: int, count: int, max_nodes: int):
    seen: set[str] = set()
    for case in range(count):
        yield "closed-booleans", _case(
            (seed, "canon", case), lambda g: _wrapped_bool(g, case % 6),
            lambda tm: _canonical(tm, seen), max_nodes)
    # the flavours drawn, case % 6 for each case < count, are the first count
    for needed in _ELIMINATORS[:count]:
        yield "eliminator-coverage", lambda: (
            None if needed in seen else [f"no instance contained {needed}"])


def run_canonicity_suite(seed: int = 1, count: int = 100,
                         max_nodes: int = 8) -> SuiteReport:
    return _tally("canonicity", _canonicity_cases(seed, count, max_nodes))


# ---------------------------------------------------------------------------
# Parametricity
# ---------------------------------------------------------------------------

def _parametricity_cases(seed: int, count: int, max_nodes: int):
    for sort in ("ctx", "ty", "sub", "tm"):
        for case in range(count):
            yield f"sort-{sort}", _case(
                (seed, "param", sort, case), lambda g: _entity_draw(g, sort),
                lambda drawn: param_entity(*drawn), max_nodes)


def run_parametricity_suite(seed: int = 1, count: int = 100,
                            max_nodes: int = 8) -> SuiteReport:
    return _tally("parametricity", _parametricity_cases(seed, count, max_nodes))


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------

# Each suite's runner, by the name ``ttk selftest --suite`` takes; the
# runner's own defaults give the count and sizes not asked for.
SUITES = {
    "equations": run_equation_suite,
    "termified": run_termified_suite,
    "inject": run_injectivity_suite,
    "canon": run_canonicity_suite,
    "param": run_parametricity_suite,
}


def run_suites(which: str = "all", seed: int = 1, count: int | None = None,
               max_nodes: int | None = None) -> list[SuiteReport]:
    if which != "all" and which not in SUITES:
        raise ValueError(f"unknown suite {which!r}")
    sizes = {k: v for k, v in dict(count=count, max_nodes=max_nodes).items()
             if v is not None}
    reports = []
    for name in SUITES if which == "all" else (which,):
        reports.append(SUITES[name](seed, **sizes))
    return reports
