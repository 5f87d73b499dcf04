"""The benchmark's three workloads and the known answer of every case.

A workload is a fixed list of cases made from the seed.  A case runs
through a public ttk entry point and returns its status against an answer
fixed when the case was built, never read from ttk's own output:

* ``ok``     -- the answer matched;
* ``wrong``  -- ttk gave a verdict, and it contradicts the known answer;
* ``failed`` -- no verdict (a traceback, a ``RecursionError``, no
  ``RESULT:`` line) or a verdict with the wrong exit code or diagnosis.

A workload may also carry ``known_defects``: cases that fail at the
benchmark's parent commit.  They are checked once per run, apart from the
timed cases, so that their failures show without making the measured
operations fail.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import sys

from tracer import LAYERS


def import_ttk() -> dict:
    """Import ttk and the independent canonicity oracle afresh."""
    for name in list(sys.modules):
        if name in ("ttk", "naive_eval") or name.startswith("ttk."):
            del sys.modules[name]
    modules = {name: importlib.import_module("ttk." + name)
               for name in (*LAYERS, "caches", "syntax")}
    modules["oracle"] = importlib.import_module("naive_eval")
    return modules


class SuiteWorkload:
    """One case is one instance of one equation schema, run through the
    suite runner with ``count=1``.  Cases come in batches of one instance
    per schema, in seeded order, so every seed gives the same schema mix.
    Memo tables are cleared once per batch: checking runs with caches warm
    from the batch so far, and memory stays bounded."""

    known_defects: list = []

    def __init__(self, modules: dict, seed: int, runner: str,
                 max_nodes: int, batches: int) -> None:
        self.suites = modules["suites"]
        self.runner = runner
        self.max_nodes = max_nodes
        schemas = modules["equations"].SCHEMA_NAMES
        self.clear_every = len(schemas)
        rng = random.Random(seed)
        self.cases = []
        for _ in range(batches):
            batch = [(schema, rng.getrandbits(31)) for schema in schemas]
            rng.shuffle(batch)
            self.cases.extend(batch)

    def key(self, case) -> str:
        return f"{case[0]}/{case[1]}"

    def run(self, case) -> tuple[str, int, str]:
        schema, case_seed = case
        # Looked up per call, so the tracer's rebinding is seen.
        report = getattr(self.suites, self.runner)(
            seed=case_seed, count=1, max_nodes=self.max_nodes, max_level=2,
            schemas=[schema])
        text = "\n".join(report.lines()) + "\n"
        holds = report.ok and report.rows[0].passed == 1
        return ("ok" if holds else "wrong"), len(text.encode()), text


# Exit codes the CLI documents for each verdict line.
EXIT_CODES = {"RESULT: accept": 0, "RESULT: reject": 1,
              "RESULT: error parse": 2, "RESULT: error type": 3}
ACCEPT = ("RESULT: accept",)
REJECT = ("RESULT: reject",)
TYPE_ERROR = ("RESULT: error type",)


class Directive:
    def __init__(self, text: str, results: tuple, lines: tuple = (),
                 prefixes: tuple = (), forbid: str | None = None) -> None:
        self.text = text
        self.results = results      # acceptable last lines
        self.lines = lines          # lines that must appear verbatim
        self.prefixes = prefixes    # line prefixes that must appear
        self.forbid = forbid        # text that must not appear
        self.path = ""


def _nested_pi(n: int) -> str:
    text = "(bool)"
    for _ in range(n):
        text = f"(pi (bool) {text})"
    return text


# Printed payloads of this family grow about 4x per two binders.
NESTED_PI = tuple(range(2, 13, 2))
# Context classes of the generated groups, in about the proportions the
# generator draws them at max_nodes=4 and max_ctx_len=1.
CONTEXT_CLASSES = ("empty",) * 5 + ("atom",) * 2 + ("compound",) * 3


def _context_class(printed: str) -> str:
    """``(ctx)``, one entry of a type without arguments, or anything else."""
    if printed == "(ctx)":
        return "empty"
    return "atom" if printed.count("(") == 2 else "compound"


def _reproducers() -> list:
    """Inputs that must end in a RESULT line and a documented exit code
    (ROADMAP item 3).  The answers are the planned ones, "error limit"
    being the planned outcome of resource exhaustion."""
    return [
        Directive("(termify (ctx) (el (q)))", TYPE_ERROR),
        Directive("(inject (ctx) (el (q)))", TYPE_ERROR),
        Directive("(check-tm (ctx (bool)) (v 15000))",
                  TYPE_ERROR + ("RESULT: error limit",)),
        Directive("(check-tm (ctx) " + "(lam (bool) " * 8000
                  + "(q)" + ")" * 8001, ACCEPT + ("RESULT: error limit",)),
        Directive("(param (ctx) (q))", TYPE_ERROR,
                  forbid="produced an ill-typed output"),
    ]


class DirectiveWorkload:
    """One case is one ``ttk run FILE``, run in-process through
    ``ttk.cli.main`` with cold memo tables, as a fresh process would.
    The ROADMAP item 3 reproducers are its ``known_defects``."""

    clear_every = 1

    def __init__(self, modules: dict, seed: int, workdir: str,
                 groups: int) -> None:
        self.cli = modules["cli"]
        rng = random.Random(seed)
        # Stratified draw: the context of group i is of the class
        # CONTEXT_CLASSES[i % 10], drawn by rejection.  How long a
        # translation takes follows mostly the context it translates, so
        # every seed gets the same mix of empty, one-atom and compound
        # contexts, and the figures do not hang on the mix one seed drew.
        directives: list[Directive] = []
        for index in range(groups):
            want = CONTEXT_CLASSES[index % len(CONTEXT_CLASSES)]
            while True:
                entities = self._entities(modules, rng, index)
                if _context_class(entities[0]) == want:
                    break
            directives.extend(self._group(entities))
        for n in NESTED_PI:
            for head in ("termify", "param"):
                directives.append(Directive(
                    f"({head} (ctx) {_nested_pi(n)})", ACCEPT,
                    prefixes=("payload: ",)))
        rng.shuffle(directives)
        self.known_defects = _reproducers()
        for index, directive in enumerate(directives + self.known_defects):
            directive.path = os.path.join(workdir, f"{index}.tt")
            with open(directive.path, "w", encoding="utf-8") as out:
                out.write(directive.text + "\n")
        self.cases = directives

    @staticmethod
    def _entities(modules: dict, rng: random.Random, index: int) -> tuple:
        """A generated context, type, term, codomain and substitution,
        a type at a drawn level, and a closed boolean, all printed."""
        gen_mod, syn = modules["generate"], modules["syntax"]
        surface = modules["surface"]
        # Small entities: a translation of a generated four-entry context
        # can print tens of megabytes, and that seeded tail would swamp
        # every figure of the run.  NESTED_PI shows growth at fixed sizes.
        while True:
            gen = gen_mod.InstanceGen(gen_mod.GenConfig(
                seed=rng.getrandbits(63), max_nodes=4, max_ctx_len=1))
            level = rng.randint(0, 2)
            try:
                ctx = gen.draw_ctx()
                ty = gen.draw_ty(ctx)
                tm = gen.draw_tm(ctx, ty)
                cod = gen.draw_ctx()
                sub = gen.draw_sub(ctx, cod)
                leveled = gen.draw_ty_at_level(ctx, level)
                boolean = _closed_bool(gen, syn, index % 5)
                break
            except gen_mod.GenExhausted:
                continue
        value = modules["oracle"].naive_bool_value(boolean)
        return (surface.print_ctx(ctx), surface.print_ctx(cod),
                surface.print_ty(ty), surface.print_ty(leveled), level,
                surface.print_tm(tm), surface.print_sub(sub),
                surface.print_tm(boolean), value)

    @staticmethod
    def _group(entities: tuple) -> list:
        """Directives about one generated context, type, term,
        substitution and closed boolean."""
        P, C, T, L, level, M, S, B, value = entities
        out = [
            Directive(f"(check-tm {P} {M})", ACCEPT, prefixes=("type: ",)),
            Directive(f"(check-ty {P} {L})", ACCEPT,
                      lines=(f"level: {level}",)),
            Directive(f"(nf {P} {M})", ACCEPT, prefixes=("nf: ",)),
            Directive(f"(conv-tm {P} {T} {M} (tmsub {M} (id)))", ACCEPT),
            Directive(f"(conv-ty {P} {T} (tysub {T} (id)))", ACCEPT),
            Directive(f"(conv-sub {P} {C} {S} (comp {S} (id)))", ACCEPT),
            # Pointwise equal, yet not definitionally equal.
            Directive(f"(conv-tm {P} (pi (bool) (bool)) "
                      "(lam (bool) (if (bool) (true) (false) (q))) "
                      "(lam (bool) (q)))", REJECT),
            Directive(f"(conv-tm {P} (pi {T} (bool)) "
                      f"(lam {T} (true)) (lam {T} (false)))", REJECT),
            Directive(f"(canon {B})", ACCEPT,
                      lines=("value: " + ("true" if value else "false"),)),
            # Ill-typed by construction: applying a boolean, and a branch
            # of the wrong type.
            Directive(f"(check-tm {P} (dollar (tmsub {B} (eps)) (true)))",
                      TYPE_ERROR),
            Directive(f"(termify {P} (if (bool) (true) (tt) (true)))",
                      TYPE_ERROR),
        ]
        for head in ("termify", "param", "inject"):
            prefixes = {"termify": ("payload: ", "classifier: "),
                        "param": ("payload: ",), "inject": ()}[head]
            for entity in ("", f" {T}", f" {M}", f" {S}"):
                out.append(Directive(f"({head} {P}{entity})", ACCEPT,
                                     prefixes=prefixes))
        return out

    def key(self, case: Directive) -> str:
        return case.text

    def run(self, case: Directive) -> tuple[str, int, str]:
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = self.cli.main(["run", case.path])
        except Exception as err:  # the case failed; the benchmark goes on
            text = buffer.getvalue()
            return "failed", len(text.encode()), f"{type(err).__name__}: {err}"
        text = buffer.getvalue()
        lines = text.splitlines()
        last = lines[-1] if lines else ""
        if not last.startswith("RESULT:"):
            return "failed", len(text.encode()), "no RESULT line"
        if last not in case.results:
            return "wrong", len(text.encode()), last
        status = "ok"
        if last in EXIT_CODES and code != EXIT_CODES[last]:
            status = "failed"
        if not all(line in lines for line in case.lines):
            status = "failed"
        if not all(any(line.startswith(p) for line in lines)
                   for p in case.prefixes):
            status = "failed"
        if case.forbid is not None and case.forbid in text:
            status = "failed"
        return status, len(text.encode()), last


def _closed_bool(gen, syn, flavour: int):
    """A closed boolean around a generated core, forcing one eliminator."""
    core = gen.draw_tm(syn.EMPTY, syn.Bool())
    motive = syn.TySub(syn.Bool(), syn.Wk())
    match flavour:
        case 0:
            return syn.If(motive, core, gen.draw_tm(syn.EMPTY, syn.Bool()),
                          gen.draw_tm(syn.EMPTY, syn.Bool()))
        case 1:
            return syn.J(syn.TySub(syn.Bool(), syn.Comp(syn.Wk(), syn.Wk())),
                         core, syn.Refl(syn.Tt()))
        case 2:
            return syn.Fst(syn.Pair(syn.Bool(), motive, core, syn.FalseLit()))
        case 3:
            return syn.Snd(syn.Pair(syn.Bool(), motive, syn.TrueLit(), core))
    return syn.apply1(syn.Lam(syn.Bool(), syn.Var0()), core)


def make(name: str, modules: dict, seed: int, workdir: str):
    match name:
        case "equations":
            return SuiteWorkload(modules, seed, "run_equation_suite",
                                 max_nodes=12, batches=80)
        case "termified":
            return SuiteWorkload(modules, seed, "run_termified_suite",
                                 max_nodes=8, batches=28)
        case "directives":
            return DirectiveWorkload(modules, seed, workdir, groups=270)
    raise ValueError(f"unknown workload {name!r}")
