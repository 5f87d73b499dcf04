"""The bytes ``ttk run`` prints are pinned.

About two hundred directives are printed from seeded generator draws:
every directive head, well-typed and ill-typed, and the ``conv-*``
directives both accepting and rejecting.  Each runs in-process on cold
caches, as a fresh ``ttk run`` would, and its stdout and exit code go
into one sha256 digest.  A change to the kernel that is meant to keep
every verdict and every printed byte must leave the digest as it is.

A second digest pins every clause of both translations: the ``termify``
and ``param`` output of each of ``injectivity.COMPONENT_CASES``, one
case per operator of the theory.  A third pins the printer alone:
``print_entity`` of a seeded stream of generated contexts, types, terms
and substitutions and of their translations, over half of which print
with ``#k=``/``#k#`` labels.
"""

import contextlib
import hashlib
import io
import random

from ttk.caches import clear_all
from ttk.cli import main
from ttk.generate import GenConfig, GenExhausted, InstanceGen, derive_seed
from ttk.injectivity import COMPONENT_CASES
from ttk.parametricity import param_entity
from ttk.surface import (
    DIRECTIVES, print_ctx, print_entity, print_sub, print_tm, print_ty,
)
from ttk.syntax import EMPTY, Bool
from ttk.termify import termify_entity

SEED = 20261019
GROUPS = 7
# The digest of what the directives print; a change to any verdict or any
# printed byte changes it.
DIGEST = "413be1e513de26da8eddf10a1d99140d65fa37debf5096bb3bdf94acea54bd5c"
# The digest of what the translations of the component cases print.
CLAUSE_DIGEST = "3283900463bc8d71218b37c93ff62d15a8d92e17e70f5474fdeada3d87ab6266"
# The digest of what ``print_entity`` prints for the seeded stream below.
PRINT_DIGEST = "8f85404356647be85f27fefa9de9d1f27b0cd913389722920c40b46ec97ea18e"


def _group(gen: InstanceGen, level: int) -> list[str]:
    """Directives about one drawn context, type, term, substitution and
    closed boolean, with a type at ``level``."""
    ctx = gen.draw_ctx()
    ty = gen.draw_ty(ctx)
    tm = gen.draw_tm(ctx, ty)
    cod = gen.draw_ctx()
    sub = gen.draw_sub(ctx, cod)
    leveled = gen.draw_ty_at_level(ctx, level)
    boolean = gen.draw_tm(EMPTY, Bool())
    P, C, T, L = print_ctx(ctx), print_ctx(cod), print_ty(ty), print_ty(leveled)
    M, S, B = print_tm(tm), print_sub(sub), print_tm(boolean)
    out = [
        f"(check-tm {P} {M})", f"(check-ty {P} {L})", f"(nf {P} {M})",
        f"(conv-tm {P} {T} {M} (tmsub {M} (id)))",
        f"(conv-ty {P} {T} (tysub {T} (id)))",
        f"(conv-sub {P} {C} {S} (comp {S} (id)))",
        f"(canon {B})", f"(canon (if (bool) (false) (true) {B}))",
        # Rejects: pointwise equal functions, distinct literals, distinct
        # types and distinct substitutions.
        f"(conv-tm {P} (pi (bool) (bool)) "
        "(lam (bool) (if (bool) (true) (false) (q))) (lam (bool) (q)))",
        f"(conv-tm {P} (pi {T} (bool)) (lam {T} (true)) (lam {T} (false)))",
        f"(conv-ty {P} (bool) (top))",
        f"(conv-sub {P} (ctx (bool)) (ext (eps) (bool) (true)) "
        "(ext (eps) (bool) (false)))",
        # Ill-typed: applying a boolean, a branch of the wrong type, a
        # term at the wrong type, and a canon of an open term.
        f"(check-tm {P} (dollar (tmsub {B} (eps)) (true)))",
        f"(termify {P} (if (bool) (true) (tt) (true)))",
        f"(param {P} (fst (true)))",
        f"(inject {P} (el (true)))",
        f"(conv-tm {P} (bool) (tt) (true))",
        "(canon (q))",
    ]
    for head in ("termify", "param", "inject"):
        out += [f"({head} {P})", f"({head} {P} {T})", f"({head} {P} {M})",
                f"({head} {P} {S})"]
    return out


def _directives() -> list[str]:
    rng = random.Random(SEED)
    out = []
    while len(out) < GROUPS * 30:
        gen = InstanceGen(GenConfig(seed=rng.getrandbits(63), max_nodes=4,
                                    max_ctx_len=1))
        try:
            out += _group(gen, rng.randint(0, 2))
        except GenExhausted:
            continue
    return out


def _run_all(path, directives) -> tuple[str, set[str]]:
    """The digest of what ``directives`` print, each run on cold caches,
    and the set of their last lines."""
    digest = hashlib.sha256()
    results = set()
    for text in directives:
        path.write_text(text + "\n", encoding="utf-8")
        clear_all()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["run", str(path)])
        printed = out.getvalue()
        digest.update(printed.encode() + b"\0" + str(code).encode() + b"\0")
        results.add(printed.splitlines()[-1])
    return digest.hexdigest(), results


def test_run_prints_the_pinned_bytes(tmp_path):
    directives = _directives()
    digest, results = _run_all(tmp_path / "d.tt", directives)
    assert {text[1:].split()[0] for text in directives} == {
        *DIRECTIVES, "termify", "param", "inject"}
    assert {"RESULT: accept", "RESULT: reject",
            "RESULT: error type"} <= results
    assert digest == DIGEST, len(directives)


def test_every_translation_clause_prints_the_pinned_bytes(tmp_path):
    directives = []
    for _, ctx, entity in COMPONENT_CASES:
        args = " ".join(print_entity(x) for x in (ctx, entity) if x is not None)
        directives += [f"(termify {args})", f"(param {args})"]
    digest, results = _run_all(tmp_path / "d.tt", directives)
    assert len(directives) == 58
    assert results == {"RESULT: accept"}
    assert digest == CLAUSE_DIGEST


def _printed_stream(draws: int):
    """The text of each drawn context, type, term and substitution, and of
    the ``termify`` payload and classifier and the ``param`` payload of
    each, the context alone included."""
    for index in range(draws):
        gen = InstanceGen(GenConfig(seed=derive_seed(31, "print", index),
                                    max_nodes=6, max_ctx_len=2))
        try:
            ctx = gen.draw_ctx()
            ty = gen.draw_ty(ctx)
            tm = gen.draw_tm(ctx, ty)
            sub = gen.draw_sub(ctx, gen.draw_ctx())
        except GenExhausted:
            continue
        for entity in (None, ty, tm, sub):
            yield print_entity(ctx if entity is None else entity)
            out = termify_entity(ctx, entity)
            yield print_entity(out.payload)
            yield print_entity(out.classifier)
            yield print_entity(param_entity(ctx, entity).payload)
        clear_all()


def test_print_entity_prints_the_pinned_bytes():
    digest, count, labelled = hashlib.sha256(), 0, 0
    for text in _printed_stream(150):
        digest.update(text.encode() + b"\n")
        count += 1
        labelled += "#1=" in text
    assert (count, labelled) == (2112, 1189)
    assert digest.hexdigest() == PRINT_DIGEST
