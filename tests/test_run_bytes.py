"""The bytes ``ttk run`` prints are pinned.

About two hundred directives are printed from seeded generator draws:
every directive head, well-typed and ill-typed, and the ``conv-*``
directives both accepting and rejecting.  Each runs in-process on cold
caches, as a fresh ``ttk run`` would, and its stdout and exit code go
into one sha256 digest.  A change to the kernel that is meant to keep
every verdict and every printed byte must leave the digest as it is.
"""

import contextlib
import hashlib
import io
import random

from ttk.caches import clear_all
from ttk.cli import main
from ttk.generate import GenConfig, GenExhausted, InstanceGen
from ttk.surface import DIRECTIVES, print_ctx, print_sub, print_tm, print_ty
from ttk.syntax import EMPTY, Bool

SEED = 20261019
GROUPS = 7
# The digest of what the directives print; a change to any verdict or any
# printed byte changes it.
DIGEST = "413be1e513de26da8eddf10a1d99140d65fa37debf5096bb3bdf94acea54bd5c"


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


def test_run_prints_the_pinned_bytes(tmp_path):
    path = tmp_path / "d.tt"
    digest = hashlib.sha256()
    heads, results = set(), set()
    directives = _directives()
    for text in directives:
        path.write_text(text + "\n", encoding="utf-8")
        clear_all()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["run", str(path)])
        printed = out.getvalue()
        digest.update(printed.encode() + b"\0" + str(code).encode() + b"\0")
        heads.add(text[1:].split()[0])
        results.add(printed.splitlines()[-1])
    assert heads == {*DIRECTIVES, "termify", "param", "inject"}
    assert {"RESULT: accept", "RESULT: reject",
            "RESULT: error type"} <= results
    assert digest.hexdigest() == DIGEST, len(directives)
