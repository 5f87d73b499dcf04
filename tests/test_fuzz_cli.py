"""Seeded fuzzing of ``ttk run``: whatever the input, the last output line
is ``RESULT: ...`` and the exit code is the documented one for it.  A
mutant's type error is never reported as a translation bug
(``RESULT: error kernel``).

The inputs are the demo files and directives printed from generated
entities and from their closed-term translations, whose shared syntax
prints with ``#k=``/``#k#`` labels.  They are mutated by deleting,
duplicating and swapping tokens, label tokens among them.  Each
mutant runs in-process on cold caches, as a fresh ``ttk run`` would.
"""

import contextlib
import io
import pathlib
import random
import re

from ttk.caches import clear_all
from ttk.cli import main
from ttk.generate import GenConfig, GenExhausted, InstanceGen
from ttk.surface import print_ctx, print_sub, print_tm, print_ty
from ttk.termify import termify_entity

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo"
RESULT = re.compile(r"^RESULT: (accept|reject|error \w+)$")
# The exit code of each outcome, as documented in ``ttk.cli``.
EXIT_CODES = {
    "RESULT: accept": 0, "RESULT: reject": 1, "RESULT: error kernel": 1,
    "RESULT: error parse": 2, "RESULT: error io": 2,
    "RESULT: error type": 3, "RESULT: error limit": 4,
}
TOKEN = re.compile(r"[()]|[^ \t\r\n();]+")


def _bases(rng: random.Random) -> list[str]:
    bases = [path.read_text(encoding="utf-8")
             for path in sorted(DEMO.glob("*.tt"))]
    while len(bases) < 70:
        gen = InstanceGen(GenConfig(seed=rng.getrandbits(32), max_nodes=5,
                                    max_ctx_len=2))
        try:
            ctx = gen.draw_ctx()
            ty = gen.draw_ty(ctx)
            tm = gen.draw_tm(ctx, ty)
            cod = gen.draw_ctx()
            sub = gen.draw_sub(ctx, cod)
        except GenExhausted:
            continue
        P, C = print_ctx(ctx), print_ctx(cod)
        T, M, S = print_ty(ty), print_tm(tm), print_sub(sub)
        out = termify_entity(ctx, tm)
        W, K = print_tm(out.payload), print_ty(out.classifier)
        bases += [f"(check-tm {P} {M})", f"(check-ty {P} {T})",
                  f"(nf {P} {M})", f"(conv-tm {P} {T} {M} {M})",
                  f"(conv-ty {P} {T} {T})", f"(conv-sub {P} {C} {S} {S})",
                  f"(termify {P} {M})", f"(param {P} {T})",
                  f"(inject {P} {S})", f"(canon {M})",
                  f"(check-tm (ctx) {W})", f"(conv-tm (ctx) {K} {W} {W})"]
    return bases


def _span(tokens: list[str], i: int) -> int:
    """The end of the token at ``i`` and, if it is ``(``, of the group it
    opens."""
    depth = 0
    for j in range(i, len(tokens)):
        depth += {"(": 1, ")": -1}.get(tokens[j], 0)
        if depth <= 0:
            return j + 1
    return len(tokens)


def _mutant(rng: random.Random, text: str) -> str:
    """Delete, duplicate or swap tokens; half of the time a token that
    opens a group takes the whole group with it, so that many mutants
    stay balanced and reach the checker."""
    tokens = TOKEN.findall(text)
    for _ in range(rng.randint(1, 3)):
        whole = rng.random() < 0.5
        i = rng.randrange(len(tokens))
        end = _span(tokens, i) if whole else i + 1
        op = rng.randrange(3)
        if op == 0 and end - i < len(tokens):
            del tokens[i:end]
        elif op == 1:
            tokens[i:i] = tokens[i:end]
        else:
            j = rng.randrange(len(tokens))
            j_end = _span(tokens, j) if whole else j + 1
            if j_end <= i:
                i, end, j, j_end = j, j_end, i, end
            if end <= j:
                tokens[i:j_end] = (tokens[j:j_end] + tokens[end:j]
                                   + tokens[i:end])
    return " ".join(tokens)


def _run(path: pathlib.Path, text: str) -> tuple[int, str]:
    path.write_text(text, encoding="utf-8")
    clear_all()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", str(path)])
    lines = out.getvalue().splitlines()
    return code, lines[-1] if lines else ""


def test_mutated_directives_end_in_a_documented_result(tmp_path):
    rng = random.Random(20261018)
    bases = _bases(rng)
    assert sum("#1=" in base and "#1#" in base for base in bases) >= 6
    path = tmp_path / "mutant.tt"
    outcomes = set()
    for _ in range(6000):
        text = _mutant(rng, rng.choice(bases))
        code, last = _run(path, text)
        assert RESULT.match(last), (text, last)
        assert EXIT_CODES.get(last) == code, (text, last, code)
        assert last != "RESULT: error kernel", text
        outcomes.add(last)
    # The mutants reach the checker and the translations, not only the
    # parser.
    assert {"RESULT: accept", "RESULT: error parse",
            "RESULT: error type"} <= outcomes


def _long_natural(rng: random.Random, text: str) -> str:
    """Replace a natural, or any token if there is none, by 5000 digits:
    more than ``int()`` converts by default."""
    tokens = TOKEN.findall(text)
    naturals = [i for i, tok in enumerate(tokens) if tok.isdigit()]
    tokens[rng.choice(naturals or range(len(tokens)))] = "9" * 5000
    return " ".join(tokens)


def test_long_naturals_end_in_a_documented_result(tmp_path):
    rng = random.Random(20261019)
    bases = _bases(rng)
    path = tmp_path / "long.tt"
    outcomes = set()
    for _ in range(200):
        text = _long_natural(rng, rng.choice(bases))
        code, last = _run(path, text)
        assert RESULT.match(last), (text[:200], last)
        assert EXIT_CODES.get(last) == code, (text[:200], last, code)
        outcomes.add(last)
    assert "RESULT: error limit" in outcomes
