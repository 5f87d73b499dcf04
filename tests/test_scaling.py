"""Growing a scope by one costs one, and shared input costs its DAG.

A context is its prefix plus one entry (``syntax.Ctx``), so a long
telescope takes memory in proportion to its length, and a value that holds
no variable is read back once, at depth 0, so a translated binder nest and
a long telescope take memo misses in proportion to their size.  When
contexts were tuples and closed values were read back at every depth,
each of these guards failed.  A nest of pairs that each hold the previous
one twice, printed with labels, has an exponential tree and a linear
DAG: the parser reads each labelled list once, and ``synth_tm``'s memo
table checks each shared node once.  A nest of compositions that each
hold the previous one twice is the same for substitutions.  Each shared
nest is the guard of the memo tables whose removal makes it fail.

The sizes stay below what every supported interpreter accepts: CPython
3.12.1's fixed C recursion limit refuses ``termify`` of a λ nest from
about 82 levels and ``inject`` from 124 entries.  So the growth guards
compare a size with its double, where quadratic work shows as a ratio
near 3 and linear work as a ratio near 2.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import ttk
from ttk import caches
from ttk.cli import main
from ttk.surface import print_sub, print_tm
from ttk.syntax import Bool, Comp, Ext, Pair, Sigma, TrueLit, TySub, Var0, Wk


def _misses(text, tmp_path):
    """Total memo misses of ``ttk run`` on ``text`` from cold tables."""
    path = tmp_path / "case.tt"
    path.write_text(text + "\n", encoding="utf-8")
    caches.clear_all()
    before = sum(table["misses"] for table in caches.stats().values())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", str(path)])
    misses = sum(table["misses"] for table in caches.stats().values()) - before
    caches.clear_all()
    assert code == 0 and out.getvalue().endswith("RESULT: accept\n")
    return misses


def _inject(entries):
    return "(inject (ctx" + " (bool)" * entries + "))"


def _termify_nest(depth):
    return ("(termify (ctx) " + "(lam (bool) " * depth + "(true)"
            + ")" * (depth + 1))


def test_inject_misses_grow_linearly_in_the_context(tmp_path):
    # 11,587 and 33,937 misses with tuple contexts and depth-keyed readback
    half = _misses(_inject(60), tmp_path)
    full = _misses(_inject(120), tmp_path)
    assert full < 15_000, full
    assert full <= 2.05 * half, (half, full)


def test_termify_nest_misses_grow_linearly_in_its_depth(tmp_path):
    # 4,374 and 10,314 misses with tuple contexts and depth-keyed readback
    half = _misses(_termify_nest(40), tmp_path)
    full = _misses(_termify_nest(80), tmp_path)
    assert full < 8_000, full
    assert full <= 2.05 * half, (half, full)


def _pair_nest(depth):
    """A nest of ``depth`` pairs that each hold the previous one twice,
    and its type, printed with labels."""
    tm, ty = TrueLit(), Bool()
    for _ in range(depth):
        tm, ty = Pair(ty, TySub(ty, Wk()), tm, tm), Sigma(ty, TySub(ty, Wk()))
    return print_tm(tm), print_tm(ty)


def _comp_nest(depth):
    """``(ext (p) (bool) (q))``, from ``(ctx (bool))`` to itself, under
    ``depth`` compositions that each hold the previous one twice, printed
    with labels."""
    sub = Ext(Wk(), Bool(), Var0())
    for _ in range(depth):
        sub = Comp(sub, sub)
    return print_sub(sub)


def _blows_up(misses):
    return pytest.mark.xfail(strict=True, reason=(
        f"misses {misses}, most in evaluate, eval_sub and readback_ty,"
        " while the payload's DAG stays linear"))


# A directive over a shared nest, by the tables it is the guard of, and
# the depth whose double it is compared with; the misses at that depth
# and its double are quoted.
SHARED_NESTS = [
    # synth_tm, infer_ty, evaluate and readback_ty: 141 and 281 misses.
    # As a tree, the nest of depth 20 has 2^20 leaves; as printed, 1.1 KB.
    # Without synth_tm's memo table, depth 24 took 34.9 s.
    pytest.param(10, lambda d: "(check-tm (ctx) {})".format(_pair_nest(d)[0]),
                 id="check-tm-pairs"),
    # readback_tm too: 157 and 307
    pytest.param(10, lambda d: "(nf (ctx) {})".format(_pair_nest(d)[0]),
                 id="nf-pairs"),
    # readback_tm too, by conversion: 158 and 308
    pytest.param(10, lambda d: "(conv-tm (ctx) {1} {0} {0})".format(
        *_pair_nest(d)), id="conv-tm-pairs"),
    # synth_sub and eval_sub: 52 and 92
    pytest.param(20, lambda d: "(conv-sub (ctx (bool)) (ctx (bool)) {} (id))"
                 .format(_comp_nest(d)), id="conv-sub-comps"),
    # termify, synth_sub and synth_tm: 371 and 651
    pytest.param(20, lambda d: "(termify (ctx (bool)) {})".format(
        _comp_nest(d)), id="termify-comps"),
    # param, eval_sub, synth_sub and synth_tm: 416 and 756
    pytest.param(20, lambda d: "(param (ctx (bool)) {})".format(
        _comp_nest(d)), id="param-comps"),
    pytest.param(10, lambda d: "(termify (ctx) {})".format(_pair_nest(d)[0]),
                 id="termify-pairs", marks=_blows_up("2,150 and 5,860")),
    # 340,935 at depth 12: about twice as many for each level
    pytest.param(5, lambda d: "(param (ctx) {})".format(_pair_nest(d)[0]),
                 id="param-pairs", marks=_blows_up("3,429 and 86,734")),
]


@pytest.mark.parametrize("depth, directive", SHARED_NESTS)
def test_a_shared_nest_costs_its_dag(tmp_path, depth, directive):
    half = _misses(directive(depth), tmp_path)
    began = time.process_time()
    full = _misses(directive(2 * depth), tmp_path)
    assert time.process_time() - began < 0.5
    assert full <= 2.05 * half, (half, full)


CHECK_LONG_CONTEXT = r"""
import contextlib, io, json, os, resource, sys, tempfile
from ttk.cli import main
with tempfile.NamedTemporaryFile("w", suffix=".tt", delete=False) as out:
    out.write("(check-ty (ctx" + " (bool)" * 20000 + ") (bool))\n")
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    code = main(["run", out.name])
os.unlink(out.name)
# ru_maxrss is in KiB on Linux and in bytes on macOS
unit = 1 << 20 if sys.platform == "darwin" else 1 << 10
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit
print(json.dumps({"code": code, "last": printed.getvalue().splitlines()[-1],
                  "peak_mib": peak}))
"""


def test_a_20000_entry_context_checks_in_little_memory():
    # 1,551 MiB when every prefix held a tuple of its entries
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttk.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", CHECK_LONG_CONTEXT], capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0 and result["last"] == "RESULT: accept"
    assert result["peak_mib"] < 100, result
