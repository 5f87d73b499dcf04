"""Growing a scope by one costs one.

A context is its prefix plus one entry (``syntax.Ctx``), so a long
telescope takes memory in proportion to its length, and a value that holds
no variable is read back once, at depth 0, so a translated binder nest and
a long telescope take memo misses in proportion to their size.  When
contexts were tuples and closed values were read back at every depth,
each of these guards failed.

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

import ttk
from ttk import caches
from ttk.cli import main


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
