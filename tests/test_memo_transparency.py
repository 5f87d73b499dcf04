"""Memoization and the intern-table sweep are observationally transparent,
as ``ttk.caches`` claims.

The same small workload runs in three fresh interpreters: as shipped;
with every memoized function in every ``ttk`` module rebound to the plain
function it wraps; and with the sweep that ``caches.clear_all`` runs made
a no-op, so no interned node is ever freed.  All three must print the same
suite verdicts and the same normal forms.  The termified suite is left
out: without memo tables its translated terms are checked as unfolded
trees, which takes minutes even at the smallest count.
"""

import functools
import json
import os
import subprocess
import sys

import ttk

WORKLOAD = r"""
import functools, json, sys
sys.setrecursionlimit(20000)
import ttk
from ttk import caches, conversion, generate, suites, surface, syntax

wrappers = []
if sys.argv[1] == "plain":
    for name, module in list(sys.modules.items()):
        if name == "ttk" or name.startswith("ttk."):
            for attr, value in list(vars(module).items()):
                if isinstance(value, functools._lru_cache_wrapper):
                    wrappers.append(value)
                    setattr(module, attr, value.__wrapped__)
if sys.argv[1] == "unswept":
    caches.sweep = lambda: None

report = suites.run_equation_suite(seed=5, count=5)
verdicts = [[row.label, row.passed, row.failed, row.detail]
            for row in report.rows]
# one set of memo tables for every instance, so entries are reused across them
instances = []
normal_forms = []
for case in range(100):
    gen = generate.InstanceGen(generate.GenConfig(
        seed=generate.derive_seed(5, "nf", case), max_nodes=10))
    try:
        ctx = gen.draw_ctx()
        tm = gen.draw_tm(ctx, gen.draw_ty(ctx))
    except generate.GenExhausted:
        continue
    instances.append((ctx, tm))
    normal_forms.append(surface.print_tm(conversion.normalize_tm(ctx, tm)))
calls = sum(w.cache_info().hits + w.cache_info().misses for w in wrappers)
# the same instances again, with the memo tables cleared and the intern
# table swept between any two of them
swept_forms = []
for ctx, tm in instances:
    caches.clear_all()
    swept_forms.append(surface.print_tm(conversion.normalize_tm(ctx, tm)))
del instances, ctx, tm
caches.clear_all()
print(json.dumps({"verdicts": verdicts, "normal_forms": normal_forms,
                  "swept_forms": swept_forms,
                  "rebound": sorted({f"{w.__module__}.{w.__qualname__}"
                                     for w in wrappers}),
                  "memoized": sorted(caches.REGISTRY), "memo_calls": calls,
                  "interned": len(syntax.Univ._interned)}))
"""


@functools.cache
def _run(mode):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttk.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", WORKLOAD, mode], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_memoization_is_transparent():
    memo = _run("memo")
    plain = _run("plain")
    # every memo table of the registry was rebound, by name, and none was
    # reached through an alias
    assert plain["rebound"] == plain["memoized"] != []
    assert plain["memo_calls"] == 0
    assert plain["verdicts"] == memo["verdicts"]
    assert all(failed == 0 for _, _, failed, _ in memo["verdicts"])
    assert len(memo["normal_forms"]) >= 50
    assert plain["normal_forms"] == memo["normal_forms"]


def test_the_sweep_is_transparent():
    swept = _run("memo")
    unswept = _run("unswept")
    # without the sweep, every node the run built stays interned
    assert unswept["interned"] > 10 * swept["interned"]
    assert unswept["verdicts"] == swept["verdicts"]
    assert all(failed == 0 for _, _, failed, _ in swept["verdicts"])
    assert len(swept["swept_forms"]) >= 50
    assert swept["swept_forms"] == swept["normal_forms"]
    assert unswept["swept_forms"] == swept["swept_forms"]
