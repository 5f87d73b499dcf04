"""Memoization is observationally transparent, as ``ttk.caches`` claims.

The same small workload runs in two fresh interpreters: once as shipped,
and once with every memoized function in every ``ttk`` module rebound to
the plain function it wraps.  Both must print the same suite verdicts and
the same normal forms.  The termified suite is left out: without memo
tables its translated terms are checked as unfolded trees, which takes
minutes even at the smallest count.
"""

import json
import os
import subprocess
import sys

import ttk

WORKLOAD = r"""
import functools, json, sys
sys.setrecursionlimit(20000)
import ttk
from ttk import caches, conversion, generate, suites, surface

wrappers = []
if sys.argv[1] == "plain":
    for name, module in list(sys.modules.items()):
        if name == "ttk" or name.startswith("ttk."):
            for attr, value in list(vars(module).items()):
                if isinstance(value, functools._lru_cache_wrapper):
                    wrappers.append(value)
                    setattr(module, attr, value.__wrapped__)

report = suites.run_equation_suite(seed=5, count=5)
verdicts = [[row.label, row.passed, row.failed, row.detail]
            for row in report.rows]
normal_forms = []
for case in range(100):
    gen = generate.InstanceGen(generate.GenConfig(
        seed=generate.derive_seed(5, "nf", case), max_nodes=10))
    try:
        ctx = gen.draw_ctx()
        tm = gen.draw_tm(ctx, gen.draw_ty(ctx))
    except generate.GenExhausted:
        continue
    normal_forms.append(surface.print_tm(conversion.normalize_tm(ctx, tm)))
calls = sum(w.cache_info().hits + w.cache_info().misses for w in wrappers)
print(json.dumps({"verdicts": verdicts, "normal_forms": normal_forms,
                  "rebound": sorted({f"{w.__module__}.{w.__qualname__}"
                                     for w in wrappers}),
                  "memoized": sorted(caches.REGISTRY), "memo_calls": calls}))
"""


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
