"""A suite case holds only what it built.

Every case of every suite runs in its own ``caches.case_scope``, which
empties the memo tables when the case ends.  So the memo entries a case
sees do not depend on how many cases ran before it, peak memory does not
grow with ``count``, and ``caches.stats()`` still counts the hits and
misses of the tables that were emptied.  After the clear, the intern table
is back to its size before the suites, and every live node is its entry.
"""

import gc
import os
import subprocess
import sys

import ttk
from ttk import caches, suites, syntax, values
from ttk.equations import check_instance


def _entries() -> int:
    return sum(table["entries"] for table in caches.stats().values())


def test_stats_covers_every_memo_table():
    assert caches.stats().keys() == caches.REGISTRY.keys()


def test_every_memo_table_is_one_the_rule_admits():
    # the rule in the ``caches`` docstring: a table for a recursion over
    # shared nodes, or for a costly composition the traffic asks again
    assert sorted(caches.REGISTRY) == [
        "ttk.generate._vars_by_type",
        "ttk.parametricity.param",
        "ttk.semantics.eval_sub",
        "ttk.semantics.evaluate",
        "ttk.semantics.generic_env",
        "ttk.semantics.readback_tm",
        "ttk.semantics.readback_ty",
        "ttk.termify.termify",
        "ttk.typecheck.infer_ty",
        "ttk.typecheck.normalize_ty_in",
        "ttk.typecheck.synth_sub",
        "ttk.typecheck.synth_tm",
    ]


def test_counters_survive_the_clear_after_each_case():
    before = caches.stats()
    assert all(report.ok for report in suites.run_suites("all", count=1))
    after = caches.stats()
    for name, table in after.items():
        assert table["entries"] == 0, name
        counted = (table["hits"] - before[name]["hits"]
                   + table["misses"] - before[name]["misses"])
        assert counted > 0, name


def test_the_sweep_leaves_only_interned_live_nodes():
    # a warm-up run builds the module constants that are built on first use
    assert all(report.ok for report in suites.run_suites("all", count=1))
    caches.clear_all()
    table = syntax.Univ._interned
    before = len(table)
    assert all(report.ok for report in suites.run_suites("all", count=1))
    caches.clear_all()
    assert len(table) == before
    classes = {cls for module in (syntax, values) for cls in vars(module).values()
               if isinstance(cls, type) and "_interned" in vars(cls)
               and cls.__match_args__}
    live = [x for x in gc.get_objects() if type(x) in classes]
    assert live
    for x in live:
        key = (type(x), *(getattr(x, name) for name in type(x).__match_args__))
        assert table.get(key) is x, x


def _entries_seen_by_the_judge(monkeypatch, count: int) -> list[int]:
    seen = []

    def judge(inst):
        seen.append(_entries())
        return check_instance(inst)

    monkeypatch.setattr(suites, "check_instance", judge)
    assert suites.run_equation_suite(count=count).ok
    return seen


def test_memo_entries_do_not_grow_with_the_count(monkeypatch):
    # cases run schema by schema, so every fourth case of the longer run
    # is a case of the shorter one, drawn from the same seed
    one = _entries_seen_by_the_judge(monkeypatch, 1)
    four = _entries_seen_by_the_judge(monkeypatch, 4)
    assert len(four) == 4 * len(one) > 0
    assert four[::4] == one
    assert _entries() == 0


def test_one_case_clears_the_memo_tables_once(monkeypatch):
    # advancing a suite's cases does no kernel work, so the step that
    # finds no case left needs no scope of its own
    calls = []
    clear_all = caches.clear_all
    monkeypatch.setattr(caches, "clear_all",
                        lambda: calls.append(clear_all()))
    assert suites.run_equation_suite(count=1, schemas=["pi_beta"]).ok
    assert len(calls) == 1


PEAK_RSS = r"""
import resource, sys
sys.setrecursionlimit(20000)
from ttk.suites import run_equation_suite
assert run_equation_suite(seed=1, count=int(sys.argv[1])).ok
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def _peak_rss_mib(count: int) -> float:
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttk.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, str(count)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=600)
    assert done.returncode == 0, done.stderr
    return float(done.stdout.splitlines()[-1])


def test_peak_memory_does_not_grow_with_the_count():
    assert _peak_rss_mib(24) - _peak_rss_mib(3) <= 8
