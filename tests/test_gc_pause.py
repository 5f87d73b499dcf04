"""Pausing the cyclic collector is sound and leaves the caller's state.

``caches.gc_paused`` rests on a premise: the kernel builds no reference
cycles, so a collector pass while a suite or ``ttk run`` executes would
free nothing.  The first two tests check that premise by running with
collection off and asking ``gc.collect()`` what it finds afterwards.  The
rest check that the pause is on inside the runners and that the caller's
``gc.isenabled()`` state comes back, also when an exception leaves, and
then with every memo table of the case emptied.
"""

import contextlib
import gc
import io
import pathlib

import pytest

import ttk.termify
from ttk import caches, cli, suites
from ttk.suites import SUITES
from ttk.syntax import TrueLit

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo"


def _unreachable_after(run) -> int:
    """How many objects ``gc.collect()`` finds unreachable after ``run()``,
    with automatic collection off from a clean start."""
    # argparse leaves a cycle on the parser's one-time build, not per call
    cli._parser()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", list(SUITES))
def test_suites_leave_no_cycles(name):
    reports = []
    assert _unreachable_after(
        lambda: reports.append(SUITES[name](seed=3, count=2))) == 0
    assert reports[0].ok


def _main_quietly(argv) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue().splitlines()


def _no_termify(ctx, x):
    # a fold that returns an ill-typed output for well-typed input
    return TrueLit()


@pytest.mark.parametrize("text, result", [
    ((DEMO / "idfun.tt").read_text(), "RESULT: accept"),
    ((DEMO / "pointwise_equal.tt").read_text(), "RESULT: reject"),
    ("(check-tm (ctx) (tt", "RESULT: error parse"),
    ("(check-tm (ctx) (q))", "RESULT: error type"),
    ("(check-tm (ctx) " + "(lam (bool) " * 10000 + "(q)" + ")" * 10001,
     "RESULT: error limit"),
    ("(check-tm (ctx (bool)) (v 15000))", "RESULT: error limit"),
    (None, "RESULT: error io"),
    (b"\xff\xfe", "RESULT: error io"),
    ("(termify (ctx) (true))", "RESULT: error kernel"),
], ids=["accept", "reject", "parse", "type", "limit-lam-nest",
        "limit-variable", "io-missing", "io-not-utf8", "kernel"])
def test_run_leaves_no_cycles(tmp_path, monkeypatch, text, result):
    if result == "RESULT: error kernel":
        monkeypatch.setattr(ttk.termify, "termify", _no_termify)
    path = tmp_path / "d.tt"
    if isinstance(text, str):
        path.write_text(text)
    elif text is not None:
        path.write_bytes(text)
    lines = []
    assert _unreachable_after(
        lambda: lines.extend(_main_quietly(["run", str(path)]))) == 0
    assert lines[-1] == result


def _equations_once():
    return suites.run_equation_suite(count=1, schemas=["comp_idl"])


def test_pause_is_on_inside_a_suite(monkeypatch):
    seen = []

    def judge(inst):
        seen.append(gc.isenabled())
        return True

    monkeypatch.setattr(suites, "check_instance", judge)
    assert gc.isenabled()
    assert _equations_once().ok
    assert seen == [False]
    assert gc.isenabled()


def _memo_entries() -> int:
    return sum(table["entries"] for table in caches.stats().values())


def test_pause_is_lifted_when_the_judge_raises(monkeypatch):
    held = []

    def judge(inst):
        held.append(_memo_entries())
        raise RuntimeError("judge failed")

    monkeypatch.setattr(suites, "check_instance", judge)
    with pytest.raises(RuntimeError, match="judge failed"):
        _equations_once()
    assert gc.isenabled()
    # the case's memo tables were emptied on the way out
    assert held[0] > 0
    assert _memo_entries() == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("run", [
    _equations_once,
    lambda: _main_quietly(["selftest", "--suite", "canon", "--count", "1"]),
    lambda: _main_quietly(["run", str(DEMO / "idfun.tt")]),
], ids=["suite", "selftest", "run"])
def test_caller_state_is_restored(enabled, run):
    try:
        if not enabled:
            gc.disable()
        run()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
