import hashlib
import re

import pytest

import ttk.suites
from mutants import apply
from ttk import caches
from ttk.injectivity import IsoFailure
from ttk.parametricity import param_entity
from ttk.suites import (
    ERROR_LINE_CHARS, _schema_cases, _tally, run_canonicity_suite, run_equation_suite,
    run_injectivity_suite, run_parametricity_suite, run_suites,
    run_termified_suite,
)
from ttk.typecheck import TypeCheckError
from ttk.values import InternalStuck


def test_small_runs_are_green_and_deterministic():
    first = run_equation_suite(seed=9, count=2, max_nodes=6)
    second = run_equation_suite(seed=9, count=2, max_nodes=6)
    assert first.ok and second.ok
    assert [(r.label, r.passed) for r in first.rows] == \
        [(r.label, r.passed) for r in second.rows]


def test_failure_reporting_dumps_a_counterexample():
    # force rejection: the reporting path must produce a printable instance
    report = _tally("forced", _schema_cases(
        seed=5, count=3, max_nodes=8, max_level=2,
        check=lambda inst: False, schemas=("pi_beta",)))
    row = report.rows[0]
    # every case runs and is counted, failing or not
    assert (row.passed, row.failed) == (0, 3)
    assert not row.ok() and not report.ok
    assert sum(line.startswith("ctx:") for line in row.detail) == 3
    assert sum(line.startswith("lhs:") for line in row.detail) == 3


def test_failure_reporting_shows_a_failed_embedding(monkeypatch):
    # an embedding equation that fails raises a kernel error, and the
    # suite counts it as a failed case with its lines
    def failing(ctx, entity=None):
        raise IsoFailure(f"embedding equation of {entity!r} fails")
    monkeypatch.setattr(ttk.suites, "check_embedding", failing)
    report = run_injectivity_suite(seed=5, count=2)
    rows = {row.label: row for row in report.rows}
    for sort in ("ty", "sub", "tm"):
        row = rows[f"embedding-{sort}"]
        assert (row.passed, row.failed) == (0, 2)
        # the error's line, then the drawn context and entity
        assert [line.split(":")[0] for line in row.detail] == \
            ["IsoFailure", "ctx", "entity"] * 2
    assert rows["component-equations"].detail[0] == \
        "IsoFailure: embedding equation of None fails"
    assert rows["injectivity-probe"].ok()


@pytest.mark.parametrize("error", [
    InternalStuck("stuck"), TypeCheckError("ill-typed\n  at: (q)")])
def test_a_raising_check_fails_and_is_shrunk(error):
    # a check that raises on a drawn instance fails it like a False, and
    # the smallest re-drawn instance that raises is shown after the error
    def check(inst):
        raise error
    report = _tally("forced", _schema_cases(
        seed=5, count=2, max_nodes=8, max_level=2, check=check,
        schemas=("pi_beta",)))
    row = report.rows[0]
    assert (row.passed, row.failed) == (0, 2)
    first = row.detail[:len(str(error).splitlines()) + 1]
    assert first[0] == f"{type(error).__name__}: {str(error).splitlines()[0]}"
    assert first[-1].startswith("ctx:")
    assert sum(line.startswith("lhs:") for line in row.detail) == 2


def _under(monkeypatch, mutant, run, **sizes):
    """The report of ``run`` with ``mutant`` patched in."""
    apply(monkeypatch, mutant)
    try:
        return run(**sizes)
    finally:
        monkeypatch.undo()
        caches.clear_all()


def test_a_failing_translation_shows_its_drawn_input(monkeypatch):
    # a parametricity clause that builds ill-typed output: the failing
    # case shows the error, then the context and entity it translated
    report = _under(monkeypatch, "param-fst-snd", run_parametricity_suite,
                    seed=1, count=5)
    failed = [row for row in report.rows if row.failed]
    assert [(row.label, row.failed) for row in failed] == [("sort-tm", 1)]
    detail = failed[0].detail
    assert detail[0].startswith("TranslationIllTyped: ")
    assert [line.split(":")[0] for line in detail[-2:]] == ["ctx", "entity"]


# The lines that show a drawn equation instance, which are never cut.
_INSTANCE_LINES = ("ctx: ", "to:  ", "at:  ", "lhs: ", "rhs: ")


def test_an_error_line_is_cut_at_the_cap(monkeypatch):
    # a closed-term clause that builds ill-typed output: its error shows
    # whole translated subtrees, cut to the cap with the count left out
    report = _under(monkeypatch, "termify-fst-snd", run_termified_suite,
                    seed=1, count=1)
    shown = [line for row in report.rows for line in row.detail]
    errors = [line for line in shown if not line.startswith(_INSTANCE_LINES)]
    assert errors and max(map(len, errors)) <= ERROR_LINE_CHARS
    cut = [line for line in errors if line.endswith(" more characters]")]
    assert cut
    assert max(map(len, shown)) > ERROR_LINE_CHARS  # instances are not cut


def _param_draws(monkeypatch, **sizes):
    drawn = []

    def recording(ctx, entity):
        drawn.append((ctx, entity))
        return param_entity(ctx, entity)

    monkeypatch.setattr(ttk.suites, "param_entity", recording)
    assert all(report.ok for report in run_suites("param", count=2, **sizes))
    return drawn


def test_max_nodes_reaches_every_suite(monkeypatch):
    small = _param_draws(monkeypatch, max_nodes=3)
    default = _param_draws(monkeypatch)
    assert len(small) == len(default) == 8
    assert small != default
    assert default == _param_draws(monkeypatch, max_nodes=8)


def test_report_lines_format():
    report = run_canonicity_suite(seed=4, count=3)
    lines = report.lines()
    assert lines[0].startswith("suite canonicity")
    assert any("closed-booleans" in line and "passed" in line for line in lines)


def _coverage(count: int) -> tuple:
    row = run_canonicity_suite(seed=1, count=count).rows[1]
    assert row.label == "eliminator-coverage"
    return row.passed, row.failed, row.detail


def test_coverage_requires_the_eliminator_of_each_drawn_flavour(monkeypatch):
    # flavour c % 6 for case c: a count of 1 draws only If's wrapper
    assert _coverage(1) == (1, 0, [])
    assert _coverage(7) == (5, 0, [])
    wrapped = ttk.suites._wrapped_bool
    monkeypatch.setattr(ttk.suites, "_wrapped_bool", lambda gen, flavour:
                        wrapped(gen, 5 if flavour == 2 else flavour))
    assert _coverage(3) == (2, 1, ["no instance contained Fst"])


def test_run_suites_selection():
    reports = run_suites("param", seed=6, count=2)
    assert len(reports) == 1 and reports[0].name == "parametricity"
    # a count of 0 is passed on, not taken for "not given"
    assert [r.rows for r in run_suites("param", count=0)] == [[]]
    names = [r.name for r in run_suites("all", seed=6, count=2)]
    assert names == ["equations", "termified", "injectivity", "canonicity",
                     "parametricity"]


def test_other_suites_small():
    assert run_termified_suite(seed=8, count=2, max_nodes=6).ok
    assert run_injectivity_suite(seed=8, count=3).ok
    assert run_parametricity_suite(seed=8, count=3).ok


# The verdict lines of ``run_suites("all", seed=s, count=3)``, elapsed
# times stripped.  Every case passes at both seeds, so they print the same
# lines; a failing case would add its detail lines.
VERDICT_DIGESTS = {
    1: "a95cb42da0410383e0e1696884a2f2cc99e64c15dcbceaf8f4c52a3e8d78a933",
    3: "a95cb42da0410383e0e1696884a2f2cc99e64c15dcbceaf8f4c52a3e8d78a933",
}


@pytest.mark.parametrize("seed", sorted(VERDICT_DIGESTS))
def test_verdict_lines_are_pinned(seed):
    lines = [re.sub(r" \(\d+\.\ds\)$", "", line)
             for report in run_suites("all", seed=seed, count=3)
             for line in report.lines()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == VERDICT_DIGESTS[seed]
