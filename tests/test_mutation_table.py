"""The mutation table: each one-clause mutant of ``tests/mutants.py``
makes a suite count a failed case at seed 1, and no suite raises under
any mutant.  A broken clause must show up as a counted failure, with its
lines, not as an exception that ends the run (mutation analysis: DeMillo,
Lipton and Sayward, *Hints on test data selection*, IEEE Computer 1978).
"""

import pytest

from mutants import MUTANTS, apply
from ttk import caches
from ttk.suites import SUITES

# The suite that kills each mutant at seed 1, and the smallest count at
# which it does.
KILLED_BY = {
    "termify-false-true": ("inject", 1),
    "termify-fst-snd": ("termified", 1),
    "termify-if-swapped": ("termified", 1),
    "termify-refl-false": ("termified", 1),
    "param-top-bool": ("param", 1),
    "param-refl-true-tt": ("param", 1),
    "param-fst-snd": ("param", 5),
    "vif-swapped": ("equations", 1),
}


def test_the_table_covers_every_mutant():
    assert KILLED_BY.keys() == MUTANTS.keys()


@pytest.mark.parametrize("mutant", sorted(KILLED_BY))
def test_a_mutant_is_a_counted_failure(monkeypatch, mutant):
    killer, count = KILLED_BY[mutant]
    apply(monkeypatch, mutant)
    try:
        # every suite runs to its end; each runs at count 2 but the killer
        reports = {name: run(seed=1, count=count if name == killer else 2)
                   for name, run in SUITES.items()}
    finally:
        monkeypatch.undo()
        caches.clear_all()
    killed = reports[killer]
    assert not killed.ok
    assert all(row.passed + row.failed >= 1 for row in killed.rows)
    assert any(line.strip() for row in killed.rows for line in row.detail)
