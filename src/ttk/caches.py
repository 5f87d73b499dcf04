"""Memoization for the pure kernel functions.

Translated syntax is a DAG: the same subtree object recurs under many
parents.  Caching evaluation, checking, and translation on their
arguments makes the kernel run in the size of the DAG rather than the
size of the unfolded tree.  Syntax and values are hash-consed
(``syntax.node``), so a memo key hashes and compares its nodes by
identity, in constant time per node.  Everything cached here is a
deterministic function of immutable inputs, so memoization is
observationally transparent; ``tests/test_memo_transparency.py`` checks
this against a run with every memo table bypassed.

A function gets a table only in one of two cases.  Its recursion reaches
shared syntax or value nodes, so that without a table it would run in the
size of the unfolded tree: ``evaluate`` (one fold over terms and types),
``eval_sub``, ``readback_tm``/``readback_ty``, ``infer_ty``, ``synth_*``
and the two translation folds.  Or it is a costly composition that the
traffic measurably asks again: ``normalize_ty_in``, ``generic_env`` and
``generate._vars_by_type``.  None goes to a function that walks one
telescope or one neutral spine, each step a call to a judgement with its
own table (``check_ctx``, ``ctxs_convertible``, ``readback_ne``), nor to
``injectivity.build_ctx_iso``, which builds syntax at each step and
certifies once.  That makes 12 tables.

What lies below a closed node is computed once.  ``evaluate``,
``infer_ty``, ``synth_tm`` and ``normalize_ty_in`` each rebind their
environment or context to ``()`` or ``EMPTY`` in their own frame when
the node's ``reach`` is 0, after the table lookup and without a second
call.  So a closed node met in a new scope costs one miss, and every
call below it hits the entries that all scopes share.  A caller tests
``reach`` only to skip work for a closed child: evaluating a
substitution, slicing or extending an environment, extending a context
or weakening a type.  The rule is sound because what lies beyond a
node's reach changes neither its value nor what the checker says of it
(``tests/test_reach.py``).

Syntax and value nodes are interned in one table that holds them
strongly (``syntax.node``), so dropping a node frees nothing by itself.
``clear_all`` empties the memo tables and then runs ``syntax.sweep``,
which frees every interned node that nothing else holds.  That sweep is
the only point where interned nodes are freed, and it costs time in
proportion to the live table.  ``tests/test_memo_transparency.py``
checks that a run whose sweep does nothing gives the same verdicts and
normal forms.

The same immutability makes pausing Python's cyclic garbage collector
sound.  A node is built after its children and never changes, so no node,
value, memo key or intern-table entry can reach itself: the sweep and
reference counting free everything the kernel drops, and a collector pass
only walks the live nodes and frees nothing.  ``gc_paused`` turns that
pass off while a ``ttk run`` directive executes, and ``case_scope`` while
one suite case does; ``tests/test_gc_pause.py`` checks that every suite
and every ``RESULT:`` class of ``ttk run`` leaves nothing for
``gc.collect()`` to free.

A suite case holds only what it built: ``case_scope`` empties every memo
table when the case ends, so memory does not grow with the number of
cases.  It empties them *before* collection resumes.  The memo tables are
what keeps a case's nodes alive, so clearing them lets the sweep free
those nodes at once.  Resuming first would make the collector's next
young-generation pass walk every node the case built and left alive, only
to find all of them still reachable.  Counters survive the clear:
``stats()`` adds what each table counted before it was emptied.
"""

from __future__ import annotations

import contextlib
import functools
import gc

from .syntax import sweep

# Every memo table: the wrapped function, keyed by ``module.qualname``.
REGISTRY: dict = {}


# Hits and misses of each memo table up to its last clear, by name.
_CLEARED: dict = {}


def memoized(fn):
    wrapped = functools.lru_cache(maxsize=None)(fn)
    name = f"{fn.__module__}.{fn.__qualname__}"
    REGISTRY[name] = wrapped
    _CLEARED[name] = [0, 0]
    return wrapped


def clear_all() -> None:
    """Empty every memo table, adding its hits and misses to the totals
    that ``stats`` reports first, since ``cache_clear`` resets them; then
    sweep the intern table, freeing every node that nothing else holds."""
    for name, wrapped in REGISTRY.items():
        hits, misses, _, _ = wrapped.cache_info()
        cleared = _CLEARED[name]
        cleared[0] += hits
        cleared[1] += misses
        wrapped.cache_clear()
    sweep()


def stats() -> dict:
    """``hits`` and ``misses`` of each memo table since the process
    started, across clears, and the ``entries`` it holds now, by name."""
    out = {}
    for name, wrapped in REGISTRY.items():
        hits, misses, _, entries = wrapped.cache_info()
        cleared = _CLEARED[name]
        out[name] = {"hits": cleared[0] + hits, "misses": cleared[1] + misses,
                     "entries": entries}
    return out


@contextlib.contextmanager
def gc_paused():
    """Turn automatic cyclic collection off for the block, then restore
    the caller's ``gc.isenabled()`` state, also when the block raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextlib.contextmanager
def case_scope():
    """The lifetime of one suite case: cyclic collection is paused, and
    every memo table is emptied when the block ends, before collection
    resumes, also when the block raises."""
    with gc_paused():
        try:
            yield
        finally:
            clear_all()
