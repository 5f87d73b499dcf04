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

The same immutability makes pausing Python's cyclic garbage collector
sound.  A node is built after its children and never changes, so no node,
value, memo key or intern-table entry can reach itself: reference counting
frees everything the kernel drops, and a collector pass only walks the
live nodes and frees nothing.  ``gc_paused`` turns that pass off while a
suite or a ``ttk run`` directive executes; ``tests/test_gc_pause.py``
checks that every suite and every ``RESULT:`` class of ``ttk run`` leaves
nothing for ``gc.collect()`` to free.
"""

from __future__ import annotations

import contextlib
import functools
import gc

# Every memo table: the wrapped function, keyed by ``module.qualname``.
REGISTRY: dict = {}


def memoized(fn):
    wrapped = functools.lru_cache(maxsize=None)(fn)
    REGISTRY[f"{fn.__module__}.{fn.__qualname__}"] = wrapped
    return wrapped


def clear_all() -> None:
    """Drop every kernel cache (between large suite runs, for memory)."""
    for wrapped in REGISTRY.values():
        wrapped.cache_clear()


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
