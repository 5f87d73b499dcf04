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
"""

from __future__ import annotations

import functools

_CLEARERS: list = []


def memoized(fn):
    wrapped = functools.lru_cache(maxsize=None)(fn)
    _CLEARERS.append(wrapped.cache_clear)
    return wrapped


def clear_all() -> None:
    """Drop every kernel cache (between large suite runs, for memory)."""
    for clear in _CLEARERS:
        clear()
