"""Executable canonicity: every closed boolean term is true or false.

The verdict comes from evaluating the term in the empty environment; the
certificate is a conversion check against the corresponding literal.  A
closed well-typed boolean evaluating to anything but a literal would be a
kernel bug, reported as ``NonCanonical``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Bool, EMPTY, FalseLit, TmExpr, TrueLit
from .semantics import eval_tm
from .values import VFalse, VTrue
from .conversion import conv_tm
from .typecheck import check_tm


class NonCanonical(Exception):
    def __init__(self, value) -> None:
        super().__init__(f"closed boolean evaluated to {value!r}")
        self.value = value


_LITERALS = {True: TrueLit(), False: FalseLit()}


@dataclass(frozen=True)
class CanonVerdict:
    value: bool
    certified: bool

    @property
    def literal(self) -> TmExpr:
        return _LITERALS[self.value]


def canonicity_verdict(tm: TmExpr) -> CanonVerdict:
    check_tm(EMPTY, tm, Bool())
    val = eval_tm((), tm)
    cls = type(val)
    if cls is not VTrue and cls is not VFalse:
        raise NonCanonical(val)
    value = cls is VTrue
    return CanonVerdict(value, conv_tm(EMPTY, Bool(), tm, _LITERALS[value]))
