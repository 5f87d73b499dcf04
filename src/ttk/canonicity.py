"""Executable canonicity: every closed boolean term is true or false.

The verdict is the term's value in the empty environment, which for a
canonical boolean is the literal itself; the certificate is a conversion
check of the term against that literal.  A closed well-typed boolean
evaluating to anything but a literal would be a kernel bug, reported as
``NonCanonical``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Bool, EMPTY, FalseLit, TmExpr, TrueLit
from .semantics import evaluate
from .conversion import conv_tm
from .typecheck import check_tm


class NonCanonical(Exception):
    def __init__(self, value) -> None:
        super().__init__(f"closed boolean evaluated to {value!r}")
        self.value = value


@dataclass(frozen=True)
class CanonVerdict:
    value: bool
    certified: bool

    @property
    def literal(self) -> TmExpr:
        return TrueLit() if self.value else FalseLit()


def canonicity_verdict(tm: TmExpr) -> CanonVerdict:
    check_tm(EMPTY, tm, Bool())
    val = evaluate((), tm)
    cls = type(val)
    if cls is not TrueLit and cls is not FalseLit:
        raise NonCanonical(val)
    return CanonVerdict(cls is TrueLit, conv_tm(EMPTY, Bool(), tm, val))
