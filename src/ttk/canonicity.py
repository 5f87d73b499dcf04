"""Executable canonicity: every closed boolean term is true or false.

The verdict is the term's value in the empty environment, which for a
canonical boolean is the literal itself; the certificate is a conversion
check of the term against that literal.  A closed well-typed boolean
evaluating to anything but a literal, or to a literal that conversion
does not certify, would be a kernel bug, reported as ``NonCanonical``.
"""

from __future__ import annotations

from typing import NamedTuple

from .syntax import Bool, EMPTY, FalseLit, TmExpr, TrueLit
from .semantics import evaluate
from .conversion import conv_tm
from .typecheck import check_tm
from .values import KernelError


class NonCanonical(KernelError):
    """A closed, checked boolean without a certified literal value."""


class CanonVerdict(NamedTuple):
    """The certified value of a closed boolean."""
    value: bool

    @property
    def literal(self) -> TmExpr:
        return TrueLit() if self.value else FalseLit()


def canonicity_verdict(tm: TmExpr) -> CanonVerdict:
    check_tm(EMPTY, tm, Bool())
    val = evaluate((), tm)
    cls = type(val)
    if cls is not TrueLit and cls is not FalseLit:
        raise NonCanonical(f"closed boolean evaluated to {val!r}")
    if not conv_tm(EMPTY, Bool(), tm, val):
        raise NonCanonical(f"closed boolean not convertible to {val!r}")
    return CanonVerdict(cls is TrueLit)
