"""Executable canonicity: every closed boolean term is true or false.

The verdict is the term's value in the empty environment, which for a
canonical boolean is the literal itself; the certificate is a conversion
check of the term against that literal.  A closed well-typed boolean
evaluating to anything but a literal, or to a literal that conversion
does not certify, would be a kernel bug, reported as ``NonCanonical``.
"""

from __future__ import annotations

from .syntax import Bool, EMPTY, FalseLit, TmExpr, TrueLit
from .semantics import evaluate
from .conversion import conv_tm
from .typecheck import check_tm
from .values import KernelError


class NonCanonical(KernelError):
    """A closed, checked boolean without a certified literal value."""


def canonicity_verdict(tm: TmExpr) -> TmExpr:
    """The certified value of ``tm``: ``TrueLit()`` or ``FalseLit()``."""
    check_tm(EMPTY, tm, Bool())
    val = evaluate((), tm)
    if val is not TrueLit() and val is not FalseLit():
        raise NonCanonical(f"closed boolean evaluated to {val!r}")
    if not conv_tm(EMPTY, Bool(), tm, val):
        raise NonCanonical(f"closed boolean not convertible to {val!r}")
    return val
