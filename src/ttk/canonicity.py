"""Executable canonicity: every closed boolean term is true or false.

The verdict comes from evaluating the term in the empty environment; the
certificate is a conversion check against the corresponding literal.  A
closed well-typed boolean evaluating to anything but a literal would be a
kernel bug, reported as ``NonCanonical``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Bool, Ctx, EMPTY, FalseLit, TmExpr, TrueLit
from .semantics import eval_tm
from .values import VFalse, VTrue
from .conversion import conv_tm
from .typecheck import check_tm


class OpenTerm(Exception):
    """Canonicity only speaks about the empty context."""


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


def canonicity_verdict(tm: TmExpr, ctx: Ctx = EMPTY) -> CanonVerdict:
    if len(ctx) != 0:
        raise OpenTerm("canonicity applies to closed terms only")
    check_tm(EMPTY, tm, Bool())
    val = eval_tm((), tm)
    cls = type(val)
    if cls is not VTrue and cls is not VFalse:
        raise NonCanonical(val)
    value = cls is VTrue
    verdict = CanonVerdict(value, False)
    certified = conv_tm(EMPTY, Bool(), tm, verdict.literal)
    return CanonVerdict(value, certified)
