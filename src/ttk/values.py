"""Semantic domain for normalization by evaluation.

Values are built from canonical forms plus neutral spines stuck on
variables.  Variables are absolute depth levels; readback converts them
back to de Bruijn spines.

A canonical form without a subterm is the syntax node itself: ``Top``,
``Bool``, ``Univ``, ``Tt``, ``TrueLit`` and ``FalseLit`` read no
environment, so each is its own value, and evaluation and readback
return it unchanged.  Every other value has a class of its own.

A neutral's type lives in one place, the ``VNe`` that wraps it.  Each
spine holds its head as such a typed ``VNe``, so no spine node stores a
type, and a variable is its level alone.

A closure is an immutable environment and a raw body that waits for one
value per extra binder.  ``Closure`` is the one closure class: it is the
value of a λ, whose body is a term, and it suspends the type bodies (Π
and Σ codomains, the motives of ``if`` and ``J``).

Coded types collapse eagerly: evaluating ``El(Code A)`` yields the value of
``A``, and a decoded neutral ``VElNe`` holds its code, which is what
coding it returns, so no value contains a code/decode roundtrip.
"""

from __future__ import annotations

from typing import Union

from .syntax import (
    Bool, FalseLit, TmExpr, Top, TrueLit, Tt, TyExpr, Univ, node,
)

Env = tuple["Val", ...]


class InternalStuck(Exception):
    """An eliminator met a non-canonical, non-neutral value.

    This is a kernel bug by construction: evaluation is only run on
    typechecked input."""


@node
class Closure:
    """Suspended term or type body awaiting one value per extra binder;
    ``J`` motives take two."""
    env: Env
    body: Union[TmExpr, TyExpr]


# -- neutral spines ---------------------------------------------------------

@node
class NVar:
    lvl: int


@node
class NApp:
    fn: VNe
    arg: Val


@node
class NFst:
    pair: VNe


@node
class NSnd:
    pair: VNe


@node
class NIf:
    motive: Closure
    on_true: Val
    on_false: Val
    scrut: VNe


@node
class NJ:
    motive: Closure  # two binders: the endpoint and the equation
    base: Val
    scrut: VNe


Neutral = Union[NVar, NApp, NFst, NSnd, NIf, NJ]


# -- type values ------------------------------------------------------------

@node
class VPi:
    dom: TyVal
    cod: Closure


@node
class VSigma:
    dom: TyVal
    cod: Closure


@node
class VId:
    ty: TyVal
    lhs: Val
    rhs: Val


@node
class VElNe:
    """Decoded neutral code: ``code`` is the neutral at its universe."""
    code: VNe


TyVal = Union[VPi, VSigma, Top, Bool, Univ, VId, VElNe]


# -- term values ------------------------------------------------------------

@node
class VPair:
    fst: Val
    snd: Val


@node
class VRefl:
    arg: Val


@node
class VCode:
    ty: TyVal


@node
class VNe:
    ne: Neutral
    ty: TyVal


Val = Union[Closure, VPair, Tt, TrueLit, FalseLit, VRefl, VCode, VNe]


def fresh(lvl: int, ty: TyVal) -> VNe:
    """A fresh variable value at the given absolute depth."""
    return VNe(NVar(lvl), ty)
