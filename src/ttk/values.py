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

Every value carries a level reach, filled by its constructor as
``syntax.node`` fills a syntax node's ``reach``: 1 plus the highest level
of a variable the value holds, or 0 if it holds none.  A leaf's syntax
``reach`` is 0, which reads the same.  A closure reaches what the
environment entries its body can read hold: the body reads its binders'
values after the environment, so at most the last ``body.reach - 1``
entries.  A value of reach 0 reads back to the same syntax at every
depth.

Coded types collapse eagerly: evaluating ``El(Code A)`` yields the value of
``A``, and a decoded neutral ``VElNe`` holds its code, which is what
coding it returns, so no value contains a code/decode roundtrip.
"""

from __future__ import annotations

from typing import Union

from .syntax import (
    Bool, FalseLit, TmExpr, Top, TrueLit, Tt, TyExpr, Univ, max_expr, node,
)

Env = tuple["Val", ...]


class InternalStuck(Exception):
    """An eliminator met a non-canonical, non-neutral value.

    This is a kernel bug by construction: evaluation is only run on
    typechecked input."""


# a body reads its binders' values after ``env``, at least one, so it reads
# at most the last ``body.reach - 1`` entries of ``env``
@node(reach="max(map(_reach, env[1 - _r:])) if (_r := body.reach) > 1 and env"
            " else 0")
class Closure:
    """Suspended term or type body awaiting one value per extra binder;
    ``J`` motives take two."""
    env: Env
    body: Union[TmExpr, TyExpr]


# -- neutral spines ---------------------------------------------------------

@node(reach="lvl + 1")
class NVar:
    lvl: int


@node(reach=max_expr("fn.reach", "arg.reach"))
class NApp:
    fn: VNe
    arg: Val


@node(reach="pair.reach")
class NFst:
    pair: VNe


@node(reach="pair.reach")
class NSnd:
    pair: VNe


@node(reach=max_expr("motive.reach", "on_true.reach", "on_false.reach",
                    "scrut.reach"))
class NIf:
    motive: Closure
    on_true: Val
    on_false: Val
    scrut: VNe


@node(reach=max_expr("motive.reach", "base.reach", "scrut.reach"))
class NJ:
    motive: Closure  # two binders: the endpoint and the equation
    base: Val
    scrut: VNe


Neutral = Union[NVar, NApp, NFst, NSnd, NIf, NJ]


# -- type values ------------------------------------------------------------

@node(reach=max_expr("dom.reach", "cod.reach"))
class VPi:
    dom: TyVal
    cod: Closure


@node(reach=max_expr("dom.reach", "cod.reach"))
class VSigma:
    dom: TyVal
    cod: Closure


@node(reach=max_expr("ty.reach", "lhs.reach", "rhs.reach"))
class VId:
    ty: TyVal
    lhs: Val
    rhs: Val


@node(reach="code.reach")
class VElNe:
    """Decoded neutral code: ``code`` is the neutral at its universe."""
    code: VNe


TyVal = Union[VPi, VSigma, Top, Bool, Univ, VId, VElNe]


# -- term values ------------------------------------------------------------

@node(reach=max_expr("fst.reach", "snd.reach"))
class VPair:
    fst: Val
    snd: Val


@node(reach="arg.reach")
class VRefl:
    arg: Val


@node(reach="ty.reach")
class VCode:
    ty: TyVal


@node(reach=max_expr("ne.reach", "ty.reach"))
class VNe:
    ne: Neutral
    ty: TyVal


Val = Union[Closure, VPair, Tt, TrueLit, FalseLit, VRefl, VCode, VNe]


def fresh(lvl: int, ty: TyVal) -> VNe:
    """A fresh variable value at the given absolute depth."""
    return VNe(NVar(lvl), ty)
