"""Context isomorphisms and the embedding equations of the closed-term
translation.

Every context is isomorphic to the single-entry context holding its
decoded translation; the isomorphism is built by recursion on the
telescope and certified by the conversion checker before it is returned.
On top of it sit the three embedding equations: a type equals the decoding
of its translated family pulled back along the isomorphism, a substitution
factors through the translated function, and a term equals its translated
section pulled back.  ``check_embedding`` is the one entry point for all
four sorts, used by ``ttk run`` and the suites alike: it checks its input,
then tests the equation, and for a context it builds and certifies the
isomorphism.  The injectivity probe is two equation checks on one
instance: an instance whose sides translate to convertible closed terms
(``verify_termified_equation``) must already hold at the source
(``check_instance``); one that does not is a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    App, Comp, Ctx, EMPTY, El, Eps, Ext, Fst, IdSub, Snd, SubExpr, TmSub,
    Tt, TySub, Var0, Wk,
)
from .caches import memoized
from .conversion import conv_sub, conv_tm, conv_ty
from .equations import EqInstance, check_instance
from .termify import (
    decoded, point_pair, termify_sub, termify_tm, termify_ty,
    verify_termified_equation,
)
from .typecheck import check_entity


class IsoFailure(Exception):
    """A context isomorphism failed to certify; this indicates a kernel or
    translation bug, not bad user input."""

    def __init__(self, ctx: Ctx, composite: str) -> None:
        super().__init__(f"context isomorphism composite {composite} is not the identity")
        self.ctx = ctx
        self.composite = composite


@dataclass(frozen=True)
class CtxIso:
    """Invertible substitutions between a context and its decoded
    translation; ``build_ctx_iso`` certifies both round trips before it
    returns one."""
    fwd: SubExpr  # from the context into the one-entry decoded context
    bwd: SubExpr  # back again


@memoized
def build_ctx_iso(ctx: Ctx) -> CtxIso:
    target = EMPTY.extend(decoded(ctx))
    if len(ctx) == 0:
        fwd: SubExpr = Ext(Eps(), decoded(ctx), Tt())
        bwd: SubExpr = Eps()
    else:
        base = ctx.pop()
        prev = build_ctx_iso(base)
        packed = point_pair(ctx, TmSub(Var0(), Comp(prev.fwd, Wk())), Var0())
        fwd = Ext(Eps(), decoded(ctx), packed)
        into_prev = Ext(Eps(), decoded(base), Fst(Var0()))
        bwd = Ext(Comp(prev.bwd, into_prev), ctx.last, Snd(Var0()))
    if not conv_sub(target, target, Comp(fwd, bwd), IdSub()):
        raise IsoFailure(ctx, "fwd . bwd")
    if not conv_sub(ctx, ctx, Comp(bwd, fwd), IdSub()):
        raise IsoFailure(ctx, "bwd . fwd")
    return CtxIso(fwd, bwd)


# ---------------------------------------------------------------------------
# Embedding equations
# ---------------------------------------------------------------------------

def check_embedding(sort: str, ctx: Ctx, entity=None) -> bool:
    """Check the entity, then test its embedding equation.  A context's is
    its isomorphism, certified by ``build_ctx_iso``, so it holds or raises
    ``IsoFailure``, as every sort does when an isomorphism it needs fails
    to certify."""
    checked = check_entity(sort, ctx, entity)
    iso = build_ctx_iso(ctx)
    match sort:
        case "ctx":
            return True
        case "ty":
            rhs = TySub(El(App(termify_ty(ctx, entity))), iso.fwd)
            return conv_ty(ctx, entity, rhs)
        case "sub":
            mid = Ext(Eps(), decoded(checked), App(termify_sub(ctx, entity)))
            rhs = Comp(build_ctx_iso(checked).bwd, Comp(mid, iso.fwd))
            return conv_sub(ctx, checked, entity, rhs)
    # a term: ``check_entity`` has refused any other sort
    rhs = TmSub(App(termify_tm(ctx, entity)), iso.fwd)
    return conv_tm(ctx, checked, entity, rhs)


# ---------------------------------------------------------------------------
# Dedicated component cases: one embedding (or isomorphism) instance per
# operator of the theory, with eliminator cases on neutral scrutinees.
# ---------------------------------------------------------------------------

def _component_cases():
    from .syntax import (
        App, Bool, Code, FalseLit, If, IdTy, J, Lam, Pair, Pi, Refl, Sigma,
        Top, TrueLit, TySub, Univ,
    )
    bool_ctx = Ctx.of(Bool())
    pair = Pair(Bool(), TySub(Top(), Wk()), TrueLit(), Tt())
    j_ctx = Ctx.of(Bool(), IdTy(TySub(Bool(), Wk()), TrueLit(), Var0()))
    return (
        ("iso_empty", "ctx", EMPTY, None),
        ("iso_extend", "ctx", bool_ctx, None),
        ("id", "sub", bool_ctx, IdSub()),
        ("comp", "sub", bool_ctx,
         Comp(Ext(Eps(), Bool(), TrueLit()), Eps())),
        ("ty_sub", "ty", bool_ctx, TySub(Bool(), Eps())),
        ("tm_sub", "tm", bool_ctx, TmSub(TrueLit(), Eps())),
        ("eps", "sub", bool_ctx, Eps()),
        ("ext", "sub", bool_ctx, Ext(Eps(), Bool(), Var0())),
        ("p", "sub", bool_ctx, Wk()),
        ("q", "tm", bool_ctx, Var0()),
        ("pi", "ty", EMPTY, Pi(Bool(), Bool())),
        ("lam", "tm", EMPTY, Lam(Bool(), Var0())),
        ("app", "tm", bool_ctx, App(Lam(Bool(), Var0()))),
        ("sigma", "ty", EMPTY, Sigma(Bool(), Top())),
        ("pair", "tm", EMPTY, pair),
        ("fst", "tm", EMPTY, Fst(pair)),
        ("snd", "tm", EMPTY, Snd(pair)),
        ("top", "ty", EMPTY, Top()),
        ("tt", "tm", EMPTY, Tt()),
        ("univ", "ty", EMPTY, Univ(0)),
        ("el", "ty", Ctx.of(Univ(0)), El(Var0())),
        ("code", "tm", EMPTY, Code(Bool())),
        ("bool", "ty", EMPTY, Bool()),
        ("true", "tm", EMPTY, TrueLit()),
        ("false", "tm", EMPTY, FalseLit()),
        ("if", "tm", bool_ctx,
         If(TySub(Bool(), Wk()), TrueLit(), FalseLit(), Var0())),
        ("id_ty", "ty", EMPTY, IdTy(Bool(), TrueLit(), TrueLit())),
        ("refl", "tm", EMPTY, Refl(TrueLit())),
        ("j", "tm", j_ctx,
         J(TySub(Bool(), Comp(Wk(), Wk())), FalseLit(), Var0())),
    )


COMPONENT_CASES = _component_cases()


def injectivity_probe(inst: EqInstance) -> bool:
    """Whether ``inst`` is a counterexample to injectivity: its sides are
    equal after the translation but not before, which would be a kernel
    bug."""
    return verify_termified_equation(inst) and not check_instance(inst)
