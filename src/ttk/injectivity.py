"""Context isomorphisms and the embedding equations of the closed-term
translation.

Every context is isomorphic to the single-entry context holding its
decoded translation; the isomorphism is built by recursion on the
telescope and certified by the conversion checker before it is returned.
On top of it sit the three embedding equations: a type equals the decoding
of its translated family pulled back along the isomorphism, a substitution
factors through the translated function, and a term equals its translated
section pulled back.  A probe then uses these to look for injectivity
counterexamples: translated-equal entities must already be equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    App, Comp, Ctx, EMPTY, El, Eps, Ext, Fst, IdSub, Snd, SubExpr, TmExpr,
    TmSub, Tt, TyExpr, TySub, Var0, Wk,
)
from .caches import memoized
from .conversion import conv_sub, conv_tm, conv_ty, normalize_tm, normalize_ty
from .termify import (
    decoded, point_pair, sub_classifier, termify_sub, termify_tm,
    termify_ty, tm_classifier, ty_classifier,
)
from .typecheck import check_entity, synth_sub, synth_tm


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

@dataclass(frozen=True)
class EmbeddingReport:
    accepted: bool
    lhs_nf: Optional[object] = None  # filled on reject, for diagnosis
    rhs_nf: Optional[object] = None


def _report(ok: bool, ctx: Ctx, kind: str, lhs, rhs) -> EmbeddingReport:
    if ok:
        return EmbeddingReport(True)
    norm = normalize_ty if kind == "ty" else normalize_tm
    if kind == "sub":
        return EmbeddingReport(False, lhs, rhs)
    return EmbeddingReport(False, norm(ctx, lhs), norm(ctx, rhs))


def embedding_ty(ctx: Ctx, ty: TyExpr) -> EmbeddingReport:
    iso = build_ctx_iso(ctx)
    rhs = TySub(El(App(termify_ty(ctx, ty))), iso.fwd)
    return _report(conv_ty(ctx, ty, rhs), ctx, "ty", ty, rhs)


def embedding_sub(ctx: Ctx, sub: SubExpr) -> EmbeddingReport:
    cod = synth_sub(ctx, sub)
    iso_dom = build_ctx_iso(ctx)
    iso_cod = build_ctx_iso(cod)
    mid = Ext(Eps(), decoded(cod), App(termify_sub(ctx, sub)))
    rhs = Comp(iso_cod.bwd, Comp(mid, iso_dom.fwd))
    return _report(conv_sub(ctx, cod, sub, rhs), ctx, "sub", sub, rhs)


def embedding_tm(ctx: Ctx, tm: TmExpr) -> EmbeddingReport:
    iso = build_ctx_iso(ctx)
    rhs = TmSub(App(termify_tm(ctx, tm)), iso.fwd)
    return _report(conv_tm(ctx, synth_tm(ctx, tm), tm, rhs), ctx, "tm", tm, rhs)


def check_embedding(sort: str, ctx: Ctx, entity) -> EmbeddingReport:
    """Check the entity, then test its embedding equation."""
    check_entity(sort, ctx, entity)
    match sort:
        case "ty":
            return embedding_ty(ctx, entity)
        case "sub":
            return embedding_sub(ctx, entity)
        case "tm":
            return embedding_tm(ctx, entity)
    raise ValueError(f"unknown embedding sort {sort!r}")


# ---------------------------------------------------------------------------
# Injectivity probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    translations_equal: bool
    sources_equal: bool

    @property
    def counterexample(self) -> bool:
        return self.translations_equal and not self.sources_equal


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


def injectivity_probe(kind: str, ctx: Ctx, classifier, lhs, rhs) -> ProbeResult:
    """Translated-equal entities must be equal at the source; any
    counterexample falsifies the embedding's injectivity (a kernel bug)."""
    match kind:
        case "ty":
            t_eq = conv_tm(EMPTY, ty_classifier(ctx, lhs),
                           termify_ty(ctx, lhs), termify_ty(ctx, rhs))
            s_eq = conv_ty(ctx, lhs, rhs)
        case "sub":
            t_eq = conv_tm(EMPTY, sub_classifier(ctx, classifier),
                           termify_sub(ctx, lhs), termify_sub(ctx, rhs))
            s_eq = conv_sub(ctx, classifier, lhs, rhs)
        case "tm":
            t_eq = conv_tm(EMPTY, tm_classifier(ctx, classifier),
                           termify_tm(ctx, lhs), termify_tm(ctx, rhs))
            s_eq = conv_tm(ctx, classifier, lhs, rhs)
        case _:
            raise ValueError(f"unknown probe kind {kind!r}")
    return ProbeResult(t_eq, s_eq)
