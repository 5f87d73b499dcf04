"""Context isomorphisms and the embedding equations of the closed-term
translation.

Every context is isomorphic to the single-entry context holding its
decoded translation; the isomorphism is built one entry at a time, and
the conversion checker certifies the whole of it once before it returns.
On top of it sit the three embedding equations: a type equals the decoding
of its translated family pulled back along the isomorphism, a substitution
factors through the translated function, and a term equals its translated
section pulled back.  ``check_embedding`` is the one entry point for all
four sorts, used by ``ttk run`` and the suites alike: it checks its input,
then certifies the equation, which holds of every checked input.  The
injectivity probe is two equation checks on one instance: an instance
whose sides translate to convertible closed terms
(``verify_termified_equation``) must already hold at the source
(``check_instance``); one that does not is a counterexample.
"""

from __future__ import annotations

from typing import NamedTuple

from .syntax import (
    App, Bool, Code, Comp, Ctx, EMPTY, El, Eps, Ext, FalseLit, Fst, IdSub,
    IdTy, If, J, Lam, Pair, Pi, Refl, Sigma, Snd, SubExpr, TmSub, Top,
    TrueLit, Tt, TyExpr, TySub, Univ, Var0, Wk,
)
from .conversion import conv_sub, conv_tm, conv_ty
from .equations import EqInstance, check_instance
from .surface import show
from .termify import decoded, point_pair, termify, verify_termified_equation
from .typecheck import after_check, check_entity
from .values import KernelError


class IsoFailure(KernelError):
    """A context isomorphism or an embedding equation of checked input
    failed to certify: a kernel or translation bug, never bad input."""


class CtxIso(NamedTuple):
    """Inverse substitutions between a context and its decoded translation,
    both round trips certified by ``build_ctx_iso``."""
    fwd: SubExpr  # from the context into the one-entry decoded context
    bwd: SubExpr  # back again


def build_ctx_iso(ctx: Ctx) -> CtxIso:
    """Build the pair one prefix at a time and certify only the last: it
    implies the prefixes'.  With ``prev`` a prefix's pair and ``A`` the
    next entry, ``bwd∘fwd`` reduces to ``Ext(prev.bwd∘prev.fwd∘p, A, q)``,
    and ``p`` is a renaming.  The first projection of ``fwd∘bwd`` is
    ``prev.fwd∘prev.bwd`` at the neutral ``fst q``, and substituting a
    neutral for a variable is injective on normal forms.  So neither
    composite is the identity unless the prefix's is."""
    prefix, fwd, bwd = EMPTY, Ext(Eps(), decoded(EMPTY), Tt()), Eps()
    for entry in ctx.entries:
        into_prev = Ext(Eps(), decoded(prefix), Fst(Var0()))
        prefix = prefix.extend(entry)
        packed = point_pair(prefix, TmSub(Var0(), Comp(fwd, Wk())), Var0())
        fwd = Ext(Eps(), decoded(prefix), packed)
        bwd = Ext(Comp(bwd, into_prev), entry, Snd(Var0()))
    target = EMPTY.extend(decoded(ctx))
    if not conv_sub(target, target, Comp(fwd, bwd), IdSub()):
        raise IsoFailure(f"isomorphism of {show(ctx)}: fwd . bwd = id fails")
    if not conv_sub(ctx, ctx, Comp(bwd, fwd), IdSub()):
        raise IsoFailure(f"isomorphism of {show(ctx)}: bwd . fwd = id fails")
    return CtxIso(fwd, bwd)


# ---------------------------------------------------------------------------
# Embedding equations
# ---------------------------------------------------------------------------

def check_embedding(ctx: Ctx, entity=None) -> bool:
    """Check ``entity`` in ``ctx``, then certify its embedding equation:
    True, or ``IsoFailure`` or another ``KernelError``, since it holds of
    every checked input.  ``None`` stands for the context itself, whose
    equation is its isomorphism, certified by ``build_ctx_iso``."""
    checked = check_entity(ctx, entity)

    def step() -> bool:
        iso = build_ctx_iso(ctx)
        if entity is None:
            return True
        translated = App(termify(ctx, entity))
        if isinstance(entity, TyExpr):
            return conv_ty(ctx, entity, TySub(El(translated), iso.fwd))
        if isinstance(entity, SubExpr):
            mid = Ext(Eps(), decoded(checked), translated)
            rhs = Comp(build_ctx_iso(checked).bwd, Comp(mid, iso.fwd))
            return conv_sub(ctx, checked, entity, rhs)
        return conv_tm(ctx, checked, entity, TmSub(translated, iso.fwd))
    if not after_check("closed-term", entity, step):
        raise IsoFailure(f"embedding equation of {show(entity)} in "
                         f"{show(ctx)} fails")
    return True


# ---------------------------------------------------------------------------
# Dedicated component cases: one embedding (or isomorphism) instance per
# operator of the theory, with eliminator cases on neutral scrutinees.
# ---------------------------------------------------------------------------

_BOOL_CTX = Ctx.of(Bool())
_PAIR = Pair(Bool(), TySub(Top(), Wk()), TrueLit(), Tt())
_J_CTX = Ctx.of(Bool(), IdTy(TySub(Bool(), Wk()), TrueLit(), Var0()))
COMPONENT_CASES = (
    ("iso_empty", EMPTY, None),
    ("iso_extend", _BOOL_CTX, None),
    ("id", _BOOL_CTX, IdSub()),
    ("comp", _BOOL_CTX, Comp(Ext(Eps(), Bool(), TrueLit()), Eps())),
    ("ty_sub", _BOOL_CTX, TySub(Bool(), Eps())),
    ("tm_sub", _BOOL_CTX, TmSub(TrueLit(), Eps())),
    ("eps", _BOOL_CTX, Eps()),
    ("ext", _BOOL_CTX, Ext(Eps(), Bool(), Var0())),
    ("p", _BOOL_CTX, Wk()),
    ("q", _BOOL_CTX, Var0()),
    ("pi", EMPTY, Pi(Bool(), Bool())),
    ("lam", EMPTY, Lam(Bool(), Var0())),
    ("app", _BOOL_CTX, App(Lam(Bool(), Var0()))),
    ("sigma", EMPTY, Sigma(Bool(), Top())),
    ("pair", EMPTY, _PAIR),
    ("fst", EMPTY, Fst(_PAIR)),
    ("snd", EMPTY, Snd(_PAIR)),
    ("top", EMPTY, Top()),
    ("tt", EMPTY, Tt()),
    ("univ", EMPTY, Univ(0)),
    ("el", Ctx.of(Univ(0)), El(Var0())),
    ("code", EMPTY, Code(Bool())),
    ("bool", EMPTY, Bool()),
    ("true", EMPTY, TrueLit()),
    ("false", EMPTY, FalseLit()),
    ("if", _BOOL_CTX, If(TySub(Bool(), Wk()), TrueLit(), FalseLit(), Var0())),
    ("id_ty", EMPTY, IdTy(Bool(), TrueLit(), TrueLit())),
    ("refl", EMPTY, Refl(TrueLit())),
    ("j", _J_CTX, J(TySub(Bool(), Comp(Wk(), Wk())), FalseLit(), Var0())),
)


def injectivity_probe(inst: EqInstance) -> bool:
    """Whether ``inst`` is a counterexample to injectivity: its sides are
    equal after the translation but not before, which would be a kernel
    bug."""
    return verify_termified_equation(inst) and not check_instance(inst)
