"""Closed-term translation of the whole theory into itself.

Every context, type, substitution, and term is sent to a closed term of
the empty context:

    contexts          become codes in ``Tm • (U i)``
    types over Γ      become code families ``Tm • (El ⟦Γ⟧ ⇒ U j)``
    substitutions     become functions ``Tm • (El ⟦Γ⟧ ⇒ El ⟦Δ⟧)``
    terms             become sections ``Tm • (Π (El ⟦Γ⟧) (El (app ⟦A⟧)))``

The translation is a structural fold with one clause per operator; the
context is threaded so clauses can re-translate synthesized classifiers
where annotations demand it.  Closed subterms are weakened into binder
scopes by the terminal substitution; the conversion checker later
discharges all coherence obligations this creates.

Points of a translated extended context are pairs.  The pair annotations
are read off the normal form of the decoded context code, which is closed,
so its memoized normal form serves every use site.  ``termify`` and
``termified_classifier`` give an entity's translation and its closed type,
by the entity's class; ``termify_entity`` checks the one at the other on
the check, translate, verify path both translations share
(``typecheck.translate_checked``).
"""

from __future__ import annotations

from .syntax import (
    App, Bool, Code, Ctx, Comp, EMPTY, El, Eps, Ext, FalseLit, Fst, IdSub,
    IdTy, If, J, Lam, Pair, Pi, Refl, Sigma, Snd, SubExpr, Top, TrueLit, Tt,
    TmExpr, TmSub, TyExpr, TySub, Univ, Var0, Wk, apply1, arrow, v,
)
from .caches import memoized
from .conversion import conv_tm
from .typecheck import (
    Translated, TypeCheckError, force, infer_ty, synth_sub, synth_tm,
    translate_checked,
)


def _wk0(tm: TmExpr) -> TmExpr:
    """Weaken a closed term into an arbitrary context."""
    return TmSub(tm, Eps())


def decoded(ctx: Ctx) -> TyExpr:
    """``El`` of the translated context: the closed type of its points."""
    return El(termify_ctx(ctx))


def point_pair(ctx: Ctx, head: TmExpr, tail: TmExpr) -> TmExpr:
    """A point of the decoded extended context, as an annotated pair."""
    sigma = force(EMPTY, decoded(ctx), Sigma, ctx)
    return Pair(sigma.dom, sigma.cod, head, tail)


@memoized
def termify_ctx(ctx: Ctx) -> TmExpr:
    if len(ctx) == 0:
        return Code(Top())
    head = ctx.pop()
    entry_fam = termify_ty(head, ctx.last)
    return Code(Sigma(El(termify_ctx(head)), El(App(entry_fam))))


@memoized
def termify_sub(ctx: Ctx, sub: SubExpr) -> TmExpr:
    points = decoded(ctx)
    match sub:
        case IdSub():
            return Lam(points, Var0())
        case Comp(outer, inner):
            mid = synth_sub(ctx, inner)
            outer_t = termify_sub(mid, outer)
            inner_t = termify_sub(ctx, inner)
            return Lam(points, apply1(_wk0(outer_t), apply1(_wk0(inner_t), Var0())))
        case Eps():
            return Lam(points, Tt())
        case Ext(s, ann, tm):
            cod = synth_sub(ctx, s)
            entry = ann if ann is not None else synth_tm(ctx, tm)
            s_t = termify_sub(ctx, s)
            tm_t = termify_tm(ctx, tm)
            body = point_pair(cod.extend(entry), App(s_t), App(tm_t))
            return Lam(points, body)
        case Wk():
            ctx.pop()  # rejects the empty context
            return Lam(points, Fst(Var0()))
    raise TypeCheckError("not a substitution expression", expr=sub)


@memoized
def termify_ty(ctx: Ctx, ty: TyExpr) -> TmExpr:
    points = decoded(ctx)
    match ty:
        case TySub(t, sub):
            cod = synth_sub(ctx, sub)
            inner = termify_ty(cod, t)
            reindex = Ext(Eps(), decoded(cod), App(TmSub(termify_sub(ctx, sub), Eps())))
            return Lam(points, TmSub(App(inner), reindex))
        case Pi(dom, cod) | Sigma(dom, cod):
            extended = ctx.extend(dom)
            dom_t = termify_ty(ctx, dom)
            cod_t = termify_ty(extended, cod)
            fibre = El(App(dom_t))
            packed = point_pair(extended, v(1), v(0))
            inner_cod = TySub(El(App(cod_t)), Ext(Eps(), decoded(extended), packed))
            former = Pi if isinstance(ty, Pi) else Sigma
            return Lam(points, Code(former(fibre, inner_cod)))
        case Top():
            return Lam(points, Code(Top()))
        case Univ(level):
            return Lam(points, Code(Univ(level)))
        case El(code):
            return termify_tm(ctx, code)
        case Bool():
            return Lam(points, Code(Bool()))
        case IdTy(t, lhs, rhs):
            t_t = termify_ty(ctx, t)
            lhs_t = termify_tm(ctx, lhs)
            rhs_t = termify_tm(ctx, rhs)
            return Lam(points, Code(IdTy(El(App(t_t)), App(lhs_t), App(rhs_t))))
    raise TypeCheckError("not a type expression", expr=ty)


@memoized
def termify_tm(ctx: Ctx, tm: TmExpr) -> TmExpr:
    points = decoded(ctx)
    match tm:
        case TmSub(t, sub):
            cod = synth_sub(ctx, sub)
            inner = termify_tm(cod, t)
            reindex = Ext(Eps(), decoded(cod), App(TmSub(termify_sub(ctx, sub), Eps())))
            return Lam(points, TmSub(App(inner), reindex))
        case Var0():
            ctx.pop()
            return Lam(points, Snd(Var0()))
        case Lam(dom, body):
            extended = ctx.extend(dom)
            body_t = termify_tm(extended, body)
            fibre = El(App(termify_ty(ctx, dom)))
            packed = point_pair(extended, v(1), v(0))
            return Lam(points, Lam(fibre, apply1(_wk0(body_t), packed)))
        case App(fn):
            fn_t = termify_tm(ctx.pop(), fn)
            return Lam(points,
                       apply1(apply1(_wk0(fn_t), Fst(Var0())), Snd(Var0())))
        case Pair(fst_ty, snd_ty, a, b):
            extended = ctx.extend(fst_ty)
            fst_t = termify_ty(ctx, fst_ty)
            snd_t = termify_ty(extended, snd_ty)
            fibre = El(App(fst_t))
            packed = point_pair(extended, v(1), v(0))
            snd_fam = TySub(El(App(snd_t)), Ext(Eps(), decoded(extended), packed))
            return Lam(points, Pair(
                fibre, snd_fam,
                App(termify_tm(ctx, a)), App(termify_tm(ctx, b))))
        case Fst(p):
            return Lam(points, Fst(App(termify_tm(ctx, p))))
        case Snd(p):
            return Lam(points, Snd(App(termify_tm(ctx, p))))
        case Tt():
            return Lam(points, Tt())
        case Code(t):
            return termify_ty(ctx, t)
        case TrueLit():
            return Lam(points, TrueLit())
        case FalseLit():
            return Lam(points, FalseLit())
        case If(motive, on_true, on_false, scrut):
            extended = ctx.extend(Bool())
            motive_t = termify_ty(extended, motive)
            packed = point_pair(extended, v(1), v(0))
            inner_motive = El(apply1(_wk0(motive_t), packed))
            return Lam(points, If(
                inner_motive,
                App(termify_tm(ctx, on_true)),
                App(termify_tm(ctx, on_false)),
                App(termify_tm(ctx, scrut)),
            ))
        case Refl(arg):
            return Lam(points, Refl(App(termify_tm(ctx, arg))))
        case J(motive, base, eq):
            eq_ty = force(ctx, synth_tm(ctx, eq), IdTy, eq)
            dom, lhs = eq_ty.ty, eq_ty.lhs
            eq_entry = IdTy(TySub(dom, Wk()), TmSub(lhs, Wk()), Var0())
            with_dom = ctx.extend(dom)
            with_eq = with_dom.extend(eq_entry)
            motive_t = termify_ty(with_eq, motive)
            inner_pair = point_pair(with_dom, v(2), v(1))
            packed = point_pair(with_eq, inner_pair, v(0))
            inner_motive = El(apply1(_wk0(motive_t), packed))
            return Lam(points, J(
                inner_motive,
                App(termify_tm(ctx, base)),
                App(termify_tm(ctx, eq)),
            ))
    raise TypeCheckError("not a term expression", expr=tm)


# ---------------------------------------------------------------------------
# Entity-level interface
# ---------------------------------------------------------------------------

def termify(ctx: Ctx, entity=None) -> TmExpr:
    """The closed term that ``entity`` in ``ctx`` translates to; ``None``
    stands for the context itself."""
    if entity is None:
        return termify_ctx(ctx)
    if isinstance(entity, TyExpr):
        return termify_ty(ctx, entity)
    if isinstance(entity, SubExpr):
        return termify_sub(ctx, entity)
    return termify_tm(ctx, entity)


def termified_classifier(ctx: Ctx, entity, checked) -> TyExpr:
    """The closed type that the translation of ``entity`` in ``ctx``
    (``None`` for the context itself) inhabits, given the entity's own
    classifier ``checked`` (a level for a context or type, the codomain of
    a substitution, the type of a term)."""
    if entity is None:
        return Univ(checked)
    if isinstance(entity, TyExpr):
        return arrow(decoded(ctx), Univ(checked))
    if isinstance(entity, SubExpr):
        return arrow(decoded(ctx), decoded(checked))
    return Pi(decoded(ctx), El(App(termify_ty(ctx, checked))))


def termify_entity(ctx: Ctx, entity=None) -> Translated:
    """Check ``entity`` in ``ctx`` (``None`` for the context itself),
    translate it to a closed term, and check that term at its
    classifier."""
    return translate_checked("closed-term", ctx, entity, lambda checked: (
        EMPTY, termify(ctx, entity),
        termified_classifier(ctx, entity, checked)))


def verify_termified_equation(inst) -> bool:
    """Translate both sides of an equation instance and compare the closed
    results at the translated classifier."""
    lhs = termify(inst.ctx, inst.lhs)
    rhs = termify(inst.ctx, inst.rhs)
    checked = (infer_ty(inst.ctx, inst.lhs) if inst.classifier is None
               else inst.classifier)
    return conv_tm(EMPTY, termified_classifier(inst.ctx, inst.lhs, checked),
                   lhs, rhs)
