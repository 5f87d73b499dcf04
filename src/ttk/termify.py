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
    cls = type(sub)
    if cls is IdSub:
        return Lam(points, Var0())
    if cls is Comp:
        mid = synth_sub(ctx, sub.inner)
        outer_t = termify_sub(mid, sub.outer)
        inner_t = termify_sub(ctx, sub.inner)
        return Lam(points, apply1(_wk0(outer_t), apply1(_wk0(inner_t), Var0())))
    if cls is Eps:
        return Lam(points, Tt())
    if cls is Ext:
        cod = synth_sub(ctx, sub.sub)
        entry = sub.ann if sub.ann is not None else synth_tm(ctx, sub.tm)
        s_t = termify_sub(ctx, sub.sub)
        tm_t = termify_tm(ctx, sub.tm)
        body = point_pair(cod.extend(entry), App(s_t), App(tm_t))
        return Lam(points, body)
    if cls is Wk:
        ctx.pop()  # rejects the empty context
        return Lam(points, Fst(Var0()))
    raise TypeCheckError("not a substitution expression", expr=sub)


@memoized
def termify_ty(ctx: Ctx, ty: TyExpr) -> TmExpr:
    points = decoded(ctx)
    cls = type(ty)
    if cls is TySub:
        cod = synth_sub(ctx, ty.sub)
        inner = termify_ty(cod, ty.ty)
        reindex = Ext(Eps(), decoded(cod), App(TmSub(termify_sub(ctx, ty.sub), Eps())))
        return Lam(points, TmSub(App(inner), reindex))
    if cls is Pi or cls is Sigma:
        extended = ctx.extend(ty.dom)
        dom_t = termify_ty(ctx, ty.dom)
        cod_t = termify_ty(extended, ty.cod)
        fibre = El(App(dom_t))
        packed = point_pair(extended, v(1), v(0))
        inner_cod = TySub(El(App(cod_t)), Ext(Eps(), decoded(extended), packed))
        return Lam(points, Code(cls(fibre, inner_cod)))
    if cls is Top:
        return Lam(points, Code(Top()))
    if cls is Univ:
        return Lam(points, Code(Univ(ty.level)))
    if cls is El:
        return termify_tm(ctx, ty.code)
    if cls is Bool:
        return Lam(points, Code(Bool()))
    if cls is IdTy:
        t_t = termify_ty(ctx, ty.ty)
        lhs_t = termify_tm(ctx, ty.lhs)
        rhs_t = termify_tm(ctx, ty.rhs)
        return Lam(points, Code(IdTy(El(App(t_t)), App(lhs_t), App(rhs_t))))
    raise TypeCheckError("not a type expression", expr=ty)


@memoized
def termify_tm(ctx: Ctx, tm: TmExpr) -> TmExpr:
    points = decoded(ctx)
    cls = type(tm)
    if cls is TmSub:
        cod = synth_sub(ctx, tm.sub)
        inner = termify_tm(cod, tm.tm)
        reindex = Ext(Eps(), decoded(cod), App(TmSub(termify_sub(ctx, tm.sub), Eps())))
        return Lam(points, TmSub(App(inner), reindex))
    if cls is Var0:
        ctx.pop()
        return Lam(points, Snd(Var0()))
    if cls is Lam:
        extended = ctx.extend(tm.dom)
        body_t = termify_tm(extended, tm.body)
        fibre = El(App(termify_ty(ctx, tm.dom)))
        packed = point_pair(extended, v(1), v(0))
        return Lam(points, Lam(fibre, apply1(_wk0(body_t), packed)))
    if cls is App:
        fn_t = termify_tm(ctx.pop(), tm.fn)
        return Lam(points,
                   apply1(apply1(_wk0(fn_t), Fst(Var0())), Snd(Var0())))
    if cls is Pair:
        extended = ctx.extend(tm.fst_ty)
        fst_t = termify_ty(ctx, tm.fst_ty)
        snd_t = termify_ty(extended, tm.snd_ty)
        fibre = El(App(fst_t))
        packed = point_pair(extended, v(1), v(0))
        snd_fam = TySub(El(App(snd_t)), Ext(Eps(), decoded(extended), packed))
        return Lam(points, Pair(
            fibre, snd_fam,
            App(termify_tm(ctx, tm.fst)), App(termify_tm(ctx, tm.snd))))
    if cls is Fst:
        return Lam(points, Fst(App(termify_tm(ctx, tm.pair))))
    if cls is Snd:
        return Lam(points, Snd(App(termify_tm(ctx, tm.pair))))
    if cls is Tt:
        return Lam(points, Tt())
    if cls is Code:
        return termify_ty(ctx, tm.ty)
    if cls is TrueLit:
        return Lam(points, TrueLit())
    if cls is FalseLit:
        return Lam(points, FalseLit())
    if cls is If:
        extended = ctx.extend(Bool())
        motive_t = termify_ty(extended, tm.motive)
        packed = point_pair(extended, v(1), v(0))
        inner_motive = El(apply1(_wk0(motive_t), packed))
        return Lam(points, If(
            inner_motive,
            App(termify_tm(ctx, tm.on_true)),
            App(termify_tm(ctx, tm.on_false)),
            App(termify_tm(ctx, tm.scrut)),
        ))
    if cls is Refl:
        return Lam(points, Refl(App(termify_tm(ctx, tm.arg))))
    if cls is J:
        eq_ty = force(ctx, synth_tm(ctx, tm.eq), IdTy, tm.eq)
        dom, lhs = eq_ty.ty, eq_ty.lhs
        eq_entry = IdTy(TySub(dom, Wk()), TmSub(lhs, Wk()), Var0())
        with_dom = ctx.extend(dom)
        with_eq = with_dom.extend(eq_entry)
        motive_t = termify_ty(with_eq, tm.motive)
        inner_pair = point_pair(with_dom, v(2), v(1))
        packed = point_pair(with_eq, inner_pair, v(0))
        inner_motive = El(apply1(_wk0(motive_t), packed))
        return Lam(points, J(
            inner_motive,
            App(termify_tm(ctx, tm.base)),
            App(termify_tm(ctx, tm.eq)),
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
