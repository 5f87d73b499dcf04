"""Closed-term translation of the whole theory into itself.

Every context, type, substitution, and term is sent to a closed term of
the empty context:

    contexts          become codes in ``Tm • (U i)``
    types over Γ      become code families ``Tm • (El ⟦Γ⟧ ⇒ U j)``
    substitutions     become functions ``Tm • (El ⟦Γ⟧ ⇒ El ⟦Δ⟧)``
    terms             become sections ``Tm • (Π (El ⟦Γ⟧) (El (app ⟦A⟧)))``

The translation is one memoized fold, ``termify(ctx, x)``, over every
sort: it dispatches on the class of ``x``, with ``None`` for the context
itself, and has one clause per operator.  The context is threaded so
clauses can re-translate synthesized classifiers where annotations
demand it.  Closed subterms are weakened into binder scopes by the
terminal substitution; the conversion checker later discharges all
coherence obligations this creates.

Points of a translated extended context are pairs.  The pair annotations
are read off the normal form of the decoded context code, which is closed,
so its memoized normal form serves every use site.  ``termified_classifier``
gives the closed type of an entity's translation, by the entity's class;
``termify_entity`` checks the one at the other on the check, translate,
verify path both translations share (``typecheck.translate_checked``).
"""

from __future__ import annotations

from .syntax import (
    App, Bool, Code, Ctx, Comp, EMPTY, El, Eps, Ext, FalseLit, Fst, IdSub,
    IdTy, If, J, Lam, Pair, Pi, Refl, Sigma, Snd, SubExpr, Top, TrueLit, Tt,
    TmExpr, TmSub, TyExpr, TySub, Univ, Var0, Wk, apply1, arrow, j_binder, v,
)
from .caches import memoized
from .conversion import conv_tm
from .typecheck import (
    Translated, TypeCheckError, after_check, force, infer_ty, pair_at,
    synth_sub, synth_tm, translate_checked,
)


def _wk0(tm: TmExpr) -> TmExpr:
    """Weaken a closed term into an arbitrary context."""
    return TmSub(tm, Eps())


def decoded(ctx: Ctx) -> TyExpr:
    """``El`` of the translated context: the closed type of its points."""
    return El(termify(ctx, None))


def point_pair(ctx: Ctx, head: TmExpr, tail: TmExpr) -> TmExpr:
    """A point of the decoded extended context, as an annotated pair."""
    return pair_at(EMPTY, decoded(ctx), head, tail)


@memoized
def termify(ctx: Ctx, x) -> TmExpr:
    """The closed term that ``x`` in ``ctx`` translates to; ``None``
    stands for the context itself.  ``x`` has no default, so each call
    spells the memo key the same way."""
    if x is None:
        if len(ctx) == 0:
            return Code(Top())
        head = ctx.pop()
        entry_fam = termify(head, ctx.last)
        return Code(Sigma(El(termify(head, None)), El(App(entry_fam))))
    points = decoded(ctx)
    cls = type(x)
    if cls is TySub or cls is TmSub:
        cod = synth_sub(ctx, x.sub)
        inner = termify(cod, x.ty if cls is TySub else x.tm)
        reindex = Ext(Eps(), decoded(cod), App(TmSub(termify(ctx, x.sub), Eps())))
        return Lam(points, TmSub(App(inner), reindex))
    if cls is Var0:
        ctx.pop()  # rejects the empty context
        return Lam(points, Snd(Var0()))
    if cls is Wk:
        ctx.pop()
        return Lam(points, Fst(Var0()))
    if cls is Lam:
        extended = ctx.extend(x.dom)
        body_t = termify(extended, x.body)
        fibre = El(App(termify(ctx, x.dom)))
        packed = point_pair(extended, v(1), v(0))
        return Lam(points, Lam(fibre, apply1(_wk0(body_t), packed)))
    if cls is App:
        fn_t = termify(ctx.pop(), x.fn)
        return Lam(points,
                   apply1(apply1(_wk0(fn_t), Fst(Var0())), Snd(Var0())))
    if cls is Pi or cls is Sigma:
        extended = ctx.extend(x.dom)
        dom_t = termify(ctx, x.dom)
        cod_t = termify(extended, x.cod)
        fibre = El(App(dom_t))
        packed = point_pair(extended, v(1), v(0))
        inner_cod = TySub(El(App(cod_t)), Ext(Eps(), decoded(extended), packed))
        return Lam(points, Code(cls(fibre, inner_cod)))
    if cls is El:
        return termify(ctx, x.code)
    if cls is Code:
        return termify(ctx, x.ty)
    if cls is Top or cls is Univ or cls is Bool:
        return Lam(points, Code(x))
    if cls is Eps or cls is Tt:
        return Lam(points, Tt())
    if cls is TrueLit or cls is FalseLit:
        return Lam(points, x)
    if cls is Fst or cls is Snd:
        return Lam(points, cls(App(termify(ctx, x.pair))))
    if cls is IdSub:
        return Lam(points, Var0())
    if cls is Comp:
        mid = synth_sub(ctx, x.inner)
        outer_t = termify(mid, x.outer)
        inner_t = termify(ctx, x.inner)
        return Lam(points, apply1(_wk0(outer_t), apply1(_wk0(inner_t), Var0())))
    if cls is Ext:
        cod = synth_sub(ctx, x.sub)
        entry = x.ann if x.ann is not None else synth_tm(ctx, x.tm)
        s_t = termify(ctx, x.sub)
        tm_t = termify(ctx, x.tm)
        return Lam(points, point_pair(cod.extend(entry), App(s_t), App(tm_t)))
    if cls is Pair:
        extended = ctx.extend(x.fst_ty)
        fst_t = termify(ctx, x.fst_ty)
        snd_t = termify(extended, x.snd_ty)
        fibre = El(App(fst_t))
        packed = point_pair(extended, v(1), v(0))
        snd_fam = TySub(El(App(snd_t)), Ext(Eps(), decoded(extended), packed))
        return Lam(points, Pair(
            fibre, snd_fam,
            App(termify(ctx, x.fst)), App(termify(ctx, x.snd))))
    if cls is IdTy:
        t_t = termify(ctx, x.ty)
        lhs_t = termify(ctx, x.lhs)
        rhs_t = termify(ctx, x.rhs)
        return Lam(points, Code(IdTy(El(App(t_t)), App(lhs_t), App(rhs_t))))
    if cls is If:
        extended = ctx.extend(Bool())
        motive_t = termify(extended, x.motive)
        packed = point_pair(extended, v(1), v(0))
        inner_motive = El(apply1(_wk0(motive_t), packed))
        return Lam(points, If(
            inner_motive,
            App(termify(ctx, x.on_true)),
            App(termify(ctx, x.on_false)),
            App(termify(ctx, x.scrut)),
        ))
    if cls is Refl:
        return Lam(points, Refl(App(termify(ctx, x.arg))))
    if cls is J:
        eq_ty = force(ctx, synth_tm(ctx, x.eq), IdTy, x.eq)
        with_dom = ctx.extend(eq_ty.ty)
        with_eq = with_dom.extend(j_binder(eq_ty.ty, eq_ty.lhs))
        motive_t = termify(with_eq, x.motive)
        inner_pair = point_pair(with_dom, v(2), v(1))
        packed = point_pair(with_eq, inner_pair, v(0))
        inner_motive = El(apply1(_wk0(motive_t), packed))
        return Lam(points, J(
            inner_motive,
            App(termify(ctx, x.base)),
            App(termify(ctx, x.eq)),
        ))
    raise TypeCheckError("not an expression", expr=x)


# ---------------------------------------------------------------------------
# Entity-level interface
# ---------------------------------------------------------------------------

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
    return Pi(decoded(ctx), El(App(termify(ctx, checked))))


def termify_entity(ctx: Ctx, entity=None) -> Translated:
    """Check ``entity`` in ``ctx`` (``None`` for the context itself),
    translate it to a closed term, and check that term at its
    classifier."""
    return translate_checked("closed-term", ctx, entity, lambda checked: (
        EMPTY, termify(ctx, entity),
        termified_classifier(ctx, entity, checked)))


def verify_termified_equation(inst) -> bool:
    """Translate both sides of a well-typed equation instance and compare
    the closed results at the translated classifier.  The instance is not
    checked again, so a type error here is a kernel error."""
    def step() -> bool:
        lhs = termify(inst.ctx, inst.lhs)
        rhs = termify(inst.ctx, inst.rhs)
        checked = (infer_ty(inst.ctx, inst.lhs) if inst.classifier is None
                   else inst.classifier)
        return conv_tm(EMPTY, termified_classifier(inst.ctx, inst.lhs,
                                                   checked), lhs, rhs)
    return after_check("closed-term", inst.lhs, step)
