"""Indexed unary parametricity as a syntactic translation.

The translation is one memoized fold, ``param(ctx, x)``, with one clause
per operator; it dispatches on the class of ``x``, with ``None`` for the
context itself.  By sort:

    a context Γ       becomes a predicate: a type over Γ itself
    a type A over Γ   becomes a predicate over its elements, living in
                      Γ ▷ Γᴾ ▷ A[p]
    a substitution    becomes a term showing it preserves the predicates:
                      Tm (Γ ▷ Γᴾ) (Δᴾ[σ ∘ p])
    a term t : A      becomes a witness: Tm (Γ ▷ Γᴾ) (Aᴾ[id, t[p]])

Predicate choices at the base types, with their rationale:

  * the unit type and booleans carry the trivial (unit) predicate; both
    live at level 0, every inhabitant is related, and the boolean
    eliminator's witness is built by a boolean elimination whose motive
    re-runs the branch selection inside the predicate of the motive type.
  * a universe at level i sends a code to the space of predicate families
    over its decoding, ``El q ⇒ U i``, which again lands at level i+1.
  * an equality type ``Id A u v`` relates a proof e to the pair of
    witnesses for its endpoints: its predicate says that transporting the
    witness for u along e reaches the witness for v.  The transport is an
    identity elimination with a function-typed motive, so the witness for
    ``refl u`` is just ``refl`` of the witness for u, and the witness for
    an elimination ``J C w e`` is produced by two nested eliminations:
    first along the underlying equation (canonicalizing the endpoint
    witness to a transport), then along the predicate-level equation
    carried by eᴾ.

Every clause is validated after the fact by the kernel typechecker on the
check, translate, verify path both translations share
(``typecheck.translate_checked``); a failure raises ``TranslationIllTyped``
naming the constructor.
"""

from __future__ import annotations

from .syntax import (
    App, Bool, Code, Comp, Ctx, El, Eps, Ext, FalseLit, Fst, IdSub, IdTy,
    If, J, Lam, Pair, Pi, Refl, Sigma, Snd, SubExpr, Top, TrueLit, Tt,
    TmExpr, TmSub, TyExpr, TySub, Univ, Var0, Wk, apply1, lift, v, wk,
)
from .caches import memoized
from .typecheck import (
    Translated, TypeCheckError, force, pair_at, synth_sub, synth_tm,
    translate_checked,
)


@memoized
def param(ctx: Ctx, x) -> TyExpr | TmExpr:
    """The translation of ``x`` in ``ctx``, by the class of ``x``: for
    the context itself (``None``) its predicate, a type over ``ctx``; for
    a type its predicate, over ``ctx ▷ ctxᴾ ▷ x[p]``; for a substitution
    or a term its witness, in ``ctx ▷ ctxᴾ``.  ``x`` has no default, so
    every call spells its memo key the same way."""
    if x is None:
        if len(ctx) == 0:
            return Top()
        base = ctx.pop()
        entry = ctx.last
        base_pred = param(base, None)
        entry_pred = param(base, entry)
        # reshuffle (x : entry, pred-of-base) into entry_pred's scope
        reorder = Ext(
            Ext(Comp(Wk(), Wk()), base_pred, Var0()),
            TySub(entry, Wk()), TmSub(Var0(), Wk()))
        return Sigma(TySub(base_pred, Wk()), TySub(entry_pred, reorder))
    cls = type(x)
    if cls is TySub:
        t, sub = x.ty, x.sub
        cod = synth_sub(ctx, sub)
        inner = param(cod, t)
        reindex = Ext(
            Ext(Comp(sub, Comp(Wk(), Wk())), param(cod, None),
                TmSub(param(ctx, sub), Wk())),
            TySub(t, Wk()), Var0())
        return TySub(inner, reindex)
    if cls is TmSub:
        sub = x.sub
        cod = synth_sub(ctx, sub)
        return TmSub(param(cod, x.tm),
                     Ext(Comp(sub, Wk()), param(cod, None), param(ctx, sub)))
    if cls is Var0:
        ctx.pop()  # rejects the empty context
        return Snd(Var0())
    if cls is Wk:
        ctx.pop()
        return Fst(Var0())
    if cls is Lam:
        dom = x.dom
        extended = ctx.extend(dom)
        pred = param(ctx, None)
        dom_pred = param(ctx, dom)
        sig = param(extended, None)
        into_syntax = Ext(Comp(Wk(), Comp(Wk(), Wk())), dom, v(1))
        packed = pair_at(
            ctx.extend(pred).extend(TySub(dom, Wk())).extend(dom_pred),
            TySub(sig, into_syntax), v(2), Var0())
        reorg = Ext(into_syntax, sig, packed)
        return Lam(TySub(dom, Wk()),
                   Lam(dom_pred, TmSub(param(extended, x.body), reorg)))
    if cls is App:
        base = ctx.pop()
        fn_pred = param(base, x.fn)
        unpack = Ext(Comp(Wk(), Wk()), param(base, None), Fst(Var0()))
        return apply1(apply1(TmSub(fn_pred, unpack), v(1)), Snd(Var0()))
    if cls is Pi:
        dom, cod = x.dom, x.cod
        extended = ctx.extend(dom)
        pred = param(ctx, None)
        dom_pred = param(ctx, dom)
        cod_pred = param(extended, cod)
        sig = param(extended, None)
        arg = TySub(dom, Comp(Wk(), Wk()))
        arg_rel = TySub(dom_pred, Ext(
            Ext(wk(3), pred, v(2)), TySub(dom, Wk()), Var0()))
        into_syntax = Ext(wk(4), dom, v(1))
        packed = pair_at(
            ctx.extend(pred).extend(TySub(x, Wk())).extend(arg).extend(arg_rel),
            TySub(sig, into_syntax), v(3), Var0())
        applied = apply1(v(2), v(1))
        result = Ext(Ext(into_syntax, sig, packed), TySub(cod, Wk()), applied)
        return Pi(arg, Pi(arg_rel, TySub(cod_pred, result)))
    if cls is Sigma:
        dom, cod = x.dom, x.cod
        extended = ctx.extend(dom)
        pred = param(ctx, None)
        dom_pred = param(ctx, dom)
        cod_pred = param(extended, cod)
        sig = param(extended, None)
        fst_rel = TySub(dom_pred, Ext(
            Ext(Comp(Wk(), Wk()), pred, v(1)),
            TySub(dom, Wk()), Fst(Var0())))
        scope = ctx.extend(pred).extend(TySub(x, Wk())).extend(fst_rel)
        into_syntax = Ext(wk(3), dom, Fst(v(1)))
        packed = pair_at(scope, TySub(sig, into_syntax), v(2), Var0())
        result = Ext(Ext(into_syntax, sig, packed),
                     TySub(cod, Wk()), Snd(v(1)))
        return Sigma(fst_rel, TySub(cod_pred, result))
    if cls is El:
        code_pred = param(ctx, x.code)
        return El(apply1(TmSub(code_pred, Wk()), Var0()))
    if cls is Code:
        t = x.ty
        t_pred = param(ctx, t)
        reorder = Ext(Ext(Comp(Wk(), Wk()), param(ctx, None), v(1)),
                      TySub(t, Wk()), Var0())
        return Lam(TySub(El(x), Wk()), Code(TySub(t_pred, reorder)))
    if cls is Top or cls is Bool:
        return Top()
    if cls is Univ:
        return Pi(El(Var0()), TySub(x, Wk()))
    if cls is Eps or cls is Tt or cls is TrueLit or cls is FalseLit:
        return Tt()
    if cls is Fst or cls is Snd:
        return cls(param(ctx, x.pair))
    if cls is IdSub:
        return Var0()
    if cls is Comp:
        inner = x.inner
        mid = synth_sub(ctx, inner)
        return TmSub(param(mid, x.outer),
                     Ext(Comp(inner, Wk()), param(mid, None),
                         param(ctx, inner)))
    if cls is Ext:
        cod = synth_sub(ctx, x.sub)
        entry = x.ann if x.ann is not None else synth_tm(ctx, x.tm)
        target = TySub(param(cod.extend(entry), None), Comp(x, Wk()))
        return pair_at(ctx.extend(param(ctx, None)), target,
                       param(ctx, x.sub), param(ctx, x.tm))
    if cls is Pair:
        sigma = Sigma(x.fst_ty, x.snd_ty)
        target = TySub(
            param(ctx, sigma),
            Ext(IdSub(), TySub(sigma, Wk()), TmSub(x, Wk())))
        return pair_at(ctx.extend(param(ctx, None)), target,
                       param(ctx, x.fst), param(ctx, x.snd))
    if cls is IdTy:
        dom, lhs, rhs = x.ty, x.lhs, x.rhs
        dom_pred = param(ctx, dom)
        lhs_pred = param(ctx, lhs)
        rhs_pred = param(ctx, rhs)
        at_rhs = Ext(Wk(), TySub(dom, Wk()), TmSub(rhs, Comp(Wk(), Wk())))
        carried = _transport_along(
            ctx, dom, dom_pred, lhs, TmSub(lhs_pred, Wk()), Var0(), 1)
        return IdTy(TySub(dom_pred, at_rhs), carried, TmSub(rhs_pred, Wk()))
    if cls is If:
        return _param_if(ctx, x.motive, x.on_true, x.on_false, x.scrut)
    if cls is Refl:
        return Refl(param(ctx, x.arg))
    if cls is J:
        return _param_j(ctx, x, x.motive, x.base, x.eq)
    raise TypeCheckError("not an expression", expr=x)


def _transport_along(ctx: Ctx, dom: TyExpr, dom_pred: TyExpr, point: TmExpr,
                     point_pred: TmExpr, eq: TmExpr, depth: int) -> TmExpr:
    """Carry a predicate witness for ``point`` along ``eq``.

    ``depth`` counts binders between ``ctx ▷ ctxᴾ`` and the scope where the
    result lives; ``eq`` and ``point_pred`` are given in that scope.  The
    carrier is an identity elimination whose motive is the function space
    from the predicate at ``point`` to the predicate at the moving
    endpoint.
    """
    pred_at = lambda n, pt: Ext(wk(n), TySub(dom, Wk()), pt)
    # motive scope adds the endpoint and the equation on top of the caller's
    motive = Pi(
        TySub(dom_pred, pred_at(depth + 2, TmSub(point, wk(depth + 3)))),
        TySub(TySub(dom_pred, pred_at(depth + 2, v(1))), Wk()))
    base = Lam(
        TySub(dom_pred, pred_at(depth, TmSub(point, wk(depth + 1)))),
        Var0())
    return apply1(J(motive, base, eq), point_pred)


def _param_if(ctx: Ctx, motive: TyExpr, on_true: TmExpr, on_false: TmExpr,
              scrut: TmExpr) -> TmExpr:
    extended = ctx.extend(Bool())
    motive_pred = param(extended, motive)
    sig = param(extended, None)
    # the predicate-level motive re-runs the branch selection at its value slot
    into_syntax = Ext(Comp(Wk(), Wk()), Bool(), Var0())
    scope = ctx.extend(param(ctx, None)).extend(Bool())
    packed = pair_at(scope, TySub(sig, into_syntax), v(1), Tt())
    selected = If(TySub(motive, lift(Comp(Wk(), Wk()), Bool())),
                  TmSub(on_true, Comp(Wk(), Wk())),
                  TmSub(on_false, Comp(Wk(), Wk())),
                  Var0())
    lifted_motive = TySub(motive_pred,
                          Ext(Ext(into_syntax, sig, packed),
                              TySub(motive, Wk()), selected))
    return If(lifted_motive,
              param(ctx, on_true),
              param(ctx, on_false),
              TmSub(scrut, Wk()))


def _param_j(ctx: Ctx, whole: TmExpr, motive: TyExpr, base: TmExpr,
             eq: TmExpr) -> TmExpr:
    eq_ty = force(ctx, synth_tm(ctx, eq), IdTy, eq)
    dom, lhs, rhs = eq_ty.ty, eq_ty.lhs, eq_ty.rhs
    pred = param(ctx, None)
    dom_pred = param(ctx, dom)
    lhs_pred = param(ctx, lhs)
    rhs_pred = param(ctx, rhs)
    eq_pred = param(ctx, eq)
    base_pred = param(ctx, base)
    eq_entry = IdTy(TySub(dom, Wk()), TmSub(lhs, Wk()), Var0())
    with_eq = ctx.extend(dom).extend(eq_entry)
    motive_pred = param(with_eq, motive)
    sig = param(with_eq, None)
    sig_dom = param(ctx.extend(dom), None)

    # Stage one: eliminate the underlying equation.  The motive's witness
    # slots are canonical in the bound endpoint: the endpoint witness is the
    # transported lhs witness and the equation witness is reflexivity.
    scope1 = ctx.extend(pred).extend(TySub(dom, Wk())) \
                .extend(IdTy(TySub(dom, Comp(Wk(), Wk())),
                             TmSub(lhs, Comp(Wk(), Wk())), Var0()))
    carried = _transport_along(ctx, dom, dom_pred, lhs,
                               TmSub(lhs_pred, Comp(Wk(), Wk())), Var0(), 2)
    syntax1 = Ext(Ext(wk(3), dom, v(1)), eq_entry, Var0())
    packed_dom1 = pair_at(scope1, TySub(sig_dom, Ext(wk(3), dom, v(1))),
                          v(2), carried)
    packed1 = pair_at(scope1, TySub(sig, syntax1), packed_dom1, Refl(carried))
    rebuilt = J(TySub(motive, Ext(Ext(wk(5), dom, v(1)), eq_entry, Var0())),
                TmSub(base, wk(3)), Var0())
    stage1_motive = TySub(motive_pred,
                          Ext(Ext(syntax1, sig, packed1),
                              TySub(motive, Wk()), rebuilt))
    stage1 = J(stage1_motive, base_pred, TmSub(eq, Wk()))

    # Stage two: eliminate the predicate-level equation carried by eqᴾ,
    # moving the endpoint witness from the transport to rhsᴾ.
    at_rhs = Ext(IdSub(), TySub(dom, Wk()), TmSub(rhs, Wk()))
    endpoint_rel = TySub(dom_pred, at_rhs)
    scope2 = ctx.extend(pred).extend(endpoint_rel).extend(
        IdTy(TySub(endpoint_rel, Wk()),
             _transport_along(ctx, dom, dom_pred, lhs,
                              TmSub(lhs_pred, Wk()), TmSub(eq, wk(2)), 1),
             Var0()))
    syntax2 = Ext(Ext(wk(3), dom, TmSub(rhs, wk(3))), eq_entry, TmSub(eq, wk(3)))
    packed_dom2 = pair_at(scope2, TySub(sig_dom, Ext(wk(3), dom, TmSub(rhs, wk(3)))),
                          v(2), v(1))
    packed2 = pair_at(scope2, TySub(sig, syntax2), packed_dom2, Var0())
    stage2_motive = TySub(motive_pred,
                          Ext(Ext(syntax2, sig, packed2),
                              TySub(motive, Wk()), TmSub(whole, wk(3))))
    return J(stage2_motive, stage1, eq_pred)


# ---------------------------------------------------------------------------
# Entity-level interface
# ---------------------------------------------------------------------------

def param_entity(ctx: Ctx, entity=None) -> Translated:
    """Check ``entity`` in ``ctx`` (``None`` for the context itself),
    translate it, and check the output: the predicate of a context or type
    at the source's level, the witness of a substitution or term at its
    preservation statement.  Ill-typed input raises a plain
    ``TypeCheckError``; only a failure after the check is a
    ``TranslationIllTyped``."""
    def translate(checked):
        if entity is None:
            return ctx, param(ctx, None), checked
        scope = ctx.extend(param(ctx, None))
        if isinstance(entity, TyExpr):
            return scope.extend(TySub(entity, Wk())), param(ctx, entity), checked
        if isinstance(entity, SubExpr):
            classifier = TySub(param(checked, None), Comp(entity, Wk()))
        else:
            classifier = TySub(
                param(ctx, checked),
                Ext(IdSub(), TySub(checked, Wk()), TmSub(entity, Wk())))
        return scope, param(ctx, entity), classifier
    return translate_checked("parametricity", ctx, entity, translate)
