"""Synthesizing typechecker for the four sorts.

Levels of types, codomains of substitutions, and types of terms are all
synthesized; side conditions are decided up to conversion by evaluating
both candidates and comparing readbacks.  Typechecking and conversion are
therefore mutually recursive through the evaluator.  ``normalize_ty_in``
is the one normal form of a type: ``types_convertible`` compares two of
them, and ``force`` is the one way to require a type former (a function,
pair or equality type, or a universe) of one.

All checks are pure and deterministic.  Preconditions follow the sort
structure: ``infer_ty``/``synth_sub``/``synth_tm`` assume their context is
well-formed (``check_ctx`` establishes this for telescopes built from
unchecked input).  A closed node (``reach`` 0) is checked in ``EMPTY``:
``infer_ty``, ``synth_tm`` and ``normalize_ty_in`` rebind their context
to ``EMPTY`` for one in their own frame, and a binder whose body is
closed does not extend the context for it.  So the work below a closed
node is done once, wherever it occurs (``caches``).
"""

from __future__ import annotations

from typing import NamedTuple

from .syntax import (
    App, Bool, Code, Comp, Ctx, EMPTY, El, Eps, Ext, FalseLit, Fst, IdSub,
    IdTy, If, J, Lam, Level, Pair, Pi, Refl, Sigma, Snd, SubExpr, Tt, Top,
    TmExpr, TmSub, TrueLit, TyExpr, TySub, Univ, Var0, Wk, j_binder,
)
from .caches import memoized
from .semantics import evaluate, generic_env, readback_ty
from .surface import show
from .values import KernelError


class TypeCheckError(Exception):
    """Ill-typed input; carries the offending subtree and, for conversion
    failures, the two non-convertible classifiers.  They print in the
    labelled surface syntax: read from labelled text, a subtree can unfold
    to millions of nodes."""

    def __init__(self, message: str, expr: object = None,
                 expected: object = None, actual: object = None) -> None:
        super().__init__(message)
        self.message = message
        self.expr = expr
        self.expected = expected
        self.actual = actual

    def __str__(self) -> str:
        parts = [self.message]
        if self.expr is not None:
            parts.append(f"at: {show(self.expr)}")
        if self.expected is not None:
            parts.append(f"expected: {show(self.expected)}")
        if self.actual is not None:
            parts.append(f"actual: {show(self.actual)}")
        return "\n  ".join(parts)


class IllFormedEntry(TypeCheckError):
    def __init__(self, index: int, entry: TyExpr) -> None:
        super().__init__(f"context entry {index} is ill-formed", expr=entry)
        self.index = index


class TranslationIllTyped(KernelError):
    """A translation's output, or a check on it, failed to typecheck
    although its input checked (``after_check``)."""


class ProjectionOfEmpty(TypeCheckError):
    def __init__(self) -> None:
        super().__init__("weakening projects out of the empty context")


class VarInEmptyContext(TypeCheckError):
    def __init__(self) -> None:
        super().__init__("variable used in the empty context")


# ---------------------------------------------------------------------------
# Conversion helpers (internal: inputs are already known to be well-typed)
# ---------------------------------------------------------------------------

@memoized
def normalize_ty_in(ctx: Ctx, ty: TyExpr) -> TyExpr:
    """The normal form of ``ty`` in ``ctx``: the only code that computes
    one, so conversion and ``force`` share its memo table.  A closed type
    is normalized in ``EMPTY``: each context that asks for it takes one
    entry of this table, and the evaluation and readback below it are
    done once."""
    try:
        if ctx is not EMPTY and ty.reach == 0:
            ctx = EMPTY
    except AttributeError:  # no syntax: ``evaluate`` raises below
        pass
    env = generic_env(ctx)
    return readback_ty(len(env), evaluate(env, ty))


def types_convertible(ctx: Ctx, a: TyExpr, b: TyExpr) -> bool:
    return a is b or normalize_ty_in(ctx, a) is normalize_ty_in(ctx, b)


def ctxs_convertible(a: Ctx, b: Ctx) -> bool:
    if a is b:
        return True
    if len(a) != len(b):
        return False
    prefix = EMPTY
    for ea, eb in zip(a.entries, b.entries):
        if not types_convertible(prefix, ea, eb):
            return False
        prefix = prefix.extend(ea)
    return True


def _require_conv(ctx: Ctx, expr: object, actual: TyExpr, expected: TyExpr) -> None:
    if not types_convertible(ctx, actual, expected):
        raise TypeCheckError(
            "type mismatch", expr=expr, expected=expected, actual=actual)


_FORMER_NAMES = {Pi: "a function type", Sigma: "a pair type",
                 IdTy: "an equality type", Univ: "a universe"}


def force(ctx: Ctx, ty: TyExpr, former: type, expr: object) -> TyExpr:
    """The normal form of ``ty``, which must be a ``former`` node: the one
    way to require a type former.  Otherwise ``expr`` is ill-typed."""
    nf = normalize_ty_in(ctx, ty)
    if not isinstance(nf, former):
        raise TypeCheckError(f"expected {_FORMER_NAMES[former]}", expr=expr,
                             actual=nf)
    return nf


def pair_at(ctx: Ctx, sigma_ty: TyExpr, a: TmExpr, b: TmExpr) -> TmExpr:
    """The pair of ``a`` and ``b``, annotated with the normal form of
    ``sigma_ty``, which must be a pair type."""
    sigma = force(ctx, sigma_ty, Sigma, sigma_ty)
    return Pair(sigma.dom, sigma.cod, a, b)


# ---------------------------------------------------------------------------
# The four checking operations
# ---------------------------------------------------------------------------

def check_ctx(ctx: Ctx) -> Level:
    """Check every telescope entry in its prefix; return the context level."""
    level = 0
    prefix = EMPTY
    for index, entry in enumerate(ctx.entries):
        try:
            level = max(level, infer_ty(prefix, entry))
        except TypeCheckError as err:
            raise IllFormedEntry(index, entry) from err
        prefix = prefix.extend(entry)
    return level


@memoized
def infer_ty(ctx: Ctx, ty: TyExpr) -> Level:
    try:
        if ctx is not EMPTY and ty.reach == 0:
            ctx = EMPTY
    except AttributeError:  # no syntax: falls through to the error below
        pass
    cls = type(ty)
    if cls is TySub:
        return infer_ty(synth_sub(ctx, ty.sub), ty.ty)
    if cls is Pi or cls is Sigma:
        dom, cod = ty.dom, ty.cod
        i = infer_ty(ctx, dom)
        j = infer_ty(ctx.extend(dom) if cod.reach else EMPTY, cod)
        return max(i, j)
    if cls is Top or cls is Bool:
        return 0
    if cls is Univ:
        if ty.level < 0:
            raise TypeCheckError("negative universe level", expr=ty)
        return ty.level + 1
    if cls is El:
        return force(ctx, synth_tm(ctx, ty.code), Univ, ty).level
    if cls is IdTy:
        level = infer_ty(ctx, ty.ty)
        check_tm(ctx, ty.lhs, ty.ty)
        check_tm(ctx, ty.rhs, ty.ty)
        return level
    raise TypeCheckError("not a type expression", expr=ty)


@memoized
def synth_sub(ctx: Ctx, sub: SubExpr) -> Ctx:
    cls = type(sub)
    if cls is IdSub:
        return ctx
    if cls is Comp:
        return synth_sub(synth_sub(ctx, sub.inner), sub.outer)
    if cls is Eps:
        return EMPTY
    if cls is Ext:
        s, ann, tm = sub.sub, sub.ann, sub.tm
        cod = synth_sub(ctx, s)
        if ann is None:
            if type(s) is not IdSub:
                raise TypeCheckError(
                    "extension without annotation only over the identity",
                    expr=sub)
            return cod.extend(synth_tm(ctx, tm))
        infer_ty(cod, ann)
        _require_conv(ctx, sub, synth_tm(ctx, tm), TySub(ann, s))
        return cod.extend(ann)
    if cls is Wk:
        if len(ctx) == 0:
            raise ProjectionOfEmpty()
        return ctx.pop()
    raise TypeCheckError("not a substitution expression", expr=sub)


@memoized
def synth_tm(ctx: Ctx, tm: TmExpr) -> TyExpr:
    try:
        if ctx is not EMPTY and tm.reach == 0:
            ctx = EMPTY
    except AttributeError:  # no syntax: falls through to the error below
        pass
    cls = type(tm)
    if cls is TmSub:
        return TySub(synth_tm(synth_sub(ctx, tm.sub), tm.tm), tm.sub)
    if cls is Var0:
        if len(ctx) == 0:
            raise VarInEmptyContext()
        return TySub(ctx.last, Wk())
    if cls is Lam:
        dom, body = tm.dom, tm.body
        infer_ty(ctx, dom)
        body_ty = synth_tm(ctx.extend(dom) if body.reach else EMPTY, body)
        return Pi(dom, body_ty)
    if cls is App:
        if len(ctx) == 0:
            raise TypeCheckError(
                "un-application requires a nonempty context", expr=tm)
        tail = ctx.pop()
        pi = force(tail, synth_tm(tail, tm.fn), Pi, tm)
        _require_conv(tail, tm, ctx.last, pi.dom)
        return pi.cod
    if cls is Pair:
        fst_ty, snd_ty, a, b = tm.fst_ty, tm.snd_ty, tm.fst, tm.snd
        infer_ty(ctx, fst_ty)
        infer_ty(ctx.extend(fst_ty) if snd_ty.reach else EMPTY, snd_ty)
        check_tm(ctx, a, fst_ty)
        b_expected = TySub(snd_ty, Ext(IdSub(), fst_ty, a))
        check_tm(ctx, b, b_expected)
        return Sigma(fst_ty, snd_ty)
    if cls is Fst:
        return force(ctx, synth_tm(ctx, tm.pair), Sigma, tm).dom
    if cls is Snd:
        pair = tm.pair
        sigma = force(ctx, synth_tm(ctx, pair), Sigma, tm)
        return TySub(sigma.cod, Ext(IdSub(), sigma.dom, Fst(pair)))
    if cls is Tt:
        return Top()
    if cls is Code:
        return Univ(infer_ty(ctx, tm.ty))
    if cls is TrueLit or cls is FalseLit:
        return Bool()
    if cls is If:
        motive, scrut = tm.motive, tm.scrut
        check_tm(ctx, scrut, Bool())
        infer_ty(ctx.extend(Bool()) if motive.reach else EMPTY, motive)
        true_expected = TySub(motive, Ext(IdSub(), Bool(), TrueLit()))
        check_tm(ctx, tm.on_true, true_expected)
        false_expected = TySub(motive, Ext(IdSub(), Bool(), FalseLit()))
        check_tm(ctx, tm.on_false, false_expected)
        return TySub(motive, Ext(IdSub(), Bool(), scrut))
    if cls is Refl:
        arg = tm.arg
        return IdTy(synth_tm(ctx, arg), arg, arg)
    if cls is J:
        motive, base, eq = tm.motive, tm.base, tm.eq
        eq_ty = force(ctx, synth_tm(ctx, eq), IdTy, tm)
        dom, lhs, rhs = eq_ty.ty, eq_ty.lhs, eq_ty.rhs
        eq_entry = j_binder(dom, lhs)
        infer_ty(ctx.extend(dom).extend(eq_entry) if motive.reach else EMPTY,
                 motive)
        at_refl = Ext(Ext(IdSub(), dom, lhs), eq_entry, Refl(lhs))
        check_tm(ctx, base, TySub(motive, at_refl))
        return TySub(motive, Ext(Ext(IdSub(), dom, rhs), eq_entry, eq))
    raise TypeCheckError("not a term expression", expr=tm)


def check_entity(ctx: Ctx, entity=None):
    """Check ``ctx`` and ``entity`` in it (``None`` for the context
    itself), before a translation sees them; return the entity's
    classifier (the level of a context or type, the codomain of a
    substitution, the type of a term).  Ill-typed input then raises
    ``TypeCheckError`` here, so one raised after it is a kernel bug
    (``after_check``)."""
    level = check_ctx(ctx)
    if entity is None:
        return level
    if isinstance(entity, TyExpr):
        return infer_ty(ctx, entity)
    if isinstance(entity, SubExpr):
        return synth_sub(ctx, entity)
    return synth_tm(ctx, entity)


class Translated(NamedTuple):
    """A translation's output: ``payload`` lives in ``scope`` and has the
    stated ``classifier``, a level for a type or a type for a term."""
    scope: Ctx
    payload: object
    classifier: object


def after_check(translation: str, entity, step):
    """``step()``, run once ``entity`` (``None`` for a context) has
    checked: the one place where a ``TypeCheckError``, then a bug of the
    translation, is re-raised as a kernel error."""
    try:
        return step()
    except TypeCheckError as err:
        name = "ctx" if entity is None else type(entity).__name__
        raise TranslationIllTyped(f"{translation} clause for {name} produced"
                                  f" an ill-typed output: {err}") from err


def translate_checked(translation: str, ctx: Ctx, entity,
                      translate) -> Translated:
    """Check ``entity`` in ``ctx`` (``None`` for the context itself),
    translate it, and check the output: the one path of both
    translations.  ``translate`` maps the entity's classifier from
    ``check_entity`` to the output's scope, payload and classifier.
    Ill-typed input raises a plain ``TypeCheckError``; a failure after
    the check is a ``KernelError``."""
    checked = check_entity(ctx, entity)

    def step() -> Translated:
        out = Translated(*translate(checked))
        tm, ty = out.payload, out.classifier
        if isinstance(ty, Level):  # a type at a level: its code at U level
            tm, ty = Code(tm), Univ(ty)
        infer_ty(out.scope, ty)
        check_tm(out.scope, tm, ty)
        return out
    return after_check(translation, entity, step)


def check_tm(ctx: Ctx, tm: TmExpr, ty: TyExpr) -> None:
    """Check ``tm`` against ``ty`` (which must itself be well-formed)."""
    _require_conv(ctx, tm, synth_tm(ctx, tm), ty)


def check_sub(ctx: Ctx, sub: SubExpr, cod: Ctx) -> None:
    actual = synth_sub(ctx, sub)
    if not ctxs_convertible(actual, cod):
        raise TypeCheckError(
            "substitution codomain mismatch", expr=sub, expected=cod,
            actual=actual)
