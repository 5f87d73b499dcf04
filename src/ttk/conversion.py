"""Public conversion interface: normal forms and definitional equality.

Equality of terms and types is decided by comparing eta-long readbacks:
the normal form of a type is ``typecheck.normalize_ty_in``, the one the
typechecker uses, and that of a term comes from one helper here;
equality of substitutions is decided componentwise against the stated
codomain telescope (legitimate because a substitution into ``Δ`` is
determined by its ``|Δ|`` components).  Inputs are typechecked against
their stated classifiers first, so ill-typed queries raise rather than
mis-evaluate; ``reject`` is the boolean result ``False``, never an error.
"""

from __future__ import annotations

from .syntax import Ctx, SubExpr, TmExpr, TyExpr
from .semantics import eval_sub, evaluate, generic_env, readback_tm
from .typecheck import (
    check_sub, check_tm, infer_ty, normalize_ty_in, synth_tm, types_convertible,
)


def _normal_tm(ctx: Ctx, tm: TmExpr, ty: TyExpr) -> TmExpr:
    """Eta-long beta-normal form of ``tm`` at the type ``ty``."""
    env = generic_env(ctx)
    return readback_tm(len(env), evaluate(env, tm), evaluate(env, ty))


def normalize_tm(ctx: Ctx, tm: TmExpr) -> TmExpr:
    """Eta-long beta-normal form of a term, at its synthesized type."""
    return _normal_tm(ctx, tm, synth_tm(ctx, tm))


def normalize_ty(ctx: Ctx, ty: TyExpr) -> TyExpr:
    infer_ty(ctx, ty)
    return normalize_ty_in(ctx, ty)


def conv_tm(ctx: Ctx, ty: TyExpr, lhs: TmExpr, rhs: TmExpr) -> bool:
    infer_ty(ctx, ty)
    check_tm(ctx, lhs, ty)
    check_tm(ctx, rhs, ty)
    return _normal_tm(ctx, lhs, ty) is _normal_tm(ctx, rhs, ty)


def conv_ty(ctx: Ctx, lhs: TyExpr, rhs: TyExpr) -> bool:
    infer_ty(ctx, lhs)
    infer_ty(ctx, rhs)
    return types_convertible(ctx, lhs, rhs)


def conv_sub(ctx: Ctx, cod: Ctx, lhs: SubExpr, rhs: SubExpr) -> bool:
    check_sub(ctx, lhs, cod)
    check_sub(ctx, rhs, cod)
    env = generic_env(ctx)
    depth = len(env)
    lhs_env = eval_sub(env, lhs)
    rhs_env = eval_sub(env, rhs)
    # eta-expand both sides into one component per codomain entry
    for k, entry in enumerate(cod.entries):
        entry_ty = evaluate(lhs_env[:k], entry)
        if readback_tm(depth, lhs_env[k], entry_ty) is not \
                readback_tm(depth, rhs_env[k], entry_ty):
            return False
    return True
