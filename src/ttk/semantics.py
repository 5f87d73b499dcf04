"""Evaluator and type-directed readback.

``eval_*`` interpret raw syntax in an environment of values; all beta rules
and the substitution laws fire here, and substitutions themselves evaluate
to environments.  ``readback_*`` turn values back into eta-long raw syntax:
functions are read back applied to a fresh variable, pairs through both
projections, and unit-typed values always as ``Tt``.  Conversion is
structural equality of readbacks at a common type.

Readback output stays inside the raw syntax: a variable at level ``k``
becomes the spine ``v(depth - 1 - k)`` and a neutral application becomes
``(App f)[id, arg]``.  Substitution nodes appear in these two roles only.

Closed syntax is evaluated once.  Every syntax node carries its
``reach``, the number of trailing environment entries it may read
(``syntax.node``), and ``eval_tm`` and ``eval_ty`` rebind a nonempty
environment to ``()`` when the node's reach is 0.  They rebind in their
own frame, without a second call, so a nest of closed levels needs no
more stack than an open one.  A closed subterm then has one value
wherever it occurs, and its closures capture the empty environment, so
``readback_ty`` at one depth reads it back once.  The translations make
mostly closed terms under binders, which is where this pays.
"""

from __future__ import annotations

from .syntax import (
    App, Bool, Code, Comp, Ctx, El, Eps, Ext, FalseLit, Fst, IdSub, IdTy, If,
    J, Lam, Pair, Pi, Refl, Sigma, Snd, SubExpr, Tt, Top, TmExpr, TmSub,
    TrueLit, TyExpr, TySub, Univ, Var0, Wk, v,
)
from .caches import memoized
from .values import (
    Closure, Env, InternalStuck, NApp, NFst, NIf, NJ, NSnd, NVar, Neutral,
    TyClosure, TyVal, VBool, VCode, VElNe, VFalse, VId, VLam, VNe, VPair,
    VPi, VRefl, VSigma, VTop, VTrue, VTt, VU, Val, fresh,
)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def apply_closure(cl: Closure, *args: Val) -> Val:
    return eval_tm(cl.env + args, cl.body)


def apply_ty_closure(cl: TyClosure, *args: Val) -> TyVal:
    return eval_ty(cl.env + args, cl.body)


def vapp(f: Val, x: Val) -> Val:
    cls = type(f)
    if cls is VLam:
        return apply_closure(f.closure, x)
    if cls is VNe and type(f.ty) is VPi:
        return VNe(NApp(f.ne, x), apply_ty_closure(f.ty.cod, x))
    raise InternalStuck(f"application of non-function value {f!r}")


def vfst(p: Val) -> Val:
    cls = type(p)
    if cls is VPair:
        return p.fst
    if cls is VNe and type(p.ty) is VSigma:
        return VNe(NFst(p.ne), p.ty.dom)
    raise InternalStuck(f"first projection of non-pair value {p!r}")


def vsnd(p: Val) -> Val:
    cls = type(p)
    if cls is VPair:
        return p.snd
    if cls is VNe and type(p.ty) is VSigma:
        return VNe(NSnd(p.ne), apply_ty_closure(p.ty.cod, vfst(p)))
    raise InternalStuck(f"second projection of non-pair value {p!r}")


def vif(motive: TyClosure, on_true: Val, on_false: Val, scrut: Val) -> Val:
    cls = type(scrut)
    if cls is VTrue:
        return on_true
    if cls is VFalse:
        return on_false
    if cls is VNe and type(scrut.ty) is VBool:
        result_ty = apply_ty_closure(motive, scrut)
        return VNe(NIf(motive, on_true, on_false, scrut.ne), result_ty)
    raise InternalStuck(f"boolean elimination of {scrut!r}")


def vj(motive: TyClosure, base: Val, eq: Val) -> Val:
    cls = type(eq)
    if cls is VRefl:
        return base
    if cls is VNe and type(eq.ty) is VId:
        result_ty = apply_ty_closure(motive, eq.ty.rhs, eq)
        return VNe(NJ(motive, base, eq.ne, eq.ty), result_ty)
    raise InternalStuck(f"identity elimination of {eq!r}")


def vcode(ty: TyVal) -> Val:
    # coding a decoded neutral returns the neutral itself
    if type(ty) is VElNe:
        return VNe(ty.ne, VU(ty.level))
    return VCode(ty)


@memoized
def eval_tm(env: Env, tm: TmExpr) -> Val:
    try:
        if env and tm.reach == 0:
            env = ()
    except AttributeError:  # no syntax: falls through to the error below
        pass
    cls = type(tm)
    if cls is TmSub:
        return eval_tm(eval_sub(env, tm.sub), tm.tm)
    if cls is Var0:
        if not env:
            raise InternalStuck("variable in empty environment")
        return env[-1]
    if cls is Lam:
        return VLam(Closure(env, tm.body))
    if cls is App:
        if not env:
            raise InternalStuck("un-application in empty environment")
        return vapp(eval_tm(env[:-1], tm.fn), env[-1])
    if cls is Pair:
        return VPair(eval_tm(env, tm.fst), eval_tm(env, tm.snd))
    if cls is Fst:
        return vfst(eval_tm(env, tm.pair))
    if cls is Snd:
        return vsnd(eval_tm(env, tm.pair))
    if cls is Tt:
        return VTt()
    if cls is Code:
        return vcode(eval_ty(env, tm.ty))
    if cls is TrueLit:
        return VTrue()
    if cls is FalseLit:
        return VFalse()
    if cls is If:
        return vif(
            TyClosure(env, tm.motive),
            eval_tm(env, tm.on_true),
            eval_tm(env, tm.on_false),
            eval_tm(env, tm.scrut),
        )
    if cls is Refl:
        return VRefl(eval_tm(env, tm.arg))
    if cls is J:
        return vj(TyClosure(env, tm.motive), eval_tm(env, tm.base),
                  eval_tm(env, tm.eq))
    raise InternalStuck(f"unknown term {tm!r}")


@memoized
def eval_ty(env: Env, ty: TyExpr) -> TyVal:
    try:
        if env and ty.reach == 0:
            env = ()
    except AttributeError:  # no syntax: falls through to the error below
        pass
    cls = type(ty)
    if cls is TySub:
        return eval_ty(eval_sub(env, ty.sub), ty.ty)
    if cls is Pi:
        return VPi(eval_ty(env, ty.dom), TyClosure(env, ty.cod))
    if cls is Sigma:
        return VSigma(eval_ty(env, ty.dom), TyClosure(env, ty.cod))
    if cls is Top:
        return VTop()
    if cls is Bool:
        return VBool()
    if cls is Univ:
        return VU(ty.level)
    if cls is El:
        val = eval_tm(env, ty.code)
        if type(val) is VCode:
            return val.ty
        if type(val) is VNe and type(val.ty) is VU:
            return VElNe(val.ne, val.ty.level)
        raise InternalStuck(f"decoding non-code value {val!r}")
    if cls is IdTy:
        return VId(eval_ty(env, ty.ty), eval_tm(env, ty.lhs),
                   eval_tm(env, ty.rhs))
    raise InternalStuck(f"unknown type {ty!r}")


@memoized
def eval_sub(env: Env, sub: SubExpr) -> Env:
    cls = type(sub)
    if cls is IdSub:
        return env
    if cls is Comp:
        return eval_sub(eval_sub(env, sub.inner), sub.outer)
    if cls is Eps:
        return ()
    if cls is Ext:
        return eval_sub(env, sub.sub) + (eval_tm(env, sub.tm),)
    if cls is Wk:
        if not env:
            raise InternalStuck("weakening of empty environment")
        return env[:-1]
    raise InternalStuck(f"unknown substitution {sub!r}")


# ---------------------------------------------------------------------------
# Readback
# ---------------------------------------------------------------------------

@memoized
def readback_tm(depth: int, val: Val, ty: TyVal) -> TmExpr:
    cls, val_cls = type(ty), type(val)
    if cls is VPi:
        x = fresh(depth, ty.dom)
        body = readback_tm(depth + 1, vapp(val, x), apply_ty_closure(ty.cod, x))
        return Lam(readback_ty(depth, ty.dom), body)
    if cls is VSigma:
        a = vfst(val)
        b = vsnd(val)
        cod_nf = readback_ty(depth + 1, apply_ty_closure(ty.cod, fresh(depth, ty.dom)))
        return Pair(
            readback_ty(depth, ty.dom),
            cod_nf,
            readback_tm(depth, a, ty.dom),
            readback_tm(depth, b, apply_ty_closure(ty.cod, a)),
        )
    if cls is VTop:
        return Tt()
    if cls is VBool:
        if val_cls is VTrue:
            return TrueLit()
        if val_cls is VFalse:
            return FalseLit()
        if val_cls is VNe:
            return readback_ne(depth, val.ne)[0]
    elif cls is VU:
        if val_cls is VCode:
            return Code(readback_ty(depth, val.ty))
        if val_cls is VNe:
            return readback_ne(depth, val.ne)[0]
    elif cls is VId:
        if val_cls is VRefl:
            return Refl(readback_tm(depth, val.arg, ty.ty))
        if val_cls is VNe:
            return readback_ne(depth, val.ne)[0]
    elif cls is VElNe:
        if val_cls is VNe:
            return readback_ne(depth, val.ne)[0]
    raise InternalStuck(f"cannot read back {val!r} at {ty!r}")


@memoized
def readback_ty(depth: int, ty: TyVal) -> TyExpr:
    cls = type(ty)
    if cls is VPi:
        cod_nf = readback_ty(depth + 1, apply_ty_closure(ty.cod, fresh(depth, ty.dom)))
        return Pi(readback_ty(depth, ty.dom), cod_nf)
    if cls is VSigma:
        cod_nf = readback_ty(depth + 1, apply_ty_closure(ty.cod, fresh(depth, ty.dom)))
        return Sigma(readback_ty(depth, ty.dom), cod_nf)
    if cls is VTop:
        return Top()
    if cls is VBool:
        return Bool()
    if cls is VU:
        return Univ(ty.level)
    if cls is VId:
        return IdTy(
            readback_ty(depth, ty.ty),
            readback_tm(depth, ty.lhs, ty.ty),
            readback_tm(depth, ty.rhs, ty.ty),
        )
    if cls is VElNe:
        return El(readback_ne(depth, ty.ne)[0])
    raise InternalStuck(f"cannot read back type {ty!r}")


@memoized
def readback_ne(depth: int, ne: Neutral) -> tuple[TmExpr, TyVal]:
    """Read back a spine, resynthesizing its type along the way."""
    cls = type(ne)
    if cls is NVar:
        return v(depth - 1 - ne.lvl), ne.ty
    if cls is NApp:
        fn_nf, fn_ty = readback_ne(depth, ne.fn)
        if type(fn_ty) is VPi:
            arg_nf = readback_tm(depth, ne.arg, fn_ty.dom)
            tm = TmSub(App(fn_nf), Ext(IdSub(), readback_ty(depth, fn_ty.dom), arg_nf))
            return tm, apply_ty_closure(fn_ty.cod, ne.arg)
        raise InternalStuck(f"application spine at non-function type {fn_ty!r}")
    if cls is NFst:
        pair_nf, pair_ty = readback_ne(depth, ne.pair)
        if type(pair_ty) is VSigma:
            return Fst(pair_nf), pair_ty.dom
        raise InternalStuck(f"projection spine at non-pair type {pair_ty!r}")
    if cls is NSnd:
        pair_nf, pair_ty = readback_ne(depth, ne.pair)
        if type(pair_ty) is VSigma:
            head = vfst(VNe(ne.pair, pair_ty))
            return Snd(pair_nf), apply_ty_closure(pair_ty.cod, head)
        raise InternalStuck(f"projection spine at non-pair type {pair_ty!r}")
    if cls is NIf:
        motive = ne.motive
        scrut_nf, _ = readback_ne(depth, ne.scrut)
        motive_nf = readback_ty(depth + 1, apply_ty_closure(motive, fresh(depth, VBool())))
        true_nf = readback_tm(depth, ne.on_true, apply_ty_closure(motive, VTrue()))
        false_nf = readback_tm(depth, ne.on_false, apply_ty_closure(motive, VFalse()))
        result_ty = apply_ty_closure(motive, VNe(ne.scrut, VBool()))
        return If(motive_nf, true_nf, false_nf, scrut_nf), result_ty
    if cls is NJ:
        motive, eq_ty = ne.motive, ne.eq_ty
        scrut_nf, _ = readback_ne(depth, ne.scrut)
        endpoint = fresh(depth, eq_ty.ty)
        equation = fresh(depth + 1, VId(eq_ty.ty, eq_ty.lhs, endpoint))
        motive_nf = readback_ty(depth + 2, apply_ty_closure(motive, endpoint, equation))
        base_ty = apply_ty_closure(motive, eq_ty.lhs, VRefl(eq_ty.lhs))
        base_nf = readback_tm(depth, ne.base, base_ty)
        result_ty = apply_ty_closure(motive, eq_ty.rhs, VNe(ne.scrut, eq_ty))
        return J(motive_nf, base_nf, scrut_nf), result_ty
    raise InternalStuck(f"unknown neutral {ne!r}")


# ---------------------------------------------------------------------------
# Generic environments
# ---------------------------------------------------------------------------

@memoized
def generic_env(ctx: Ctx) -> tuple[Env, int]:
    """One fresh variable per telescope entry, typed by evaluation."""
    env: Env = ()
    for entry in ctx.entries:
        env = env + (fresh(len(env), eval_ty(env, entry)),)
    return env, len(env)
