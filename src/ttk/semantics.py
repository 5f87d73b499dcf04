"""Evaluator and type-directed readback.

``evaluate`` interprets raw syntax, a term or a type, in an environment
of values: all beta rules and the substitution laws fire here, and
``eval_sub`` evaluates a substitution to an environment.  ``El (code A)``
is ``A`` on the nose, so terms and types land in one semantic domain and
one fold interprets both, dispatching on the exact class of the node.
``readback_*`` turn values back into eta-long raw syntax: functions are
read back applied to a fresh variable, pairs through both projections,
and unit-typed values always as ``Tt``.  Conversion is structural
equality of readbacks at a common type.

A leaf, a construct without a subterm (⊤, Bool, ``U i``, ``tt``, true
and false), is its own value: it reads no environment, so ``evaluate``
returns the node itself, and readback returns it as it is.  Only ⊤ is
read back by type, not by value: every value at ⊤ is ``Tt``.

Readback output stays inside the raw syntax: a variable at level ``k``
becomes the spine ``v(depth - 1 - k)`` and a neutral application becomes
``(App f)[id, arg]``.  Substitution nodes appear in these two roles only.

A neutral's type is computed once, by the eliminator that gets stuck, and
kept in its ``VNe``, which the next spine holds as its head.  So a
neutral reads back in one branch of ``readback_tm``, and ``readback_ne``
returns a term alone: it reads an argument's domain and an equation's
type off the head, and applies a closure only to type a motive, the
branches of ``if`` or the base of ``J``.  A λ evaluates to a
``Closure``, as a Π or Σ codomain and a motive do, and ``apply_closure``
evaluates any closure's body, term or type, in its environment extended
by the arguments.

Closed syntax is evaluated once.  Every syntax node carries its
``reach``, the number of trailing environment entries it may read
(``syntax.node``).  ``evaluate`` rebinds a nonempty environment to ``()``
for a closed node in its own frame, without a second call, so a nest of
closed levels needs no more stack than an open one, and every call below
a closed node hits the entries that all environments share.  A caller
tests ``reach`` only to skip work: a ``TmSub`` or ``TySub`` with a closed
body skips evaluating its substitution (evaluation runs only on checked
input, and the checker still checks the substitution), and ``App`` and
``apply_closure`` skip slicing or extending the environment.  A closed
subterm then has one value wherever it occurs, and its closures capture
the empty environment, so ``readback_ty`` at one depth reads it back
once.  The translations make mostly closed terms under binders, which is
where this pays.

Closed values are read back once.  Every value carries a level reach
(``ttk.values``), and ``readback_tm`` and ``readback_ty`` rebind the
depth of a value that holds no variable, and of its type, to 0 in their
own frame.  Readback turns levels into relative indices, and every
variable of a closed value's readback is made during that readback, so
the syntax is the same at every depth.  A closed value met under a new
binder then costs one miss, and everything below it hits the entries at
depth 0.
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
    TyVal, VCode, VElNe, VId, VNe, VPair, VPi, VRefl, VSigma, Val,
    fresh,
)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def apply_closure(cl: Closure, *args: Val) -> Val | TyVal:
    body = cl.body
    return evaluate(cl.env + args if body.reach else (), body)


def vapp(f: Val, x: Val) -> Val:
    cls = type(f)
    if cls is Closure:
        return apply_closure(f, x)
    if cls is VNe and type(f.ty) is VPi:
        return VNe(NApp(f, x), apply_closure(f.ty.cod, x))
    raise InternalStuck(f"application of non-function value {f!r}")


def vfst(p: Val) -> Val:
    cls = type(p)
    if cls is VPair:
        return p.fst
    if cls is VNe and type(p.ty) is VSigma:
        return VNe(NFst(p), p.ty.dom)
    raise InternalStuck(f"first projection of non-pair value {p!r}")


def vsnd(p: Val) -> Val:
    cls = type(p)
    if cls is VPair:
        return p.snd
    if cls is VNe and type(p.ty) is VSigma:
        return VNe(NSnd(p), apply_closure(p.ty.cod, vfst(p)))
    raise InternalStuck(f"second projection of non-pair value {p!r}")


def vif(motive: Closure, on_true: Val, on_false: Val, scrut: Val) -> Val:
    cls = type(scrut)
    if cls is TrueLit:
        return on_true
    if cls is FalseLit:
        return on_false
    if cls is VNe and type(scrut.ty) is Bool:
        result_ty = apply_closure(motive, scrut)
        return VNe(NIf(motive, on_true, on_false, scrut), result_ty)
    raise InternalStuck(f"boolean elimination of {scrut!r}")


def vj(motive: Closure, base: Val, eq: Val) -> Val:
    cls = type(eq)
    if cls is VRefl:
        return base
    if cls is VNe and type(eq.ty) is VId:
        result_ty = apply_closure(motive, eq.ty.rhs, eq)
        return VNe(NJ(motive, base, eq), result_ty)
    raise InternalStuck(f"identity elimination of {eq!r}")


def vcode(ty: TyVal) -> Val:
    # coding a decoded neutral returns the neutral code it decodes
    if type(ty) is VElNe:
        return ty.code
    return VCode(ty)


@memoized
def evaluate(env: Env, x: TmExpr | TyExpr) -> Val | TyVal:
    # the clauses run in the order of how often each class arrives
    try:
        if env and x.reach == 0:
            env = ()
    except AttributeError:  # no syntax: falls through to the error below
        pass
    cls = type(x)
    if cls is App:
        if not env:
            raise InternalStuck("un-application in empty environment")
        fn = x.fn
        return vapp(evaluate(env[:-1] if fn.reach else (), fn), env[-1])
    if cls is TmSub:
        tm = x.tm
        return evaluate(eval_sub(env, x.sub) if tm.reach else (), tm)
    if cls is El:
        val = evaluate(env, x.code)
        if type(val) is VCode:
            return val.ty
        if type(val) is VNe and type(val.ty) is Univ:
            return VElNe(val)
        raise InternalStuck(f"decoding non-code value {val!r}")
    if cls is Code:
        return vcode(evaluate(env, x.ty))
    if cls is Lam:
        return Closure(env, x.body)
    if cls is TySub:
        ty = x.ty
        return evaluate(eval_sub(env, x.sub) if ty.reach else (), ty)
    if cls is Var0:
        if not env:
            raise InternalStuck("variable in empty environment")
        return env[-1]
    if cls is Sigma:
        return VSigma(evaluate(env, x.dom), Closure(env, x.cod))
    if cls is Pair:
        return VPair(evaluate(env, x.fst), evaluate(env, x.snd))
    if cls is Pi:
        return VPi(evaluate(env, x.dom), Closure(env, x.cod))
    if (cls is Top or cls is Bool or cls is Univ or cls is Tt
            or cls is TrueLit or cls is FalseLit):
        return x
    if cls is IdTy:
        return VId(evaluate(env, x.ty), evaluate(env, x.lhs),
                   evaluate(env, x.rhs))
    if cls is Fst:
        return vfst(evaluate(env, x.pair))
    if cls is Snd:
        return vsnd(evaluate(env, x.pair))
    if cls is Refl:
        return VRefl(evaluate(env, x.arg))
    if cls is J:
        return vj(Closure(env, x.motive), evaluate(env, x.base),
                  evaluate(env, x.eq))
    if cls is If:
        return vif(Closure(env, x.motive), evaluate(env, x.on_true),
                   evaluate(env, x.on_false), evaluate(env, x.scrut))
    raise InternalStuck(f"unknown term or type {x!r}")


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
        val = evaluate(env, sub.tm)
        return eval_sub(env, sub.sub) + (val,)
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
    try:
        if depth and val.reach == 0 and ty.reach == 0:
            depth = 0
    except AttributeError:  # no value: falls through to the error below
        pass
    cls, val_cls = type(ty), type(val)
    if cls is VPi:
        x = fresh(depth, ty.dom)
        body = readback_tm(depth + 1, vapp(val, x), apply_closure(ty.cod, x))
        return Lam(readback_ty(depth, ty.dom), body)
    if cls is VSigma:
        a = vfst(val)
        sigma = readback_ty(depth, ty)
        return Pair(sigma.dom, sigma.cod, readback_tm(depth, a, ty.dom),
                    readback_tm(depth, vsnd(val), apply_closure(ty.cod, a)))
    if cls is Top:
        return Tt()
    if val_cls is VNe:
        return readback_ne(depth, val.ne)
    if cls is Bool:
        if val_cls is TrueLit or val_cls is FalseLit:
            return val
    elif cls is Univ:
        if val_cls is VCode:
            return Code(readback_ty(depth, val.ty))
    elif cls is VId:
        if val_cls is VRefl:
            return Refl(readback_tm(depth, val.arg, ty.ty))
    raise InternalStuck(f"cannot read back {val!r} at {ty!r}")


@memoized
def readback_ty(depth: int, ty: TyVal) -> TyExpr:
    try:
        if depth and ty.reach == 0:
            depth = 0
    except AttributeError:  # no value: falls through to the error below
        pass
    cls = type(ty)
    if cls is VPi:
        cod_nf = readback_ty(depth + 1, apply_closure(ty.cod, fresh(depth, ty.dom)))
        return Pi(readback_ty(depth, ty.dom), cod_nf)
    if cls is VSigma:
        cod_nf = readback_ty(depth + 1, apply_closure(ty.cod, fresh(depth, ty.dom)))
        return Sigma(readback_ty(depth, ty.dom), cod_nf)
    if cls is Top or cls is Bool or cls is Univ:
        return ty
    if cls is VId:
        return IdTy(
            readback_ty(depth, ty.ty),
            readback_tm(depth, ty.lhs, ty.ty),
            readback_tm(depth, ty.rhs, ty.ty),
        )
    if cls is VElNe:
        return El(readback_ne(depth, ty.code.ne))
    raise InternalStuck(f"cannot read back type {ty!r}")


def readback_ne(depth: int, ne: Neutral) -> TmExpr:
    """Read back a spine, at the types that its typed heads carry."""
    cls = type(ne)
    if cls is NVar:
        return v(depth - 1 - ne.lvl)
    if cls is NApp:
        dom = ne.fn.ty.dom
        return TmSub(App(readback_ne(depth, ne.fn.ne)),
                     Ext(IdSub(), readback_ty(depth, dom),
                         readback_tm(depth, ne.arg, dom)))
    if cls is NFst:
        return Fst(readback_ne(depth, ne.pair.ne))
    if cls is NSnd:
        return Snd(readback_ne(depth, ne.pair.ne))
    if cls is NIf:
        motive = ne.motive
        motive_nf = readback_ty(depth + 1, apply_closure(motive, fresh(depth, Bool())))
        true_nf = readback_tm(depth, ne.on_true, apply_closure(motive, TrueLit()))
        false_nf = readback_tm(depth, ne.on_false, apply_closure(motive, FalseLit()))
        return If(motive_nf, true_nf, false_nf, readback_ne(depth, ne.scrut.ne))
    if cls is NJ:
        motive, eq_ty = ne.motive, ne.scrut.ty
        endpoint = fresh(depth, eq_ty.ty)
        equation = fresh(depth + 1, VId(eq_ty.ty, eq_ty.lhs, endpoint))
        motive_nf = readback_ty(depth + 2, apply_closure(motive, endpoint, equation))
        base_ty = apply_closure(motive, eq_ty.lhs, VRefl(eq_ty.lhs))
        base_nf = readback_tm(depth, ne.base, base_ty)
        return J(motive_nf, base_nf, readback_ne(depth, ne.scrut.ne))
    raise InternalStuck(f"unknown neutral {ne!r}")


# ---------------------------------------------------------------------------
# Generic environments
# ---------------------------------------------------------------------------

@memoized
def generic_env(ctx: Ctx) -> Env:
    """One fresh variable per telescope entry, typed by evaluation."""
    env: Env = ()
    for entry in ctx.entries:
        env = env + (fresh(len(env), evaluate(env, entry)),)
    return env
