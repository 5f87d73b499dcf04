"""The ``reach`` of a syntax node, and evaluation of closed syntax.

Every syntax node's constructor fills ``reach``: the number of trailing
context entries the node may read, 0 for a closed node.  A substitution's
``reach`` is a pair ``(c, d)``: to supply the last ``n`` entries of its
codomain it reads the last ``max(c, n + d)`` entries of its domain.
``evaluate`` runs closed input in the empty environment, and
``normalize_ty_in`` reads a closed type back at depth 0.  These tests pin
the rule of each constructor, check that the rules are sound (what lies
beyond a node's reach does not change its readback), and check that the
rebinding costs no frame per nested closed level.
"""

import itertools
import math
import sys

import pytest

from ttk import caches
from ttk.conversion import normalize_tm, normalize_ty
from ttk.generate import GenConfig, GenExhausted, InstanceGen, derive_seed
from ttk.semantics import (
    eval_sub, evaluate, generic_env, readback_tm, readback_ty,
)
from ttk.syntax import (
    App, Bool, Code, Comp, Ctx, EMPTY, El, Eps, Ext, FalseLit, Fst, IdSub,
    IdTy, If, J, Lam, Pair, Pi, Refl, Sigma, Snd, Top, TrueLit, Tt, TmSub,
    TySub, Univ, Var0, Wk, apply1, v, wk,
)
from ttk.typecheck import synth_tm
from ttk.values import fresh

INF = math.inf


def tm_of(r):
    """A term of reach ``r``."""
    return TrueLit() if r == 0 else v(r - 1)


def ty_of(r):
    """A type of reach ``r``."""
    return Bool() if r == 0 else El(v(r - 1))


REACHES = range(4)

# Substitutions with the pair each must have, built from the leaves up.
SUBS = [
    (IdSub(), (0, 0)),
    (Wk(), (1, 1)),
    (Eps(), (0, -INF)),
    (wk(3), (3, 3)),
    (Ext(IdSub(), None, v(1)), (2, -1)),
    (Ext(wk(2), Bool(), TrueLit()), (2, 1)),
    (Comp(Eps(), Wk()), (1, -INF)),
]


def test_leaves_and_variables():
    for leaf in (Top(), Bool(), Univ(3), Tt(), TrueLit(), FalseLit()):
        assert leaf.reach == 0, leaf
    assert Var0().reach == 1
    assert IdSub().reach == (0, 0)
    assert Wk().reach == (1, 1)
    assert Eps().reach == (0, -INF)
    for r in REACHES:
        assert tm_of(r).reach == r and ty_of(r).reach == r
        assert App(tm_of(r)).reach == r + 1


def test_binders_take_one_entry_off_their_body():
    for a, b in itertools.product(REACHES, repeat=2):
        for former in (Pi, Sigma):
            assert former(ty_of(a), ty_of(b)).reach == max(a, b - 1)
        assert Lam(ty_of(a), tm_of(b)).reach == max(a, b - 1)


def test_pair_if_and_j():
    for a, b, c, d in itertools.product(REACHES, repeat=4):
        assert Pair(ty_of(a), ty_of(b), tm_of(c), tm_of(d)).reach == \
            max(a, b - 1, c, d)
        assert If(ty_of(a), tm_of(b), tm_of(c), tm_of(d)).reach == \
            max(a - 1, b, c, d)
        assert J(ty_of(a), tm_of(b), tm_of(c)).reach == max(a - 2, b, c)


def test_other_nodes_take_the_max_of_their_children():
    for a, b, c in itertools.product(REACHES, repeat=3):
        assert IdTy(ty_of(a), tm_of(b), tm_of(c)).reach == max(a, b, c)
    for a in REACHES:
        for former in (El, Fst, Snd, Refl):
            assert former(tm_of(a)).reach == a
        assert Code(ty_of(a)).reach == a


def test_substitution_pairs():
    for sub, pair in SUBS:
        assert sub.reach == pair, sub
    for (outer, (co, do)), (inner, (ci, di)) in itertools.product(SUBS, SUBS):
        assert Comp(outer, inner).reach == (max(ci, co + di), do + di)
    for (sub, (c, d)), a, t in itertools.product(SUBS, REACHES, REACHES):
        assert Ext(sub, ty_of(a), tm_of(t)).reach == \
            (max(t, c, a + d), d - 1)
        # a missing annotation counts as 0
        assert Ext(sub, None, tm_of(t)).reach == (max(t, c, d), d - 1)


def test_substituted_terms_and_types():
    for (sub, (c, d)), r in itertools.product(SUBS, REACHES):
        assert TmSub(tm_of(r), sub).reach == max(c, r + d)
        assert TySub(ty_of(r), sub).reach == max(c, r + d)
    # a beta-redex of closed parts is closed; a variable is not
    assert apply1(Lam(Bool(), Var0()), TrueLit()).reach == 0
    assert apply1(Lam(Bool(), v(1)), TrueLit()).reach == 1
    assert v(4).reach == 5


# ---------------------------------------------------------------------------
# Soundness: what lies beyond a node's reach does not change its readback
# ---------------------------------------------------------------------------

def _moved(env, depth, keep):
    """``env`` with all but its last ``keep`` values replaced by fresh
    variables at levels ``depth``, ``depth + 1``, ...: levels that no
    generic variable has.  Read back at ``depth`` plus the number
    replaced, a replaced value that is read shows as another variable."""
    moved = max(len(env) - keep, 0)
    return (tuple(fresh(depth + k, env[k].ty) for k in range(moved))
            + env[moved:], depth + moved)


def _draws(count):
    """Seeded ``(gen, ctx)`` pairs with room for an entity in ``ctx``."""
    for case in range(count):
        gen = InstanceGen(GenConfig(seed=derive_seed(14, "reach", case),
                                    max_nodes=10))
        try:
            yield gen, gen.draw_ctx()
        except GenExhausted:
            continue


THREE = Ctx.of(Bool(), Univ(0), El(Var0()))


def test_readback_ignores_what_lies_beyond_reach():
    seen = {"moved": 0, "closed": 0, "sub-moved": 0}
    for gen, ctx in _draws(160):
        try:
            ty = gen.draw_ty(ctx)
            tm = gen.draw_tm(ctx, ty)
            cod = gen.draw_ctx()
            sub = gen.draw_sub(ctx, cod)
        except GenExhausted:
            continue
        env = generic_env(ctx)
        depth = len(env)
        tm_ty = synth_tm(ctx, tm)
        for x in (ty, tm):
            assert x.reach <= len(ctx), x
            moved, at = _moved(env, depth, x.reach)
            if x is ty:
                assert readback_ty(at, evaluate(moved, ty)) is \
                    readback_ty(at, evaluate(env, ty))
            else:
                expected = evaluate(env, tm_ty)
                assert readback_tm(at, evaluate(moved, tm), expected) is \
                    readback_tm(at, evaluate(env, tm), expected)
            seen["moved"] += at > depth
            if x.reach == 0:
                seen["closed"] += 1
                normal = normalize_ty if x is ty else normalize_tm
                assert normal(THREE, x) is normal(ctx, x)
        # the last n entries of the codomain, for every n
        c, d = sub.reach
        out = eval_sub(env, sub)
        for n in range(len(cod) + 1):
            keep = max(c, n + d)
            assert keep <= len(ctx), sub
            moved, at = _moved(env, depth, keep)
            out_moved = eval_sub(moved, sub)
            for k in range(len(cod) - n, len(cod)):
                entry_ty = evaluate(out[:k], cod.entries[k])
                assert readback_tm(at, out_moved[k], entry_ty) is \
                    readback_tm(at, out[k], entry_ty)
            seen["sub-moved"] += at > depth
    assert seen["moved"] >= 20 and seen["closed"] >= 20, seen
    assert seen["sub-moved"] >= 20, seen


def test_closed_terms_share_one_value():
    lam = Lam(Bool(), Var0())
    redex = apply1(lam, TrueLit())
    pi = Pi(Bool(), TySub(Bool(), Wk()))
    env = generic_env(THREE)
    assert evaluate(env, lam) is evaluate((), lam)
    assert evaluate(env, redex) is evaluate((), redex)
    assert evaluate(env, pi) is evaluate((), pi)


# ---------------------------------------------------------------------------
# Rebinding costs no frame per nested closed level
# ---------------------------------------------------------------------------

def _least_limit(run):
    """The smallest recursion limit at which ``run()`` returns, every
    memo table emptied before each try."""
    def succeeds(limit):
        caches.clear_all()
        old = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(limit)
            run()
            return True
        except RecursionError:
            return False
        finally:
            sys.setrecursionlimit(old)
            caches.clear_all()
    lo, hi = 1, 20000
    assert succeeds(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if succeeds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _nest(depth, wrap, core):
    for _ in range(depth):
        core = wrap(core)
    return core


# Deep enough that one frame per level shows, and shallow enough for
# CPython 3.12.1, whose fixed C recursion limit stops a 100-level
# decoded-redex nest at any recursion limit.
DEPTH = 50
BOOL = Ctx.of(Bool())

# Each kind of nest: ``closed`` wraps a closed redex around each level,
# so every level is evaluated in a nonempty environment and rebinds it;
# ``open`` has the same shape with an argument that reads the ambient
# entry, so no level is closed.
NESTS = {
    "beta-redex": (normalize_tm,
                   lambda arg: lambda t: apply1(Lam(Bool(), t), arg), Var0()),
    "decoded-redex": (normalize_ty,
                      lambda arg: lambda t: El(apply1(Lam(Bool(), Code(t)), arg)),
                      Bool()),
}


@pytest.mark.parametrize("kind", list(NESTS))
def test_closed_levels_add_no_frames(kind):
    normal, wrap, core = NESTS[kind]
    closed = _nest(DEPTH, wrap(TrueLit()), core)
    open_ = _nest(DEPTH, wrap(Var0()), core)
    assert closed.reach == 0 and open_.reach == 1
    limits = [_least_limit(lambda: normal(EMPTY, closed)),
              _least_limit(lambda: normal(BOOL, closed)),
              _least_limit(lambda: normal(BOOL, open_))]
    # one frame per level would put the closed nest DEPTH frames higher
    assert max(limits) - min(limits) <= 10, limits


def test_a_closed_lam_nest_needs_the_same_limit_in_every_context():
    lams = _nest(DEPTH, lambda t: Lam(Bool(), t), Var0())
    assert lams.reach == 0
    limits = [_least_limit(lambda: normalize_tm(EMPTY, lams)),
              _least_limit(lambda: normalize_tm(BOOL, lams))]
    assert max(limits) - min(limits) <= 10, limits
