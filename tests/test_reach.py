"""The ``reach`` of a syntax node, and evaluation of closed syntax.

Every syntax node's constructor fills ``reach``: the number of trailing
context entries the node may read, 0 for a closed node.  A substitution's
``reach`` is a pair ``(c, d)``: to supply the last ``n`` entries of its
codomain it reads the last ``max(c, n + d)`` entries of its domain.
``evaluate``, ``infer_ty``, ``synth_tm`` and ``normalize_ty_in`` rebind
a closed node's scope to the empty environment or context themselves, so
the work below a closed node is shared by every scope it occurs in.
These tests pin the rule of each constructor, check that the rules are
sound (what lies beyond a node's reach changes neither its readback nor
what the checker says of it), count the memo entries a closed node takes,
and check that the rebinding costs no frame per nested closed level.
"""

import contextlib
import hashlib
import io
import itertools
import math
import sys

import pytest

from ttk import caches
from ttk.cli import main
from ttk.conversion import normalize_tm, normalize_ty
from ttk.generate import GenConfig, GenExhausted, InstanceGen, derive_seed
from ttk.semantics import (
    eval_sub, evaluate, generic_env, readback_tm, readback_ty,
)
from ttk.syntax import (
    App, Bool, Code, Comp, Ctx, EMPTY, El, Eps, Ext, FalseLit, Fst, IdSub,
    IdTy, If, J, Lam, NODE_FIELDS, Pair, Pi, Refl, Sigma, Snd, Top, TrueLit,
    Tt, TmExpr, TmSub, TyExpr, TySub, Univ, Var0, Wk, apply1, v, wk,
)
from ttk.typecheck import (
    TypeCheckError, force, infer_ty, normalize_ty_in, synth_tm,
    types_convertible,
)
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


def _subnodes(x):
    """``x`` and every syntax node below it, each once."""
    seen, todo = set(), [x]
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        seen.add(node)
        todo += [getattr(node, name) for name in NODE_FIELDS[type(node)]
                 if getattr(node, name) is not None]
    return seen


def _error(ctx, tm):
    try:
        synth_tm(ctx, tm)
    except TypeCheckError as err:
        return str(err)
    raise AssertionError(f"{tm!r} checked")


def test_the_checker_says_the_same_of_closed_syntax_in_every_scope():
    # a closed type or term has the same level or type, and a closed
    # ill-typed term the same error, in a nonempty context as in EMPTY
    seen = {"ty": 0, "tm": 0, "ill": 0}
    for gen, ctx in _draws(160):
        if len(ctx) == 0:
            continue
        try:
            ty = gen.draw_ty(ctx)
            tm = gen.draw_tm(ctx, ty)
        except GenExhausted:
            continue
        for x in _subnodes(ty) | _subnodes(tm):
            if x.reach != 0:
                continue
            if isinstance(x, TyExpr):
                assert infer_ty(ctx, x) == infer_ty(EMPTY, x), x
                seen["ty"] += 1
                continue
            if not isinstance(x, TmExpr):
                continue
            x_ty = synth_tm(EMPTY, x)
            assert synth_tm(ctx, x) is x_ty, x
            seen["tm"] += 1
            # a closed argument of the wrong type, under a binder or not
            wrong = Bool() if types_convertible(EMPTY, x_ty, Top()) else Top()
            bad = apply1(Lam(wrong, Var0()), x)
            for ill in (bad, Lam(Bool(), bad), Fst(Refl(x))):
                assert ill.reach == 0
                assert _error(ctx, ill) == _error(EMPTY, ill), ill
                seen["ill"] += 1
    assert min(seen.values()) >= 50, seen


def _misses(name):
    return caches.stats()[name]["misses"]


def _total_misses():
    return sum(table["misses"] for table in caches.stats().values())


def test_closed_terms_share_one_value():
    # each judgement rebinds a closed node's scope itself, so a call in a
    # nonempty scope, as ``conversion``, ``generate`` and outside callers
    # make, gives the result of the call in the empty one, and only the
    # call itself misses: everything below it hits the shared entries
    lam = Lam(Bool(), Var0())
    redex = apply1(lam, TrueLit())
    pi = Pi(Bool(), TySub(Bool(), Wk()))
    env = generic_env(THREE)
    for judge, scope, empty, x in (
            (evaluate, env, (), lam), (evaluate, env, (), redex),
            (evaluate, env, (), pi), (infer_ty, THREE, EMPTY, pi),
            (synth_tm, THREE, EMPTY, lam), (synth_tm, THREE, EMPTY, redex),
            (normalize_ty_in, THREE, EMPTY, pi)):
        caches.clear_all()
        expected = judge(empty, x)
        before = _total_misses()
        assert judge(scope, x) == expected, (judge.__name__, x)
        assert _total_misses() == before + 1, (judge.__name__, x)
    caches.clear_all()


def test_a_closed_type_takes_one_normal_form_entry():
    # conversion and ``force`` ask for a closed type's normal form in many
    # contexts, and ``normalize_ty_in`` computes it in ``EMPTY``: so it is
    # computed once, ``evaluate`` and ``readback_ty`` miss in the first
    # context only, and each (context, type) takes at most one entry of
    # ``normalize_ty_in``'s own table
    tables = ("ttk.typecheck.normalize_ty_in", "ttk.semantics.evaluate",
              "ttk.semantics.readback_ty")

    def misses():
        return [_misses(name) for name in tables]

    caches.clear_all()
    closed = Pi(Bool(), TySub(El(Code(Bool())), Wk()))
    other = Pi(El(Code(Bool())), TySub(Bool(), Wk()))
    assert closed.reach == 0 and other.reach == 0
    added = []
    for ctx in (BOOL, THREE, Ctx.of(Univ(0)), BOOL):
        before = misses()
        assert types_convertible(ctx, closed, other)
        added.append([a - b for a, b in zip(misses(), before)])
    first, *rest = added
    assert first[0] == 2 and min(first[1:]) > 0, first
    assert rest == [[2, 0, 0], [2, 0, 0], [0, 0, 0]], rest
    before = misses()
    assert force(THREE.extend(Bool()), closed, Pi, closed) is Pi(Bool(), Bool())
    assert [a - b for a, b in zip(misses(), before)] == [1, 0, 0]
    caches.clear_all()


def test_a_closed_child_takes_one_checker_entry():
    # the checker infers a closed child in EMPTY, so a closed type under a
    # binder adds its ``infer_ty`` misses once, however many contexts it
    # is met in, and likewise a closed term and ``synth_tm``
    caches.clear_all()
    closed_ty = Pi(Bool(), TySub(El(Code(Bool())), Wk()))
    closed_tm = apply1(Lam(Bool(), Pair(Bool(), Bool(), Var0(), TrueLit())),
                       FalseLit())
    assert closed_ty.reach == 0 and closed_tm.reach == 0
    for name, check, closed in (
            ("ttk.typecheck.infer_ty", infer_ty, Sigma(Bool(), closed_ty)),
            ("ttk.typecheck.synth_tm", synth_tm, Lam(Bool(), closed_tm))):
        added, results = [], []
        for ctx in (BOOL, THREE, Ctx.of(Univ(0))):
            before = _misses(name)
            results.append(check(ctx, closed))
            added.append(_misses(name) - before)
        # after the first context, only the outer node misses
        assert added[0] > 3 and added[1:] == [1, 1], (name, added)
        assert len(set(results)) == 1, results
    caches.clear_all()


def _lam_nest(depth):
    return "(lam (bool) " * depth + "(true)" + ")" * depth


# ``ttk run`` of a translation of a closed λ nest: its total memo misses
# on cold caches stay under the bound (13,292 and 93,952 when closed
# children were checked and evaluated in their enclosing scope), and it
# prints the pinned bytes.  CPython 3.12.1 refuses ``termify`` from 82
# levels, so that nest stays at 60.
NEST_RUNS = {
    "termify-60": ("termify", 60, 8_000,
                   "f9cb2e1d39c455afd8c74b35619ff83ec804bc6e981bdad1071d38fc2bb9930c"),
    "param-100": ("param", 100, 40_000,
                  "9a5e5a77e58a5ad47167bbbbd20ab8ee1d0752bd4053e5e03cbf0b2a636edf6f"),
}


@pytest.mark.parametrize("name", list(NEST_RUNS))
def test_a_translated_lam_nest_misses_under_its_bound(name, tmp_path):
    head, depth, bound, digest = NEST_RUNS[name]
    path = tmp_path / "nest.tt"
    path.write_text(f"({head} (ctx) {_lam_nest(depth)})\n", encoding="utf-8")
    caches.clear_all()
    before = sum(s["misses"] for s in caches.stats().values())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", str(path)])
    misses = sum(s["misses"] for s in caches.stats().values()) - before
    caches.clear_all()
    printed = out.getvalue()
    assert printed.endswith("RESULT: accept\n") and code == 0
    assert hashlib.sha256(printed.encode() + b"\0" + str(code).encode()
                          ).hexdigest() == digest
    assert misses <= bound, misses


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
