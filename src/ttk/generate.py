"""Seeded, type-directed generation of well-typed entities.

Generation picks a goal classifier first and then a constructor that fits,
so every emitted context, type, substitution, and term typechecks by
construction.
Eliminators are reachable through wrapper moves that keep the goal type:
a beta redex around the goal, a boolean branch on both sides, projections
from an ad-hoc pair, and an identity elimination of ``Refl``.  These carry
extra weight so beta rules actually fire in downstream suites; the weights
are 5 canonical / 3 variable / 2 each for redex, branch, and identity
elimination / 1 each for projections and an identity substitution.  A
type is 3 ``Bool`` / 1 ``Top`` / 2 universe / 3 ``Pi`` / 2 ``Sigma`` /
2 ``Id`` / 1 ``El`` / 1 substituted type, and a substitution 4 ``eps`` /
3 ``id`` / 3 ``wk`` / 4 ``ext`` / 1 ``comp``.  The rule below only
removes moves from these lists; it never weighs them again.

A term goal is asked for only where it can be met, so a draw runs out
only of fuel, never at a goal with no way in.  A goal can be met when a
variable has its type, or when its normal form has a canonical form whose
own goals can be met (``_meets``): ``Bool``, ``Top``, a universe, an
``Id`` with one endpoint twice, a ``Pi`` whose codomain can be met under
its binder, and a ``Sigma`` whose two components can.  What cannot be
met is an ``Id`` with distinct endpoints or a neutral ``El`` that no
variable has, and no wrapper helps there, because every wrapper keeps the
goal.  So each move that creates a goal decides it before it draws:

* a type that is to be inhabited is drawn *inhabited* (``ty`` and
  ``ty_at_level`` with ``inhabited``): the domain of an ``Id`` type, a
  type a caller draws a term of, and the codomain of an inhabited ``Pi``
  and both components of an inhabited ``Sigma``.  An inhabited ``Id``
  repeats its endpoint and an inhabited ``El`` decodes a code; a ``Pi``
  domain stays free;
* a context that a substitution must reach is drawn inhabited, each
  entry inhabited over its prefix, and ``sub`` offers only the moves that
  reach their target (``_reaches``);
* ``_canonical`` and ``ext`` draw a goal only from a type that can be met
  before substitution.  That suffices, because substituting a generated
  substitution into a goal that can be met gives one that can: every
  variable it replaces goes to a term of a type that can be met.

Types and contexts that nothing inhabits are drawn free, so identity
types with distinct endpoints and neutral ``El`` stay in the stream.

Identical configurations yield identical output: all randomness flows
through one ``random.Random`` seeded from the config.  A weighted pick
draws exactly as ``random.choices(options, weights, k=1)`` does, one
``random()`` against the running sums of the weights.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .caches import memoized
from .syntax import (
    Bool, Code, Comp, Ctx, EMPTY, El, Eps, Ext, FalseLit, Fst, IdSub, IdTy,
    If, J, Lam, Pair, Pi, Refl, Sigma, Snd, SubExpr, Top, TrueLit, Tt,
    TmExpr, TmSub, TyExpr, TySub, Univ, Wk, apply1, v, wk,
)
from .typecheck import ctxs_convertible, normalize_ty_in


# The moves one generator may spend before it gives up.
FUEL = 600


class GenExhausted(Exception):
    """Fuel ran out before a well-typed entity was found."""


class GenConfig(NamedTuple):
    seed: int
    max_nodes: int = 12
    max_level: int = 2
    max_ctx_len: int = 4


def derive_seed(seed: int, *parts: object) -> int:
    """Stable 64-bit seed derivation for per-case generators.  ``hashlib``
    is imported here, not with the module: ``ttk run`` never derives a
    seed, and importing it loads OpenSSL."""
    import hashlib
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((seed,) + parts).encode())
    return int.from_bytes(h.digest(), "big")


@memoized
def _vars_by_type(ctx: Ctx) -> dict[TyExpr, tuple[int, ...]]:
    """The de Bruijn indices of the variables of ``ctx``, ascending, keyed
    by the normal form of their type.  Normalization is idempotent, so a
    goal's normal form is a key exactly when the goal converts to that
    variable's type."""
    table: dict[TyExpr, tuple[int, ...]] = {}
    for k in range(len(ctx)):
        entry = ctx.entries[-1 - k]
        # a closed entry weakened into ``ctx`` is the entry itself
        nf = (normalize_ty_in(ctx, TySub(entry, wk(k + 1))) if entry.reach
              else normalize_ty_in(EMPTY, entry))
        table[nf] = table.get(nf, ()) + (k,)
    return table


def _meets(ctx: Ctx, nf: TyExpr) -> bool:
    """Whether ``InstanceGen.tm`` can build a term of ``nf``, a normal
    form over ``ctx``.  The components of a normal form are normal forms,
    so no component is normalized again; the canonical forms are tried
    first, so a goal drawn inhabited builds no variable table."""
    return _has_canonical(ctx, nf) or nf in _vars_by_type(ctx)


def _has_canonical(ctx: Ctx, nf: TyExpr) -> bool:
    """Whether ``InstanceGen._canonical`` can build an inhabitant of
    ``nf`` whose own goals can be met."""
    cls = type(nf)
    if cls is Pi:
        return _meets(ctx.extend(nf.dom), nf.cod)
    if cls is Sigma:
        return _meets(ctx, nf.dom) and _meets(ctx.extend(nf.dom), nf.cod)
    if cls is IdTy:
        return nf.lhs is nf.rhs
    return cls in (Top, Bool, Univ)


def _extends(ctx: Ctx, cod: Ctx) -> bool:
    """Whether ``InstanceGen.sub`` can ``ext`` from ``ctx`` into the
    nonempty ``cod``: the last entry can be met over its prefix, so at
    every head the generator draws, and the head reaches that prefix."""
    head = cod.pop()
    return (_meets(head, normalize_ty_in(head, cod.last))
            and _reaches(ctx, head))


def _reaches(ctx: Ctx, cod: Ctx) -> bool:
    """Whether ``InstanceGen.sub`` can build a substitution from ``ctx``
    to ``cod``.  ``comp`` adds nothing: its middle context is ``ctx``, or
    the empty one, from which only an inhabited ``cod`` is reached, and
    that one ``ext`` reaches from every context."""
    return (len(cod) == 0 or _extends(ctx, cod) or ctxs_convertible(ctx, cod)
            or (len(ctx) > 0 and ctxs_convertible(ctx.pop(), cod)))


class InstanceGen:
    def __init__(self, cfg: GenConfig) -> None:
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.fuel = FUEL
        self.budget = cfg.max_nodes

    # -- bookkeeping --------------------------------------------------------

    def _spend(self, cost: int = 1) -> None:
        self.fuel -= 1
        self.budget -= cost
        if self.fuel <= 0:
            raise GenExhausted("generator fuel exhausted")

    def _reset_budget(self) -> None:
        self.budget = self.cfg.max_nodes

    def _pick(self, options: list[tuple[int, object]]):
        # ``random.choices(k=1)``: bisect the running sums for one
        # ``random() * total``, over all but the last option.
        total = 0
        for weight, _ in options:
            total += weight
        point = self.rng.random() * total
        running = 0
        for weight, choice in options[:-1]:
            running += weight
            if point < running:
                return choice
        return options[-1][1]

    # -- contexts ------------------------------------------------------------

    def ctx(self, max_len: int | None = None, inhabited: bool = False) -> Ctx:
        """A context; an inhabited one, each entry inhabited over its
        prefix, is reached by a substitution from every context."""
        limit = self.cfg.max_ctx_len if max_len is None else max_len
        length = self.rng.randint(0, min(limit, self.cfg.max_nodes))
        out = EMPTY
        for _ in range(length):
            self.budget = max(self.budget, 4)
            out = out.extend(self.ty(out, inhabited=inhabited))
        return out

    # -- types ---------------------------------------------------------------

    def ty(self, ctx: Ctx, cap: int | None = None,
           inhabited: bool = False) -> TyExpr:
        """A type over ``ctx`` of level at most ``cap``; an inhabited one
        is a goal that ``tm`` can meet."""
        cap = self.cfg.max_level if cap is None else cap
        self._spend()
        opts: list[tuple[int, str]] = [(3, "bool"), (1, "top")]
        if cap >= 1:
            opts.append((2, "univ"))
        if self.budget > 2:
            opts += [(3, "pi"), (2, "sigma"), (2, "id"), (1, "el"), (1, "tysub")]
        match self._pick(opts):
            case "bool":
                return Bool()
            case "top":
                return Top()
            case "univ":
                return Univ(self.rng.randint(0, cap - 1))
            case "pi":
                dom = self.ty(ctx, cap)
                return Pi(dom, self.ty(ctx.extend(dom), cap, inhabited))
            case "sigma":
                dom = self.ty(ctx, cap, inhabited)
                return Sigma(dom, self.ty(ctx.extend(dom), cap, inhabited))
            case "id":
                dom = self.ty(ctx, cap, inhabited=True)
                lhs = self.tm(ctx, dom)
                return IdTy(dom, lhs, lhs if inhabited else self.tm(ctx, dom))
            case "el":
                level = self.rng.randint(0, max(cap, 1) - 1) if cap >= 1 else 0
                if inhabited:
                    return El(Code(self.ty_at_level(ctx, level, inhabited=True)))
                return El(self.tm(ctx, Univ(level)))
            case "tysub":
                inner = self.ctx(max_len=1, inhabited=True)
                target = self.ty(inner, cap, inhabited)
                return TySub(target, self.sub(ctx, inner))
        raise AssertionError

    def ty_at_level(self, ctx: Ctx, level: int,
                    inhabited: bool = False) -> TyExpr:
        """A type over ``ctx`` of exactly the given level; an inhabited
        one is a goal that ``tm`` can meet."""
        self._spend()
        if level == 0:
            base: TyExpr = self._pick([(3, Bool()), (1, Top())])
        else:
            base = Univ(level - 1)
        if self.budget > 2 and self.rng.random() < 0.4:
            match self.rng.randint(0, 2):
                case 0:
                    dom = self.ty(ctx, level)
                    return Pi(dom, self.ty_at_level(ctx.extend(dom), level,
                                                    inhabited))
                case 1:
                    dom = self.ty(ctx, level, inhabited)
                    return Sigma(dom, self.ty_at_level(ctx.extend(dom), level,
                                                       inhabited))
                case 2:
                    lhs = self.tm(ctx, base)
                    return IdTy(base, lhs,
                                lhs if inhabited else self.tm(ctx, base))
        return base

    # -- terms ---------------------------------------------------------------

    def tm(self, ctx: Ctx, goal: TyExpr) -> TmExpr:
        self._spend()
        nf = normalize_ty_in(ctx, goal)
        opts: list[tuple[int, str]] = []
        variables = _vars_by_type(ctx).get(nf)
        if variables:
            opts.append((3, "var"))
        if _has_canonical(ctx, nf):
            opts.append((5, "canonical"))
        if not opts:
            # every wrapper keeps the goal, so none can help
            raise GenExhausted(f"no way to inhabit {nf!r}")
        if self.budget > 3:
            opts += [(2, "beta"), (2, "ite"), (1, "fst"), (1, "snd"),
                     (2, "jelim"), (1, "sub_id")]
        match self._pick(opts):
            case "var":
                return v(self.rng.choice(variables))
            case "canonical":
                return self._canonical(ctx, nf)
            case "beta":
                aux = self._small_ty()
                body = self.tm(ctx.extend(aux), TySub(goal, Wk()))
                return apply1(Lam(aux, body), self.tm(ctx, aux))
            case "ite":
                motive = TySub(goal, Wk())
                return If(motive, self.tm(ctx, goal), self.tm(ctx, goal),
                          self.tm(ctx, Bool()))
            case "fst":
                snd_ty = TySub(Top(), Wk())
                pair = Pair(goal, snd_ty, self.tm(ctx, goal), Tt())
                return Fst(pair)
            case "snd":
                aux = self._small_ty()
                pair = Pair(aux, TySub(goal, Wk()), self.tm(ctx, aux),
                            self.tm(ctx, goal))
                return Snd(pair)
            case "jelim":
                aux = self._small_ty()
                x = self.tm(ctx, aux)
                motive = TySub(goal, Comp(Wk(), Wk()))
                return J(motive, self.tm(ctx, goal), Refl(x))
            case "sub_id":
                return TmSub(self.tm(ctx, goal), IdSub())
        raise AssertionError

    def _small_ty(self) -> TyExpr:
        return self._pick([(3, Bool()), (1, Top())])

    def _canonical(self, ctx: Ctx, nf: TyExpr) -> TmExpr:
        cls = type(nf)
        if cls is Pi:
            return Lam(nf.dom, self.tm(ctx.extend(nf.dom), nf.cod))
        if cls is Sigma:
            a = self.tm(ctx, nf.dom)
            b = self.tm(ctx, TySub(nf.cod, Ext(IdSub(), nf.dom, a)))
            return Pair(nf.dom, nf.cod, a, b)
        if cls is Top:
            return Tt()
        if cls is Bool:
            return self._pick([(1, TrueLit()), (1, FalseLit())])
        if cls is Univ:
            return Code(self.ty_at_level(ctx, nf.level))
        if cls is IdTy:
            return Refl(nf.lhs)
        raise AssertionError(f"no canonical form at {nf!r}")

    # -- substitutions -------------------------------------------------------

    def sub(self, ctx: Ctx, cod: Ctx) -> SubExpr:
        self._spend()
        opts: list[tuple[int, str]] = []
        if len(cod) == 0:
            opts.append((4, "eps"))
        if ctxs_convertible(ctx, cod):
            opts.append((3, "id"))
        if len(ctx) > 0 and ctxs_convertible(ctx.pop(), cod):
            opts.append((3, "wk"))
        # an inhabited ``cod`` is reached from every context, the empty
        # one included
        inhabited = _reaches(EMPTY, cod)
        if len(cod) > 0 and (inhabited or _extends(ctx, cod)):
            opts.append((4, "ext"))
        mids = [(2, EMPTY)] if inhabited else []
        if opts:
            mids.append((2, ctx))
        if self.budget > 3 and mids:
            opts.append((1, "comp"))
        if not opts:
            raise GenExhausted(f"no substitution into {cod!r}")
        match self._pick(opts):
            case "eps":
                return Eps()
            case "id":
                return IdSub()
            case "wk":
                return Wk()
            case "ext":
                head = self.sub(ctx, cod.pop())
                tm = self.tm(ctx, TySub(cod.last, head))
                return Ext(head, cod.last, tm)
            case "comp":
                mid = self._pick(mids)
                inner = self.sub(ctx, mid)
                outer = self.sub(mid, cod)
                return Comp(outer, inner)
        raise AssertionError

    # -- public draws --------------------------------------------------------

    def draw_ctx(self) -> Ctx:
        self._reset_budget()
        return self.ctx()

    def draw_inhabited_ctx(self) -> Ctx:
        self._reset_budget()
        return self.ctx(inhabited=True)

    def draw_ty(self, ctx: Ctx) -> TyExpr:
        self._reset_budget()
        return self.ty(ctx)

    def draw_inhabited_ty(self, ctx: Ctx) -> TyExpr:
        self._reset_budget()
        return self.ty(ctx, inhabited=True)

    def draw_ty_at_level(self, ctx: Ctx, level: int) -> TyExpr:
        self._reset_budget()
        return self.ty_at_level(ctx, level)

    def draw_tm(self, ctx: Ctx, goal: TyExpr) -> TmExpr:
        self._reset_budget()
        return self.tm(ctx, goal)

    def draw_sub(self, ctx: Ctx, cod: Ctx) -> SubExpr:
        self._reset_budget()
        return self.sub(ctx, cod)

