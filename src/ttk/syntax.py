"""Raw syntax for the object theory.

Four mutually defined sorts: contexts (telescopes of types), substitutions,
types, and terms.  Substitutions are explicit: they are first-class tree
nodes, not a meta-level operation.  Variables are nameless; the zeroth de
Bruijn index is the only primitive variable and ``v(n)`` builds the n-th
index as a weakening spine.

Binders that are not synthesizable from the bare tree carry annotations:
``Lam`` stores its domain, ``Pair`` stores both component families, and the
substitution extension ``Ext`` stores the codomain-side type of the new
entry (``Ext(IdSub(), None, t)`` is permitted; the annotation is then
recovered from ``t`` during checking).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from typing import Optional, Union

Level = int  # universe index; closed under max and +1


def node(cls):
    """Hash-consed frozen dataclass (Filliâtre & Conchon, *Type-Safe
    Modular Hash-Consing*, 2006).

    Constructing a node whose fields are those of a live node of the same
    class (child nodes compared by identity) returns that node, so
    structurally equal nodes are one object and ``==`` and ``hash`` are the
    built-in identity versions.  Translated syntax shares subtrees heavily,
    and every memo-table lookup then costs no Python-level hashing however
    large the tree.  The intern table of each class is a
    ``WeakValueDictionary`` keyed on ``(cls, *fields)``: a node stays in it
    exactly as long as something else holds the node, so the tables never
    outgrow the memo tables and never hold two equal nodes."""
    cls = dataclass(frozen=True, eq=False)(cls)
    names = tuple(f.name for f in fields(cls))
    init = cls.__init__
    del cls.__init__  # fields are set once, when a node is first built
    table = weakref.WeakValueDictionary()
    live = table.data  # key -> weak reference, read without a method call

    def __new__(kind, *args, **kwargs):
        if kwargs or len(args) != len(names):
            # the generated __init__ checks the arguments and fills defaults
            spare = object.__new__(kind)
            init(spare, *args, **kwargs)
            args = tuple(getattr(spare, name) for name in names)
        key = (kind, *args)
        ref = live.get(key)
        if ref is not None:
            found = ref()
            if found is not None:
                return found
        self = object.__new__(kind)
        self.__dict__.update(zip(names, args))
        table[key] = self
        return self

    cls.__new__ = __new__
    cls._interned = table
    return cls


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

@node
class IdSub:
    """Identity substitution Γ → Γ."""


@node
class Comp:
    """Composition: ``outer`` after ``inner``."""
    outer: SubExpr
    inner: SubExpr


@node
class Eps:
    """The unique substitution into the empty context."""


@node
class Ext:
    """Extend ``sub : Γ → Δ`` with a term for a new entry ``ann : Ty Δ``.

    ``ann is None`` is allowed only over the identity substitution, where the
    checker recovers it as the synthesized type of ``tm``.
    """
    sub: SubExpr
    ann: Optional[TyExpr]
    tm: TmExpr


@node
class Wk:
    """Weakening: forgets the newest context entry."""


SubExpr = Union[IdSub, Comp, Eps, Ext, Wk]


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@node
class TySub:
    ty: TyExpr
    sub: SubExpr


@node
class Pi:
    dom: TyExpr
    cod: TyExpr  # lives in the context extended with dom


@node
class Sigma:
    dom: TyExpr
    cod: TyExpr  # lives in the context extended with dom


@node
class Top:
    """Unit type, with definitional eta."""


@node
class Univ:
    level: Level


@node
class El:
    """Decode a term of the universe into a type."""
    code: TmExpr


@node
class Bool:
    pass


@node
class IdTy:
    """Propositional equality over ``ty`` between ``lhs`` and ``rhs``."""
    ty: TyExpr
    lhs: TmExpr
    rhs: TmExpr


TyExpr = Union[TySub, Pi, Sigma, Top, Univ, El, Bool, IdTy]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@node
class TmSub:
    tm: TmExpr
    sub: SubExpr


@node
class Var0:
    """The zeroth de Bruijn index, typed in a nonempty context."""


@node
class Lam:
    dom: TyExpr
    body: TmExpr


@node
class App:
    """Un-application: sends a function term to its body over the extended
    context.  Conventional application ``f $ u`` is the derived
    ``apply1``."""
    fn: TmExpr


@node
class Pair:
    fst_ty: TyExpr
    snd_ty: TyExpr  # family over the context extended with fst_ty
    fst: TmExpr
    snd: TmExpr


@node
class Fst:
    pair: TmExpr


@node
class Snd:
    pair: TmExpr


@node
class Tt:
    pass


@node
class Code:
    """Code a type as a term of the universe."""
    ty: TyExpr


@node
class TrueLit:
    pass


@node
class FalseLit:
    pass


@node
class If:
    """Boolean elimination with explicit motive over the Bool-extended
    context."""
    motive: TyExpr
    on_true: TmExpr
    on_false: TmExpr
    scrut: TmExpr


@node
class Refl:
    arg: TmExpr


@node
class J:
    """Identity elimination; the motive lives two entries above the ambient
    context (the endpoint and the equation)."""
    motive: TyExpr
    base: TmExpr
    eq: TmExpr


TmExpr = Union[
    TmSub, Var0, Lam, App, Pair, Fst, Snd, Tt, Code,
    TrueLit, FalseLit, If, Refl, J,
]

Expr = Union[SubExpr, TyExpr, TmExpr]


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

@node
class Ctx:
    """A telescope: entry k is a type over the prefix of length k."""
    entries: tuple[TyExpr, ...] = ()

    def extend(self, ty: TyExpr) -> Ctx:
        return Ctx(self.entries + (ty,))

    def pop(self) -> Ctx:
        if not self.entries:
            raise ValueError("cannot pop the empty context")
        return Ctx(self.entries[:-1])

    @property
    def last(self) -> TyExpr:
        if not self.entries:
            raise ValueError("empty context has no last entry")
        return self.entries[-1]

    def __len__(self) -> int:
        return len(self.entries)

    @staticmethod
    def of(*entries: TyExpr) -> Ctx:
        return Ctx(tuple(entries))


EMPTY = Ctx()


# ---------------------------------------------------------------------------
# Derived forms
# ---------------------------------------------------------------------------

def wk(n: int) -> SubExpr:
    """n-fold weakening; ``wk(0)`` is the identity."""
    if n < 0:
        raise ValueError("negative weakening")
    if n == 0:
        return IdSub()
    sub: SubExpr = Wk()
    for _ in range(n - 1):
        sub = Comp(Wk(), sub)
    return sub


def v(n: int) -> TmExpr:
    """The n-th de Bruijn index as a weakening spine over ``Var0``."""
    if n == 0:
        return Var0()
    return TmSub(Var0(), wk(n))


def lift(sub: SubExpr, ann: TyExpr) -> SubExpr:
    """Lift ``sub : Γ → Δ`` to ``Γ ▷ ann[sub] → Δ ▷ ann``."""
    return Ext(Comp(sub, Wk()), ann, Var0())


def apply1(fn: TmExpr, arg: TmExpr) -> TmExpr:
    """Conventional application of ``fn`` to a single argument."""
    return TmSub(App(fn), Ext(IdSub(), None, arg))


def arrow(dom: TyExpr, cod: TyExpr) -> TyExpr:
    """Non-dependent function type: ``cod`` is weakened over the binder."""
    return Pi(dom, TySub(cod, Wk()))


def spine_depth(sub: SubExpr) -> Optional[int]:
    """Number of weakenings if ``sub`` is a pure composition of ``Wk``."""
    match sub:
        case Wk():
            return 1
        case Comp(outer, inner):
            a = spine_depth(outer)
            b = spine_depth(inner)
            if a is None or b is None:
                return None
            return a + b
        case _:
            return None


def var_index(tm: TmExpr) -> Optional[int]:
    """Recognize ``v(n)`` spines; returns ``n`` or None."""
    match tm:
        case Var0():
            return 0
        case TmSub(Var0(), sub):
            return spine_depth(sub)
        case _:
            return None


# The operator inventory, used by coverage accounting.  Context formation
# contributes the two pseudo-constructors for the empty telescope and the
# telescope extension.
SUB_CONSTRUCTORS = ("IdSub", "Comp", "Eps", "Ext", "Wk")
CTX_CONSTRUCTORS = ("CtxEmpty", "CtxExtend")
TY_CONSTRUCTORS = ("TySub", "Pi", "Sigma", "Top", "Univ", "El", "Bool", "IdTy")
TM_CONSTRUCTORS = (
    "TmSub", "Var0", "Lam", "App", "Pair", "Fst", "Snd", "Tt", "Code",
    "TrueLit", "FalseLit", "If", "Refl", "J",
)
ALL_CONSTRUCTORS = (
    SUB_CONSTRUCTORS + CTX_CONSTRUCTORS + TY_CONSTRUCTORS + TM_CONSTRUCTORS
)
assert len(ALL_CONSTRUCTORS) == 29


def walk_constructors(x: Union[Expr, Ctx], found: set[str]) -> None:
    """Record every constructor name occurring in ``x`` into ``found``."""
    if isinstance(x, Ctx):
        found.add("CtxEmpty")
        if x.entries:
            found.add("CtxExtend")
        for ty in x.entries:
            walk_constructors(ty, found)
        return
    found.add(type(x).__name__)
    for field in getattr(x, "__dataclass_fields__", ()):
        child = getattr(x, field)
        if child is not None and not isinstance(child, int):
            walk_constructors(child, found)
