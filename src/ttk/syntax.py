"""Raw syntax for the object theory.

Four mutually defined sorts: contexts (telescopes of types), substitutions,
types, and terms.  A context is a snoc list, its prefix plus its last
entry, so extending or popping it costs one step whatever its length.
Substitutions are explicit: they are first-class tree nodes, not a
meta-level operation.  Variables are nameless; the zeroth de Bruijn index
is the only primitive variable and ``v(n)`` builds the n-th index as a
weakening spine.

Binders that are not synthesizable from the bare tree carry annotations:
``Lam`` stores its domain, ``Pair`` stores both component families, and the
substitution extension ``Ext`` stores the codomain-side type of the new
entry (``Ext(IdSub(), None, t)`` is permitted; the annotation is then
recovered from ``t`` during checking).
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Optional, Union, get_args

Level = int  # universe index; closed under max and +1


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting a field of a node."""


class _Node:
    """Base of every node class: frozen once built (fields are set through
    the slot descriptors, never through ``__setattr__``).  Its
    ``__weakref__`` slot lets a caller watch a node die; the kernel itself
    makes no weak reference."""
    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):  # a loop, not a generator: one frame per level
        fields = []
        for name in self.__match_args__:
            fields.append(f"{name}={getattr(self, name)!r}")
        return f"{type(self).__name__}({', '.join(fields)})"


# The intern table of every node class with fields: ``(cls, *fields)`` to
# the node.  It holds its nodes strongly, and ``sweep`` frees them.
_INTERNED: dict = {}

_NEW_TEMPLATE = """\
def __new__(_cls, {params}):
    _key = (_cls, {args})
    _node = _get(_key)
    if _node is not None:
        return _node
    _node = _new(_cls)
{sets}
    _interned[_key] = _node
    return _node
"""


def node(cls=None, **computed: str):
    """Hash-consed frozen node class (Filliâtre & Conchon, *Type-Safe
    Modular Hash-Consing*, 2006).

    Constructing a node whose fields are those of an interned node of the
    same class (child nodes compared by identity) returns that node, so
    structurally equal nodes are one object and ``==`` and ``hash`` are the
    built-in identity versions.  Translated syntax shares subtrees heavily,
    and every memo-table lookup then costs no Python-level hashing however
    large the tree.  Every class shares one intern table, a plain dict
    keyed on ``(cls, *fields)``, which holds its nodes strongly: a node is
    interned from its construction until a ``sweep`` finds that nothing
    else holds it, so the table never holds two equal nodes.

    The class body declares the fields as annotations, in order, and a
    field may have a class-level default.  The annotations stay on the
    class as strings, ``__annotations__``, and they are the one field
    inventory: ``NODE_FIELDS`` and the surface keyword table read them.
    Building nodes is the kernel's most frequent operation, so the
    constructor is compiled once per class: the class is rebuilt with one
    slot per field on the shared frozen base ``_Node``, ``__match_args__``
    names the fields, which ``_Node.__repr__`` prints as
    ``Name(field=value, ...)``, and one ``exec`` generates nothing but
    ``__new__``, with the exact field signature, so Python itself checks
    the arguments and fills defaults.  A hit is one dict lookup; a new
    node's fields are set through the slot descriptors and the node itself
    is stored under its key.  A class without fields has one instance,
    built here, and no table entry.

    Each keyword names a computed slot and gives an expression over the
    fields; the generated constructor fills the slot with it, once per new
    node.  A child's slot is read from the child, so it costs one
    expression per node, never a walk.  Three kinds of slot exist:

    * a syntax class's ``reach``: a term or type reads at most the last
      ``reach`` entries of its context, so 0 means closed.  A
      substitution's ``reach`` is a pair ``(c, d)``: to supply the last
      ``n`` entries of its codomain it reads the last ``max(c, n + d)`` of
      its domain, and ``d`` may be ``-inf``;
    * a value class's ``reach`` (``ttk.values``): 1 plus the highest level
      of a variable the value holds, 0 if it holds none.  ``_reach``, the
      getter of a ``reach``, lets a closure read its environment's;
    * ``Ctx``'s ``length``, its number of entries."""
    if cls is None:
        return lambda cls: node(cls, **computed)
    namespace = dict(cls.__dict__)
    del namespace["__dict__"], namespace["__weakref__"]
    names = tuple(namespace.get("__annotations__", ()))
    defaults = {n: namespace.pop(n) for n in names if n in namespace}
    namespace["__slots__"] = names + tuple(computed)
    namespace["__match_args__"] = names
    cls = type(cls.__name__, (_Node,), namespace)
    cls._interned = _INTERNED
    scope = {"_get": _INTERNED.get, "_interned": _INTERNED,
             "_new": object.__new__, "_reach": _reach, "inf": math.inf}
    if not names:
        instance = object.__new__(cls)
        for slot, expression in computed.items():
            getattr(cls, slot).__set__(instance, eval(expression, scope))
        cls.__new__ = lambda _cls: instance
        return cls
    sets = [f"    _set_{n}(_node, {n})" for n in names]
    for slot, expression in computed.items():
        scope[f"_set_{slot}"] = getattr(cls, slot).__set__
        sets.append(f"    _set_{slot}(_node, {expression})")
    signature = []
    for n in names:
        scope[f"_set_{n}"] = getattr(cls, n).__set__
        if n in defaults:
            scope[f"_default_{n}"] = defaults[n]
            signature.append(f"{n}=_default_{n}")
        else:
            signature.append(n)
    source = _NEW_TEMPLATE.format(
        params=", ".join(signature), args="".join(n + ", " for n in names),
        sets="\n".join(sets))
    exec(compile(source, f"<node {cls.__name__}>", "exec"), scope)
    cls.__new__ = scope["__new__"]
    return cls


_reach = operator.attrgetter("reach")


def sweep() -> None:
    """Free every interned node that nothing but the intern table holds.

    This is the only point where interned nodes are freed, and
    ``caches.clear_all`` calls it right after it empties the memo tables.
    Entries are visited newest first.  A node is built after its children,
    so dropping a dead parent's entry releases its key and its fields
    before the pass reaches the children, and one pass frees a whole dead
    DAG.  The pass holds no key past its own step: each slot of the
    snapshot is cleared as it is visited.  It costs time in proportion to
    the live table."""
    interned, refcount, unheld = _INTERNED, sys.getrefcount, _UNHELD
    keys = list(interned)
    for i in range(len(keys) - 1, -1, -1):
        key = keys[i]
        keys[i] = None
        if refcount(interned[key]) == unheld:
            del interned[key]


def _unheld_count() -> int:
    """What ``sweep`` reads for a node held by the table alone, measured on
    a probe entry.  The import fails unless one more reference reads one
    more: a count read too high would free a live node and split its
    identity."""
    key = (_Node, "probe")
    _INTERNED[key] = object.__new__(_Node)
    unheld = sys.getrefcount(_INTERNED[key])
    held = _INTERNED[key]
    if sys.getrefcount(_INTERNED[key]) != unheld + 1:
        raise ImportError("sys.getrefcount does not count references one "
                          "by one; the intern table cannot be swept")
    del held, _INTERNED[key]
    return unheld


_UNHELD = _unheld_count()


def max_expr(*operands: str) -> str:
    """Source of an expression for the largest of ``operands``, for a
    ``reach``: a chain of conditional expressions, cheaper than a call to
    ``max`` (a fifth of its cost on CPython 3.11)."""
    source = operands[0]
    for operand in operands[1:]:
        source = f"(_m if (_m := {source}) >= (_n := {operand}) else _n)"
    return source


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

@node(reach="(0, 0)")
class IdSub:
    """Identity substitution Γ → Γ."""


@node(reach="(" + max_expr("inner.reach[0]",
                           "outer.reach[0] + inner.reach[1]")
      + ", outer.reach[1] + inner.reach[1])")
class Comp:
    """Composition: ``outer`` after ``inner``."""
    outer: SubExpr
    inner: SubExpr


@node(reach="(0, -inf)")
class Eps:
    """The unique substitution into the empty context."""


@node(reach="(" + max_expr("tm.reach", "sub.reach[0]",
                           "(0 if ann is None else ann.reach) + sub.reach[1]")
      + ", sub.reach[1] - 1)")
class Ext:
    """Extend ``sub : Γ → Δ`` with a term for a new entry ``ann : Ty Δ``.

    ``ann is None`` is allowed only over the identity substitution, where the
    checker recovers it as the synthesized type of ``tm``.
    """
    sub: SubExpr
    ann: Optional[TyExpr]
    tm: TmExpr


@node(reach="(1, 1)")
class Wk:
    """Weakening: forgets the newest context entry."""


SubExpr = Union[IdSub, Comp, Eps, Ext, Wk]


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@node(reach=max_expr("sub.reach[0]", "ty.reach + sub.reach[1]"))
class TySub:
    ty: TyExpr
    sub: SubExpr


@node(reach=max_expr("dom.reach", "cod.reach - 1"))
class Pi:
    dom: TyExpr
    cod: TyExpr  # lives in the context extended with dom


@node(reach=max_expr("dom.reach", "cod.reach - 1"))
class Sigma:
    dom: TyExpr
    cod: TyExpr  # lives in the context extended with dom


@node(reach="0")
class Top:
    """Unit type, with definitional eta."""


@node(reach="0")
class Univ:
    level: Level


@node(reach="code.reach")
class El:
    """Decode a term of the universe into a type."""
    code: TmExpr


@node(reach="0")
class Bool:
    pass


@node(reach=max_expr("ty.reach", "lhs.reach", "rhs.reach"))
class IdTy:
    """Propositional equality over ``ty`` between ``lhs`` and ``rhs``."""
    ty: TyExpr
    lhs: TmExpr
    rhs: TmExpr


TyExpr = Union[TySub, Pi, Sigma, Top, Univ, El, Bool, IdTy]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@node(reach=max_expr("sub.reach[0]", "tm.reach + sub.reach[1]"))
class TmSub:
    tm: TmExpr
    sub: SubExpr


@node(reach="1")
class Var0:
    """The zeroth de Bruijn index, typed in a nonempty context."""


@node(reach=max_expr("dom.reach", "body.reach - 1"))
class Lam:
    dom: TyExpr
    body: TmExpr


@node(reach="fn.reach + 1")
class App:
    """Un-application: sends a function term to its body over the extended
    context.  Conventional application ``f $ u`` is the derived
    ``apply1``."""
    fn: TmExpr


@node(reach=max_expr("fst_ty.reach", "snd_ty.reach - 1", "fst.reach",
                     "snd.reach"))
class Pair:
    fst_ty: TyExpr
    snd_ty: TyExpr  # family over the context extended with fst_ty
    fst: TmExpr
    snd: TmExpr


@node(reach="pair.reach")
class Fst:
    pair: TmExpr


@node(reach="pair.reach")
class Snd:
    pair: TmExpr


@node(reach="0")
class Tt:
    pass


@node(reach="ty.reach")
class Code:
    """Code a type as a term of the universe."""
    ty: TyExpr


@node(reach="0")
class TrueLit:
    pass


@node(reach="0")
class FalseLit:
    pass


@node(reach=max_expr("motive.reach - 1", "on_true.reach",
                     "on_false.reach", "scrut.reach"))
class If:
    """Boolean elimination with explicit motive over the Bool-extended
    context."""
    motive: TyExpr
    on_true: TmExpr
    on_false: TmExpr
    scrut: TmExpr


@node(reach="arg.reach")
class Refl:
    arg: TmExpr


@node(reach=max_expr("motive.reach - 2", "base.reach", "eq.reach"))
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

@node(length="0 if prefix is None else prefix.length + 1")
class Ctx:
    """A telescope, as a snoc list: ``entry`` is a type over ``prefix``,
    and the empty telescope ``EMPTY`` has neither.  Every prefix is a node
    of its own, so growing or shrinking a context by one entry is one
    intern lookup or one field read, and a context of n entries holds n
    nodes.  ``length`` counts the entries."""
    prefix: Optional[Ctx] = None
    entry: Optional[TyExpr] = None

    def extend(self, ty: TyExpr) -> Ctx:
        return Ctx(self, ty)

    def pop(self) -> Ctx:
        prefix = self.prefix
        if prefix is None:
            raise ValueError("cannot pop the empty context")
        return prefix

    @property
    def last(self) -> TyExpr:
        entry = self.entry
        if entry is None:
            raise ValueError("empty context has no last entry")
        return entry

    def __len__(self) -> int:
        return self.length

    @property
    def entries(self) -> tuple[TyExpr, ...]:
        """The entries, oldest first: one walk down the prefixes."""
        out = []
        ctx = self
        while ctx.prefix is not None:
            out.append(ctx.entry)
            ctx = ctx.prefix
        out.reverse()
        return tuple(out)

    @staticmethod
    def of(*entries: TyExpr) -> Ctx:
        ctx = EMPTY
        for entry in entries:
            ctx = Ctx(ctx, entry)
        return ctx

    def __repr__(self) -> str:
        return f"Ctx.of({', '.join(map(repr, self.entries))})"


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


def j_binder(dom: TyExpr, lhs: TmExpr) -> TyExpr:
    """The equation binder of ``J`` from ``lhs``, in ``Γ ▷ dom``."""
    return IdTy(TySub(dom, Wk()), TmSub(lhs, Wk()), Var0())


def arrow(dom: TyExpr, cod: TyExpr) -> TyExpr:
    """Non-dependent function type: ``cod`` is weakened over the binder."""
    return Pi(dom, TySub(cod, Wk()))


def spine_depth(sub: SubExpr) -> Optional[int]:
    """Number of weakenings if ``sub`` is a pure composition of ``Wk``.

    The spine ``wk(n)`` builds is read by one loop.  Any other shape is
    summed once per node: read from labelled text, a spine of twenty
    nodes can compose itself a million times."""
    depth = 0
    while type(sub) is Comp and type(sub.outer) is Wk:
        depth += 1
        sub = sub.inner
    if type(sub) is Wk:
        return depth + 1
    if type(sub) is not Comp:
        return None
    depths = {Wk(): 1}
    stack = [sub]
    while stack:
        node = stack.pop()
        if node in depths:
            continue
        if type(node) is not Comp:
            return None
        outer, inner = depths.get(node.outer), depths.get(node.inner)
        if outer is None or inner is None:
            stack += (node, node.outer, node.inner)
        else:
            depths[node] = outer + inner
    return depth + depths[sub]


def var_index(tm: TmExpr) -> Optional[int]:
    """Recognize ``v(n)`` spines; returns ``n`` or None."""
    cls = type(tm)
    if cls is Var0:
        return 0
    if cls is TmSub and type(tm.tm) is Var0:
        return spine_depth(tm.sub)
    return None


# The operator inventory, used by coverage accounting: every node class of
# the three unions, and for context formation the two pseudo-constructors
# for the empty telescope and the telescope extension.
ALL_CONSTRUCTORS = ("CtxEmpty", "CtxExtend") + tuple(
    cls.__name__ for union in (SubExpr, TyExpr, TmExpr)
    for cls in get_args(union))
assert len(ALL_CONSTRUCTORS) == 29


def walk_constructors(x: Union[Expr, Ctx], found: set[str]) -> None:
    """Record every constructor name occurring in ``x`` into ``found``,
    visiting each distinct node once, so a shared DAG costs its own size."""
    if isinstance(x, Ctx):
        found.add("CtxEmpty")
        if len(x):
            found.add("CtxExtend")
        todo = list(x.entries)
    else:
        todo = [x]
    seen = set()
    while todo:
        node = todo.pop()
        if node is None or node in seen:
            continue
        seen.add(node)
        found.add(type(node).__name__)
        todo.extend(getattr(node, name) for name in NODE_FIELDS[type(node)])


# The fields of each node class that hold nodes: all but a ``Level``.
NODE_FIELDS = {cls: tuple(name for name, annotation
                         in cls.__annotations__.items() if annotation != "Level")
               for union in (SubExpr, TyExpr, TmExpr) for cls in get_args(union)}


def _tree_size(x: Expr, sizes: dict) -> int:
    """The tree size of ``x``, not yet in ``sizes``, which it enters."""
    size = 1
    for name in NODE_FIELDS[type(x)]:
        child = getattr(x, name)
        if child is not None:
            known = sizes.get(child)
            size += _tree_size(child, sizes) if known is None else known
    sizes[x] = size
    return size


def tree_dag_sizes(x: Expr) -> tuple[int, int]:
    """The number of nodes of ``x`` as a tree, a shared node counted once
    per occurrence, and as a DAG, each distinct node counted once.  The
    tree size is summed once per distinct node, so both cost the DAG
    size."""
    sizes = {}
    return _tree_size(x, sizes), len(sizes)
