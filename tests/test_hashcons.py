"""Hash-consing of syntax and values: equal nodes are one object."""

import gc
import inspect
import weakref
from dataclasses import FrozenInstanceError

import pytest

from ttk import caches, syntax, values
from ttk.generate import GenConfig, GenExhausted, InstanceGen, derive_seed
from ttk.surface import (
    parse_ctx, parse_sub, parse_tm, parse_ty, print_ctx, print_sub, print_tm,
    print_ty, read_sexpr,
)
from ttk.syntax import Bool, Ctx, EMPTY, Pi, TySub, Univ, Wk


def _node_classes(module):
    return [cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and hasattr(cls, "_interned")]


# One sample argument per field annotation; each call builds it afresh.
_SAMPLES = {
    "SubExpr": lambda: syntax.Comp(syntax.Wk(), syntax.IdSub()),
    "TyExpr": lambda: syntax.Pi(syntax.Bool(), syntax.Top()),
    "Optional[TyExpr]": lambda: syntax.Bool(),
    "TmExpr": lambda: syntax.Lam(syntax.Bool(), syntax.Var0()),
    "Union[TmExpr, TyExpr]": lambda: syntax.Var0(),
    "Level": lambda: 1,
    "int": lambda: 2,
    "tuple[TyExpr, ...]": lambda: tuple([syntax.Bool(), syntax.Top()]),
    "Env": lambda: tuple([syntax.TrueLit(), syntax.Tt()]),
    "TyVal": lambda: syntax.Bool(),
    "Val": lambda: syntax.TrueLit(),
    "Neutral": lambda: values.NVar(0),
    "VNe": lambda: values.fresh(0, syntax.Bool()),
    "Closure": lambda: values.Closure((), syntax.Bool()),
}


def _build(cls):
    fields = cls.__dataclass_fields__.values()
    return cls(*(_SAMPLES[f.type]() for f in fields))


def test_every_node_class_is_interned():
    classes = _node_classes(syntax) + _node_classes(values)
    assert len(classes) == 28 + 15
    for cls in classes:
        first, second = _build(cls), _build(cls)
        assert first is second, cls.__name__
        assert first == second and hash(first) == hash(second)


def test_default_and_keyword_arguments_share_one_node():
    assert Ctx() is Ctx(()) is Ctx(entries=()) is EMPTY
    assert Pi(dom=Bool(), cod=Bool()) is Pi(Bool(), cod=Bool()) is Pi(Bool(), Bool())
    assert EMPTY.extend(Bool()) is Ctx.of(Bool()) is Ctx((Bool(),))


def test_nodes_are_frozen_and_slotted():
    node = Pi(Bool(), Bool())
    for target in (node, Bool(), values.fresh(0, Bool()), EMPTY):
        assert not hasattr(target, "__dict__")
    with pytest.raises(FrozenInstanceError):
        node.dom = Univ(0)
    with pytest.raises(FrozenInstanceError):
        del node.cod
    with pytest.raises(FrozenInstanceError):
        Bool().extra = 1
    assert node.dom is Bool() and node.cod is Bool()


def test_repr_keeps_the_dataclass_format():
    assert repr(Pi(Bool(), TySub(Bool(), Wk()))) == \
        "Pi(dom=Bool(), cod=TySub(ty=Bool(), sub=Wk()))"
    assert repr(Ctx.of(Bool())) == "Ctx(entries=(Bool(),))"
    assert repr(values.NVar(3)) == "NVar(lvl=3)"


@pytest.mark.parametrize("build", [
    lambda: Pi(Bool()),
    lambda: Pi(Bool(), Bool(), Bool()),
    lambda: Pi(Bool(), cod=Bool(), codomain=Bool()),
    lambda: Ctx((), ()),
    lambda: Bool(Bool()),
    lambda: Wk(sub=Wk()),
], ids=["missing", "extra", "unknown-keyword", "default-plus-extra",
        "nullary-positional", "nullary-keyword"])
def test_wrong_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_nullary_node_is_one_object_for_the_process():
    # Only weak references survive the clear: the node itself must too.
    refs = [weakref.ref(x) for x in (Bool(), Wk(), syntax.Top(), syntax.TrueLit())]
    caches.clear_all()
    gc.collect()
    after = (Bool(), Wk(), syntax.Top(), syntax.TrueLit())
    assert all(ref() is node for ref, node in zip(refs, after))


def test_nodes_survive_clearing_the_memo_tables():
    before = Pi(Bool(), TySub(Bool(), Wk()))
    caches.clear_all()
    assert Pi(Bool(), TySub(Bool(), Wk())) is before
    assert Ctx() is EMPTY


def _entities(count):
    found = 0
    case = 0
    while found < count:
        gen = InstanceGen(GenConfig(seed=derive_seed(17, "hashcons", case)))
        case += 1
        try:
            ctx = gen.draw_ctx()
            ty = gen.draw_ty(ctx)
            yield "ctx", ctx
            yield "ty", ty
            yield "tm", gen.draw_tm(ctx, ty)
            yield "sub", gen.draw_sub(ctx, gen.draw_ctx())
        except GenExhausted:
            continue
        found += 1


def test_parse_after_print_returns_the_same_node():
    surface = {"ctx": (print_ctx, parse_ctx), "ty": (print_ty, parse_ty),
               "tm": (print_tm, parse_tm), "sub": (print_sub, parse_sub)}
    seen = set()
    for sort, entity in _entities(60):
        show, parse = surface[sort]
        assert parse(read_sexpr(show(entity))) is entity
        seen.add(sort)
    assert seen == set(surface)


def test_dropped_node_lives_until_the_sweep():
    table = Univ._interned
    node = Univ(7001)
    gone = weakref.ref(node)
    del node
    gc.collect()
    assert gone() is not None and table[(Univ, 7001)] is gone()
    caches.clear_all()
    assert gone() is None
    assert (Univ, 7001) not in table


def test_held_node_survives_every_sweep():
    held = Pi(Univ(7002), Bool())
    caches.clear_all()
    caches.clear_all()
    assert Pi(Univ(7002), Bool()) is held
    assert Univ(7002) is held.dom


def test_one_sweep_frees_a_whole_dead_chain():
    # each node is newer than its child, so only a newest-first pass frees
    # the chain in one sweep; the first clear frees what earlier tests dropped
    caches.clear_all()
    table = Univ._interned
    before = len(table)
    chain = Univ(7003)
    for _ in range(3000):
        chain = syntax.Fst(chain)
    assert len(table) == before + 3001
    gone = weakref.ref(chain)
    del chain
    caches.clear_all()
    assert gone() is None
    assert len(table) == before
