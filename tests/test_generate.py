import hashlib

import pytest

from ttk import caches
from ttk.syntax import ALL_CONSTRUCTORS, Bool, EMPTY, TySub, walk_constructors, wk
from ttk.generate import (
    GenConfig, GenExhausted, InstanceGen, _vars_by_type, derive_seed, gen_instance,
)
from ttk.typecheck import (
    check_ctx, ctxs_convertible, infer_ty, normalize_ty_in, synth_sub, synth_tm,
    types_convertible,
)
from ttk.equations import SCHEMA_NAMES, check_instance
from ttk.suites import _dump_instance
from ttk.surface import read_sexpr


def test_zero_budget_ctx_is_empty():
    for seed in range(10):
        cfg = GenConfig(seed=seed, max_nodes=0)
        assert gen_instance(cfg, ("ctx",)) == EMPTY


def test_determinism_same_seed_same_draws():
    cfg = GenConfig(seed=123)
    for shape in (("ctx",), ("tm", EMPTY, Bool()), ("ty", EMPTY)):
        assert gen_instance(cfg, shape) == gen_instance(cfg, shape)


def test_different_seeds_vary():
    draws = {gen_instance(GenConfig(seed=s), ("tm", EMPTY, Bool())) for s in range(30)}
    assert len(draws) > 1


def test_emitted_terms_typecheck():
    for s in range(100):
        tm = gen_instance(GenConfig(seed=s), ("tm", EMPTY, Bool()))
        assert types_convertible(EMPTY, synth_tm(EMPTY, tm), Bool())


def _retrying(shape_fn, seed, attempts=20):
    for k in range(attempts):
        try:
            return shape_fn(derive_seed(seed, "retry", k))
        except GenExhausted:
            continue
    raise AssertionError("generator kept exhausting fuel")


def test_emitted_contexts_and_types_typecheck():
    for s in range(40):
        ctx = _retrying(lambda sd: gen_instance(GenConfig(seed=sd), ("ctx",)), s)
        check_ctx(ctx)
        ty = _retrying(lambda sd: gen_instance(GenConfig(seed=sd), ("ty", ctx)), s + 1000)
        infer_ty(ctx, ty)


def test_emitted_subs_typecheck():
    def draw(sd):
        gen = InstanceGen(GenConfig(seed=sd))
        dom = gen.draw_ctx()
        cod = gen.draw_ctx()
        return dom, cod, gen.draw_sub(dom, cod)

    for s in range(40):
        dom, cod, sub = _retrying(draw, derive_seed(s, "subs"))
        assert ctxs_convertible(synth_sub(dom, sub), cod)


def test_constructor_coverage():
    found: set[str] = set()
    draws = 0
    seed = 0
    while draws < 1000:
        gen = InstanceGen(GenConfig(seed=derive_seed(41, "coverage", seed)))
        seed += 1
        try:
            ctx = gen.draw_ctx()
            ty = gen.draw_ty(ctx)
            tm = gen.draw_tm(ctx, ty)
            cod = gen.draw_ctx()
            sub = gen.draw_sub(ctx, cod)
        except GenExhausted:
            continue
        draws += 4
        for entity in (ctx, ty, tm, cod, sub):
            walk_constructors(entity, found)
    missing = set(ALL_CONSTRUCTORS) - found
    assert not missing, f"constructors never generated: {sorted(missing)}"


def test_derive_seed_stable():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)


def test_schema_registry_complete():
    assert len(SCHEMA_NAMES) == 38


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_each_schema_yields_accepted_instances(name):
    accepted = 0
    attempt = 0
    while accepted < 3:
        cfg = GenConfig(seed=derive_seed(99, name, attempt), max_nodes=8)
        attempt += 1
        assert attempt < 60, f"schema {name} kept exhausting fuel"
        try:
            inst = gen_instance(cfg, ("eq", name))
        except GenExhausted:
            continue
        assert check_instance(inst), f"schema {name} rejected {inst}"
        accepted += 1


def _unfolded(s) -> str:
    """The text of a read s-expression with every ``#k#`` written out."""
    if s.head is None:
        return s.atom
    return "(" + " ".join([s.head] + [_unfolded(item) for item in s.items]) + ")"


def _unlabelled(line: str) -> str:
    """A dump line with its s-expression unfolded, as the printer wrote it
    before it kept sharing: the digest below pins instances as trees."""
    start = line.find("(")
    if start < 0:
        return line
    return line[:start] + _unfolded(read_sexpr(line[start:]))


def _stream_digest(seeds: int) -> str:
    h = hashlib.md5()
    for seed in range(seeds):
        for name in SCHEMA_NAMES:
            cfg = GenConfig(seed=derive_seed(seed, "stream", name))
            try:
                lines = [_unlabelled(line) for line in
                         _dump_instance(gen_instance(cfg, ("eq", name)))]
            except GenExhausted:
                lines = ["exhausted"]
            h.update("\n".join([name] + lines + [""]).encode())
    return h.hexdigest()


def test_seeds_keep_their_instances():
    # md5 of the printed equation instances of 10 seeds x 38 schemas.  A
    # changed digest means every seed of every suite now names different
    # instances, and suite results on old seeds no longer compare.
    pinned = "bca457bab781c15244b4ee0639bb00ed"
    assert _stream_digest(10) == pinned
    assert _stream_digest(10) == pinned  # with the memo tables now warm
    caches.clear_all()
    assert _stream_digest(10) == pinned


def _ctx_goal_pairs(count: int):
    """Drawn contexts with goals over them: a drawn type, and the type of
    each variable, so that most goals have at least one candidate."""
    pairs = []
    seed = 0
    while len(pairs) < count:
        gen = InstanceGen(GenConfig(seed=derive_seed(17, "var-table", seed)))
        seed += 1
        try:
            ctx = gen.draw_ctx()
            goals = [gen.draw_ty(ctx)]
        except GenExhausted:
            continue
        goals += [TySub(ctx.entries[-1 - k], wk(k + 1)) for k in range(len(ctx))]
        pairs += [(ctx, goal) for goal in goals]
    return pairs


def test_variable_table_matches_conversion_loop():
    matched = 0
    for ctx, goal in _ctx_goal_pairs(600):
        nf = normalize_ty_in(ctx, goal)
        reference = [k for k in range(len(ctx))
                     if types_convertible(ctx, TySub(ctx.entries[-1 - k], wk(k + 1)), nf)]
        assert list(_vars_by_type(ctx).get(nf, ())) == reference
        matched += bool(reference)
    assert matched >= 300


def test_normalization_is_idempotent():
    for ctx, goal in _ctx_goal_pairs(600):
        nf = normalize_ty_in(ctx, goal)
        assert normalize_ty_in(ctx, nf) is nf
