import pytest

from ttk.syntax import ALL_CONSTRUCTORS, Bool, EMPTY, walk_constructors
from ttk.generate import GenConfig, GenExhausted, InstanceGen, derive_seed, gen_instance
from ttk.typecheck import check_ctx, ctxs_convertible, infer_ty, synth_sub, synth_tm, types_convertible
from ttk.equations import SCHEMA_NAMES, check_instance


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
