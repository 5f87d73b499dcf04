from typing import get_args

import pytest

from ttk.cli import main
from ttk.generate import GenConfig, GenExhausted, InstanceGen, derive_seed
from ttk.parametricity import param_entity
from ttk.syntax import (
    App, Bool, Code, Comp, Ctx, EMPTY, El, Eps, Ext, FalseLit, Fst, IdSub,
    IdTy, If, J, Lam, Pair, Pi, Refl, Sigma, Snd, SubExpr, Top, TrueLit, Tt,
    TmExpr, TmSub, TyExpr, TySub, Univ, Var0, Wk, apply1, arrow, lift, v,
    walk_constructors,
)
from ttk.surface import (
    DERIVED, KEYWORDS, ParseError, parse_directive, parse_entity, parse_tm,
    parse_ty, parse_sub, print_ctx, print_entity, print_sub, print_tm,
    print_ty, read_sexpr,
)
from ttk.syntax import tree_dag_sizes
from ttk.termify import termify_entity


def _tm(text):
    return parse_tm(read_sexpr(text))


def test_parse_examples():
    assert _tm("(lam (bool) (q))") == Lam(Bool(), Var0())
    assert _tm("(v 1)") == TmSub(Var0(), Wk())
    assert _tm("(lam (u 0) (lam (el (q)) (q)))") == \
        Lam(Univ(0), Lam(El(Var0()), Var0()))


def test_parse_sugar():
    assert parse_ty(read_sexpr("(arrow (bool) (top))")) == arrow(Bool(), Top())
    assert _tm("(dollar (lam (bool) (q)) (true))") == \
        apply1(Lam(Bool(), Var0()), TrueLit())
    assert parse_sub(read_sexpr("(lift (eps) (bool))")) == lift(Eps(), Bool())
    assert parse_sub(read_sexpr("(ext (id) (true))")) == \
        Ext(IdSub(), None, TrueLit())


def test_print_canonical_forms():
    assert print_tm(TrueLit()) == "(true)"
    assert print_tm(Var0()) == "(q)"
    assert print_tm(TmSub(Var0(), Comp(Wk(), Wk()))) == "(v 2)"
    assert print_tm(v(3)) == "(v 3)"
    assert print_ctx(EMPTY) == "(ctx)"
    assert print_ctx(Ctx.of(Bool(), Top())) == "(ctx (bool) (top))"
    assert print_sub(Ext(IdSub(), None, TrueLit())) == "(ext (id) (true))"


def test_round_trip_parse_after_print():
    samples = [
        Lam(Univ(0), Lam(El(Var0()), Var0())),
        apply1(Lam(Bool(), Var0()), TrueLit()),
        v(2),
        Code(Pi(Bool(), TySub(Top(), Wk()))),
    ]
    for tm in samples:
        assert _tm(print_tm(tm)) == tm


def test_print_after_parse_is_canonicalization():
    # spacing and comments are erased; sugar is re-introduced
    text = "(tmsub   (q) ; comment\n  (comp (p) (p)))"
    once = print_tm(_tm(text))
    assert once == "(v 2)"
    assert print_tm(_tm(once)) == once


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        read_sexpr("(lam (bool)\n  (q)")
    assert info.value.line == 1
    with pytest.raises(ParseError):
        parse_tm(read_sexpr("(frobnicate)"))
    with pytest.raises(ParseError):
        parse_tm(read_sexpr("(lam (bool))"))  # arity
    with pytest.raises(ParseError):
        read_sexpr("(q) (q)")  # trailing content
    with pytest.raises(ParseError):
        parse_tm(read_sexpr("(v x)"))  # not a numeral


def test_entity_sort_dispatch():
    assert type(parse_entity(read_sexpr("(ctx (bool))"))) is Ctx
    assert isinstance(parse_entity(read_sexpr("(p)")), SubExpr)
    assert isinstance(parse_entity(read_sexpr("(bool)")), TyExpr)
    assert isinstance(parse_entity(read_sexpr("(true)")), TmExpr)


def test_directive_parsing():
    d = parse_directive("(check-tm (ctx (bool)) (q))")
    assert d.kind == "check-tm"
    assert d.args[0] == Ctx.of(Bool())
    d = parse_directive("(conv-sub (ctx) (ctx) (id) (id))")
    assert d.kind == "conv-sub"
    d = parse_directive("(termify (ctx (bool)))")
    assert d.args == (Ctx.of(Bool()), None)
    d = parse_directive("(termify (ctx) (true))")
    assert d.args == (EMPTY, TrueLit())
    d = parse_directive("(inject (ctx (bool)) (p))")
    assert d.args == (Ctx.of(Bool()), Wk())
    d = parse_directive("(canon (true))")
    assert d.kind == "canon"
    with pytest.raises(ParseError):
        parse_directive("(xyzzy (ctx))")


def test_keyword_table_covers_the_syntax_once():
    classes = set()
    for union in (SubExpr, TyExpr, TmExpr):
        classes.update(get_args(union))
    assert set(KEYWORDS) == classes
    keywords = list(KEYWORDS.values()) + list(DERIVED) + ["ctx"]
    assert len(keywords) == len(set(keywords)) == 32


# One instance of every node class, each field filled; Ext appears both
# with and without its annotation, Univ at two levels.
ALL_FORMS = [
    IdSub(), Comp(Wk(), Eps()), Eps(),
    Ext(IdSub(), None, TrueLit()),
    Ext(Wk(), Bool(), Var0()), Wk(),
    TySub(Bool(), Wk()), Pi(Bool(), Top()),
    Sigma(Bool(), Top()), Top(), Univ(0),
    Univ(12), El(Code(Bool())), Bool(),
    IdTy(Bool(), TrueLit(), FalseLit()),
    TmSub(TrueLit(), Eps()), Var0(),
    Lam(Bool(), Var0()), App(Lam(Bool(), Var0())),
    Pair(Bool(), Top(), TrueLit(), Tt()),
    Fst(Var0()), Snd(Var0()), Tt(),
    Code(Univ(1)), TrueLit(), FalseLit(),
    If(Bool(), TrueLit(), FalseLit(), Var0()),
    Refl(TrueLit()), J(Bool(), TrueLit(), Refl(TrueLit())),
]


def test_round_trip_covers_every_constructor():
    found = set()
    for entity in ALL_FORMS:
        walk_constructors(entity, found)
        text = print_entity(entity)
        assert parse_entity(read_sexpr(text)) == entity, text
    assert found == {cls.__name__ for cls in KEYWORDS}
    assert print_sub(Ext(IdSub(), None, TrueLit())) == "(ext (id) (true))"
    assert print_ty(Univ(12)) == "(u 12)"


def test_derived_forms_expand_and_round_trip():
    cases = [
        ("(lift (p) (bool))", lift(Wk(), Bool())),
        ("(arrow (bool) (top))", arrow(Bool(), Top())),
        ("(v 3)", v(3)),
        ("(dollar (lam (bool) (q)) (true))",
         apply1(Lam(Bool(), Var0()), TrueLit())),
    ]
    for text, entity in cases:
        assert parse_entity(read_sexpr(text)) == entity
        printed = print_entity(entity)
        assert parse_entity(read_sexpr(printed)) == entity
    assert print_tm(v(3)) == "(v 3)"


@pytest.mark.parametrize("text, message", [
    ("(frobnicate)", "unknown term keyword 'frobnicate'"),
    ("(bool)", "unknown term keyword 'bool'"),
    ("(lam (bool))", "lam takes 2 argument(s), got 1"),
    ("(tt (q))", "tt takes 0 argument(s), got 1"),
    ("(v x)", "expected a decimal natural for a de Bruijn index"),
    ("(v ¹)", "expected a decimal natural for a de Bruijn index"),
    ("(code (u -1))", "expected a decimal natural for a universe level"),
    ("(code (u (q)))", "expected a decimal natural for a universe level"),
    ("(tmsub (q) (ext (id)))", "ext takes 3 argument(s), got 1"),
    ("(tmsub (q) (ext (id) (bool) (q) (q)))", "ext takes 3 argument(s), got 4"),
    ("(lam bool (q))", "expected a type"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_tm(read_sexpr(text))
    assert info.value.message == message


def test_reader_error_positions():
    cases = [
        ("", "empty input", 1, 1),
        ("  ; only a comment\n", "empty input", 1, 1),
        (")", "unexpected ')'", 1, 1),
        ("(q) (q)", "trailing content after the directive", 1, 5),
        ("(lam (bool)\n  (q)", "unclosed '('", 1, 1),
        ("(a\n\t(b (c)", "unclosed '('", 2, 2),
        ("( (q))", "expected a keyword after '('", 1, 3),
        ("(x\r\n  ())", "expected a keyword after '('", 2, 4),
    ]
    for text, message, line, col in cases:
        with pytest.raises(ParseError) as info:
            read_sexpr(text)
        assert (info.value.message, info.value.line, info.value.col) == \
            (message, line, col), text


def test_directive_errors():
    for text, message in [
        ("(xyzzy (ctx))", "unknown directive 'xyzzy'"),
        ("(check-tm (ctx))", "check-tm takes 2 argument(s), got 1"),
        ("(termify)", "termify takes 1 or 2 argument(s), got 0"),
        ("(inject (ctx) (ctx))", "entity argument cannot be a context"),
        ("(param (ctx) (frob))", "unknown keyword 'frob'"),
        ("(nf (bool) (q))", "expected a context (ctx ...)"),
        ("(termify (ctx) foo)", "expected a context, substitution, type or term"),
        ("(inject (ctx) 7)", "expected a context, substitution, type or term"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_directive(text)
        assert info.value.message == message, text


# ---------------------------------------------------------------------------
# Labels: #k=(...) and #k#
# ---------------------------------------------------------------------------

def test_repeated_compound_forms_print_once_with_labels():
    sig, fn = Sigma(Bool(), Top()), Pi(Bool(), Top())
    # numbered in order of first appearance; a label may sit inside one
    assert print_tm(Pair(sig, fn, Code(fn), Code(sig))) == \
        "(pair #1=(sigma (bool) (top)) #2=(pi (bool) (top)) (code #2#) " \
        "(code #1#))"
    assert print_ty(IdTy(Pi(sig, sig), Code(Pi(sig, sig)), Code(Bool()))) \
        == "(idt #1=(pi #2=(sigma (bool) (top)) #2#) (code #1#) (code (bool)))"
    # labels start again for each printed entity
    assert print_ctx(Ctx.of(fn, fn)) == "(ctx #1=(pi (bool) (top)) #1#)"
    assert print_sub(Ext(IdSub(), El(Code(fn)), Code(fn))) == \
        "(ext (id) (el #1=(code (pi (bool) (top)))) #1#)"


def test_forms_without_sub_forms_are_never_labelled():
    assert print_tm(Pair(Univ(0), Univ(0), v(1), v(1))) == \
        "(pair (u 0) (u 0) (v 1) (v 1))"
    assert print_tm(Pair(Bool(), Bool(), TrueLit(), TrueLit())) == \
        "(pair (bool) (bool) (true) (true))"
    # a (v n) spine is one form: its Comp and Wk nodes are not counted
    assert print_tm(Pair(Bool(), TySub(Bool(), Comp(Wk(), Wk())), v(2),
                         TrueLit())) == \
        "(pair (bool) (tysub (bool) (comp (p) (p))) (v 2) (true))"


def test_text_without_repeats_is_unchanged():
    for entity in ALL_FORMS:
        assert "#" not in print_entity(entity)
    assert print_tm(Lam(Univ(0), Lam(El(Var0()), Var0()))) == \
        "(lam (u 0) (lam (el (q)) (q)))"


def test_a_reference_is_the_labelled_sexpr():
    s = read_sexpr("(pair #1=(sigma (bool) (top)) (bool) #2=(code #1#) "
                   "(fst #2#))")
    assert s.items[2].items[0] is s.items[0]
    assert s.items[3].items[0] is s.items[2]
    assert s.items[0].label == 1 and s.items[1].label is None


def test_a_reference_means_the_latest_completed_definition():
    s = read_sexpr("(f #1=(a) #1=(b #1#) #1# #1=(c) #1#)")
    a, b, ref, c, last = s.items
    assert b.items[0] is a
    assert ref is b
    assert last is c
    # Pasting separately printed entities redefines their labels, as the
    # generated directives of the benchmark and the fuzz test do.
    ty = Pi(Sigma(Bool(), Top()), Sigma(Bool(), Top()))
    tm = Lam(ty, Var0())
    T, M = print_ty(ty), print_tm(tm)
    assert "#1=" in T and "#1=" in M
    d = parse_directive(f"(conv-tm (ctx) (pi {T} {T}) {M} (tmsub {M} (id)))")
    assert d.args[1] is Pi(ty, ty)
    assert d.args[2] is tm
    assert d.args[3] is TmSub(tm, IdSub())


def test_labels_may_be_followed_by_space_and_comments():
    assert _tm("(lam #1= ; a comment\n (bool) (code #1#))") == \
        Lam(Bool(), Code(Bool()))


@pytest.mark.parametrize("text, message, line, col", [
    ("(lam (bool) #1#)", "undefined label #1#", 1, 13),
    ("(pair (bool) (bool) #2# #2=(true))", "undefined label #2#", 1, 21),
    ("#1=(lam (bool) #1#)",
     "label #1# refers to a list that is not closed yet", 1, 16),
    ("(lam (bool)\n  #1=(app #1#))",
     "label #1# refers to a list that is not closed yet", 2, 11),
    ("(lam (bool) #1= q)", "label #1= must be followed by '('", 1, 13),
    ("(lam (bool) #1= #1#)", "label #1= must be followed by '('", 1, 13),
    ("(lam (bool) #1=)", "label #1= must be followed by '('", 1, 13),
    ("(lam (bool) #1=", "label #1= must be followed by '('", 1, 13),
    ("(lam #1=(bool) (#1# (q)))", "expected a keyword after '('", 1, 17),
    ("(#1=(lam) (q))", "expected a keyword after '('", 1, 2),
    ("(lam #a=(bool) (q))",
     "malformed label '#a=': expected #k= or #k# with k a decimal natural",
     1, 6),
    ("(lam #1=(bool) #1x#)",
     "malformed label '#1x#': expected #k= or #k# with k a decimal natural",
     1, 16),
    ("(lam #¹=(bool) (q))",
     "malformed label '#¹=': expected #k= or #k# with k a decimal natural",
     1, 6),
    ("(lam (bool) #)",
     "malformed label '#': expected #k= or #k# with k a decimal natural",
     1, 13),
])
def test_label_errors_carry_position(tmp_path, capsys, text, message, line,
                                     col):
    with pytest.raises(ParseError) as info:
        read_sexpr(text)
    assert (info.value.message, info.value.line, info.value.col) == \
        (message, line, col)
    path = tmp_path / "bad.tt"
    path.write_text(f"(check-tm (ctx) {text})", encoding="utf-8")
    code = main(["run", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert (code, lines[-1]) == (2, "RESULT: error parse")
    assert lines[0].startswith("parse error: ")


def test_a_labelled_list_is_parsed_once_per_sort():
    # 2^30 leaves as a tree; thirty lists as read
    text = "#0=(bool)"
    for k in range(1, 31):
        text = f"#{k}=(sigma {text} #{k - 1}#)"
    ty = parse_ty(read_sexpr(text))
    assert tree_dag_sizes(ty) == (2 ** 31 - 1, 31)
    assert print_ty(ty).count("sigma") == 30
    with pytest.raises(ParseError) as info:
        parse_tm(read_sexpr("(pair #1=(bool) (bool) #1# (true))"))
    assert info.value.message == "unknown term keyword 'bool'"


def test_walk_constructors_visits_each_shared_node_once():
    # 2^40 leaves as a tree: a walk of the tree would not return
    text = "#0=(true)"
    for k in range(1, 41):
        text = (f"#{k}=(pair (bool) (tysub (bool) (p)) (fst {text}) "
                f"(snd #{k - 1}#))")
    tm = parse_tm(read_sexpr(text))
    tree, dag = tree_dag_sizes(tm)
    assert tree > 2 ** 40 and dag == 3 * 40 + 4
    found = set()
    walk_constructors(tm, found)
    assert found == {"Pair", "Bool", "TySub", "Wk", "Fst", "Snd", "TrueLit"}
    found = set()
    walk_constructors(Ctx.of(El(tm)), found)
    assert found == {"CtxEmpty", "CtxExtend", "El", "Pair", "Bool", "TySub",
                     "Wk", "Fst", "Snd", "TrueLit"}


def test_a_shared_weakening_spine_prints_as_one_variable():
    text = "#0=(p)"
    for k in range(1, 41):
        text = f"#{k}=(comp {text} #{k - 1}#)"
    tm = parse_tm(read_sexpr(f"(tmsub (q) {text})"))
    assert print_tm(tm) == f"(v {2 ** 40})"
    assert print_tm(TmSub(Var0(), Comp(Comp(Wk(), Wk()), Wk()))) == "(v 3)"
    assert print_tm(TmSub(Var0(), Comp(Comp(Wk(), Eps()), Wk()))) == \
        "(tmsub (q) (comp (comp (p) (eps)) (p)))"


def _nested_pi(n):
    text = "(bool)"
    for _ in range(n):
        text = f"(pi (bool) {text})"
    return parse_ty(read_sexpr(text))


def _payloads(ctx, entity):
    yield termify_entity(ctx, entity).payload
    yield param_entity(ctx, entity).payload


def _round_trips(entity):
    text = print_entity(entity)
    assert parse_entity(read_sexpr(text)) is entity
    return text


@pytest.mark.parametrize("n", range(2, 17))
def test_translated_nested_pi_round_trips(n):
    for payload in _payloads(EMPTY, _nested_pi(n)):
        assert "#1=" in _round_trips(payload)


def test_generated_entities_and_their_payloads_round_trip():
    sorts, labelled = set(), 0
    for index in range(40):
        gen = InstanceGen(GenConfig(seed=derive_seed(5, "labels", index),
                                    max_nodes=5, max_ctx_len=2))
        try:
            ctx = gen.draw_ctx()
            ty = gen.draw_ty(ctx)
            drawn = [("ctx", None), ("ty", ty), ("tm", gen.draw_tm(ctx, ty)),
                     ("sub", gen.draw_sub(ctx, gen.draw_ctx()))]
        except GenExhausted:
            continue
        _round_trips(ctx)
        for sort, entity in drawn:
            if entity is not None:
                _round_trips(entity)
            for payload in _payloads(ctx, entity):
                labelled += "#1=" in _round_trips(payload)
            sorts.add(sort)
    assert sorts == {"ctx", "ty", "tm", "sub"}
    assert labelled >= 40


def test_translated_nested_pi_prints_linear_in_the_dag():
    for translate in (termify_entity, param_entity):
        trees, dags, texts = [], [], []
        for n in (4, 8, 12, 16):
            payload = translate(EMPTY, _nested_pi(n)).payload
            tree, dag = tree_dag_sizes(payload)
            trees.append(tree)
            dags.append(dag)
            texts.append(len(print_entity(payload)))
        # the tree grows 16-fold per four binders, ...
        assert all(b > 10 * a for a, b in zip(trees, trees[1:]))
        # ... the DAG and the text by about the same amount every step
        for sizes in (dags, texts):
            steps = [b - a for a, b in zip(sizes, sizes[1:])]
            assert 0 < max(steps) <= 1.1 * min(steps), sizes
    assert dags[0] < dags[-1] < 4 * dags[0]
