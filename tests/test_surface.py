from typing import get_args

import pytest

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
    assert parse_entity(read_sexpr("(ctx (bool))"))[0] == "ctx"
    assert parse_entity(read_sexpr("(p)"))[0] == "sub"
    assert parse_entity(read_sexpr("(bool)"))[0] == "ty"
    assert parse_entity(read_sexpr("(true)"))[0] == "tm"


def test_directive_parsing():
    d = parse_directive("(check-tm (ctx (bool)) (q))")
    assert d.kind == "check-tm"
    assert d.args[0] == Ctx.of(Bool())
    d = parse_directive("(conv-sub (ctx) (ctx) (id) (id))")
    assert d.kind == "conv-sub"
    d = parse_directive("(termify (ctx (bool)))")
    assert d.args[0] == "ctx"
    d = parse_directive("(termify (ctx) (true))")
    assert d.args[0] == "tm"
    d = parse_directive("(inject (ctx (bool)) (p))")
    assert d.args[0] == "sub"
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
    ("sub", IdSub()), ("sub", Comp(Wk(), Eps())), ("sub", Eps()),
    ("sub", Ext(IdSub(), None, TrueLit())),
    ("sub", Ext(Wk(), Bool(), Var0())), ("sub", Wk()),
    ("ty", TySub(Bool(), Wk())), ("ty", Pi(Bool(), Top())),
    ("ty", Sigma(Bool(), Top())), ("ty", Top()), ("ty", Univ(0)),
    ("ty", Univ(12)), ("ty", El(Code(Bool()))), ("ty", Bool()),
    ("ty", IdTy(Bool(), TrueLit(), FalseLit())),
    ("tm", TmSub(TrueLit(), Eps())), ("tm", Var0()),
    ("tm", Lam(Bool(), Var0())), ("tm", App(Lam(Bool(), Var0()))),
    ("tm", Pair(Bool(), Top(), TrueLit(), Tt())),
    ("tm", Fst(Var0())), ("tm", Snd(Var0())), ("tm", Tt()),
    ("tm", Code(Univ(1))), ("tm", TrueLit()), ("tm", FalseLit()),
    ("tm", If(Bool(), TrueLit(), FalseLit(), Var0())),
    ("tm", Refl(TrueLit())), ("tm", J(Bool(), TrueLit(), Refl(TrueLit()))),
]


def test_round_trip_covers_every_constructor():
    found = set()
    for sort, entity in ALL_FORMS:
        walk_constructors(entity, found)
        text = print_entity(sort, entity)
        assert parse_entity(read_sexpr(text)) == (sort, entity), text
    assert found == {cls.__name__ for cls in KEYWORDS}
    assert print_sub(Ext(IdSub(), None, TrueLit())) == "(ext (id) (true))"
    assert print_ty(Univ(12)) == "(u 12)"


def test_derived_forms_expand_and_round_trip():
    cases = [
        ("(lift (p) (bool))", "sub", lift(Wk(), Bool())),
        ("(arrow (bool) (top))", "ty", arrow(Bool(), Top())),
        ("(v 3)", "tm", v(3)),
        ("(dollar (lam (bool) (q)) (true))", "tm",
         apply1(Lam(Bool(), Var0()), TrueLit())),
    ]
    for text, sort, entity in cases:
        assert parse_entity(read_sexpr(text)) == (sort, entity)
        printed = print_entity(sort, entity)
        assert parse_entity(read_sexpr(printed)) == (sort, entity)
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
        ("(termify)", "termify takes 2 argument(s), got 0"),
        ("(inject (ctx) (ctx))", "entity argument cannot be a context"),
        ("(param (ctx) (frob))", "unknown keyword 'frob'"),
        ("(nf (bool) (q))", "expected a context (ctx ...)"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_directive(text)
        assert info.value.message == message, text
