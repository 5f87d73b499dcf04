"""S-expression surface syntax: reader, parser, canonical printer, directives.

One table is the single source of the surface keywords: ``KEYWORDS`` names
every node class of ``syntax``, and a form's arguments are the class's
dataclass fields, in order.  Their sorts are read from the field types: a
substitution, type or term; ``Optional[TyExpr]``, which may be left out, as
in ``(ext s t)``; and ``Level``, a decimal natural.  ``DERIVED`` adds the
derived forms, each with its builder and argument sorts: ``(v n)`` is the
n-fold weakening spine, and ``(arrow a b)``, ``(dollar f x)`` and
``(lift s a)`` expand to their definitions at parse time.  The parser, the
printer and ``parse_entity`` are generic over the two tables.

The surface is nameless like the core calculus, so no elaboration happens
here.  Printing is canonical: lowercase keywords, single spaces, full
parenthesization, and weakening spines re-sugared to ``(v n)``.

A directive file holds exactly one directive s-expression; ``;`` starts a
comment.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional, get_args

from .syntax import (
    App, Bool, Code, Comp, Ctx, El, Eps, Ext, FalseLit, Fst, IdSub, IdTy, If,
    J, Lam, Pair, Pi, Refl, Sigma, Snd, SubExpr, Top, TrueLit, Tt, TmExpr,
    TmSub, TyExpr, TySub, Univ, Var0, Wk, apply1, arrow, lift, v, var_index,
)


class LimitError(Exception):
    """Input past one of the reader's documented bounds: too many digits
    in a natural, or a de Bruijn index too large to check."""


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

class SExpr(NamedTuple):
    head: Optional[str]           # None for a bare atom
    items: tuple                  # sub-SExprs (for lists, excluding head)
    atom: Optional[str]           # set for bare atoms
    line: int
    col: int


# A newline, a parenthesis, a comment or an atom; the spaces, tabs and
# carriage returns between them match nothing and are skipped.
_LEXEME = re.compile(r"[()\n]|;[^\n]*|[^ \t\r\n();]+")


def read_sexpr(text: str) -> SExpr:
    """Read the one s-expression in ``text``; lines and columns count
    from 1."""
    line, line_start = 1, 0
    open_lists = []  # innermost last: [head or None, items, line, col]
    done = None
    for lexeme in _LEXEME.finditer(text):
        tok = lexeme.group()
        if tok == "\n":
            line += 1
            line_start = lexeme.end()
            continue
        if tok[0] == ";":
            continue
        col = lexeme.start() - line_start + 1
        if done is not None:
            raise ParseError("trailing content after the directive", line, col)
        if open_lists and open_lists[-1][0] is None:
            if tok == "(" or tok == ")":
                raise ParseError("expected a keyword after '('", line, col)
            open_lists[-1][0] = tok
            continue
        if tok == "(":
            open_lists.append([None, [], line, col])
            continue
        if tok == ")":
            if not open_lists:
                raise ParseError("unexpected ')'", line, col)
            head, items, start_line, start_col = open_lists.pop()
            sexpr = SExpr(head, tuple(items), None, start_line, start_col)
        else:
            sexpr = SExpr(None, (), tok, line, col)
        if open_lists:
            open_lists[-1][1].append(sexpr)
        else:
            done = sexpr
    if open_lists:
        _, _, start_line, start_col = open_lists[-1]
        raise ParseError("unclosed '('", start_line, start_col)
    if done is None:
        raise ParseError("empty input", 1, 1)
    return done


# ---------------------------------------------------------------------------
# The keyword table
# ---------------------------------------------------------------------------

KEYWORDS = {
    IdSub: "id", Comp: "comp", Eps: "eps", Ext: "ext", Wk: "p",
    TySub: "tysub", Pi: "pi", Sigma: "sigma", Top: "top", Univ: "u",
    El: "el", Bool: "bool", IdTy: "idt",
    TmSub: "tmsub", Var0: "q", Lam: "lam", App: "app", Pair: "pair",
    Fst: "fst", Snd: "snd", Tt: "tt", Code: "code", TrueLit: "true",
    FalseLit: "false", If: "if", Refl: "refl", J: "j",
}


def _var(n: int) -> TmExpr:
    """``(v n)``, refused before its spine is built when ``n`` is at or
    above the recursion limit: checking the n-step weakening spine
    recurses once per step, so it could only end in ``RecursionError``,
    after building n nodes."""
    limit = sys.getrecursionlimit()
    if n >= limit:
        raise LimitError(
            f"de Bruijn index {n} is not below the recursion limit {limit}")
    return v(n)


# Derived forms: keyword -> (sort, builder, argument sorts).  The printer
# writes them back only for ``v``; the others print as their expansion.
DERIVED = {
    "lift": ("sub", lift, ("sub", "ty")),
    "arrow": ("ty", arrow, ("ty", "ty")),
    "v": ("tm", _var, ("index",)),
    "dollar": ("tm", apply1, ("tm", "tm")),
}

# The sort of a node field, by its annotation (a string in ``syntax``).
_FIELD_SORTS = {"SubExpr": "sub", "TyExpr": "ty", "TmExpr": "tm",
                "Optional[TyExpr]": "ty", "Level": "level"}
# The natural-number sorts, with what the number stands for.
_NATURALS = {"level": "a universe level", "index": "a de Bruijn index"}
# The most digits a natural may have.  Python refuses to convert a decimal
# string of more than 4300 digits by default, and this bound leaves room
# for the level arithmetic of the checker to print its results.
MAX_DIGITS = 1000
_NOUNS = {"ctx": "context", "sub": "substitution", "ty": "type", "tm": "term"}


class _Form(NamedTuple):
    sort: str
    keyword: str
    build: Callable
    args: tuple               # argument sorts
    fields: tuple             # field names of a node class; () if derived
    optional: Optional[str]   # the field that may be left out (it is None)


def _forms() -> tuple[dict, dict]:
    """The forms by keyword, for parsing, and by node class, for
    printing."""
    by_keyword = {kw: _Form(sort, kw, build, args, (), None)
                  for kw, (sort, build, args) in DERIVED.items()}
    by_class = {}
    for sort, union in (("sub", SubExpr), ("ty", TyExpr), ("tm", TmExpr)):
        for cls in get_args(union):
            params = fields(cls)
            optional = [f.name for f in params if f.type.startswith("Optional[")]
            form = _Form(sort, KEYWORDS[cls], cls,
                         tuple(_FIELD_SORTS[f.type] for f in params),
                         tuple(f.name for f in params),
                         optional[0] if optional else None)
            by_keyword[form.keyword] = by_class[cls] = form
    return by_keyword, by_class


_BY_KEYWORD, _BY_CLASS = _forms()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _arity_error(s: SExpr, n: int) -> ParseError:
    return ParseError(f"{s.head} takes {n} argument(s), got {len(s.items)}",
                      s.line, s.col)


def _parse(s: SExpr, sort: str):
    """The value of sort ``sort`` that ``s`` writes: a natural, a context,
    or a substitution, type or term form of the keyword table."""
    if sort in _NATURALS:
        if s.atom is None or not (s.atom.isascii() and s.atom.isdigit()):
            raise ParseError(f"expected a decimal natural for {_NATURALS[sort]}",
                             s.line, s.col)
        if len(s.atom) > MAX_DIGITS:
            raise LimitError(f"{s.line}:{s.col}: {_NATURALS[sort]} of more "
                             f"than {MAX_DIGITS} digits")
        return int(s.atom)
    if sort == "ctx":
        if s.head != "ctx":
            raise ParseError("expected a context (ctx ...)", s.line, s.col)
        return Ctx(tuple([_parse(item, "ty") for item in s.items]))
    if s.head is None:
        raise ParseError(f"expected a {_NOUNS[sort]}", s.line, s.col)
    form = _BY_KEYWORD.get(s.head)
    if form is None or form.sort != sort:
        raise ParseError(f"unknown {_NOUNS[sort]} keyword '{s.head}'",
                         s.line, s.col)
    items = s.items
    if len(items) != len(form.args):
        if form.optional is None or len(items) != len(form.args) - 1:
            raise _arity_error(s, len(form.args))
        at = form.fields.index(form.optional)
        items = items[:at] + (None,) + items[at:]
    # A loop, not a comprehension: on Python 3.11 a comprehension is a
    # frame of its own, and deep input would meet the recursion limit at
    # half the depth.
    args = []
    for item, arg in zip(items, form.args):
        args.append(None if item is None else _parse(item, arg))
    return form.build(*args)


def parse_ctx(s: SExpr) -> Ctx:
    return _parse(s, "ctx")


def parse_sub(s: SExpr) -> SubExpr:
    return _parse(s, "sub")


def parse_ty(s: SExpr) -> TyExpr:
    return _parse(s, "ty")


def parse_tm(s: SExpr) -> TmExpr:
    return _parse(s, "tm")


def parse_entity(s: SExpr):
    """Parse a context, type, term, or substitution; returns (sort, value)."""
    if s.head == "ctx":
        return "ctx", _parse(s, "ctx")
    form = _BY_KEYWORD.get(s.head)
    if form is None:
        raise ParseError(f"unknown keyword '{s.head}'", s.line, s.col)
    return form.sort, _parse(s, form.sort)


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

def _print(x, sort: str) -> str:
    """The canonical text of ``x`` of sort ``sort``.  Each list is built
    by one join: the printed payload of a translation can run to
    megabytes, and every further copy of it shows in peak memory."""
    if sort in _NATURALS:
        return str(x)
    if sort == "ctx":
        parts = ["(ctx"]
        for ty in x.entries:
            parts += (" ", _print(ty, "ty"))
        parts.append(")")
        return "".join(parts)
    form = _BY_CLASS.get(type(x))
    if form is None or form.sort != sort:
        raise ValueError(f"not a {_NOUNS[sort]}: {x!r}")
    if form.build is TmSub:
        index = var_index(x)
        if index:
            return f"(v {index})"
    parts = ["(", form.keyword]
    for name, arg in zip(form.fields, form.args):
        child = getattr(x, name)
        if child is not None or name != form.optional:
            parts += (" ", _print(child, arg))
    parts.append(")")
    return "".join(parts)


def print_ctx(ctx: Ctx) -> str:
    return _print(ctx, "ctx")


def print_sub(sub: SubExpr) -> str:
    return _print(sub, "sub")


def print_ty(ty: TyExpr) -> str:
    return _print(ty, "ty")


def print_tm(tm: TmExpr) -> str:
    return _print(tm, "tm")


def print_entity(sort: str, entity) -> str:
    if sort not in _NOUNS:
        raise ValueError(f"unknown sort {sort!r}")
    return _print(entity, sort)


# ---------------------------------------------------------------------------
# Directives
# ---------------------------------------------------------------------------

# The argument sorts of each directive of fixed shape.  ``termify``,
# ``param`` and ``inject`` take a context and, optionally, an entity of
# any sort but a context.
DIRECTIVES = {
    "check-tm": ("ctx", "tm"),
    "check-ty": ("ctx", "ty"),
    "nf": ("ctx", "tm"),
    "conv-tm": ("ctx", "ty", "tm", "tm"),
    "conv-ty": ("ctx", "ty", "ty"),
    "conv-sub": ("ctx", "ctx", "sub", "sub"),
    "canon": ("tm",),
}


@dataclass(frozen=True)
class Directive:
    kind: str
    args: tuple


def parse_directive(text: str) -> Directive:
    s = read_sexpr(text)
    sorts = DIRECTIVES.get(s.head)
    if sorts is not None:
        if len(s.items) != len(sorts):
            raise _arity_error(s, len(sorts))
        return Directive(s.head, tuple(
            [_parse(item, sort) for item, sort in zip(s.items, sorts)]))
    if s.head in ("termify", "param", "inject"):
        if len(s.items) == 1:
            return Directive(s.head, ("ctx", _parse(s.items[0], "ctx"), None))
        if len(s.items) != 2:
            raise _arity_error(s, 2)
        ctx = _parse(s.items[0], "ctx")
        sort, entity = parse_entity(s.items[1])
        if sort == "ctx":
            raise ParseError("entity argument cannot be a context",
                             s.items[1].line, s.items[1].col)
        return Directive(s.head, (sort, ctx, entity))
    raise ParseError(f"unknown directive '{s.head}'", s.line, s.col)
