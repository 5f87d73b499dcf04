"""S-expression surface syntax: reader, parser, canonical printer, directives.

One table is the single source of the surface keywords: ``KEYWORDS`` names
every node class of ``syntax``, and a form's arguments are the class's
fields, its annotations in order.  Their sorts are read from the
annotation strings: a substitution, type or term; ``Optional[TyExpr]``,
which may be left out, as in ``(ext s t)``; and ``Level``, a decimal
natural.  ``DERIVED`` adds the derived forms, each with its builder and
argument sorts: ``(v n)`` is the n-fold weakening spine, and
``(arrow a b)``, ``(dollar f x)`` and ``(lift s a)`` expand to their
definitions at parse time.  The parser, the printer and ``parse_entity``
are generic over the two tables.

The surface is nameless like the core calculus, so no elaboration happens
here.  Printing is canonical: lowercase keywords, single spaces, full
parenthesization, and weakening spines re-sugared to ``(v n)``.

Shared syntax is written once, with the read labels of Common Lisp (CLHS
2.4.8.15-16).  ``#k=(...)`` names the list that follows it, and ``#k#``
stands for the most recently completed list named k, so a label can be
defined again but a list can never refer to itself.  The printer labels
each node that the text would otherwise hold more than once, in full at
its first occurrence and as ``#k#`` after; labels count 1, 2, ... in
order of first appearance, afresh for each printed entity.  Forms with no
sub-form (nullary forms, ``(u n)``, ``(v n)``) are never labelled, and an
entity with no repeated compound node prints as it would without labels.
The reader parses a labelled list once per sort, so parsing printed text
gives back the identical hash-consed node, and both directions run in
the size of the DAG: a translation's payload of three million tree nodes
prints in under three kilobytes.

A directive file holds exactly one directive s-expression; ``;`` starts a
comment.
"""

from __future__ import annotations

import re
import sys
from typing import Callable, NamedTuple, Optional, get_args

from .syntax import (
    App, Bool, Code, Comp, Ctx, El, Eps, Ext, FalseLit, Fst, IdSub, IdTy, If,
    J, Lam, Pair, Pi, Refl, Sigma, Snd, SubExpr, Top, TrueLit, Tt, TmExpr,
    NODE_FIELDS, TmSub, TyExpr, TySub, Univ, Var0, Wk, apply1, arrow, lift, v,
    var_index,
)


class LimitError(Exception):
    """Input past one of the reader's documented bounds: too many digits
    in a natural or a label, or a de Bruijn index too large to check."""


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
    label: Optional[int] = None   # k, for a list written ``#k=(...)``


# A newline, a parenthesis, a comment or an atom; the spaces, tabs and
# carriage returns between them match nothing and are skipped.
_LEXEME = re.compile(r"[()\n]|;[^\n]*|[^ \t\r\n();]+")
# A label definition ``#k=`` or reference ``#k#``; any other atom that
# starts with ``#`` is a malformed label.
_LABEL = re.compile(r"#([0-9]+)([=#])")


def _label(tok: str, line: int, col: int) -> tuple[int, str]:
    """The number and the kind (``=`` or ``#``) of a label token."""
    match = _LABEL.fullmatch(tok)
    if match is None:
        raise ParseError(f"malformed label '{tok}': expected #k= or #k# "
                         "with k a decimal natural", line, col)
    digits, kind = match.groups()
    if len(digits) > MAX_DIGITS:
        raise LimitError(f"{line}:{col}: a label of more than {MAX_DIGITS} "
                         "digits")
    return int(digits), kind


def read_sexpr(text: str) -> SExpr:
    """Read the one s-expression in ``text``; lines and columns count
    from 1.

    ``#k=(...)`` labels the list it writes, and a later ``#k#`` stands for
    that same ``SExpr`` object, so shared syntax is read once.  ``#k#``
    means the most recently *completed* list labelled k: a list cannot
    refer to itself, and a label may be defined again, as it is when
    separately printed entities are pasted into one directive."""
    line, line_start = 1, 0
    open_lists = []  # innermost last: [head or None, items, line, col, label]
    labels = {}      # k -> the latest completed list labelled k
    pending = None   # (k, line, col) of a ``#k=`` waiting for its '('
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
        if pending is not None and tok != "(":
            raise ParseError(f"label #{pending[0]}= must be followed by '('",
                             pending[1], pending[2])
        if open_lists and open_lists[-1][0] is None:
            if tok == "(" or tok == ")" or tok[0] == "#":
                raise ParseError("expected a keyword after '('", line, col)
            open_lists[-1][0] = tok
            continue
        if tok == "(":
            label = None if pending is None else pending[0]
            open_lists.append([None, [], line, col, label])
            pending = None
            continue
        if tok == ")":
            if not open_lists:
                raise ParseError("unexpected ')'", line, col)
            head, items, start_line, start_col, label = open_lists.pop()
            sexpr = SExpr(head, tuple(items), None, start_line, start_col,
                          label)
            if label is not None:
                labels[label] = sexpr
        elif tok[0] == "#":
            k, kind = _label(tok, line, col)
            if kind == "=":
                pending = (k, line, col)
                continue
            sexpr = labels.get(k)
            if sexpr is None:
                if any(entry[4] == k for entry in open_lists):
                    raise ParseError(f"label #{k}# refers to a list that is "
                                     "not closed yet", line, col)
                raise ParseError(f"undefined label #{k}#", line, col)
        else:
            sexpr = SExpr(None, (), tok, line, col)
        if open_lists:
            open_lists[-1][1].append(sexpr)
        else:
            done = sexpr
    if pending is not None:
        raise ParseError(f"label #{pending[0]}= must be followed by '('",
                         pending[1], pending[2])
    if open_lists:
        start_line, start_col = open_lists[-1][2:4]
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
            params = cls.__annotations__
            optional = [name for name, annotation in params.items()
                        if annotation.startswith("Optional[")]
            form = _Form(sort, KEYWORDS[cls], cls,
                         tuple(_FIELD_SORTS[a] for a in params.values()),
                         tuple(params), optional[0] if optional else None)
            by_keyword[form.keyword] = by_class[cls] = form
    return by_keyword, by_class


_BY_KEYWORD, _BY_CLASS = _forms()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _arity_error(s: SExpr, n: int | str) -> ParseError:
    return ParseError(f"{s.head} takes {n} argument(s), got {len(s.items)}",
                      s.line, s.col)


def _parse(s: SExpr, sort: str, shared: dict):
    """The value of sort ``sort`` that ``s`` writes: a natural, a context,
    or a substitution, type or term form of the keyword table.  A labelled
    list may occur many times; ``shared`` keeps its value per sort, keyed
    by the list's identity, so it is parsed once."""
    if s.label is not None:
        value = shared.get((id(s), sort))
        if value is not None:
            return value
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
        value = Ctx.of(*[_parse(item, "ty", shared) for item in s.items])
    else:
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
        # frame of its own, and deep input would meet the recursion limit
        # at half the depth.
        args = []
        for item, arg in zip(items, form.args):
            args.append(None if item is None else _parse(item, arg, shared))
        value = form.build(*args)
    if s.label is not None:
        shared[(id(s), sort)] = value
    return value


def parse_ctx(s: SExpr) -> Ctx:
    return _parse(s, "ctx", {})


def parse_sub(s: SExpr) -> SubExpr:
    return _parse(s, "sub", {})


def parse_ty(s: SExpr) -> TyExpr:
    return _parse(s, "ty", {})


def parse_tm(s: SExpr) -> TmExpr:
    return _parse(s, "tm", {})


def parse_entity(s: SExpr, shared: Optional[dict] = None):
    """Parse a context, type, term, or substitution, read by its head;
    ``shared`` is the label table of the text it is part of."""
    if s.head is None:
        raise ParseError("expected a context, substitution, type or term",
                         s.line, s.col)
    form = _BY_KEYWORD.get(s.head)
    if form is None and s.head != "ctx":
        raise ParseError(f"unknown keyword '{s.head}'", s.line, s.col)
    return _parse(s, "ctx" if form is None else form.sort,
                  {} if shared is None else shared)


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

# The fields that hold sub-forms, for the node classes that have any: only
# their forms are ever labelled.
_SUBFORMS = {cls: names for cls, names in NODE_FIELDS.items() if names}


def _visit(x, seen: dict, repeated: set) -> None:
    """Walk the forms the printer writes for ``x``, a node with sub-forms,
    each node once: record nodes in order of first appearance in ``seen``,
    and those met again in ``repeated``.  Forms with no sub-form, ``(v n)``
    among them, are skipped."""
    if x in seen:
        repeated.add(x)
        return
    if type(x) is TmSub and var_index(x):
        return
    seen[x] = None
    for name in _SUBFORMS[type(x)]:
        child = getattr(x, name)
        if type(child) in _SUBFORMS:
            _visit(child, seen, repeated)


def _labels(x, sort: str) -> dict:
    """The label of each node that the printed text of ``x`` holds more
    than once, numbered 1, 2, ... in order of first appearance."""
    seen, repeated = {}, set()
    for root in (x.entries if sort == "ctx" else (x,)):
        if type(root) in _SUBFORMS:
            _visit(root, seen, repeated)
    if not repeated:
        return {}
    labels = {}
    for node in seen:
        if node in repeated:
            labels[node] = len(labels) + 1
    return labels


def _print(x, sort: str, labels: dict) -> str:
    """The canonical text of ``x`` of sort ``sort``.  A node of ``labels``
    prints as ``#k=(...)`` the first time, after which its entry is the
    text ``#k#`` that every later occurrence prints.  Each list is built
    by one join: a printed payload can be large, and every further copy
    of it shows in peak memory."""
    if sort in _NATURALS:
        return str(x)
    if sort == "ctx":
        parts = ["(ctx"]
        for ty in x.entries:
            parts += (" ", _print(ty, "ty", labels))
        parts.append(")")
        return "".join(parts)
    form = _BY_CLASS.get(type(x))
    if form is None or form.sort != sort:
        raise ValueError(f"not a {_NOUNS[sort]}: {x!r}")
    parts = ["(", form.keyword]
    if labels:
        label = labels.get(x)
        if label is not None:
            if type(label) is str:
                return label
            labels[x] = f"#{label}#"
            parts[0] = f"#{label}=("
    if form.build is TmSub:
        index = var_index(x)
        if index:
            return f"(v {index})"
    for name, arg in zip(form.fields, form.args):
        child = getattr(x, name)
        if child is not None or name != form.optional:
            parts += (" ", _print(child, arg, labels))
    parts.append(")")
    return "".join(parts)


def print_entity(entity) -> str:
    """The canonical text of ``entity``, a context or a node of the keyword
    table, whose class gives its sort: a node that occurs more than once
    is written in full once, as ``#k=(...)``, and as ``#k#`` after that."""
    sort = "ctx" if type(entity) is Ctx else _BY_CLASS[type(entity)].sort
    return _print(entity, sort, _labels(entity, sort))


# The per-sort names, kept for callers that name the sort they print.
print_ctx = print_sub = print_ty = print_tm = print_entity


def show(x) -> str:
    """``x`` in the surface syntax if it is a context or a node of the
    keyword table, else its ``repr``: for messages."""
    if type(x) is Ctx or type(x) in _BY_CLASS:
        return print_entity(x)
    return repr(x)


# ---------------------------------------------------------------------------
# Directives
# ---------------------------------------------------------------------------

# The argument sorts of each directive.  An ``entity`` is a substitution,
# type or term, its sort read by its head, and it may be left out: then
# the directive is about its context alone.
DIRECTIVES = {
    "check-tm": ("ctx", "tm"),
    "check-ty": ("ctx", "ty"),
    "nf": ("ctx", "tm"),
    "conv-tm": ("ctx", "ty", "tm", "tm"),
    "conv-ty": ("ctx", "ty", "ty"),
    "conv-sub": ("ctx", "ctx", "sub", "sub"),
    "canon": ("tm",),
    "termify": ("ctx", "entity"),
    "param": ("ctx", "entity"),
    "inject": ("ctx", "entity"),
}


class Directive(NamedTuple):
    kind: str
    args: tuple


def parse_directive(text: str) -> Directive:
    """The one directive in ``text``, its arguments read with one label
    table."""
    s = read_sexpr(text)
    sorts = DIRECTIVES.get(s.head)
    if sorts is None:
        raise ParseError(f"unknown directive '{s.head}'", s.line, s.col)
    items, n = s.items, len(sorts)
    if sorts[-1] == "entity" and len(items) == n - 1:
        items += (None,)
    if len(items) != n:
        raise _arity_error(s, f"{n - 1} or {n}" if sorts[-1] == "entity" else n)
    shared, args = {}, []
    for item, sort in zip(items, sorts):
        value = None if item is None else (
            parse_entity(item, shared) if sort == "entity"
            else _parse(item, sort, shared))
        if sort == "entity" and type(value) is Ctx:
            raise ParseError("entity argument cannot be a context",
                             item.line, item.col)
        args.append(value)
    return Directive(s.head, tuple(args))
