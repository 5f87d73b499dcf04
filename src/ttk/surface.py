"""S-expression surface syntax: scanner, parser, canonical printer, directives.

One table is the single source of the surface keywords: ``KEYWORDS`` names
every node class of ``syntax``, and a form's arguments are the class's
fields, its annotations in order.  Their sorts are read from the
annotation strings: a substitution, type or term; ``Optional[TyExpr]``,
which may be left out, as in ``(ext s t)``; and ``Level``, a decimal
natural.  ``DERIVED`` adds the derived forms, each with its builder and
argument sorts: ``(v n)`` is the n-fold weakening spine, and
``(arrow a b)``, ``(dollar f x)`` and ``(lift s a)`` expand to their
definitions at parse time.  The surface is nameless like the core
calculus, so no elaboration happens here.  Printing is canonical:
lowercase keywords, single spaces, full parenthesization, and weakening
spines re-sugared to ``(v n)``.  A directive file holds exactly one
directive s-expression; ``;`` starts a comment.

One regular expression cuts a text into tokens, and one parser, directed
by the sort each place expects, builds the hash-consed nodes from them.
Only a failed parse works out lines and columns, in a second walk that
ranks the text's errors as a reader that checks the whole structure and
then parses top-down meets them.

Shared syntax is written once, with the read labels of Common Lisp (CLHS
2.4.8.15-16).  ``#k=(...)`` names the list that follows it, and ``#k#``
stands for the most recently completed list named k, so a label can be
defined again but a list can never refer to itself.  The printer labels
each node that the text would otherwise hold more than once, in full at
its first occurrence and as ``#k#`` after; labels count 1, 2, ... in
order of first appearance, afresh for each printed entity.  Forms with no
sub-form (nullary forms, ``(u n)``, ``(v n)``) are never labelled.  A
labelled list is parsed once, so both directions run in the size of the
DAG: a payload of three million tree nodes prints in under 3 KB.
"""

from __future__ import annotations

import functools
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


KEYWORDS = {
    IdSub: "id", Comp: "comp", Eps: "eps", Ext: "ext", Wk: "p",
    TySub: "tysub", Pi: "pi", Sigma: "sigma", Top: "top", Univ: "u",
    El: "el", Bool: "bool", IdTy: "idt",
    TmSub: "tmsub", Var0: "q", Lam: "lam", App: "app", Pair: "pair",
    Fst: "fst", Snd: "snd", Tt: "tt", Code: "code", TrueLit: "true",
    FalseLit: "false", If: "if", Refl: "refl", J: "j",
}

# Derived forms: keyword -> (sort, builder, argument sorts).  The printer
# writes them back only for ``v``; the others print as their expansion.
DERIVED = {
    "lift": ("sub", lift, ("sub", "ty")), "arrow": ("ty", arrow, ("ty", "ty")),
    "v": ("tm", v, ("index",)), "dollar": ("tm", apply1, ("tm", "tm")),
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

# The argument sorts of each directive.  An ``entity`` is a substitution,
# type or term, its sort read by its head, and it may be left out: then
# the directive is about its context alone.
DIRECTIVES = {
    "check-tm": ("ctx", "tm"), "check-ty": ("ctx", "ty"), "nf": ("ctx", "tm"),
    "conv-tm": ("ctx", "ty", "tm", "tm"), "conv-ty": ("ctx", "ty", "ty"),
    "conv-sub": ("ctx", "ctx", "sub", "sub"), "canon": ("tm",),
    "termify": ("ctx", "entity"), "param": ("ctx", "entity"),
    "inject": ("ctx", "entity"),
}


class Directive(NamedTuple):
    kind: str
    args: tuple


# What the parser reads where each sort is expected (None: no sort) by
# keyword: the builder and the argument sorts, None for ``(ctx a ...)``,
# ``(ext s [a] t)`` and the directives whose entity may be left out.
_PARSE = {"ctx": {"ctx": (Ctx.of, None)}, "level": {}, "index": {}, None: {},
          "directive": {kind: (lambda *args, kind=kind: Directive(kind, args),
                               None if sorts[-1] == "entity" else sorts)
                        for kind, sorts in DIRECTIVES.items()}}
for _form in _BY_KEYWORD.values():
    _PARSE.setdefault(_form.sort, {})[_form.keyword] = (
        _form.build, None if _form.optional else _form.args)


# A parenthesis or an atom; spaces, tabs, carriage returns and newlines
# separate them, and a comment runs from ``;`` to the end of its line.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+")
_COMMENT = re.compile(r";[^\n]*")


class _Fail(Exception):
    """The parse stopped at the item at token ``args[0]``, for ``args[1:]``."""


def _label(tok: str, i: int) -> int:
    """The k of a label token ``#k=`` or ``#k#`` at token ``i``."""
    digits = tok[1:-1]
    if tok[-1] in "=#" and digits.isdigit() and digits.isascii() \
            and len(digits) <= MAX_DIGITS:
        return int(digits)
    raise _Fail(i)


def _sort_at(toks: list, i: int, labels: dict) -> Optional[str]:
    """The sort of the item at token ``i`` by its keyword or its label."""
    tok = toks[i]
    if tok[0] == "#":
        if tok[-1] == "#":
            return labels.get(_label(tok, i), (None,))[0]
        i += 1
    if toks[i] != "(":
        return None
    form = _BY_KEYWORD.get(toks[i + 1])
    return "ctx" if toks[i + 1] == "ctx" else form and form.sort


def _parse(toks: list, i: int, sort: str, labels: dict):
    """The value of sort ``sort`` written from token ``i`` on, and the index
    after it; ``labels`` maps k to the sort and value of the last ``#k=``."""
    try:
        label = None
        if toks[i] != "(":
            tok = toks[i]
            if tok[0] != "#":
                if sort in _NATURALS and tok.isdigit() and tok.isascii() \
                        and len(tok) <= MAX_DIGITS and (
                            sort == "level"
                            or int(tok) < sys.getrecursionlimit()):
                    return int(tok), i + 1
                raise _Fail(i)
            if tok[-1] == "#":
                entry = labels.get(_label(tok, i))
                if entry is None or entry[0] != sort:
                    raise _Fail(i)
                return entry[1], i + 1
            label, i = _label(tok, i), i + 1
            if toks[i] != "(":
                raise _Fail(i)
        entry = _PARSE[sort].get(toks[i + 1])
        if entry is None:
            raise _Fail(i)
        build, sorts = entry
        i += 2
        # Loops, not comprehensions: on Python 3.11 a comprehension is a
        # frame of its own, and deep input would meet the limit sooner.
        if sorts is not None:
            args = []
            for arg in sorts:
                value, i = _parse(toks, i, arg, labels)
                args.append(value)
            if toks[i] != ")":
                raise _Fail(i)
            value = build(*args)
        elif build is Ext:
            # an item headed by a type's keyword is the annotation
            sub, i = _parse(toks, i, "sub", labels)
            ann, at = None, i
            if _sort_at(toks, i, labels) == "ty":
                ann, i = _parse(toks, i, "ty", labels)
                if toks[i] == ")":
                    raise _Fail(at)
            tm, i = _parse(toks, i, "tm", labels)
            if toks[i] != ")":
                raise _Fail(at if ann is None else i)
            value = Ext(sub, ann, tm)
        elif build is Ctx.of:
            entries = []
            while toks[i] != ")":
                value, i = _parse(toks, i, "ty", labels)
                entries.append(value)
            value = Ctx.of(*entries)
        else:  # a directive about a context and, if written, an entity
            ctx, i = _parse(toks, i, "ctx", labels)
            entity, at = None, i
            if toks[i] != ")":
                entity, i = _parse(toks, i, _sort_at(toks, i, labels), labels)
                if type(entity) is Ctx or toks[i] != ")":
                    raise _Fail(at if type(entity) is Ctx else i)
            value = build(ctx, entity)
        if label is not None:
            labels[label] = (sort, value)
        return value, i + 1
    except RecursionError as err:
        # the deepest frame that can still run says where the parse stood
        err.__dict__.setdefault("loc", i)
        raise


def _read(text: str, sort: str):
    """The one value of sort ``sort`` in ``text``; an entity's by its head."""
    if ";" in text:  # each comment turns into spaces, so positions hold
        text = _COMMENT.sub(lambda comment: " " * len(comment[0]), text)
    toks = _TOKEN.findall(text)
    try:
        read = _sort_at(toks, 0, {}) if sort == "entity" else sort
        value, i = _parse(toks, 0, read, {})
        if i != len(toks):
            raise _Fail(i, "trailing content after the directive")
        return value
    except (_Fail, IndexError, RecursionError) as err:
        loc = err.args[0] if type(err) is _Fail else getattr(err, "loc", None)
        raise _error(text, toks, sort, loc, err) from None


def parse_directive(text: str) -> Directive:
    return _read(text, "directive")


# The readers of one sort, and of an entity, its sort read by its head.
parse_ctx, parse_sub, parse_ty, parse_tm, parse_entity = (
    functools.partial(_read, sort=sort)
    for sort in ("ctx", "sub", "ty", "tm", "entity"))


# A label definition ``#k=`` or reference ``#k#``.
_LABEL = re.compile(r"#([0-9]+)([=#])")


def _list_error(sort: str, head: Optional[str], count: int) -> tuple:
    """The message for a list with keyword ``head`` (None: an atom) and
    ``count`` items where a ``sort`` is expected, or None; its items' sorts."""
    if sort in _NATURALS:
        return f"expected a decimal natural for {_NATURALS[sort]}", ()
    form = _BY_KEYWORD.get(head)
    if sort == "entity" and head != "ctx":
        if form is None:
            return ("expected a context, substitution, type or term"
                    if head is None else f"unknown keyword '{head}'"), ()
        sort = form.sort
    if sort in ("ctx", "entity"):
        return (None if head == "ctx" else "expected a context (ctx ...)",
                ("ty",) * count)
    if sort == "directive":
        args = DIRECTIVES.get(head)
        if args is None:
            return f"unknown directive '{head}'", ()
        at = len(args) - 1 if args[-1] == "entity" else None
        takes = f"{len(args) - 1} or {len(args)}" if at else len(args)
    else:
        if head is None or form is None or form.sort != sort:
            return (f"expected a {_NOUNS[sort]}" if head is None else
                    f"unknown {_NOUNS[sort]} keyword '{head}'"), ()
        args, takes = form.args, len(form.args)
        at = form.optional and form.fields.index(form.optional)
    if count == len(args):
        return None, args
    if at is not None and count == len(args) - 1:
        return None, args[:at] + args[at + 1:]
    return f"{head} takes {takes} argument(s), got {count}", ()


def _error(text: str, toks: list, sort: str, loc: Optional[int],
           cause: Exception):
    """The error to raise for ``text``, cut into ``toks``, whose parse as a
    ``sort`` stopped at the item that starts at token ``loc``."""
    def at(k: int) -> tuple[int, int]:  # the line and column of token k
        end = 0
        for tok in toks[:k]:
            end = text.find(tok, end) + len(tok)
        start = text.find(toks[k], end) if k < len(toks) else 0
        line = text.count("\n", 0, start) + 1
        return line, start - text.rfind("\n", 0, start)

    # The tokens before ``loc`` parsed, so if the text goes on after its
    # value, or the list at ``loc`` has no keyword, that comes first.
    if len(cause.args) > 1:
        return ParseError(cause.args[1], *at(loc))
    if loc is not None and toks[loc:loc + 1] == ["("] and len(toks) > loc + 1 \
            and (toks[loc + 1] in "()" or toks[loc + 1][0] == "#"):
        return ParseError("expected a keyword after '('", *at(loc + 1))
    opened, labels, path, node, item = [], {}, [], None, 0
    pending, head, done = None, False, False
    for index, tok in enumerate(toks):
        if index == loc:  # the lists around the item, and which item it is
            path, node, item = opened[:], tok, opened[-1][3] if opened else 0
        if head:  # the token after '('
            if tok in "()" or tok[0] == "#":
                return ParseError("expected a keyword after '('", *at(index))
            opened[-1][2], head = tok, False
            continue
        if done or pending is not None and tok != "(":
            return ParseError(
                f"label #{pending[0]}= must be followed by '('" if pending
                else "trailing content after the directive",
                *at(pending[1] if pending else index))
        if tok == ")":
            if not opened:
                return ParseError("unexpected ')'", *at(index))
            closed = opened.pop()
            labels[closed[1]] = closed  # by label; None names no reference
            done = not opened
            continue
        if tok[0] == "#":
            match = _LABEL.fullmatch(tok)
            if match is None or len(match[1]) > MAX_DIGITS:
                line, col = at(index)
                return LimitError(f"{line}:{col}: a label of more than "
                                  f"{MAX_DIGITS} digits") if match else \
                    ParseError(f"malformed label '{tok}': expected #k= or "
                               "#k# with k a decimal natural", line, col)
            k = int(match[1])
            if match[2] == "=":
                pending = (k, index)
                continue
            if k not in labels:
                return ParseError(
                    f"label #{k}# refers to a list that is not closed yet"
                    if any(entry[1] == k for entry in opened)
                    else f"undefined label #{k}#", *at(index))
            node = labels[k] if index == loc else node
        if opened:  # the token starts one more item of the innermost list
            opened[-1][3] += 1
        if tok == "(":  # [start, label, head, items, item index] of a list
            entry = [index, pending and pending[0], None, 0,
                     opened[-1][3] - 1 if opened else 0]
            if index == loc or pending is not None and pending[1] == loc:
                node = entry
            opened.append(entry)
            pending, head = None, True
        else:
            done = not opened
    if pending is not None or opened or not toks:
        return ParseError(
            f"label #{pending[0]}= must be followed by '('" if pending
            else "unclosed '('" if opened else "empty input",
            *at(pending[1] if pending else opened[-1][0] if opened else 0))
    # The text is well formed: a top-down parse checks each list's keyword
    # and number of items before its items, so the lists around ``loc``
    # are checked outermost first, then the item there.
    sorts = None
    for entry in path:
        sort = sort if sorts is None else sorts[entry[4]]
        message, sorts = _list_error(sort, entry[2], entry[3])
        if message is not None:
            return ParseError(message, *at(entry[0]))
    if node is None or node == ")":
        return cause
    sort = sort if sorts is None else sorts[item]
    if type(node) is list:
        message = _list_error(sort, node[2], node[3])[0] or (
            sort == "entity" and node[2] == "ctx"
            and "entity argument cannot be a context")
        return ParseError(message, *at(node[0])) if message else cause
    line, col = at(loc)
    if sort not in _NATURALS or not (node.isascii() and node.isdigit()):
        return ParseError(_list_error(sort, None, 0)[0], line, col)
    if len(node) > MAX_DIGITS:
        return LimitError(f"{line}:{col}: {_NATURALS[sort]} of more than "
                          f"{MAX_DIGITS} digits")
    return LimitError(f"de Bruijn index {int(node)} is not below the "
                      f"recursion limit {sys.getrecursionlimit()}")


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

# Each node class: its sort, the text that opens it (after the space that
# separates it from what comes before), its fields with their sorts, and
# whether it has a sub-form, so that it is labelled where it repeats.
_PRINT = {cls: (form.sort, f" ({form.keyword}",
                tuple(zip(form.fields, form.args)), bool(NODE_FIELDS[cls]))
          for cls, form in _BY_CLASS.items()}


def _emit(x, sort: str, out: list, first: dict, repeats: list) -> None:
    """Append the text of ``x`` of sort ``sort`` to ``out``, each form after
    a space.  ``first`` maps a form with a sub-form to the index of its
    opening text; met again, it goes in as itself, its index to ``repeats``."""
    entry = _PRINT.get(type(x))
    if entry is None or entry[0] != sort:
        if sort in _NATURALS:
            out.append(f" {x}")
            return
        raise ValueError(f"not a {_NOUNS[sort]}: {x!r}")
    if entry[3]:
        if type(x) is TmSub and (index := var_index(x)):
            out.append(f" (v {index})")
            return
        if x in first:
            repeats.append(len(out))
            out.append(x)
            return
        first[x] = len(out)
    out.append(entry[1])
    for name, arg in entry[2]:
        child = getattr(x, name)
        if child is not None:
            _emit(child, arg, out, first, repeats)
    out.append(")")


def print_entity(entity) -> str:
    """The canonical text of ``entity``, a context or a node of the keyword
    table, whose class gives its sort, in one join: a printed payload can
    be large, and every further copy of it shows in peak memory."""
    out, first, repeats = [], {}, []
    if type(entity) is Ctx:
        out.append(" (ctx")
        for ty in entity.entries:
            _emit(ty, "ty", out, first, repeats)
        out.append(")")
    else:
        _emit(entity, _BY_CLASS[type(entity)].sort, out, first, repeats)
    if repeats:
        for k, node in enumerate(sorted({out[at] for at in repeats},
                                        key=first.get), 1):
            out[first[node]] = f" #{k}={out[first[node]][1:]}"
            first[node] = f" #{k}#"
        for at in repeats:
            out[at] = first[out[at]]
    out[0] = out[0][1:]
    return "".join(out)


# The per-sort names, kept for callers that name the sort they print.
print_ctx = print_sub = print_ty = print_tm = print_entity


def show(x) -> str:
    """``x`` in the surface syntax if it is a context or a node of the
    keyword table, else its ``repr``: for messages."""
    return print_entity(x) if type(x) in _PRINT or type(x) is Ctx else repr(x)
