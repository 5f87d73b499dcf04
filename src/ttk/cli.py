"""Command line front end.

``ttk run FILE`` executes the single directive in FILE; ``ttk selftest``
runs the verification suites.  The last output line is always
machine-parseable: ``RESULT: accept``, ``RESULT: reject``, or
``RESULT: error <class>``.  Exit codes: 0 accept/success, 1 reject or
property failure, or a violated kernel invariant such as an ill-typed
translation output (``RESULT: error kernel``), 2 parse error, or a file
that cannot be read or is not UTF-8 text (``RESULT: error io``), 3 type
error, 4 resource limit (input nested too deeply to parse or check, a
``(v n)`` with ``n`` at or above the recursion limit, or a natural or a
``#k=``/``#k#`` label of more than ``surface.MAX_DIGITS`` digits:
``RESULT: error limit``).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .caches import gc_paused
from .canonicity import NonCanonical, OpenTerm, canonicity_verdict
from .conversion import conv_sub, conv_tm, conv_ty, normalize_tm
from .injectivity import IsoFailure, check_embedding
from .parametricity import param_entity
from .surface import (
    Directive, LimitError, ParseError, parse_directive, print_entity, print_ty,
)
from .suites import SUITES, run_suites
from .syntax import tree_dag_sizes
from .termify import termify_entity
from .typecheck import (
    TranslationIllTyped, TypeCheckError, check_ctx, infer_ty, synth_tm,
)
from .values import InternalStuck


def _execute(directive: Directive) -> tuple[int, list[str]]:
    match directive.kind:
        case "check-tm":
            ctx, tm = directive.args
            check_ctx(ctx)
            ty = synth_tm(ctx, tm)
            return 0, [f"type: {print_ty(ty)}", "RESULT: accept"]
        case "check-ty":
            ctx, ty = directive.args
            check_ctx(ctx)
            level = infer_ty(ctx, ty)
            return 0, [f"level: {level}", "RESULT: accept"]
        case "nf":
            ctx, tm = directive.args
            check_ctx(ctx)
            nf = normalize_tm(ctx, tm)
            return 0, [f"nf: {print_entity('tm', nf)}", "RESULT: accept"]
        case "conv-tm":
            ctx, ty, lhs, rhs = directive.args
            check_ctx(ctx)
            return _verdict(conv_tm(ctx, ty, lhs, rhs))
        case "conv-ty":
            ctx, lhs, rhs = directive.args
            check_ctx(ctx)
            return _verdict(conv_ty(ctx, lhs, rhs))
        case "conv-sub":
            ctx, cod, lhs, rhs = directive.args
            check_ctx(ctx)
            check_ctx(cod)
            return _verdict(conv_sub(ctx, cod, lhs, rhs))
        case "termify":
            sort, ctx, entity = directive.args
            out = termify_entity(sort, ctx, entity)
            return 0, [f"payload: {print_entity('tm', out.payload)}",
                       _size(out.payload),
                       f"classifier: {print_ty(out.classifier)}",
                       "RESULT: accept"]
        case "param":
            sort, ctx, entity = directive.args
            out = param_entity(sort, ctx, entity)
            payload_sort = "ty" if sort in ("ctx", "ty") else "tm"
            return 0, [f"payload: {print_entity(payload_sort, out.payload)}",
                       _size(out.payload), "RESULT: accept"]
        case "canon":
            (tm,) = directive.args
            verdict = canonicity_verdict(tm)
            value = "true" if verdict.value else "false"
            if verdict.certified:
                return 0, [f"value: {value}", "RESULT: accept"]
            return 1, [f"value: {value}", "RESULT: reject"]
        case "inject":
            try:
                return _verdict(check_embedding(*directive.args))
            except IsoFailure as err:
                return 1, [str(err), "RESULT: reject"]
    raise ValueError(f"unknown directive {directive.kind!r}")


def _size(payload) -> str:
    tree, dag = tree_dag_sizes(payload)
    return f"size: tree={tree} dag={dag}"


def _verdict(accepted: bool) -> tuple[int, list[str]]:
    if accepted:
        return 0, ["RESULT: accept"]
    return 1, ["RESULT: reject"]


def _cmd_run(args) -> int:
    try:
        text = open(args.file, encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read {args.file}: {err}")
        print("RESULT: error io")
        return 2
    try:
        directive = parse_directive(text)
        code, lines = _execute(directive)
    except ParseError as err:
        print(f"parse error: {err}")
        print("RESULT: error parse")
        return 2
    except (TranslationIllTyped, NonCanonical, InternalStuck) as err:
        print(f"kernel invariant violated: {err}")
        print("RESULT: error kernel")
        return 1
    except (TypeCheckError, OpenTerm) as err:
        print(f"type error: {err}")
        print("RESULT: error type")
        return 3
    except (RecursionError, LimitError) as err:
        print(f"limit error: {err}")
        print("RESULT: error limit")
        return 4
    for line in lines:
        print(line)
    return code


def _cmd_selftest(args) -> int:
    reports = run_suites(args.suite, seed=args.seed, count=args.count,
                         max_nodes=args.max_nodes)
    failures = 0
    for report in reports:
        for line in report.lines():
            print(line)
        failures += sum(row.failed for row in report.rows)
    if failures:
        print(f"RESULT: reject {failures} failures")
        return 1
    print("RESULT: accept")
    return 0


def _positive(text: str) -> int:
    """An argparse type: a decimal integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}")
    return int(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttk", description="type theory kernel and translation checker")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="execute one directive file")
    run.add_argument("file")
    run.set_defaults(fn=_cmd_run)

    selftest = commands.add_parser("selftest", help="run verification suites")
    selftest.add_argument("--seed", type=int, default=1)
    selftest.add_argument("--count", type=_positive, default=None,
                          help="instances per schema/case")
    selftest.add_argument("--max-nodes", type=_positive, default=None)
    selftest.add_argument("--suite", default="all",
                          choices=("all", *SUITES))
    selftest.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    sys.setrecursionlimit(20000)
    with gc_paused():
        return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
