"""Command line front end.

``ttk run FILE`` executes the single directive in FILE; ``ttk selftest``
runs the verification suites.  The last output line is always
machine-parseable: ``RESULT: accept``, ``RESULT: reject`` (only for
``conv-*`` sides that differ and failing ``selftest`` cases), or
``RESULT: error <class>``.  Exit codes: 0 accept/success, 1 reject, or
any ``KernelError``, a failure after the input has checked
(``RESULT: error kernel``), 2 parse error, or a file that cannot be
read or is not UTF-8 text (``RESULT: error io``), 3 type error, 4
resource limit (input nested too deeply to parse or check, a ``(v n)``
with ``n`` at or above the recursion limit, or a natural or a
``#k=``/``#k#`` label of more than ``surface.MAX_DIGITS`` digits:
``RESULT: error limit``).

``main`` reads ``run FILE`` itself when FILE does not start with ``-``:
argparse would read that form as ``run`` with that file and nothing
else.  Every other argument list goes to the argparse parser, which is
built, and ``argparse`` and ``ttk.suites`` imported, only then:
``selftest`` and its options, ``-h``/``--help``, ``run -- FILE``, a
FILE that starts with ``-``, ``run`` without a file or with more than
one, and unknown commands.  Help exits 0 and a usage error 2, as
argparse raises them.
"""

from __future__ import annotations

import functools
import sys

from .caches import gc_paused
from .canonicity import canonicity_verdict
from .conversion import conv_sub, conv_tm, conv_ty, normalize_tm
from .injectivity import check_embedding
from .parametricity import param_entity
from .surface import (
    KEYWORDS, Directive, LimitError, ParseError, parse_directive,
    print_entity,
)
from .syntax import tree_dag_sizes
from .termify import termify_entity
from .typecheck import TypeCheckError, check_ctx, check_entity
from .values import KernelError


def _execute(directive: Directive) -> tuple[int, list[str]]:
    match directive.kind:
        case "check-tm":
            ty = check_entity(*directive.args)
            return 0, [f"type: {print_entity(ty)}", "RESULT: accept"]
        case "check-ty":
            level = check_entity(*directive.args)
            return 0, [f"level: {level}", "RESULT: accept"]
        case "nf":
            ctx, tm = directive.args
            check_ctx(ctx)
            nf = normalize_tm(ctx, tm)
            return 0, [f"nf: {print_entity(nf)}", "RESULT: accept"]
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
            out = termify_entity(*directive.args)
            return 0, [f"payload: {print_entity(out.payload)}",
                       _size(out.payload),
                       f"classifier: {print_entity(out.classifier)}",
                       "RESULT: accept"]
        case "param":
            out = param_entity(*directive.args)
            return 0, [f"payload: {print_entity(out.payload)}",
                       _size(out.payload), "RESULT: accept"]
        case "canon":
            literal = canonicity_verdict(*directive.args)
            return 0, [f"value: {KEYWORDS[type(literal)]}", "RESULT: accept"]
        case "inject":
            return _verdict(check_embedding(*directive.args))
    raise ValueError(f"unknown directive {directive.kind!r}")


def _size(payload) -> str:
    tree, dag = tree_dag_sizes(payload)
    return f"size: tree={tree} dag={dag}"


def _verdict(accepted: bool) -> tuple[int, list[str]]:
    return (0, ["RESULT: accept"]) if accepted else (1, ["RESULT: reject"])


def _cmd_run(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read {path}: {err}")
        print("RESULT: error io")
        return 2
    try:
        directive = parse_directive(text)
        code, lines = _execute(directive)
    except ParseError as err:
        print(f"parse error: {err}")
        print("RESULT: error parse")
        return 2
    except KernelError as err:
        print(f"kernel invariant violated: {err}")
        print("RESULT: error kernel")
        return 1
    except TypeCheckError as err:
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
    from .suites import run_suites
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
    import argparse
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}")
    return int(text)


@functools.cache
def _parser():
    import argparse
    from .suites import SUITES
    parser = argparse.ArgumentParser(
        prog="ttk", description="type theory kernel and translation checker")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="execute one directive file")
    run.add_argument("file")
    run.set_defaults(fn=lambda args: _cmd_run(args.file))

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
    if argv is None:
        argv = sys.argv[1:]
    if len(argv) == 2 and argv[0] == "run" and not argv[1].startswith("-"):
        # argparse would read this form as ``run`` with this file and
        # nothing else, so it is not built
        command = functools.partial(_cmd_run, argv[1])
    else:
        args = _parser().parse_args(argv)
        command = functools.partial(args.fn, args)
    sys.setrecursionlimit(20000)
    with gc_paused():
        return command()


if __name__ == "__main__":
    sys.exit(main())
