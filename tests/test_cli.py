import os
import pathlib
import subprocess
import sys

import pytest

import ttk.injectivity
import ttk.parametricity
import ttk.termify
from ttk.cli import main
from ttk.injectivity import IsoFailure
from ttk.syntax import TrueLit

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo"


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.strip().splitlines()


def test_run_idfun(capsys):
    code, lines = _run(capsys, "run", str(DEMO / "idfun.tt"))
    assert code == 0
    assert lines[0].startswith("type: (pi (u 0)")
    assert lines[-1] == "RESULT: accept"


def test_run_distinct_functions_reject(capsys):
    code, lines = _run(capsys, "run", str(DEMO / "pointwise_equal.tt"))
    assert code == 1
    assert lines[-1] == "RESULT: reject"


def test_run_canon_demo(capsys):
    code, lines = _run(capsys, "run", str(DEMO / "canon_redex.tt"))
    assert code == 0
    assert lines[0] == "value: false"
    assert lines[-1] == "RESULT: accept"


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMO.glob("*.tt")))
def test_run_prints_the_checked_in_demo_output(capsys, name):
    main(["run", str(DEMO / f"{name}.tt")])
    expected = (DEMO / f"{name}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.tt"
    bad.write_text("(check-tm (ctx) (tt")
    code, lines = _run(capsys, "run", str(bad))
    assert code == 2
    assert lines[-1] == "RESULT: error parse"


def test_type_error_exit_code(capsys, tmp_path):
    ill = tmp_path / "ill.tt"
    ill.write_text("(check-tm (ctx) (q))")
    code, lines = _run(capsys, "run", str(ill))
    assert code == 3
    assert lines[-1] == "RESULT: error type"


def test_nf_directive(capsys, tmp_path):
    f = tmp_path / "nf.tt"
    f.write_text("(nf (ctx) (tmsub (true) (eps)))")
    code, lines = _run(capsys, "run", str(f))
    assert code == 0
    assert lines[0] == "nf: (true)"


def test_termify_directive(capsys, tmp_path):
    f = tmp_path / "t.tt"
    f.write_text("(termify (ctx (bool)))")
    code, lines = _run(capsys, "run", str(f))
    assert code == 0
    assert lines[-1] == "RESULT: accept"


def test_param_directive(capsys, tmp_path):
    f = tmp_path / "p.tt"
    f.write_text("(param (ctx) (lam (bool) (q)))")
    code, lines = _run(capsys, "run", str(f))
    assert code == 0


def test_inject_directive(capsys, tmp_path):
    f = tmp_path / "i.tt"
    f.write_text("(inject (ctx (bool)) (q))")
    code, lines = _run(capsys, "run", str(f))
    assert code == 0
    assert lines[-1] == "RESULT: accept"


# The full output of each translation directive on (ctx (bool)) alone and
# with a type, a substitution and a term; all of them are accepted.
TRANSLATIONS = {
    "(termify (ctx (bool)))": (
        "payload: (code (sigma #1=(el (code (top))) (el (app (lam #1# "
        "(code (bool)))))))\n"
        "size: tree=13 dag=10\n"
        "classifier: (u 0)\n"
        "RESULT: accept\n"),
    "(termify (ctx (bool)) (bool))": (
        "payload: (lam (el (code (sigma #1=(el (code (top))) (el (app "
        "(lam #1# #2=(code (bool)))))))) #2#)\n"
        "size: tree=17 dag=12\n"
        "classifier: (pi (el (code (sigma #1=(el (code (top))) (el "
        "(app (lam #1# (code (bool)))))))) (tysub (u 0) (p)))\n"
        "RESULT: accept\n"),
    "(termify (ctx (bool)) (p))": (
        "payload: (lam (el (code (sigma #1=(el (code (top))) (el (app "
        "(lam #1# (code (bool)))))))) (fst (q)))\n"
        "size: tree=17 dag=14\n"
        "classifier: (pi (el (code (sigma #1=(el (code (top))) (el "
        "(app (lam #1# (code (bool)))))))) (tysub #1# (p)))\n"
        "RESULT: accept\n"),
    "(termify (ctx (bool)) (q))": (
        "payload: (lam (el (code (sigma #1=(el (code (top))) (el (app "
        "(lam #1# (code (bool)))))))) (snd (q)))\n"
        "size: tree=17 dag=14\n"
        "classifier: (pi #1=(el (code (sigma #2=(el (code (top))) (el "
        "#3=(app (lam #2# (code (bool)))))))) (el (app (lam #1# (tmsub "
        "#3# (ext (eps) #2# (app (tmsub (lam #1# (fst (q))) "
        "(eps)))))))))\n"
        "RESULT: accept\n"),
    "(param (ctx (bool)))": (
        "payload: (sigma (tysub (top) (p)) (tysub (top) (ext (ext "
        "(comp (p) (p)) (top) (q)) (tysub (bool) (p)) (v 1))))\n"
        "size: tree=19 dag=12\n"
        "RESULT: accept\n"),
    "(param (ctx (bool)) (bool))": (
        "payload: (top)\n"
        "size: tree=1 dag=1\n"
        "RESULT: accept\n"),
    "(param (ctx (bool)) (p))": (
        "payload: (fst (q))\n"
        "size: tree=2 dag=2\n"
        "RESULT: accept\n"),
    "(param (ctx (bool)) (q))": (
        "payload: (snd (q))\n"
        "size: tree=2 dag=2\n"
        "RESULT: accept\n"),
    "(inject (ctx (bool)))": (
        "RESULT: accept\n"),
    "(inject (ctx (bool)) (bool))": (
        "RESULT: accept\n"),
    "(inject (ctx (bool)) (p))": (
        "RESULT: accept\n"),
    "(inject (ctx (bool)) (q))": (
        "RESULT: accept\n"),
}


@pytest.mark.parametrize("text", TRANSLATIONS)
def test_translation_directive_output(capsys, tmp_path, text):
    f = tmp_path / "d.tt"
    f.write_text(text)
    assert main(["run", str(f)]) == 0
    assert capsys.readouterr().out == TRANSLATIONS[text]


def test_inject_isomorphism_failure_is_a_reject(capsys, tmp_path,
                                                monkeypatch):
    def failing(ctx):
        raise IsoFailure(ctx, "fwd . bwd")
    monkeypatch.setattr(ttk.injectivity, "build_ctx_iso", failing)
    code, lines = _run_text(capsys, tmp_path, "(inject (ctx (bool)) (q))")
    assert code == 1
    assert lines == ["context isomorphism composite fwd . bwd is not the "
                     "identity", "RESULT: reject"]


def test_selftest_small(capsys):
    code, lines = _run(capsys, "selftest", "--seed", "5", "--count", "2",
                       "--suite", "equations")
    assert code == 0
    assert lines[-1] == "RESULT: accept"
    assert any("pi_beta" in line for line in lines)


def _run_text(capsys, tmp_path, text):
    f = tmp_path / "d.tt"
    f.write_text(text)
    return _run(capsys, "run", str(f))


@pytest.mark.parametrize("text, former, at, actual", [
    ("(check-tm (ctx) (fst (true)))", "a pair type", "(fst (true))",
     "(bool)"),
    ("(check-tm (ctx) (snd (tt)))", "a pair type", "(snd (tt))", "(top)"),
    ("(check-tm (ctx (bool)) (app (true)))", "a function type",
     "(app (true))", "(bool)"),
    ("(check-ty (ctx) (el (true)))", "a universe", "(el (true))", "(bool)"),
    ("(check-tm (ctx) (j (bool) (true) (true)))", "an equality type",
     "(j (bool) (true) (true))", "(bool)"),
], ids=["fst", "snd", "app", "el", "j"])
def test_a_missing_type_former_is_a_type_error(capsys, tmp_path, text, former,
                                               at, actual):
    f = tmp_path / "d.tt"
    f.write_text(text)
    assert main(["run", str(f)]) == 3
    assert capsys.readouterr().out == (
        f"type error: expected {former}\n  at: {at}\n  actual: {actual}\n"
        "RESULT: error type\n")


def test_termify_checks_before_translating(capsys, tmp_path):
    code, lines = _run_text(capsys, tmp_path, "(termify (ctx) (el (q)))")
    assert code == 3
    assert lines[-1] == "RESULT: error type"


def test_inject_checks_before_translating(capsys, tmp_path):
    code, lines = _run_text(capsys, tmp_path, "(inject (ctx) (el (q)))")
    assert code == 3
    assert lines[-1] == "RESULT: error type"


def test_canon_of_an_open_term_is_a_type_error(capsys, tmp_path):
    code, lines = _run_text(capsys, tmp_path, "(canon (q))")
    assert code == 3
    assert lines[-1] == "RESULT: error type"


def test_param_user_error_is_not_a_translation_bug(capsys, tmp_path):
    code, lines = _run_text(capsys, tmp_path, "(param (ctx) (q))")
    assert code == 3
    assert lines[-1] == "RESULT: error type"
    assert not any("ill-typed output" in line for line in lines)


@pytest.mark.parametrize("module, fold, text", [
    (ttk.termify, "termify", "(termify (ctx) (true))"),
    (ttk.parametricity, "param", "(param (ctx) (true))"),
], ids=["termify", "param"])
def test_translation_bug_is_a_kernel_error(capsys, tmp_path, monkeypatch,
                                           module, fold, text):
    # a clause for true that returns an ill-typed output for well-typed
    # input; every other clause is the fold's own
    real = getattr(module, fold)
    monkeypatch.setattr(module, fold, lambda ctx, x: (
        TrueLit() if type(x) is TrueLit else real(ctx, x)))
    code, lines = _run_text(capsys, tmp_path, text)
    assert code == 1
    assert lines[-1] == "RESULT: error kernel"
    assert lines[0].startswith("kernel invariant violated: ")
    assert "clause for TrueLit produced an ill-typed output" in lines[0]


@pytest.mark.parametrize("flag", ["--count", "--max-nodes"])
@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_selftest_refuses_sizes_below_one(capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        main(["selftest", "--suite", "canon", flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "RESULT" not in captured.out
    assert f"argument {flag}" in captured.err


@pytest.mark.parametrize("text", [
    "(check-tm (ctx (bool)) (v 15000))",
    "(check-tm (ctx) " + "(lam (bool) " * 10000 + "(q)" + ")" * 10001,
    # refused at parse time: building this spine would take gigabytes
    "(check-tm (ctx (bool)) (v 100000000))",
    # refused before ``int()``, which would raise past 4300 digits
    "(check-ty (ctx) (u " + "1" * 5000 + "))",
    "(check-tm (ctx (bool)) (v " + "1" * 5000 + "))",
    "(check-tm (ctx) #" + "1" * 5000 + "=(true))",
], ids=["deep-variable", "deep-lam-nest", "huge-variable", "long-level",
        "long-index", "long-label"])
def test_too_deep_input_is_a_limit_error(capsys, tmp_path, text):
    code, lines = _run_text(capsys, tmp_path, text)
    assert code == 4
    assert lines[-1] == "RESULT: error limit"
    assert lines[0].startswith("limit error: ")


@pytest.mark.parametrize("text", [
    "(check-ty (ctx) (u ²))",
    "(check-tm (ctx (bool)) (v ¹))",
], ids=["superscript-level", "superscript-index"])
def test_non_ascii_digits_are_a_parse_error(capsys, tmp_path, text):
    code, lines = _run_text(capsys, tmp_path, text)
    assert code == 2
    assert lines[-1] == "RESULT: error parse"
    assert lines[0].startswith("parse error: ")
    assert "expected a decimal natural" in lines[0]


def test_non_utf8_file_is_an_io_error(capsys, tmp_path):
    f = tmp_path / "latin1.tt"
    f.write_bytes(b"(canon (true\xff))")
    code, lines = _run(capsys, "run", str(f))
    assert code == 2
    assert lines[-1] == "RESULT: error io"
    assert lines[0].startswith(f"cannot read {f}: ")


# Every demo, and a file that fails to decode.
RUN_INPUTS = {demo.stem: demo.read_bytes() for demo in sorted(DEMO.glob("*.tt"))}
RUN_INPUTS["not-utf8"] = b"(canon (true\xff))"


@pytest.mark.parametrize("name", list(RUN_INPUTS))
def test_run_closes_its_input_file(tmp_path, name):
    # development mode reports a file left open as a ResourceWarning on
    # stderr, also when reading it fails
    f = tmp_path / "d.tt"
    f.write_bytes(RUN_INPUTS[name])
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttk.__file__)))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "ttk.cli", "run", str(f)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert done.stdout.splitlines()[-1].startswith("RESULT: ")
    assert done.stderr == ""


def test_missing_file_is_an_io_error(capsys, tmp_path):
    code, lines = _run(capsys, "run", str(tmp_path / "absent.tt"))
    assert code == 2
    assert lines[-1] == "RESULT: error io"


def _doubling_chain(k: int, leaf: str, step: str) -> str:
    """Form k, labelled ``#k=``, holds form k-1 twice: in full, where its
    label is defined, and as ``#k-1#``.  As a tree it has 2^k leaves."""
    text = f"#1={leaf}"
    for j in range(2, k + 1):
        text = f"#{j}=" + step.format(text, f"#{j - 1}#")
    return text


@pytest.mark.parametrize("text", [
    "(check-tm (ctx) (fst (lam {} (q))))".format(
        _doubling_chain(40, "(bool)", "(pi {0} (tysub {1} (p)))")),
    "(check-tm (ctx) (app (lam {} (q))))".format(
        _doubling_chain(40, "(bool)", "(sigma {0} (tysub {1} (p)))")),
    "(check-tm (ctx) (app (tmsub (q) {})))".format(
        _doubling_chain(40, "(p)", "(comp {0} {1})")),
], ids=["fst-of-lam", "app-in-empty-context", "shared-spine"])
def test_type_errors_print_shared_syntax_once(capsys, tmp_path, text):
    code, lines = _run_text(capsys, tmp_path, text)
    assert code == 3
    assert lines[-1] == "RESULT: error type"
    assert lines[0].startswith("type error: ")
    assert sum(len(line) + 1 for line in lines) < 8000


@pytest.mark.parametrize("head, size, limit", [
    ("termify", "size: tree=3604607 dag=249", 4000),
    ("param", "size: tree=3539883 dag=286", 8000),
])
def test_nested_pi_translation_prints_linear_output(capsys, tmp_path, head,
                                                    size, limit):
    # sixteen nested (pi (bool) ...): as a tree the payload has millions of
    # nodes, as printed a few kilobytes
    text = f"({head} (ctx) " + "(pi (bool) " * 16 + "(bool)" + ")" * 17
    code, lines = _run_text(capsys, tmp_path, text)
    assert code == 0
    assert lines[0].startswith("payload: ")
    assert lines[1] == size
    assert lines[-1] == "RESULT: accept"
    assert sum(len(line) + 1 for line in lines) < limit


# ``main`` reads ``run FILE`` itself and hands every other argument list to
# argparse.  Each form: the exit code, the last line on stdout and a phrase
# on stderr (None for none), as they were when argparse read every form.
# ``{idfun}`` is the demo file and ``{absent}`` a file that does not exist.
HELP = "  -h, --help      show this help message and exit"
RUN_HELP = "  -h, --help  show this help message and exit"
REQUIRED_FILE = "the following arguments are required: file"
ARGV_FORMS = [
    (["run", "{idfun}"], 0, "RESULT: accept", None),
    (["run", "{absent}"], 2, "RESULT: error io", None),
    (["run", "-"], 2, "RESULT: error io", None),
    (["run", ""], 2, "RESULT: error io", None),
    (["run", "--", "{idfun}"], 0, "RESULT: accept", None),
    (["run", "--", "-x.tt"], 2, "RESULT: error io", None),
    (["run", "-1"], 2, "RESULT: error io", None),
    (["run"], 2, None, REQUIRED_FILE),
    (["run", "-x.tt"], 2, None, REQUIRED_FILE),
    (["run", "-h"], 0, RUN_HELP, None),
    (["run", "a", "b"], 2, None, "unrecognized arguments: b"),
    (["run", "{idfun}", "--x"], 2, None, "unrecognized arguments: --x"),
    ([], 2, None, "the following arguments are required: command"),
    (["-h"], 0, HELP, None),
    (["--help"], 0, HELP, None),
    (["bogus"], 2, None, "argument command: invalid choice"),
    (["ru", "{idfun}"], 2, None, "argument command: invalid choice"),
    (["selftest", "--count", "0"], 2, None,
     "argument --count: expected an integer of at least 1, got '0'"),
    (["selftest", "--count", "1"], 0, "RESULT: accept", None),
]


@pytest.mark.parametrize("argv, code, last, phrase", ARGV_FORMS,
                         ids=[" ".join(argv) or "[]"
                              for argv, *_ in ARGV_FORMS])
def test_argv_forms_keep_their_argparse_outcome(capsys, tmp_path,
                                                monkeypatch, argv, code,
                                                last, phrase):
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(idfun=DEMO / "idfun.tt", absent=tmp_path / "absent.tt")
            for arg in argv]
    try:
        got = main(argv)
    except SystemExit as stop:  # argparse's help and usage errors
        got = stop.code
    captured = capsys.readouterr()
    assert got == code
    assert (captured.out.splitlines() or [None])[-1] == last
    if phrase is None:
        assert captured.err == ""
    else:
        assert phrase in captured.err
