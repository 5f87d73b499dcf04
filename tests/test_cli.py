import pathlib

import pytest

from ttk.cli import main

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


def test_termify_checks_before_translating(capsys, tmp_path):
    code, lines = _run_text(capsys, tmp_path, "(termify (ctx) (el (q)))")
    assert code == 3
    assert lines[-1] == "RESULT: error type"


def test_inject_checks_before_translating(capsys, tmp_path):
    code, lines = _run_text(capsys, tmp_path, "(inject (ctx) (el (q)))")
    assert code == 3
    assert lines[-1] == "RESULT: error type"


def test_param_user_error_is_not_a_translation_bug(capsys, tmp_path):
    code, lines = _run_text(capsys, tmp_path, "(param (ctx) (q))")
    assert code == 3
    assert lines[-1] == "RESULT: error type"
    assert not any("ill-typed output" in line for line in lines)


@pytest.mark.parametrize("text", [
    "(check-tm (ctx (bool)) (v 15000))",
    "(check-tm (ctx) " + "(lam (bool) " * 10000 + "(q)" + ")" * 10001,
], ids=["deep-variable", "deep-lam-nest"])
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


def test_missing_file_is_an_io_error(capsys, tmp_path):
    code, lines = _run(capsys, "run", str(tmp_path / "absent.tt"))
    assert code == 2
    assert lines[-1] == "RESULT: error io"
