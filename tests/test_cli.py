"""Command-line behaviour: outputs, exit codes, JSON determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gpq.cli import _factored, main
from gpq.parsing import parse_document

Z2_FILE = "name z2;\ngens a, b;\nrel a b a' b';\n"
D8_FILE = (
    "name d8;\ngens a!, d!;\nrel a a;\nrel d d;\nrel (a d)^4;\n"
    "rule a a -> ;\nrule d d -> ;\nrule d a d a -> a d a d;\n"
)
EXPANDING_FILE = "gens a;\nrule a -> a a;\n"


@pytest.fixture()
def runner():
    return CliRunner()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_ball_summary_line(runner, tmp_path):
    path = _write(tmp_path, "z2.gp", Z2_FILE)
    result = runner.invoke(main, ["ball", path, "--backend", "abelian", "--radius", "2"])
    assert result.exit_code == 0
    assert "V=13 E=16 C=4 pi1=4" in result.output


def test_ball_kill_radius_and_json(runner, tmp_path):
    path = _write(tmp_path, "z2.gp", Z2_FILE)
    out = str(tmp_path / "report.json")
    result = runner.invoke(
        main,
        ["ball", path, "--backend", "abelian", "--radius", "2", "--kill-radius", "4", "--json", out],
    )
    assert result.exit_code == 0
    payload = json.loads(Path(out).read_text())
    assert payload["payload"]["kill_radius"] == 2
    assert "caps" in payload


def test_ball_json_deterministic(runner, tmp_path):
    path = _write(tmp_path, "z2.gp", Z2_FILE)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = str(tmp_path / name)
        assert (
            runner.invoke(
                main, ["ball", path, "--backend", "abelian", "--radius", "2", "--json", out]
            ).exit_code
            == 0
        )
        outs.append(Path(out).read_text())
    assert outs[0] == outs[1]


def test_free_backend_tree(runner, tmp_path):
    path = _write(tmp_path, "f2.gp", "gens a, b;\n")
    result = runner.invoke(main, ["ball", path, "--backend", "free", "--radius", "3"])
    assert result.exit_code == 0
    assert "pi1=0" in result.output


def test_parse_error_exit_code(runner, tmp_path):
    path = _write(tmp_path, "bad.gp", "gens a;\nrel (a;\n")
    result = runner.invoke(main, ["ball", path, "--backend", "free", "--radius", "1"])
    assert result.exit_code == 2


def test_missing_file_exit_code(runner, tmp_path):
    result = runner.invoke(
        main, ["ball", str(tmp_path / "nope.gp"), "--backend", "free", "--radius", "1"]
    )
    assert result.exit_code == 2


def test_oracle_mismatch_exit_code(runner, tmp_path):
    path = _write(tmp_path, "z2.gp", Z2_FILE)
    result = runner.invoke(main, ["ball", path, "--backend", "free", "--radius", "1"])
    assert result.exit_code == 3


def test_rewrite_word_and_confluence(runner, tmp_path):
    path = _write(tmp_path, "d8.gp", D8_FILE)
    result = runner.invoke(main, ["rewrite", path, "--word", "a d a d a", "--confluence"])
    assert result.exit_code == 0
    assert "d a d" in result.output
    assert "Certified" in result.output


def test_rewrite_ball_witness(runner, tmp_path):
    path = _write(tmp_path, "d8.gp", D8_FILE)
    result = runner.invoke(main, ["rewrite", path, "--ball-witness", "2"])
    assert result.exit_code == 0
    assert "certified r=2" in result.output


def test_rewrite_limit_exit_code(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("GPQ_STEP_CAP", "300")
    path = _write(tmp_path, "exp.gp", EXPANDING_FILE)
    result = runner.invoke(main, ["rewrite", path, "--word", "a"])
    assert result.exit_code == 4


def test_step_cap_env_override(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("GPQ_STEP_CAP", "5")
    path = _write(tmp_path, "d8.gp", D8_FILE)
    out = str(tmp_path / "r.json")
    result = runner.invoke(main, ["rewrite", path, "--word", "a a", "--json", out])
    assert result.exit_code == 0
    assert json.loads(Path(out).read_text())["caps"]["step_limit"] == 5


def test_grigorchuk_verify(runner, tmp_path):
    out = str(tmp_path / "verify.json")
    result = runner.invoke(main, ["grigorchuk", "verify", "--max-n", "1", "--json", out])
    assert result.exit_code == 0
    payload = json.loads(Path(out).read_text())
    assert payload["payload"]["summary"]["total"] == 32
    assert payload["payload"]["summary"]["all_equal"] is True
    assert len(payload["payload"]["reports"]) == 32


def test_grigorchuk_verify_zero(runner):
    result = runner.invoke(main, ["grigorchuk", "verify", "--max-n", "0"])
    assert result.exit_code == 0
    assert "total=0" in result.output
    assert "skipped" in result.output or "note:" in result.output


def test_grigorchuk_show(runner):
    result = runner.invoke(
        main, ["grigorchuk", "show", "--family", "w", "--n", "1", "--variant", "abd"]
    )
    assert result.exit_code == 0
    # (abdabd)^4 printed via its smallest period
    assert result.output.strip() == "(a b d)^8"


def test_grigorchuk_show_hnn_matches_golden(runner):
    golden = parse_document((Path(__file__).parent / "golden" / "grigorchuk_hnn.gp").read_text())
    result = runner.invoke(main, ["grigorchuk", "show", "--hnn", "--variant", "acd"])
    assert result.exit_code == 0
    gens = ", ".join(golden.alphabet.spec(i) for i in range(len(golden.alphabet)))
    rels = ", ".join(str(rel) for rel in golden.relators)
    assert result.output == f"< {gens} | {rels} >\n"


def test_ball_sphere_flag(runner, tmp_path):
    path = _write(tmp_path, "z2.gp", Z2_FILE)
    result = runner.invoke(
        main, ["ball", path, "--backend", "abelian", "--radius", "1", "--sphere"]
    )
    assert result.exit_code == 0
    assert "V=4 E=0 C=0" in result.output


def _assert_clean_exit(result, code):
    """Exit `code` through sys.exit with a message, never an uncaught exception."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.stderr
    assert result.stderr.strip()


@pytest.mark.parametrize(
    "args",
    [
        ["grigorchuk", "verify", "--max-n", "-1"],
        ["grigorchuk", "show", "--n", "-1"],
        ["ball", "{path}", "--backend", "abelian", "--radius", "-1"],
        ["ball", "{path}", "--backend", "abelian", "--radius", "1", "--kill-radius", "-1"],
    ],
)
def test_negative_count_is_a_usage_error(runner, tmp_path, args):
    path = _write(tmp_path, "z2.gp", Z2_FILE)
    _assert_clean_exit(runner.invoke(main, [arg.format(path=path) for arg in args]), 2)


def test_kill_radius_below_radius_exit_code(runner, tmp_path):
    path = _write(tmp_path, "z2.gp", Z2_FILE)
    result = runner.invoke(
        main, ["ball", path, "--backend", "abelian", "--radius", "2", "--kill-radius", "1"]
    )
    _assert_clean_exit(result, 2)
    assert result.stderr.strip() == "--kill-radius 1 is below --radius 2"
    assert result.stdout == ""


def test_negative_ball_witness_exit_code(runner, tmp_path):
    # a negative radius has no words to certify; it must not print a certificate
    path = _write(tmp_path, "d8.gp", D8_FILE)
    result = runner.invoke(main, ["rewrite", path, "--ball-witness", "-1"])
    _assert_clean_exit(result, 2)
    assert "certified" not in result.stdout


@pytest.mark.parametrize(
    "backend, code",
    [("dihedral:x", 2), ("bs:1,x", 2), ("bs:1", 2), ("dihedral:0", 3), ("bs:2,1", 3)],
)
def test_bad_backend_argument_exit_code(runner, tmp_path, backend, code):
    # a non-integer argument does not parse; a parsed order with no oracle
    # is an oracle mismatch
    path = _write(tmp_path, "z2.gp", Z2_FILE)
    result = runner.invoke(main, ["ball", path, "--backend", backend, "--radius", "1"])
    _assert_clean_exit(result, code)
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "command",
    [
        ["ball", "{path}", "--backend", "abelian", "--radius", "1"],
        ["rewrite", "{path}", "--word", "a d"],
    ],
)
def test_step_cap_not_an_integer_exit_code(runner, tmp_path, monkeypatch, command):
    monkeypatch.setenv("GPQ_STEP_CAP", "abc")
    path = _write(tmp_path, "d8.gp", D8_FILE)
    result = runner.invoke(main, [arg.format(path=path) for arg in command])
    _assert_clean_exit(result, 2)
    assert result.stderr.strip() == "GPQ_STEP_CAP must be an integer, got 'abc'"


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize(
    "command",
    [
        ["ball", "{z2}", "--backend", "abelian", "--radius", "2", "--kill-radius", "3"],
        ["rewrite", "{d8}", "--word", "a d a d a"],
    ],
)
def test_step_cap_below_one_exit_code(runner, tmp_path, monkeypatch, cap, command):
    # a cap below 1 would end every search at once: a false "exhausted"
    monkeypatch.setenv("GPQ_STEP_CAP", cap)
    paths = {"z2": _write(tmp_path, "z2.gp", Z2_FILE), "d8": _write(tmp_path, "d8.gp", D8_FILE)}
    result = runner.invoke(main, [arg.format(**paths) for arg in command])
    _assert_clean_exit(result, 2)
    assert result.stderr.strip() == f"GPQ_STEP_CAP must be at least 1, got {cap}"
    assert result.stdout == ""


def test_rewrite_has_no_step_limit_option(runner, tmp_path):
    # the step limit of `rewrite` is GPQ_STEP_CAP
    path = _write(tmp_path, "d8.gp", D8_FILE)
    result = runner.invoke(main, ["rewrite", path, "--word", "a a", "--step-limit", "5"])
    _assert_clean_exit(result, 2)
    assert "--step-limit" in result.stderr


@pytest.mark.parametrize(
    "command",
    [
        ["ball", "{z2}", "--backend", "abelian", "--radius", "2", "--kill-radius", "3"],
        ["rewrite", "{d8}", "--word", "a d a d a", "--ball-witness", "2"],
        ["grigorchuk", "verify", "--max-n", "2"],
    ],
)
def test_json_path_that_cannot_be_written_exit_code(runner, tmp_path, command):
    # refused before any work: nothing on stdout, where each command prints
    paths = {"z2": _write(tmp_path, "z2.gp", Z2_FILE), "d8": _write(tmp_path, "d8.gp", D8_FILE)}
    for out in (str(tmp_path / "missing" / "report.json"), str(tmp_path)):
        result = runner.invoke(main, [arg.format(**paths) for arg in command] + ["--json", out])
        _assert_clean_exit(result, 2)
        with pytest.raises(OSError) as opening:
            open(out, "w")
        assert result.stderr == f"cannot write {out}: {opening.value}\n"
        assert result.stdout == ""


@pytest.mark.parametrize(
    "command",
    [
        ["ball", "{z2}", "--backend", "abelian", "--radius", "3", "--kill-radius", "3"],
        ["rewrite", "{exp}", "--word", "a"],
        ["grigorchuk", "verify", "--max-n", "40"],
    ],
)
def test_run_that_fails_later_leaves_the_json_file_alone(runner, tmp_path, monkeypatch, command):
    # each run passes the --json check and then hits a limit (exit 4)
    monkeypatch.setenv("GPQ_STEP_CAP", "1")
    paths = {"z2": _write(tmp_path, "z2.gp", Z2_FILE), "exp": _write(tmp_path, "exp.gp", EXPANDING_FILE)}
    out = tmp_path / "report.json"
    out.write_text("kept\n")
    result = runner.invoke(main, [arg.format(**paths) for arg in command] + ["--json", str(out)])
    _assert_clean_exit(result, 4)
    assert out.read_text() == "kept\n"
    fresh = tmp_path / "fresh.json"
    runner.invoke(main, [arg.format(**paths) for arg in command] + ["--json", str(fresh)])
    assert not fresh.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["grigorchuk", "show", "--n", "40"],
        ["grigorchuk", "show", "--variant", "abd", "--family", "z", "--n", "12"],
        ["grigorchuk", "verify", "--max-n", "40"],
        ["grigorchuk", "verify", "--max-n", "11"],
    ],
)
def test_family_word_over_the_letter_cap_exit_code(runner, command):
    # the length is predicted from letter counts: no word of 2^40 letters is built
    result = runner.invoke(main, command)
    _assert_clean_exit(result, 4)
    assert len(result.stderr.splitlines()) == 1
    assert "more than 262,144 letters" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("variant", ["abcd", "acd", "abd"])
@pytest.mark.parametrize("family", ["w", "z"])
def test_family_words_up_to_n_11_are_within_the_letter_cap(runner, grig, variant, family):
    result = runner.invoke(
        main, ["grigorchuk", "show", "--variant", variant, "--family", family, "--n", "11"]
    )
    assert result.exit_code == 0
    assert result.output.strip() == _factored(grig.relator_family(variant, family, 11))
