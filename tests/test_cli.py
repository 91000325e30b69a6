"""Command-line behaviour: outputs, exit codes, JSON determinism."""

from __future__ import annotations

import json
import random
import shlex
import shutil
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

from gpq import balls, rewriting
from gpq.cli import _factored, main
from gpq.parsing import parse_document

Z2_FILE = "name z2;\ngens a, b;\nrel a b a' b';\n"
D8_FILE = (
    "name d8;\ngens a!, d!;\nrel a a;\nrel d d;\nrel (a d)^4;\n"
    "rule a a -> ;\nrule d d -> ;\nrule d a d a -> a d a d;\n"
)
EXPANDING_FILE = "gens a;\nrule a -> a a;\n"
# an endomorphic document with a rule: its relators are Q and R, not rel
ENDO_FILE = "endo gens a!, d!;\nQ;\nR a a, (a d)^4;\nphi s: a -> a d; d -> a;\nrule a a -> ;\n"
REPO = Path(__file__).resolve().parent.parent


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


def test_oracle_mismatch_names_a_long_relator_in_one_short_line(runner, tmp_path):
    # a relator at the 262,144-letter cap is named by its head and length
    path = _write(tmp_path, "long.gp", "gens a, b;\nrel (a b)^131072;\n")
    result = runner.invoke(main, ["ball", path, "--backend", "abelian", "--radius", "1"])
    _assert_clean_exit(result, 3)
    assert len(result.stderr.splitlines()) == 1 and len(result.stderr.encode()) < 1024
    assert result.stderr == (
        f"oracle mismatch: relator '{' '.join(['a b'] * 32)} ...' (262144 letters) "
        "is not trivial under free abelian group of rank 2\n"
    )
    assert result.stdout == ""


def test_rewrite_word_without_json_keeps_no_trace(runner):
    # memory stays at one word's length whatever the step count: 6,250
    # traced steps of a 10,000-letter word held about 250 MB
    d8 = str(REPO / "samples" / "d8.gp")
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["rewrite", d8, "--word", "(a d)^5000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert result.stdout.endswith(" -> e (6250 steps)\n")
    assert peak < 5_000_000


@pytest.mark.parametrize(
    "word, stdout, steps",
    [("a d a d a", "a d a d a -> d a d (2 steps)\n", 2), ("a d", "a d -> a d (0 steps)\n", 0), ("a a", "a a -> e (1 steps)\n", 1)],
)
def test_rewrite_word_line_is_the_same_with_and_without_json(runner, tmp_path, word, stdout, steps):
    d8 = str(REPO / "samples" / "d8.gp")
    out = str(tmp_path / "r.json")
    plain = runner.invoke(main, ["rewrite", d8, "--word", word])
    traced = runner.invoke(main, ["rewrite", d8, "--word", word, "--json", out])
    assert plain.exit_code == traced.exit_code == 0
    assert plain.stdout == traced.stdout == stdout
    assert len(json.loads(Path(out).read_text())["payload"]["trace"]["steps"]) == steps


def test_rewrite_word_step_limit_message_without_json(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("GPQ_STEP_CAP", "300")
    path = _write(tmp_path, "exp.gp", EXPANDING_FILE)
    for extra in ([], ["--json", str(tmp_path / "r.json")]):
        result = runner.invoke(main, ["rewrite", path, "--word", "a", *extra])
        _assert_clean_exit(result, 4)
        assert result.stderr == "resource limit: no irreducible word within 300 steps\n"
        assert result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["--radius", "3", "--kill-radius", "4"],
        ["--radius", "3", "--json", "{out}"],
        ["--radius", "3", "--sphere", "--json", "{out}"],
    ],
)
def test_ball_command_builds_no_vertex_name(runner, tmp_path, monkeypatch, args):
    # the summary, the JSON report and the kill radius read counts and rows only
    built = []
    names = balls.VertexNames._built
    monkeypatch.setattr(balls.VertexNames, "_built", lambda self: built.append(self) or names(self))
    path = str(REPO / "samples" / "z2.gp")
    out = str(tmp_path / "ball.json")
    result = runner.invoke(main, ["ball", path, "--backend", "abelian", *(a.format(out=out) for a in args)])
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith("V=25 E=36 C=12 pi1=12" if "--sphere" not in args else "V=12 E=0 C=0")
    assert built == []


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


def test_unknown_letter_in_word_message_is_unquoted(runner, tmp_path):
    path = _write(tmp_path, "d8.gp", D8_FILE)
    result = runner.invoke(main, ["rewrite", path, "--word", "a q"])
    _assert_clean_exit(result, 2)
    assert result.stderr == "bad word: letter 'q' not in alphabet ('a', 'd')\n"


@pytest.mark.parametrize(
    "word, code, message",
    [
        ("(a d)^\u00b2", 2, "bad word: expected integer after '^'\n"),
        ("((a d)^1000)^200", 4, "resource limit: a word's text expands to more than 262,144 letters\n"),
    ],
)
def test_word_text_of_a_bad_exponent_or_past_the_letter_cap_exit_code(
    runner, tmp_path, monkeypatch, word, code, message
):
    # a word past the cap is refused before rewriting; should one get past the
    # parser, the step cap keeps its trace to one step of 400,000 letters
    monkeypatch.setenv("GPQ_STEP_CAP", "1")
    path = _write(tmp_path, "d8.gp", D8_FILE)
    result = runner.invoke(main, ["rewrite", path, "--word", word])
    _assert_clean_exit(result, code)
    assert result.stderr == message
    assert result.stdout == ""


def test_unknown_letter_in_document_message_is_unquoted(runner, tmp_path):
    path = _write(tmp_path, "bad.gp", "gens a, b;\nrel a q;\n")
    result = runner.invoke(main, ["ball", path, "--backend", "free", "--radius", "1"])
    _assert_clean_exit(result, 2)
    assert result.stderr == (
        f"parse error in {path}: letter 'q' not in alphabet ('a', 'b') (line 2, column 5)\n"
    )


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


def test_sphere_with_kill_radius_exit_code(runner, tmp_path):
    # a sphere has no loop generators to kill
    path = _write(tmp_path, "z2.gp", Z2_FILE)
    result = runner.invoke(
        main,
        ["ball", path, "--backend", "abelian", "--radius", "2", "--sphere", "--kill-radius", "3"],
    )
    _assert_clean_exit(result, 2)
    assert result.stderr.strip() == "--kill-radius needs a ball, not --sphere"
    assert result.stdout == ""


@pytest.mark.parametrize(
    "command",
    [
        ["ball", "{path}", "--backend", "free", "--radius", "1"],
        ["rewrite", "{path}", "--ball-witness", "1"],
    ],
)
def test_endomorphic_document_has_no_presentation_exit_code(runner, tmp_path, command):
    # its relators live in Q and R: a ball or witness without them is wrong
    path = _write(tmp_path, "endo.gp", ENDO_FILE)
    result = runner.invoke(main, [arg.format(path=path) for arg in command])
    _assert_clean_exit(result, 2)
    assert len(result.stderr.splitlines()) == 1
    assert "endomorphic" in result.stderr
    assert "V=" not in result.stdout and "certified" not in result.stdout


def _readme_cli_examples():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("gpq ")]


def test_readme_lists_cli_examples():
    assert len(_readme_cli_examples()) >= 6


@pytest.mark.parametrize("args", _readme_cli_examples())
def test_readme_cli_example_runs(runner, tmp_path, monkeypatch, args):
    shutil.copytree(REPO / "samples", tmp_path / "samples")
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output


def test_negative_ball_witness_exit_code(runner, tmp_path):
    # a negative radius has no words to certify; it must not print a certificate
    path = _write(tmp_path, "d8.gp", D8_FILE)
    result = runner.invoke(main, ["rewrite", path, "--ball-witness", "-1"])
    _assert_clean_exit(result, 2)
    assert "certified" not in result.stdout


@pytest.mark.parametrize(
    "backend, code",
    [
        ("dihedral:x", 2), ("bs:1,x", 2), ("bs:1", 2), ("abelian:junk", 2), ("free:2", 2), ("abelian:", 2),
        ("dihedral:0", 3), ("bs:2,1", 3),
    ],
)
def test_bad_backend_argument_exit_code(runner, tmp_path, backend, code):
    # a non-integer argument, or any argument to free or abelian, which take
    # none, does not parse; a parsed order with no oracle is an oracle mismatch
    path = _write(tmp_path, "z2.gp", Z2_FILE)
    result = runner.invoke(main, ["ball", path, "--backend", backend, "--radius", "1"])
    _assert_clean_exit(result, code)
    assert len(result.stderr.splitlines()) == 1
    assert result.stdout == ""


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


def test_exhausted_kill_radius_exit_code_claims_no_survival(runner, tmp_path, monkeypatch):
    # the searches can only show that a loop dies: an exhausted kill radius
    # names the radii and the cap it tried
    monkeypatch.setenv("GPQ_STEP_CAP", "2")
    path = _write(tmp_path, "z2.gp", Z2_FILE)
    result = runner.invoke(main, ["ball", path, "--backend", "abelian", "--radius", "3", "--kill-radius", "4"])
    _assert_clean_exit(result, 4)
    assert result.stdout == "V=25 E=36 C=12 pi1=12\n"
    assert result.stderr == (
        "resource limit: no R in [3, 4] certified that the loop generators of B(3) die in B(R) "
        "within 2 states per search\n"
    )


def test_ball_kill_radius_builds_its_ball_once(runner, monkeypatch):
    # the kill radius starts from the ball the command built and reported
    radii = []
    explore = balls._explore
    monkeypatch.setattr(
        balls, "_explore", lambda dirs, start, step, r: radii.append(r) or explore(dirs, start, step, r)
    )
    path = str(REPO / "samples" / "z2.gp")
    result = runner.invoke(main, ["ball", path, "--backend", "abelian", "--radius", "3", "--kill-radius", "4"])
    assert result.exit_code == 0, result.output
    assert result.stdout == "V=25 E=36 C=12 pi1=12 kill_radius=3\n"
    assert radii == [3]


@pytest.mark.parametrize("kill, calls", [([], 0), (["--kill-radius", "4"], 1)])
def test_ball_builds_its_loop_generators_only_for_the_kill_radius(runner, monkeypatch, kill, calls):
    # pi1= is E - V + 1; only the kill radius needs the generators themselves
    built = []
    pi1_generators = balls.pi1_generators
    monkeypatch.setattr(balls, "pi1_generators", lambda ball: built.append(ball) or pi1_generators(ball))
    path = str(REPO / "samples" / "z2.gp")
    result = runner.invoke(main, ["ball", path, "--backend", "abelian", "--radius", "3", *kill])
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith("V=25 E=36 C=12 pi1=12")
    assert len(built) == calls


def test_ball_kill_radius_checks_the_oracle_once(runner, monkeypatch):
    # the searches on the ball built for the command reuse its oracle check
    checks = []
    check = balls._check_oracle
    monkeypatch.setattr(balls, "_check_oracle", lambda oracle, p: checks.append(p) or check(oracle, p))
    path = str(REPO / "samples" / "z2.gp")
    result = runner.invoke(main, ["ball", path, "--backend", "abelian", "--radius", "3", "--kill-radius", "4"])
    assert result.stdout == "V=25 E=36 C=12 pi1=12 kill_radius=3\n"
    assert len(checks) == 1


def test_ball_witness_step_limit_is_a_resource_limit(runner, tmp_path):
    # a b -> b a and b a -> a b loop forever on 'a b': a step limit, not a failed check
    path = _write(tmp_path, "swap.gp", "gens a, b;\nrel a b a' b';\nrule a b -> b a;\nrule b a -> a b;\n")
    result = runner.invoke(main, ["rewrite", path, "--ball-witness", "1"])
    _assert_clean_exit(result, 4)
    assert result.stderr == "resource limit: candidate word 'a b': no irreducible word within 10000 steps\n"
    assert "FAILURE" not in result.output


def test_ball_witness_over_the_word_cap_exit_code(runner, monkeypatch):
    # 2^18 - 1 candidate words of length <= 17: refused before the first reduction
    calls = []
    rewrite = rewriting._rewrite
    monkeypatch.setattr(rewriting, "_rewrite", lambda *args: calls.append(args) or rewrite(*args))
    result = runner.invoke(main, ["rewrite", str(REPO / "samples" / "d8.gp"), "--ball-witness", "8"])
    _assert_clean_exit(result, 4)
    assert result.stderr == "resource limit: more than 200000 candidate words at radius 8\n"
    assert result.stdout == ""
    assert calls == []


def test_rewrite_has_no_step_limit_option(runner, tmp_path):
    # the step limit of `rewrite` is GPQ_STEP_CAP
    path = _write(tmp_path, "d8.gp", D8_FILE)
    result = runner.invoke(main, ["rewrite", path, "--word", "a a", "--step-limit", "5"])
    _assert_clean_exit(result, 2)
    assert "--step-limit" in result.stderr


def test_ball_has_no_pi1_option(runner, tmp_path):
    # a ball report always states its loop rank, E - V + 1
    path = _write(tmp_path, "z2.gp", Z2_FILE)
    for flag in ("--no-pi1", "--pi1"):
        result = runner.invoke(main, ["ball", path, "--backend", "abelian", "--radius", "1", flag])
        _assert_clean_exit(result, 2)
        assert flag in result.stderr


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
    for out in (str(tmp_path / "missing" / "report.json"), str(tmp_path), ""):
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


BALL = ["ball", "{path}", "--backend", "free", "--radius", "1"]
WITNESS = ["rewrite", "{path}", "--ball-witness", "1"]


@pytest.mark.parametrize(
    "text, command, code, start",
    [
        (b"gens ;\n", BALL, 2, "parse error in "),
        (b"gens a, a;\n", BALL, 2, "parse error in "),
        (b"gens a;\nsub s: a -> ;\n", BALL, 2, "parse error in "),
        (b"gens a;\nsub s: a -> a';\n", BALL, 2, "parse error in "),
        (b"endo gens a;\nQ;\nR;\nphi s: a -> a';\n", BALL, 2, "parse error in "),
        (b"gens a\xff;\n", BALL, 2, "cannot read "),
        # a rule that lengthens words; a rule with no relator of its own
        (b"gens a;\nrel a a a;\nrule a -> a a a a;\n", WITNESS, 2, "bad argument: "),
        (b"gens a!, d!;\nrel a a;\nrule a a -> ;\nrule d d -> ;\n", WITNESS, 3, "oracle mismatch: "),
        # a superscript exponent, which str.isdigit accepts and int() does not
        (b"gens a, b;\nrel (a b)^\xc2\xb2;\n", BALL, 2, "parse error in "),
        # a word's text that expands past the letter cap, or an exponent too long for int()
        (b"gens a, b;\nrel ((a b)^1000)^200;\n", BALL, 4, "resource limit: "),
        pytest.param(b"gens a, b;\nrel (a)^" + b"1" * 5000 + b";\n", BALL, 4, "resource limit: ",
                     id="exponent-of-5000-digits"),
    ],
)
def test_malformed_input_exit_code(runner, tmp_path, text, command, code, start):
    path = tmp_path / "doc.gp"
    path.write_bytes(text)
    result = runner.invoke(main, [arg.format(path=path) for arg in command])
    _assert_clean_exit(result, code)
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(start)


# a document is a head and up to three body statements, each malformed one time in five
HEADS = ([b"gens a, b;", b"gens a!, b!;", b"endo gens a!, b!;", b"gens a, b, c;"],
         [b"gens ;", b"gens a, a;", b"gens a b;", b"rel a a;"])
BODIES = (
    [b"rel a b a' b';", b"rel a b a' b' b';", b"rel a a;", b"rel b b;", b"rel (a b)^4;",
     b"rule a a -> ;", b"rule b b -> ;", b"rule b a b a -> a b a b;", b"rule b a -> a b;",
     b"rule a -> a a;", b"rel a b a' b'; rule a b -> b a; rule b a -> a b;", b"Q;",
     b"R a a, (a b)^4;", b"sub s: a -> a b; b -> a;", b"phi s: a -> a b; b -> a;",
     b"name n;"],
    [b"rel (a;", b"rule -> a;", b"rel a q;", b"bogus;", b"rel a", b"a -> b;",
     b"sub s: a -> ;", b"sub s: a -> a';", b"phi s: a -> a';", b"# \xff",
     b"sub s: a -> a; a -> b;", b"rule a -> a a a a;"],
)
COMMANDS = [
    ["ball", "{path}", "--backend", backend, "--radius", "2", *kill]
    for backend in ("free", "abelian", "dihedral:8", "bs:1,2")
    for kill in ([], ["--kill-radius", "3"])
] + [
    ["rewrite", "{path}", "--word", "a a"],
    ["rewrite", "{path}", "--confluence"],
    ["rewrite", "{path}", "--ball-witness", "1"],
]


def _random_document(rng) -> bytes:
    def pick(fragments):
        valid, malformed = fragments
        return rng.choice(malformed if rng.random() < 0.2 else valid)

    return b"\n".join([pick(HEADS)] + [pick(BODIES) for _ in range(rng.randint(0, 3))]) + b"\n"


def test_every_run_ends_in_a_documented_exit_code(runner, tmp_path, monkeypatch):
    # malformed documents among them; each run exits 0 or 2-4 through sys.exit
    monkeypatch.setenv("GPQ_STEP_CAP", "200")
    rng = random.Random(0)
    path = tmp_path / "doc.gp"
    codes = set()
    for i in range(297):
        path.write_bytes(_random_document(rng))
        command = COMMANDS[i % len(COMMANDS)]
        result = runner.invoke(main, [arg.format(path=path) for arg in command])
        case = (path.read_bytes(), command, result.output)
        assert result.exit_code in range(5), case
        assert result.exception is None or isinstance(result.exception, SystemExit), case
        if result.exit_code >= 2:
            assert len(result.stderr.splitlines()) == 1, case
        codes.add(result.exit_code)
    # exit 1 is a MISMATCH in the Grigorchuk grid, which neither command runs
    assert codes == {0, 2, 3, 4}
