"""Command-line surface: balls, rewriting, and the Grigorchuk verification.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 oracle
mismatch, 4 resource limit.  All output is deterministic for fixed inputs;
JSON reports echo every search cap (overridable via GPQ_STEP_CAP).
"""

from __future__ import annotations

import errno
import json
import os
import sys

import click

from . import balls as balls_mod
from . import rewriting as rw
from .backends import bs_oracle, dihedral_group, free_abelian_oracle, free_oracle
from .endo import EndomorphicPresentation, hnn_presentation
from .errors import (
    BadOrder,
    CombinatorialExplosion,
    Exhausted,
    LimitExceeded,
    OracleMismatch,
    ParseError,
    Unsupported,
)
from .grigorchuk import make_grigorchuk_data, run_full_verification
from .parsing import parse_document
from .words import Word

EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_ORACLE = 3
EXIT_LIMIT = 4


def _step_cap(default: int = 20_000) -> int:
    text = os.environ.get("GPQ_STEP_CAP", str(default))
    try:
        cap = int(text)
    except ValueError:
        click.echo(f"GPQ_STEP_CAP must be an integer, got {text!r}", err=True)
        sys.exit(EXIT_PARSE)
    if cap < 1:
        click.echo(f"GPQ_STEP_CAP must be at least 1, got {cap}", err=True)
        sys.exit(EXIT_PARSE)
    return cap


def _int_arg(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"backend {spec!r} needs integer arguments, got {text!r}") from None


def _cannot_write(json_path: str, exc: OSError):
    click.echo(f"cannot write {json_path}: {exc}", err=True)
    sys.exit(EXIT_PARSE)


def _json_path(ctx, param, json_path: str | None):
    """Refuse a --json PATH that is a directory or has no parent directory,
    before any work.  Nothing is opened here: a run that fails later leaves
    the file as it was."""
    if json_path is not None:
        if os.path.isdir(json_path) or not os.path.isdir(os.path.dirname(json_path) or "."):
            code = errno.EISDIR if os.path.isdir(json_path) else errno.ENOENT
            _cannot_write(json_path, OSError(code, os.strerror(code), json_path))
    return json_path


def _emit(report: dict, json_path: str | None):
    text = json.dumps(report, sort_keys=True, indent=2)
    if json_path:
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            _cannot_write(json_path, exc)
    return text


def _load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except OSError as exc:
        click.echo(f"cannot read {path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    except ParseError as exc:
        click.echo(f"parse error in {path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _make_oracle(spec: str, alphabet):
    kind, _, args = spec.partition(":")
    if kind == "free":
        return free_oracle(len(alphabet), alphabet)
    if kind == "abelian":
        return free_abelian_oracle(len(alphabet), alphabet)
    if kind == "dihedral":
        order = _int_arg(args, spec)
        if len(alphabet) != 2:
            raise OracleMismatch("dihedral backend needs a 2-letter alphabet")
        return dihedral_group(order, names=(alphabet.letters[0], alphabet.letters[1]))
    if kind == "bs":
        m_s, _, n_s = args.partition(",")
        if len(alphabet) != 2:
            raise OracleMismatch("bs backend needs a 2-letter alphabet")
        m, n = _int_arg(m_s, spec), _int_arg(n_s, spec)
        return bs_oracle(m, n, names=(alphabet.letters[0], alphabet.letters[1]))
    raise OracleMismatch(f"unknown backend {spec!r}")


@click.group()
def main():
    """Cayley-ball topology, rewriting certificates, and presentation induction."""


@main.command("ball")
@click.argument("path", type=click.Path())
@click.option("--backend", required=True, help="free | abelian | dihedral:ORDER | bs:M,N")
@click.option("--radius", type=click.IntRange(min=0), required=True)
@click.option("--sphere", is_flag=True, help="build the metric sphere instead")
@click.option("--pi1/--no-pi1", default=True, help="also report loop generators")
@click.option("--kill-radius", "r_max", type=int, default=None, help="search the kill radius up to R")
@click.option("--json", "json_path", type=click.Path(), default=None, callback=_json_path)
def cmd_ball(path, backend, radius, sphere, pi1, r_max, json_path):
    """Build a metric ball of a presentation and report its topology."""
    doc = _load_document(path)
    caps = {"step_cap": _step_cap()}
    if r_max is not None and not sphere and r_max < radius:
        click.echo(f"--kill-radius {r_max} is below --radius {radius}", err=True)
        sys.exit(EXIT_PARSE)
    try:
        p = doc.presentation()
        oracle = _make_oracle(backend, p.alphabet)
        build = balls_mod.build_sphere if sphere else balls_mod.build_ball
        ball = build(oracle, p, radius)
    except (OracleMismatch, BadOrder, Unsupported) as exc:
        click.echo(f"oracle mismatch: {exc}", err=True)
        sys.exit(EXIT_ORACLE)
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(EXIT_PARSE)

    payload = {
        "radius": radius,
        "sphere": sphere,
        "vertices": len(ball.vertices),
        "edges": len(ball.edges),
        "cells": len(ball.cells),
    }
    line = f"V={len(ball.vertices)} E={len(ball.edges)} C={len(ball.cells)}"
    if pi1 and not sphere:
        rank = balls_mod.pi1_generators(ball).rank
        payload["pi1_rank"] = rank
        line += f" pi1={rank}"
    if r_max is not None and not sphere:
        try:
            kr = balls_mod.pi1_kill_radius(oracle, p, radius, r_max, step_cap=caps["step_cap"])
            payload["kill_radius"] = kr
            line += f" kill_radius={kr}"
        except Exhausted as exc:
            click.echo(line)
            click.echo(f"kill radius exhausted: {exc}", err=True)
            sys.exit(EXIT_LIMIT)
    click.echo(line)
    report = {"command": "ball", "backend": backend, "caps": caps, "payload": payload}
    if json_path:
        _emit(report, json_path)


@main.command("rewrite")
@click.argument("path", type=click.Path())
@click.option("--word", "word_text", default=None, help="word to reduce")
@click.option("--confluence", is_flag=True, help="certify local confluence")
@click.option("--ball-witness", "witness_r", type=click.IntRange(min=0), default=None)
@click.option("--json", "json_path", type=click.Path(), default=None, callback=_json_path)
def cmd_rewrite(path, word_text, confluence, witness_r, json_path):
    """Reduce words, certify confluence, or build ball null-homotopy witnesses."""
    doc = _load_document(path)
    if not doc.rules:
        click.echo("document declares no rewriting rules", err=True)
        sys.exit(EXIT_PARSE)
    rs = rw.RewritingSystem(doc.alphabet, tuple(doc.rules))
    limit = _step_cap(10_000)
    caps = {"step_limit": limit}
    payload: dict = {"rules": len(rs.rules), "geodesic": rw.is_geodesic(rs)}

    if word_text is not None:
        try:
            word = Word.from_str(doc.alphabet, word_text)
        except (ParseError, KeyError) as exc:
            click.echo(f"bad word: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        try:
            nf, trace = rw.reduce(rs, word, step_limit=limit)
        except LimitExceeded as exc:
            click.echo(f"step limit exceeded: {exc}", err=True)
            sys.exit(EXIT_LIMIT)
        click.echo(f"{word} -> {nf or 'e'} ({len(trace.steps)} steps)")
        payload["word"] = str(word)
        payload["normal_form"] = str(nf)
        payload["trace"] = json.loads(trace.to_json())

    if confluence:
        result = rw.certify_local_confluence(rs, step_limit=limit)
        kind = type(result).__name__
        click.echo(kind)
        payload["confluence"] = kind
        if isinstance(result, rw.Counterexample):
            payload["counterexample"] = {
                "peak": str(result.peak),
                "left": str(result.left),
                "right": str(result.right),
            }

    if witness_r is not None:
        p = doc.presentation()
        try:
            result = rw.ball_null_homotopy_witness(rs, p, witness_r, step_limit=limit)
        except (CombinatorialExplosion, LimitExceeded) as exc:
            click.echo(f"resource limit: {exc}", err=True)
            sys.exit(EXIT_LIMIT)
        if isinstance(result, rw.WitnessFailure):
            click.echo(f"FAILURE at word '{result.word}': {result.reason}")
            payload["witness"] = {"ok": False, "word": str(result.word)}
            sys.exit(EXIT_VERIFY)
        click.echo(
            f"certified r={witness_r}: {len(result.witnesses)} identity words "
            f"of {result.words_checked} candidates"
        )
        payload["witness"] = {
            "ok": True,
            "identity_words": len(result.witnesses),
            "candidates": result.words_checked,
        }

    report = {"command": "rewrite", "caps": caps, "payload": payload}
    if json_path:
        _emit(report, json_path)


@main.group("grigorchuk")
def cmd_grigorchuk():
    """The recursive-presentation verification pipeline."""


@cmd_grigorchuk.command("verify")
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@click.option("--json", "json_path", type=click.Path(), default=None, callback=_json_path)
def grigorchuk_verify(max_n, json_path):
    """Verify every induced-relator identity for n = 1..max_n."""
    data = make_grigorchuk_data()
    try:
        reports, summary = run_full_verification(data, max_n)
    except LimitExceeded as exc:
        click.echo(f"resource limit: {exc}", err=True)
        sys.exit(EXIT_LIMIT)
    for rep in reports:
        status = f"ok[{rep.level}]" if rep.equal else "MISMATCH"
        click.echo(f"{rep.case_id():32} {status}")
    click.echo(
        f"total={summary.total} equal={summary.equal} "
        f"levels={json.dumps(summary.to_dict()['by_level'], sort_keys=True)}"
    )
    for note in summary.skipped:
        click.echo(f"note: {note}")
    report = {
        "command": "grigorchuk verify",
        "caps": {"max_n": max_n},
        "payload": {
            "reports": [r.to_dict() for r in reports],
            "summary": summary.to_dict(),
        },
    }
    if json_path:
        _emit(report, json_path)
    if not summary.all_equal:
        sys.exit(EXIT_VERIFY)


def _factored(word) -> str:
    """Print a word as (block)^k when it is a proper power."""
    n = len(word.letters)
    if n == 0:
        return "e"
    for period in range(1, n // 2 + 1):
        if n % period == 0 and word.letters == word.letters[:period] * (n // period):
            block = Word(word.alphabet, word.letters[:period])
            return f"({block})^{n // period}"
    return str(word)


@cmd_grigorchuk.command("show")
@click.option("--variant", type=click.Choice(["abcd", "acd", "abd"]), default="acd")
@click.option("--family", type=click.Choice(["w", "z"]), default="w")
@click.option("--n", type=click.IntRange(min=0), default=0)
@click.option("--hnn", is_flag=True, help="print the HNN extension instead")
def grigorchuk_show(variant, family, n, hnn):
    """Print relator-family members (or the finitely presented extension)."""
    data = make_grigorchuk_data()
    if hnn:
        alphabet, sigma = data._variant(variant)
        ep = EndomorphicPresentation(
            alphabet=alphabet,
            q_relators=(),
            substitutions=(sigma,),
            r_relators=(
                Word.from_str(alphabet, "a a"),
                data.relator_family(variant, "w", 0),
                data.relator_family(variant, "z", 0),
            ),
            stable_names=("t",),
            name=f"grigorchuk_{variant}",
        )
        click.echo(str(hnn_presentation(ep)))
        return
    try:
        word = data.relator_family(variant, family, n)
    except LimitExceeded as exc:
        click.echo(f"resource limit: {exc}", err=True)
        sys.exit(EXIT_LIMIT)
    click.echo(_factored(word))


if __name__ == "__main__":
    main()
