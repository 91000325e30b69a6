"""Every Python file of the project parses under the oldest grammar that
pyproject.toml promises (Python 3.10), whatever Python runs the tests, the
library checks nothing with `assert`, which `python -O` removes, and only
`words` writes the letter code that `Alphabet.code` owns."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for folder in ("src", "tests", "perfbench") for p in (ROOT / folder).rglob("*.py"))


def test_the_sources_are_found():
    names = {p.relative_to(ROOT).as_posix() for p in SOURCES}
    assert {"src/gpq/words.py", "tests/test_grammar.py", "perfbench/run.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=[p.relative_to(ROOT).as_posix() for p in SOURCES])
def test_parses_under_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_library_has_no_assert_statement():
    found = [
        f"{path.relative_to(ROOT).as_posix()}:{node.lineno}"
        for path in SOURCES
        if path.relative_to(ROOT).parts[:2] == ("src", "gpq")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_words_spells_out_the_letter_code():
    found = [
        f"{path.relative_to(ROOT).as_posix()}:{number}"
        for path in SOURCES
        if path.relative_to(ROOT).parts[:2] == ("src", "gpq") and path.name != "words.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "chr(" in line
    ]
    assert found == []
