from __future__ import annotations

import sys
from pathlib import Path

import pytest

# helpers' own asserts, rewritten like a test module's, also run under `python -O`
pytest.register_assert_rewrite("helpers")
sys.path.insert(0, str(Path(__file__).parent))

from gpq.backends import bs_oracle, dihedral_group, free_abelian_oracle, free_oracle
from gpq.grigorchuk import make_grigorchuk_data
from gpq.presentations import Presentation
from gpq.words import Alphabet, Word


@pytest.fixture(scope="session", autouse=True)
def unchecked_words_pass_the_check():
    """Every word built by ``Word._of``, which skips the letter check, must
    pass that check and store the letters a checked word stores."""
    unchecked = Word._of

    def of(alphabet, letters):
        word = unchecked(alphabet, letters)
        assert type(word.letters) is tuple, word.letters
        assert Word(alphabet, letters).letters == word.letters, word
        return word

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Word, "_of", staticmethod(of))
        yield


@pytest.fixture(scope="session", autouse=True)
def unchecked_alphabets_pass_the_check():
    """Every alphabet built by ``Alphabet._of``, which skips the name check,
    must pass the checks of ``Alphabet(...)``: as many flags as names,
    unique names, and valid names."""
    unchecked = Alphabet._of

    def of(letters, involutive):
        alphabet = unchecked(letters, involutive)
        assert type(letters) is tuple and type(involutive) is tuple, alphabet
        Alphabet(letters, involutive)  # raises ValueError on a bad alphabet
        return alphabet

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Alphabet, "_of", staticmethod(of))
        yield


@pytest.fixture(scope="session", autouse=True)
def unchecked_presentations_pass_the_check():
    """Every presentation built by ``Presentation._of``, which skips the
    relator check, must pass the check of ``Presentation(...)``: every
    relator over its alphabet."""
    unchecked = Presentation._of

    def of(alphabet, relators, name):
        presentation = unchecked(alphabet, relators, name)
        assert type(relators) is tuple, presentation
        Presentation(alphabet, relators, name)  # raises ValueError on a relator over another alphabet
        return presentation

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Presentation, "_of", staticmethod(of))
        yield


@pytest.fixture(scope="session")
def grig():
    return make_grigorchuk_data()


@pytest.fixture(scope="session")
def z2_setup():
    p = Presentation.make("a, b", ["a b a' b'"], "z2")
    return p, free_abelian_oracle(2, p.alphabet)


@pytest.fixture(scope="session")
def f2_setup():
    p = Presentation.make("a, b", [], "f2")
    return p, free_oracle(2, p.alphabet)


@pytest.fixture(scope="session")
def d8_setup():
    p = Presentation.make("a!, d!", ["a a", "d d", "(a d)^4"], "d8")
    return p, dihedral_group(8, ("a", "d"))


@pytest.fixture(scope="session")
def bs2_setup():
    oracle = bs_oracle(1, 2)
    p = Presentation.make("a, b", ["a b a' b' b'"], "bs12")
    return p, oracle
