"""Tietze moves: examples, certificates, inversion, rejection."""

from __future__ import annotations

import random

import pytest

from gpq.errors import DerivationDoesNotReduce, InvalidMove
from gpq.parsing import document_of, parse_document, print_document
from gpq.presentations import (
    FiniteEquivalenceTrace,
    Presentation,
    T1,
    T2,
    T3,
    T4,
    apply_move,
    tietze,
)
from gpq.words import Word, free_reduce


def W(p, text):
    return Word.from_str(p.alphabet, text)


def test_t1_introduces_definition():
    p = Presentation.make("a", [])
    q = tietze(p, T1("y", W(p, "a a")))
    assert q.alphabet.letters == ("a", "y")
    assert [str(r) for r in q.relators] == ["y a' a'"]


def test_t2_inverts_t1():
    p = Presentation.make("a", [])
    q, inverse = apply_move(p, T1("y", W(p, "a a")))
    assert inverse == T2("y")
    assert apply_move(q, inverse)[0] == p


def test_t3_product_of_relators():
    p = Presentation.make("a", ["a a"])
    cert = ((Word.identity(p.alphabet), 0, 1), (Word.identity(p.alphabet), 0, 1))
    q = tietze(p, T3(W(p, "(a)^4"), cert))
    assert [str(r) for r in q.relators] == ["a a", "a a a a"]


def test_t3_bad_certificate_rejected():
    p = Presentation.make("a", ["a a"])
    cert = ((Word.identity(p.alphabet), 0, 1),)
    with pytest.raises(DerivationDoesNotReduce):
        tietze(p, T3(W(p, "(a)^4"), cert))


def test_t2_requires_lone_defining_relator():
    p = Presentation.make("a, y", ["y a' a'", "y y"])
    with pytest.raises(InvalidMove):
        tietze(p, T2("y"))
    with pytest.raises(InvalidMove):
        tietze(p, T2("a"))  # occurs in relators but not of defining shape


def test_t4_requires_rederivation():
    p = Presentation.make("a", ["a a", "a a a a"])
    # relator 1 derivable from relator 0 twice (indices after removal)
    good = ((Word.identity(p.alphabet), 0, 1), (Word.identity(p.alphabet), 0, 1))
    q = tietze(p, T4(1, good))
    assert len(q.relators) == 1
    with pytest.raises(DerivationDoesNotReduce):
        tietze(p, T4(0, ()))  # cannot derive 'a a' from 'a a a a' with empty cert


def test_trace_replay_and_invert():
    p = Presentation.make("a, b", ["a b a' b'"])
    trace = FiniteEquivalenceTrace(p)
    trace.apply(T1("u", W(p, "a b")))
    current = trace.current
    cert = ((W(current, "a"), 0, 1),)
    trace.apply(T3(free_reduce(W(current, "a") * current.relators[0] * W(current, "a'")), cert))
    assert trace.invert() == p


def test_trace_replay_reapplies_its_moves():
    p = Presentation.make("a, b", ["a b a' b'"], "z2")
    trace = FiniteEquivalenceTrace(p)
    trace.apply(T1("u", W(p, "a b")))
    trace.apply(T1("v", W(trace.current, "u b")))
    trace.apply(T2("v"))
    assert len(trace.steps) == 3
    replayed = trace.replay()
    assert replayed == trace.current and replayed is not trace.current
    assert str(replayed) == "< a, b, u | a b a' b', u b' a' >"
    assert FiniteEquivalenceTrace(p, list(trace.steps)).current == trace.current


def _random_word(alphabet, rng, max_len=6):
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        i = rng.randrange(len(alphabet))
        e = 1 if alphabet.involutive[i] else rng.choice((1, -1))
        letters.append((i, e))
    return Word(alphabet, tuple(letters))


def test_random_moves_invert_exactly():
    rng = random.Random(99)
    p = Presentation.make("a, b!", ["a b a' b", "(b a)^3"], "seed")
    for k in range(120):
        if rng.random() < 0.5:
            move = T1(f"g{k}", _random_word(p.alphabet, rng))
        else:
            cert = tuple(
                (_random_word(p.alphabet, rng), rng.randrange(len(p.relators)), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 4))
            )
            prod = Word.identity(p.alphabet)
            for conj, idx, exp in cert:
                base = p.relators[idx] if exp == 1 else p.relators[idx].inverse()
                prod = prod * conj * base * conj.inverse()
            move = T3(free_reduce(prod), cert)
        q, inverse = apply_move(p, move)
        restored, _ = apply_move(q, inverse)
        assert restored == p, f"move {k} did not invert byte-identically"
        p = q  # walk on, presentation grows


def test_t1_keeps_relator_letters():
    p = Presentation.make("a, b!", ["a b a' b", "(b a)^3"])
    q = tietze(p, T1("y", W(p, "a b a")))
    assert all(new.letters is old.letters for new, old in zip(q.relators, p.relators))
    assert str(q.relators[-1]) == "y a' b a'"


def test_t2_of_last_letter_keeps_relator_letters():
    p = Presentation.make("a, b, y", ["a b a' b'", "y a' b", "b b a"])
    q, inverse = apply_move(p, T2("y"))
    assert q.alphabet.letters == ("a", "b")
    assert q.relators[0].letters is p.relators[0].letters
    assert q.relators[1].letters is p.relators[2].letters
    assert inverse == T1("y", W(q, "b' a"))


def test_t2_of_inner_letter_renumbers():
    p = Presentation.make("a, y, b", ["y a' b", "b b a"])
    q, inverse = apply_move(p, T2("y"))
    assert q.alphabet.letters == ("a", "b")
    assert [r.letters for r in q.relators] == [((1, 1), (1, 1), (0, 1))]
    assert str(q.relators[0]) == "b b a"
    assert inverse == T1("y", W(q, "b' a"))
    back = tietze(q, inverse)
    assert back.alphabet.letters == ("a", "b", "y")
    assert [str(r) for r in back.relators] == ["b b a", "y a' b"]


@pytest.mark.parametrize("exponent", [2, 0, -3])
def test_certificate_exponent_other_than_one_is_refused(exponent):
    p = Presentation.make("a", ["a a"])
    cert = ((Word.identity(p.alphabet), 0, exponent),)
    with pytest.raises(InvalidMove):
        tietze(p, T3(W(p, "a' a'"), cert))


def test_certificate_conjugator_over_another_alphabet_is_refused():
    p = Presentation.make("a", ["a a"])
    other = Presentation.make("b", [])
    cert = ((W(other, "b"), 0, 1),)
    with pytest.raises(InvalidMove):
        tietze(p, T3(W(p, "a a"), cert))


@pytest.mark.parametrize("name", ["", "b c"])
def test_t1_bad_letter_name_is_refused(name):
    p = Presentation.make("a", [])
    with pytest.raises(InvalidMove):
        tietze(p, T1(name, W(p, "a")))


@pytest.mark.parametrize("name", ["", "b c", "x!", "x'", "1x"])
def test_t1_refuses_a_name_the_text_format_cannot_read_back(name):
    p = Presentation.make("a", ["a a"])
    with pytest.raises(InvalidMove) as refused:
        tietze(p, T1(name, W(p, "a")))
    assert str(refused.value) == f"bad letter name {name!r}"


@pytest.mark.parametrize("name", ["é", "_y", "x2", "y_0"])
def test_t1_names_read_back_from_the_text_format(name):
    p = Presentation.make("a", ["a a"])
    q = tietze(p, T1(name, W(p, "a")))
    assert parse_document(print_document(document_of(q))).presentation() == q


@pytest.mark.parametrize("relators", [["y a y"], ["y a y'"], ["y a'", "a y'"]])
def test_t2_sees_the_letter_with_either_exponent(relators):
    p = Presentation.make("a, y", relators)
    with pytest.raises(InvalidMove):
        tietze(p, T2("y"))
