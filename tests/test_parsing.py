"""File-format grammar, printer round-trips, and parse errors."""

from __future__ import annotations

import pytest

from gpq.endo import EndomorphicPresentation
from gpq.errors import ParseError
from gpq.parsing import document_of, parse_document, parse_presentation, print_document
from gpq.presentations import Presentation
from gpq.words import Alphabet, Substitution


def test_parse_involutive_presentation():
    p = parse_presentation("gens a!, c!, d!; rel (a d)^4;")
    assert isinstance(p, Presentation)
    assert p.alphabet.letters == ("a", "c", "d")
    assert all(p.alphabet.involutive)
    assert len(p.relators) == 1 and len(p.relators[0]) == 8


def test_parse_substitution_statement():
    doc = parse_document("gens a!, c!, d!;\nsub sigma: a -> a c a; c -> c d; d -> c;")
    sigma = doc.substitutions["sigma"]
    images = {name: str(sigma.images[sigma.alphabet.index(name)]) for name in "acd"}
    assert images == {"a": "a c a", "c": "c d", "d": "c"}


def test_malformed_word_is_parse_error():
    with pytest.raises(ParseError):
        parse_presentation("gens a;\nrel (a;")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_document("gens a;\nbogus a;")
    assert err.value.line == 2


def test_unknown_letter_rejected():
    with pytest.raises(ParseError):
        parse_presentation("gens a; rel a b;")


def test_unknown_letter_message_is_unquoted():
    with pytest.raises(ParseError) as err:
        parse_document("gens a;\nrel a q;")
    assert str(err.value) == "letter 'q' not in alphabet ('a',) (line 2, column 5)"


def test_missing_semicolon_rejected():
    with pytest.raises(ParseError):
        parse_document("gens a")


@pytest.mark.parametrize(
    "text, line, column, reason",
    [
        ("gens ;", 1, 1, "empty generator entry"),
        ("name n;\nendo gens ;", 2, 1, "empty generator entry"),
        ("gens a, b, a;", 1, 1, "duplicate letter names"),
        ("gens a;\nsub s: a -> ;", 2, 1, "images must be nonempty"),
        ("gens a;\nsub s: a -> a';", 2, 1, "images must be positive"),
        ("endo gens a;\nQ;\nR;\nphi s: a -> a';", 4, 1, "images must be positive"),
        # a second image or a second substitution of one name would overwrite the first
        ("gens a, b;\nsub s: a -> a; a -> b; b -> b;", 2, 16, "second image of 'a'"),
        ("gens a, b;\nsub s: a -> b; b -> a;\nsub s: a -> a; b -> b;", 3, 1, "duplicate substitution"),
    ],
)
def test_malformed_generators_or_substitution_is_a_parse_error_at_its_statement(
    text, line, column, reason
):
    with pytest.raises(ParseError, match=reason) as err:
        parse_document(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_round_trip_presentation():
    text = "name t;\ngens a!, b;\nrel a a;\nrel b a b' a;\nsub s: a -> a b a; b -> a;\nrule a a -> ;\n"
    doc = parse_document(text)
    printed = print_document(doc)
    assert print_document(parse_document(printed)) == printed


def test_round_trip_endomorphic():
    text = (
        "endo gens a!, c!, d!;\nQ;\nR a a, (a d)^4, (a d a c a c)^4;\n"
        "phi sigma: a -> a c a; c -> c d; d -> c;\n"
    )
    doc = parse_document(text)
    ep = doc.main()
    assert isinstance(ep, EndomorphicPresentation)
    assert not ep.q_relators
    assert len(ep.r_relators) == 3
    printed = print_document(doc)
    assert print_document(parse_document(printed)) == printed


def test_q_relators_parsed():
    doc = parse_document("endo gens a, b;\nQ a b a' b';\nR a a;\nphi f: a -> a; b -> a b;")
    ep = doc.main()
    assert ep.q_relators
    assert len(ep.q_relators) == 1


def test_substitution_missing_image_rejected():
    with pytest.raises(ParseError):
        parse_document("gens a, b;\nsub s: a -> b;")


def test_comments_and_whitespace_ignored():
    doc = parse_document("# heading\ngens a;   # trailing\n\nrel a a ;\n")
    assert len(doc.relators) == 1


def test_document_of_round_trips_library_objects():
    p = Presentation.make("a!, d!", ["(a d)^4"], "dih")
    doc = document_of(p)
    reparsed = parse_document(print_document(doc))
    assert reparsed.presentation() == p


def test_document_of_keeps_substitutions_whose_names_collide():
    # an unnamed substitution's generated name, phi1 or sub1, is that of the
    # named one before it; both are kept, in order, through print and parse
    alphabet = Alphabet.make("a", "b")

    def sub(rules, name=""):
        return Substitution.from_rules(alphabet, rules, name)

    images = ({"a": "a b", "b": "b"}, {"a": "a", "b": "b a"})
    ep = EndomorphicPresentation(alphabet, (), (sub(images[0], "phi1"), sub(images[1])), ())
    plain = Presentation.make("a, b", ["a b a' b'"], "ab")
    for doc in (document_of(ep), document_of(plain, substitutions=(sub(images[0], "sub1"), sub(images[1])))):
        reparsed = parse_document(print_document(doc))
        assert [s.images for s in reparsed.substitutions.values()] == [sub(rules).images for rules in images]


def test_rules_survive_round_trip():
    text = "gens a!, d!;\nrule a a -> ;\nrule d a d a -> a d a d;\n"
    doc = parse_document(text)
    assert len(doc.rules) == 2
    assert parse_document(print_document(doc)).rules == doc.rules


# -- property: printing then parsing is the identity on random documents --------

from hypothesis import given, settings
from hypothesis import strategies as st

_names = st.text(alphabet="abcdxyz", min_size=1, max_size=3)


@st.composite
def _documents(draw):
    import random as _random

    from gpq.parsing import Document
    from gpq.words import Alphabet, Word

    n = draw(st.integers(1, 4))
    names = draw(
        st.lists(_names, min_size=n, max_size=n, unique=True)
    )
    invol = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    alphabet = Alphabet(tuple(names), tuple(invol))

    def word(max_len):
        k = draw(st.integers(0, max_len))
        letters = []
        for _ in range(k):
            i = draw(st.integers(0, n - 1))
            e = 1 if invol[i] else draw(st.sampled_from((1, -1)))
            letters.append((i, e))
        return Word(alphabet, tuple(letters))

    doc = Document()
    doc.alphabet = alphabet
    doc.relators = [word(6) for _ in range(draw(st.integers(0, 3)))]
    rules = []
    for _ in range(draw(st.integers(0, 2))):
        lhs = word(4)
        if lhs.is_empty():
            continue
        rules.append((lhs, word(3)))
    doc.rules = rules
    return doc


@given(_documents())
@settings(max_examples=80, deadline=None)
def test_print_parse_round_trip_random_documents(doc):
    printed = print_document(doc)
    reparsed = parse_document(printed)
    assert reparsed.alphabet == doc.alphabet
    assert reparsed.relators == doc.relators
    assert reparsed.rules == doc.rules
    assert print_document(reparsed) == printed
