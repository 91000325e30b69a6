"""Word algebra: free reduction, involutive letters, substitutions."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpq.errors import LimitExceeded, NegativeExponent, ParseError
from gpq.grigorchuk import FAMILY_LETTER_CAP
from gpq.words import (
    LETTER_CAP,
    Alphabet,
    Substitution,
    Word,
    apply_substitution,
    free_reduce,
    iterate_substitution,
    rename_word,
    words_of_length,
    words_up_to_length,
    _tokenize,
    _word_letters,
)

from helpers import tokenize_by_characters, word_letters_recursive, words_of_length_recursive

AB = Alphabet.make("a", "b")
INV_A = Alphabet.make("a!")
ACD = Alphabet.make("a!", "c!", "d!")
ABD = Alphabet.make("a!", "b!", "d!")

sigma_acd = Substitution.from_rules(ACD, {"a": "a c a", "c": "c d", "d": "c"})
sigma_abd = Substitution.from_rules(ABD, {"a": "a b d a", "b": "d", "d": "b d"})


def W(alphabet, text):
    return Word.from_str(alphabet, text)


@pytest.mark.parametrize("name", ["", "b c", "x-y", "x!", "x'", "1x", "b^[a]"])
def test_alphabet_refuses_a_name_the_text_format_cannot_read_back(name):
    with pytest.raises(ValueError, match="bad letter name"):
        Alphabet(("a", name), (False, False))


def test_free_cancellation():
    assert free_reduce(W(AB, "a a' b")) == W(AB, "b")


def test_reduce_empty():
    assert free_reduce(Word.identity(AB)).is_empty()


def test_involutive_square():
    assert free_reduce(W(INV_A, "a a")).is_empty()


def test_already_reduced():
    w = W(AB, "b a b a' b'")
    assert free_reduce(w) == w


def test_involutive_letters_normalized_to_positive():
    w = W(ACD, "a' c d'")
    assert w.is_positive()
    assert w == W(ACD, "a c d")


@pytest.mark.parametrize("letters", [((2, 1),), ((-1, 1),), ((0, 2),), ((0, 0),)])
def test_word_rejects_bad_letters(letters):
    # an index outside the alphabet, or an exponent other than +1 and -1
    with pytest.raises(ValueError):
        Word(AB, letters)


def test_word_stores_involutive_inverse_as_the_letter():
    assert Word(ACD, ((0, -1), (1, 1))).letters == ((0, 1), (1, 1))
    assert W(ACD, "c'").letters == ((1, 1),)
    assert Word(AB, ((0, -1),)).letters == ((0, -1),)


def test_word_from_an_iterator_keeps_its_letters():
    assert Word(AB, (letter for letter in ((0, 1), (1, 1)))) == W(AB, "a b")
    assert Word(ACD, iter([(0, -1), (2, 1)])).letters == ((0, 1), (2, 1))


def test_rename_onto_an_involutive_letter_stores_it_positive():
    target = Alphabet.make("x!", "y")
    assert rename_word(W(AB, "a' b'"), target, {"a": "x", "b": "y"}).letters == ((0, 1), (1, -1))
    with pytest.raises(KeyError, match="'b' not in alphabet"):
        rename_word(W(AB, "a b"), Alphabet.make("a"))


def test_splice():
    w = W(AB, "a b a")
    assert w.splice(1, 1, W(AB, "a' b b").letters) == W(AB, "a a' b b a")
    assert w.splice(0, 0, ((1, -1),)) == W(AB, "b' a b a")
    assert w.splice(3, 0, ((1, -1),)) == W(AB, "a b a b'")
    assert w.splice(0, 3, ()).is_empty()
    # the result is a Word like any other: involutive inverses are stored positive
    assert W(ACD, "a c").splice(1, 1, ((2, -1),)) == W(ACD, "a d")
    # the inserted letters are checked
    with pytest.raises(ValueError, match="out of range"):
        w.splice(1, 0, ((2, 1),))
    with pytest.raises(ValueError, match="exponent"):
        w.splice(0, 1, ((0, 2),))


@pytest.mark.parametrize("alphabet", [AB, Alphabet.make("a!", "c!", "d")])
@pytest.mark.parametrize("length", range(5))
def test_words_of_length_matches_recursive_reference(alphabet, length):
    words = list(words_of_length(alphabet, length))
    assert all(w.alphabet == alphabet for w in words)
    assert [w.letters for w in words] == words_of_length_recursive(alphabet, length)


def random_word(alphabet, rng, max_len=20, positive=False):
    n = rng.randrange(max_len + 1)
    letters = []
    for _ in range(n):
        i = rng.randrange(len(alphabet))
        e = 1 if (positive or alphabet.involutive[i]) else rng.choice((1, -1))
        letters.append((i, e))
    return Word(alphabet, tuple(letters))


def test_free_reduce_keeps_the_letter_tuples_it_reads():
    # a b b' b' a' a reduces to a b', its letters 0 and 3 themselves, not copies
    letters = tuple((idx, exp) for idx, exp in zip((0, 1, 1, 1, 0, 0), (1, 1, -1, -1, -1, 1)))
    r = free_reduce(Word(AB, letters))
    assert r == W(AB, "a b'")
    assert r.letters[0] is letters[0] and r.letters[1] is letters[3]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_free_reduce_idempotent_and_shrinking(seed):
    rng = random.Random(seed)
    alphabet = rng.choice((AB, ACD))
    w = random_word(alphabet, rng, 30)
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert len(r) <= len(w)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_reduce_kills_inserted_inverse_pair(seed):
    rng = random.Random(seed)
    alphabet = rng.choice((AB, ACD))
    w = random_word(alphabet, rng, 15)
    v = random_word(alphabet, rng, 15)
    assert free_reduce(w * w.inverse() * v) == free_reduce(v)


def test_apply_substitution_examples():
    assert apply_substitution(sigma_acd, W(ACD, "a d")) == W(ACD, "a c a c")
    assert apply_substitution(sigma_acd, Word.identity(ACD)).is_empty()
    assert apply_substitution(sigma_abd, W(ABD, "a d")) == W(ABD, "a b d a b d")


def test_substitution_rejects_inverse_letters():
    with pytest.raises(NegativeExponent):
        apply_substitution(Substitution.from_rules(AB, {"a": "a", "b": "b"}), W(AB, "a'"))


def test_substitution_is_homomorphism_unreduced():
    rng = random.Random(11)
    for _ in range(100):
        u = random_word(ACD, rng, 10, positive=True)
        v = random_word(ACD, rng, 10, positive=True)
        assert (
            apply_substitution(sigma_acd, u * v).letters
            == (apply_substitution(sigma_acd, u) * apply_substitution(sigma_acd, v)).letters
        )


def test_iterate_examples():
    seed = W(ACD, "(a d)^4")
    assert iterate_substitution(sigma_acd, seed, 0) == seed
    w1 = iterate_substitution(sigma_acd, seed, 1)
    assert w1 == W(ACD, "(a c a c)^4")
    assert len(w1) == 16
    w1_abd = iterate_substitution(sigma_abd, W(ABD, "(a d)^4"), 1)
    assert w1_abd == W(ABD, "(a b d a b d)^4")
    assert len(w1_abd) == 24


def test_iterate_semigroup_law():
    rng = random.Random(23)
    for _ in range(40):
        w = random_word(ACD, rng, 20, positive=True)
        m, n = rng.randrange(7), rng.randrange(7)
        assert iterate_substitution(sigma_acd, w, m + n) == iterate_substitution(
            sigma_acd, iterate_substitution(sigma_acd, w, n), m
        )


def test_sigma_expansive_on_w_family():
    lengths = [
        len(iterate_substitution(sigma_acd, W(ACD, "(a d)^4"), n)) for n in range(6)
    ]
    assert lengths == sorted(lengths) and len(set(lengths)) == len(lengths)


def test_word_enumeration_counts():
    assert sum(1 for _ in words_up_to_length(ACD, 3)) == 1 + 3 + 9 + 27
    # two involutive + inverse-bearing letters: 'a!','b' gives 3 symbols
    mixed = Alphabet.make("a!", "b")
    assert sum(1 for _ in words_up_to_length(mixed, 2)) == 1 + 3 + 9


def test_from_str_parses_powers_and_inverses():
    assert W(AB, "(a b)^2 a'") == Word(AB, ((0, 1), (1, 1), (0, 1), (1, 1), (0, -1)))
    assert str(W(AB, "a b' a")) == "a b' a"


@pytest.mark.parametrize(
    "text, error",
    [
        ("a $ b", ParseError),   # a character no token starts with
        ("a ; b", ParseError),   # a file-format token that is no part of a word
        ("a # b", ParseError),   # a file-format comment
        ("(a b", ParseError),    # unbalanced '('
        ("(a b)^ a", ParseError),  # '^' without an integer
        ("(a b)^\u00b2", ParseError),  # a digit, but not one that int() reads
        ("a c", KeyError),       # a letter the alphabet lacks
    ],
)
def test_from_str_errors(text, error):
    with pytest.raises(error):
        W(AB, text)


def test_from_str_bad_character_names_the_word():
    with pytest.raises(ParseError) as err:
        W(AB, "a $")
    assert str(err.value) == "unexpected character '$' in word 'a $'"


def test_word_text_is_refused_past_the_letter_cap_before_it_is_built():
    assert LETTER_CAP == FAMILY_LETTER_CAP == 262_144
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded):
            W(AB, "((a b)^1000)^200")  # 400,000 letters, a list of 3.2 MB
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()
    assert len(W(AB, f"(a b)^{LETTER_CAP // 2}")) == LETTER_CAP
    assert len(W(AB, "((a b')^512)^256")) == LETTER_CAP
    assert W(AB, "()^" + "9" * 5000 + " a") == W(AB, "a")  # an empty group repeats to nothing
    for text in [
        f"(a b)^{LETTER_CAP // 2} a",  # literal letters count too
        f"a (a b)^{LETTER_CAP // 2}",
        f"((a)^{LETTER_CAP} ((b)^{LETTER_CAP}",  # the letters of every open group count
        "(a)^" + "1" * 5000,  # more digits than int() converts
    ]:
        with pytest.raises(LimitExceeded, match="more than 262,144 letters"):
            W(AB, text)


# each character class of the tokenizer; '-' and '>' apart start no token
TEXT_CHARS = "ab_\u00e91 2\u0663\u00b2 \t\r\n#;,:()^'!->"
EXPONENTS = ["0", "2", "12", "\u0663", "\u00b2"]
WORD_TOKENS = ["a", "b", "c", "(", ")", "^", "'", *EXPONENTS, "->", ";", "!"]


def _random_word_tokens(rng, depth=0):
    """The tokens of a random word over a, b and the unknown c, with nested
    groups and exponents, then as often as not with one token changed."""
    tokens = []
    for _ in range(rng.randrange(4)):
        if depth < 3 and rng.random() < 0.3:
            tokens += ["(", *_random_word_tokens(rng, depth + 1), ")"]
            tokens += ["^", rng.choice(EXPONENTS)] if rng.random() < 0.6 else []
        else:
            tokens += ["c" if rng.random() < 0.05 else rng.choice("ab")] + ["'"] * (rng.random() < 0.3)
    if depth == 0 and rng.random() < 0.5:
        k = rng.randrange(len(tokens) + 1)
        tokens[k : k + rng.randrange(2)] = [rng.choice(WORD_TOKENS)]
    return tokens


def _outcome(read, *args):
    """(True, what `read(*args)` returns), or (False, the type name and
    message of its error)."""
    try:
        return True, read(*args)
    except (ParseError, KeyError, ValueError) as exc:
        return False, (type(exc).__name__, str(exc))


def test_tokenizer_matches_the_reference():
    rng = random.Random(33)
    for _ in range(20_000):
        text = "".join(rng.choices(TEXT_CHARS, k=rng.randrange(16)))
        ours, ref = _outcome(_tokenize, text), _outcome(tokenize_by_characters, text)
        if "\u00b2" in text and ref[0]:
            # a digit but not decimal: a word character to the pattern, so a
            # token boundary next to it may move, but no character is lost
            assert ours[0] and "".join(t[0] for t in ours[1]) == "".join(t[0] for t in ref[1]), repr(text)
        else:
            assert ours == ref, repr(text)


def test_word_grammar_matches_the_reference():
    rng = random.Random(33)
    words = 0
    for _ in range(20_000):
        tokens = _random_word_tokens(rng)
        ours, ref = _outcome(_word_letters, AB, tokens), _outcome(word_letters_recursive, AB, tokens)
        if ref == (False, ("ValueError", "invalid literal for int() with base 10: '\u00b2'")):
            assert ours == (False, ("ParseError", "expected integer after '^'")), tokens
        else:
            assert ours == ref, tokens
        words += ref[0]
    assert words > 8_000


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_inverse_is_an_involution_and_antihomomorphism(seed):
    rng = random.Random(seed)
    alphabet = rng.choice((AB, ACD))
    u = random_word(alphabet, rng, 12)
    v = random_word(alphabet, rng, 12)
    assert u.inverse().inverse() == u
    assert (u * v).inverse() == v.inverse() * u.inverse()
    assert free_reduce(u * u.inverse()).is_empty()


def test_code_and_inverse_columns_on_a_mixed_alphabet():
    # letter index and column differ: t, t', a, b, b', c sit in columns 0-5
    mixed = Alphabet.make("t", "a!", "b", "c!")
    assert mixed.directions == ((0, 1), (0, -1), (1, 1), (2, 1), (2, -1), (3, 1))
    rng = random.Random(27)
    for _ in range(200):
        letters = tuple(rng.choice(mixed.directions) for _ in range(rng.randrange(12)))
        assert [ord(ch) for ch in mixed.code(letters)] == [mixed.columns[d] for d in letters]
    inverse = mixed.inverse_columns
    assert inverse == (1, 0, 2, 4, 3, 5)
    for k, d in enumerate(mixed.directions):
        assert inverse[inverse[k]] == k
        assert (mixed.directions[inverse[k]],) == Word(mixed, (d,)).inverse().letters
        assert mixed.inverse_codes[mixed.code((d,))] == mixed.code((mixed.directions[inverse[k]],))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_substitution_commutes_with_concatenation_under_iteration(seed):
    rng = random.Random(seed)
    u = random_word(ABD, rng, 8, positive=True)
    v = random_word(ABD, rng, 8, positive=True)
    n = rng.randrange(4)
    assert iterate_substitution(sigma_abd, u * v, n) == iterate_substitution(
        sigma_abd, u, n
    ) * iterate_substitution(sigma_abd, v, n)


def test_cyclic_reduction():
    from helpers import cyclically_reduce

    w = W(AB, "b' a b a' b' a a' b")
    r = cyclically_reduce(w)
    assert cyclically_reduce(r) == r  # idempotent
    assert str(cyclically_reduce(W(AB, "b' a b"))) == "a"
    assert cyclically_reduce(W(INV_A, "a a")).is_empty()
