"""Endomorphic presentations, HNN extensions, decoding, pinch reduction."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gpq.endo
from gpq.endo import (
    EndomorphicPresentation,
    PinchStep,
    britton_pinch_reduce,
    expand_relators,
    expand_relators_annotated,
    hnn_presentation,
    is_positive,
    order_less,
    replay_pinch_trace,
    sigma_decode,
    stable_projection,
)
from gpq.errors import BrittonStuck, LimitExceeded, NegativeExponent, NotInImage
from gpq.words import Alphabet, Substitution, Word, apply_substitution, free_reduce
from helpers import decode_by_tuples, expand_by_levels, expand_by_sequences

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def lysenok(grig):
    return EndomorphicPresentation(
        alphabet=grig.acd,
        q_relators=(),
        substitutions=(grig.sigma_acd,),
        r_relators=(
            Word.from_str(grig.acd, "a a"),
            Word.from_str(grig.acd, "(a d)^4"),
            Word.from_str(grig.acd, "(a d a c a c)^4"),
        ),
        stable_names=("t",),
        name="lysenok",
    )


def test_expand_depth_zero(lysenok):
    rels = expand_relators(lysenok, 0)
    assert [str(r) for r in rels] == [
        "a a",
        "a d a d a d a d",
        "a d a c a c a d a c a c a d a c a c a d a c a c",
    ]


def test_expand_depth_one_adds_images(lysenok, grig):
    rels = expand_relators(lysenok, 1)
    w1 = grig.relator_family("acd", "w", 1)
    assert w1 in rels
    assert len(rels) == 6  # 3 seeds + 3 distinct images


def test_expand_r_empty():
    ab = Alphabet.make("a", "b")
    ep = EndomorphicPresentation(
        alphabet=ab,
        q_relators=(Word.from_str(ab, "a b"),),
        substitutions=(Substitution.from_rules(ab, {"a": "a", "b": "b a"}),),
        r_relators=(),
    )
    assert [str(r) for r in expand_relators(ep, 3)] == ["a b"]


def test_expand_monotone_and_counts(lysenok):
    prev = set()
    for d in range(5):
        current = {w.letters for w in expand_relators(lysenok, d)}
        assert prev <= current
        prev = current
    # single substitution, all composites distinct: |R| * (d+1) members
    for d in range(5):
        assert len(expand_relators(lysenok, d)) == 3 * (d + 1)

def test_hnn_presentation_grigorchuk(lysenok):
    hp = hnn_presentation(lysenok)
    assert hp.alphabet.letters == ("a", "c", "d", "t")
    assert hp.alphabet.involutive == (True, True, True, False)
    rels = [str(r) for r in hp.relators]
    assert rels[:3] == [
        "a a",
        "a d a d a d a d",
        "a d a c a c a d a c a c a d a c a c a d a c a c",
    ]
    # conjugacy orientation t s t^-1 = image(s); note the d c spelling for (cd)^-1
    assert rels[3:] == ["t a t' a c a", "t c t' d c", "t d t' c"]


def test_hnn_without_substitutions():
    ab = Alphabet.make("a!", "b!")
    ep = EndomorphicPresentation(
        alphabet=ab,
        q_relators=(Word.from_str(ab, "(a b)^2"),),
        substitutions=(),
        r_relators=(Word.from_str(ab, "a a"),),
    )
    hp = hnn_presentation(ep)
    assert hp.alphabet == ab
    assert [str(r) for r in hp.relators] == ["a b a b", "a a"]


def test_hnn_of_doubling_map_is_baumslag_solitar():
    # <a | - | a -> a^2 | -> gives <a, t | t a t' a' a'>, the B(1,2) relator
    # a b a' b' b' after renaming a -> t, b -> a
    alpha = Alphabet.make("a")
    ep = EndomorphicPresentation(
        alphabet=alpha,
        q_relators=(),
        substitutions=(Substitution.from_rules(alpha, {"a": "a a"}, "t"),),
        r_relators=(),
    )
    hp = hnn_presentation(ep)
    assert len(hp.relators) == 1
    from gpq.words import rename_word

    bs_alpha = Alphabet.make("a", "b")
    renamed = rename_word(hp.relators[0], bs_alpha, {"t": "a", "a": "b"})
    assert str(renamed) == "a b a' b' b'"


def test_stable_projection(lysenok):
    comb = lysenok.combined_alphabet()
    W = lambda t: Word.from_str(comb, t)
    assert stable_projection(lysenok, W("t a t' c")).is_empty()
    assert str(stable_projection(lysenok, W("t a t c"))) == "t t"
    assert stable_projection(lysenok, W("a c a")).is_empty()


def test_stable_projection_is_monoid_map(lysenok):
    comb = lysenok.combined_alphabet()
    rng = random.Random(3)
    for _ in range(100):
        letters_u = tuple(
            (rng.randrange(4), 1 if rng.random() < 0.7 else -1) for _ in range(rng.randrange(10))
        )
        letters_v = tuple(
            (rng.randrange(4), 1 if rng.random() < 0.7 else -1) for _ in range(rng.randrange(10))
        )
        u, v = Word(comb, letters_u), Word(comb, letters_v)
        lhs = stable_projection(lysenok, u * v)
        rhs = free_reduce(stable_projection(lysenok, u) * stable_projection(lysenok, v))
        assert lhs == rhs


def test_positivity_and_order():
    L = Alphabet.make("s", "t")
    W = lambda t: Word.from_str(L, t)
    assert is_positive(W("t"))
    assert not is_positive(Word.identity(L))
    assert not is_positive(W("t s'"))
    assert order_less(W("t"), W("t t"))
    assert not order_less(W("t t"), W("t"))
    assert not order_less(W("t"), W("s"))


def test_order_less_is_strict_partial_order():
    from gpq.words import words_up_to_length

    L = Alphabet.make("s", "t")
    reduced = [w for w in words_up_to_length(L, 4) if free_reduce(w) == w]
    for u in reduced:
        assert not order_less(u, u)
    rng = random.Random(4)
    sample = rng.sample(reduced, 40)
    for u in sample:
        for v in sample:
            for w in sample:
                if order_less(u, v) and order_less(v, w):
                    assert order_less(u, w)


def test_sigma_decode_examples(grig):
    W = lambda t: Word.from_str(grig.acd, t)
    assert str(sigma_decode(grig.sigma_acd, W("a c a c"))) == "a d"
    assert str(sigma_decode(grig.sigma_acd, W("a c a"))) == "a"
    with pytest.raises(NotInImage):
        sigma_decode(grig.sigma_acd, W("a"))


def test_sigma_decode_round_trip_both_substitutions(grig):
    rng = random.Random(41)
    for sub in (grig.sigma_acd, grig.sigma_abd):
        for _ in range(250):
            n = rng.randrange(101)
            word = Word(sub.alphabet, tuple((rng.randrange(3), 1) for _ in range(n)))
            image = apply_substitution(sub, word)
            assert sigma_decode(sub, image) == word


def test_sigma_decode_flags_ambiguity():
    # images {a -> ab, b -> abab}: "abab" parses as b and as aa
    ab = Alphabet.make("a", "b")
    sub = Substitution.from_rules(ab, {"a": "a b", "b": "a b a b"})
    result = sigma_decode(sub, Word.from_str(ab, "a b a b"), with_flags=True)
    assert result.ambiguous
    assert str(result.source) == "b"  # shortlex-least parse


def _brute_force_in_image(sub, word):
    images = [img.letters for img in sub.images]
    target = word.letters

    memo = {}

    def rec(pos):
        if pos == len(target):
            return True
        if pos in memo:
            return memo[pos]
        ok = any(
            target[pos : pos + len(img)] == img and rec(pos + len(img))
            for img in images
        )
        memo[pos] = ok
        return ok

    return rec(0)


def test_sigma_decode_rejects_non_images(grig):
    rng = random.Random(43)
    rejected = 0
    for _ in range(400):
        n = rng.randrange(1, 13)
        word = Word(grig.acd, tuple((rng.randrange(3), 1) for _ in range(n)))
        in_image = _brute_force_in_image(grig.sigma_acd, word)
        try:
            sigma_decode(grig.sigma_acd, word)
            assert in_image
        except NotInImage:
            assert not in_image
            rejected += 1
    assert rejected >= 100


def test_britton_examples(lysenok):
    comb = lysenok.combined_alphabet()
    W = lambda t: Word.from_str(comb, t)
    word, steps = britton_pinch_reduce(lysenok, W("t' a c a t"))
    assert str(word) == "a" and len(steps) == 1 and steps[0].kind == "decode"
    word2, steps2 = britton_pinch_reduce(lysenok, W("t a t'"))
    assert str(word2) == "a c a" and steps2[0].kind == "expand"
    word3, steps3 = britton_pinch_reduce(lysenok, W("a c"))
    assert str(word3) == "a c" and steps3 == ()


def test_britton_step_cap_bounds_steps_taken(lysenok):
    # a word that needs k pinch steps reduces under a cap of k and is Stuck,
    # with its first k - 1 steps, under a cap of k - 1
    comb = lysenok.combined_alphabet()
    W = lambda t: Word.from_str(comb, t)
    word, steps = britton_pinch_reduce(lysenok, W("t a t'"), step_cap=1)
    assert str(word) == "a c a" and len(steps) == 1
    assert britton_pinch_reduce(lysenok, W("a c"), step_cap=0) == (W("a c"), ())
    word2, steps2 = britton_pinch_reduce(lysenok, W("t t a t' t'"), step_cap=2)
    assert len(steps2) == 2
    with pytest.raises(BrittonStuck, match="step cap reached") as stuck:
        britton_pinch_reduce(lysenok, W("t t a t' t'"), step_cap=1)
    assert stuck.value.trace == steps2[:1] and stuck.value.word == steps2[1].before


def test_britton_stuck_is_explicit(lysenok):
    comb = lysenok.combined_alphabet()
    with pytest.raises(BrittonStuck):
        britton_pinch_reduce(lysenok, Word.from_str(comb, "t' a t"))


def test_britton_decreases_stable_letters_and_replays(lysenok):
    comb = lysenok.combined_alphabet()
    t_idx = comb.index("t")
    rng = random.Random(13)

    def t_count(w):
        return sum(1 for i, _ in w.letters if i == t_idx)

    reduced_words = 0
    for _ in range(200):
        letters = []
        for _ in range(rng.randrange(12)):
            i = rng.randrange(4)
            e = 1 if comb.involutive[i] else rng.choice((1, -1))
            letters.append((i, e))
        w = Word(comb, tuple(letters))
        try:
            out, steps = britton_pinch_reduce(lysenok, w)
        except BrittonStuck:
            continue
        reduced_words += 1
        counts = [t_count(s.before) for s in steps] + [t_count(out)]
        assert all(c1 > c2 for c1, c2 in zip(counts, counts[1:]))
        assert replay_pinch_trace(w, steps) == out
    assert reduced_words > 50


def test_every_pinch_trace_replays_stuck_ones_too(lysenok):
    comb = lysenok.combined_alphabet()
    rng = random.Random(17)
    outcomes = {"reduced": 0, "stuck": 0}
    for _ in range(300):
        letters = []
        for _ in range(rng.randrange(14)):
            i = rng.randrange(4)
            letters.append((i, 1 if comb.involutive[i] else rng.choice((1, -1))))
        w = Word(comb, tuple(letters))
        try:
            out, steps = britton_pinch_reduce(lysenok, w)
        except BrittonStuck as exc:
            assert replay_pinch_trace(w, exc.trace) == exc.word
            outcomes["stuck"] += 1
            continue
        assert replay_pinch_trace(w, steps) == out
        outcomes["reduced"] += 1
    assert min(outcomes.values()) > 20, outcomes


def _bogus_pinch_replays(lysenok):
    """Replays of one-step traces whose step is not a pinch of the word it
    starts from.  A splice that checked nothing would turn `t a t' c` into
    `d d d c` by the first and into `t c c` by the second."""
    comb = lysenok.combined_alphabet()
    W = lambda t: Word.from_str(comb, t)
    sigma = lysenok.substitutions[0]
    steps = [
        ("t a t' c", 0, 3, "d d d", "expand"),  # not phi(a)
        ("t a t' c", 1, 2, "c", "decode"),  # not bounded by stable letters
        ("c a t'", 0, 3, "a c a", "expand"),  # no t at the start
        ("t' c d c", 0, 4, "c", "decode"),  # no t at the end
        ("t a t", 0, 3, "a c a", "expand"),  # t u t, not t u t'
        ("t c d t'", 0, 4, "c", "decode"),  # t u t' decoded
        ("t' a t", 0, 3, "a c a", "expand"),  # t' u t expanded
        ("t t a t' t'", 0, 5, "a c a", "expand"),  # not innermost
        ("t' c t", 0, 3, "c", "decode"),  # c decodes to d
        ("t' c t", 0, 3, "c", "shrink"),  # no such kind
        ("t a t' c", -4, 3, "a c a", "expand"),  # a position counted from the end
    ]
    replays = [
        replay_pinch_trace(W(w), (PinchStep(W(w), pos, n, W(repl), kind, sigma),))
        for w, pos, n, repl, kind in steps
    ]
    # a pinch of another word
    elsewhere = PinchStep(W("t a t'"), 0, 3, W("a c a"), "expand", sigma)
    return replays + [replay_pinch_trace(W("t a t' c"), (elsewhere,))]


def test_replay_rejects_steps_that_are_not_pinches(lysenok):
    assert _bogus_pinch_replays(lysenok) == [None] * 12
    # the pinches britton_pinch_reduce finds in such words replay
    comb = lysenok.combined_alphabet()
    W = lambda t: Word.from_str(comb, t)
    out, steps = britton_pinch_reduce(lysenok, W("t a t' c"))
    assert replay_pinch_trace(W("t a t' c"), steps) == out == W("a c a c")
    out, steps = britton_pinch_reduce(lysenok, W("t' c d t"))
    assert steps[0].kind == "decode" and replay_pinch_trace(W("t' c d t"), steps) == out == W("c")


_BOGUS_UNDER_O = """
import sys
sys.path.insert(0, "tests")
from gpq.endo import EndomorphicPresentation
from gpq.grigorchuk import make_grigorchuk_data
from gpq.words import Word
from test_endo import _bogus_pinch_replays

assert False, "asserts are on"
g = make_grigorchuk_data()
ep = EndomorphicPresentation(g.acd, (), (g.sigma_acd,), (Word.from_str(g.acd, "a a"),), ("t",))
print(_bogus_pinch_replays(ep))
"""


def test_replay_rejects_steps_that_are_not_pinches_under_python_O():
    # the checks are plain code, not asserts that -O strips: the run gets
    # past its `assert False` and still rejects every bogus step
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BOGUS_UNDER_O], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([None] * 12)


def test_expand_relators_annotated_provenance(lysenok):
    annotated = expand_relators_annotated(lysenok, 2)
    assert [w for _, _, w in annotated] == expand_relators(lysenok, 2)
    for seq, ri, w in annotated:
        if ri >= 0:
            expected = lysenok.r_relators[ri]
            for i in reversed(seq):
                expected = apply_substitution(lysenok.substitutions[i], expected)
            assert w == expected


def test_sigma_decode_matches_tuple_reference(grig):
    abc = Alphabet.make("a", "b", "c")
    # "a a" parses as b and as a a, "a a a" as a b and as b a (and a a a)
    ambiguous = Substitution.from_rules(abc, {"a": "a", "b": "a a", "c": "b a"})
    shared_first = Substitution.from_rules(abc, {"a": "a b", "b": "a c", "c": "b"})
    duplicate = Substitution.from_rules(abc, {"a": "a b", "b": "a b", "c": "c"})
    rng = random.Random(11)
    seen = {"decoded": 0, "ambiguous": 0, "undecodable": 0}
    for sub in (grig.sigma_acd, grig.sigma_abd, grig.sigma_abcd, ambiguous, shared_first, duplicate):
        images = [img.letters for img in sub.images]
        for _ in range(600):
            if rng.random() < 0.5:
                letters = sum((rng.choice(images) for _ in range(rng.randrange(12))), ())
            else:
                letters = tuple((rng.randrange(len(images)), 1) for _ in range(rng.randrange(20)))
            want, want_ambiguous = decode_by_tuples(images, letters)
            try:
                result = sigma_decode(sub, Word(sub.alphabet, letters), with_flags=True)
            except NotInImage:
                assert want is None
                seen["undecodable"] += 1
                continue
            assert result.source.letters == want
            assert result.ambiguous == want_ambiguous
            assert not (want_ambiguous and sub.image_scan), str(sub.images)
            seen["decoded"] += 1
            seen["ambiguous"] += want_ambiguous
    assert min(seen.values()) > 100, seen


def test_sigma_decode_on_a_mixed_alphabet():
    # letter index and column differ, so a scan that coded words one way and
    # images another would miss parses; the scan, the dynamic programme and
    # the tuple reference must agree on every word, images or not
    mixed = Alphabet.make("t", "a!", "b", "c!")
    rng = random.Random(2701)
    seen = {"scan": 0, "dp": 0, "decoded": 0, "undecodable": 0}
    for _ in range(120):
        images = tuple(
            Word(mixed, tuple((rng.randrange(4), 1) for _ in range(rng.randrange(1, 4)))) for _ in range(4)
        )
        sub = Substitution(mixed, images)
        seen["scan" if sub.image_scan else "dp"] += 1
        for _ in range(20):
            if rng.random() < 0.5:
                source = Word(mixed, tuple((rng.randrange(4), 1) for _ in range(rng.randrange(10))))
                word = apply_substitution(sub, source)
            else:
                word = Word(mixed, tuple((rng.randrange(4), 1) for _ in range(rng.randrange(12))))
            want, _ = decode_by_tuples([img.letters for img in images], word.letters)
            try:
                decoded = sigma_decode(sub, word)
            except NotInImage:
                assert want is None
                with pytest.raises(NotInImage):
                    gpq.endo._decode_by_suffixes(sub, word)
                seen["undecodable"] += 1
                continue
            assert decoded.letters == want
            assert apply_substitution(sub, decoded) == word
            assert list(decoded.letters) == gpq.endo._decode_by_suffixes(sub, word)[0]
            seen["decoded"] += 1
    assert min(seen.values()) > 20, seen


def test_affix_free_images_are_read_by_one_scan(grig, monkeypatch):
    # prefix-free images are scanned from the left, suffix-free ones from the
    # right; images that prefix each other both ways, or equal images, take
    # the dynamic programme
    abc = Alphabet.make("a", "b", "c")
    rules = (
        ({"a": "a b", "b": "a c", "c": "b"}, False),  # shared first letters
        ({"a": "a", "b": "a a", "c": "b a"}, None),  # prefixes both ways
        ({"a": "a b", "b": "a b", "c": "c"}, None),  # equal images
    )
    cases = [(grig.sigma_abd, False), (grig.sigma_abcd, False), (grig.sigma_acd, True)]
    cases += [(Substitution.from_rules(abc, r), from_right) for r, from_right in rules]
    # letter 40 codes as "(", which the pattern must escape
    many = Alphabet.make(*(f"x{i}" for i in range(48)))
    shift = Substitution(many, tuple(Word(many, ((i, 1), ((i + 1) % 48, 1))) for i in range(48)))
    cases.append((shift, False))
    dp_calls = []
    dp = gpq.endo._decode_by_suffixes

    def counted_dp(sub, word):
        dp_calls.append(sub)
        return dp(sub, word)

    monkeypatch.setattr(gpq.endo, "_decode_by_suffixes", counted_dp)
    rng = random.Random(12)
    for sub, from_right in cases:
        scan = sub.image_scan
        assert (None if scan is None else scan[1]) == from_right, str(sub.images)
        source = Word(sub.alphabet, tuple((rng.randrange(len(sub.alphabet)), 1) for _ in range(60)))
        dp_calls.clear()
        decoded = sigma_decode(sub, apply_substitution(sub, source))
        assert dp_calls == ([] if scan else [sub])
        if scan:  # the only parse
            assert decoded == source
    word = Word.from_str(many, "x40 x41 x40")
    with pytest.raises(NotInImage):
        sigma_decode(shift, word)


@pytest.fixture
def two_substitutions():
    ab = Alphabet.make("a", "b")
    return EndomorphicPresentation(
        alphabet=ab,
        q_relators=(Word.from_str(ab, "a b a' b'"),),
        substitutions=(
            Substitution.from_rules(ab, {"a": "a b", "b": "b"}),
            Substitution.from_rules(ab, {"a": "b", "b": "a"}),
        ),
        r_relators=(Word.from_str(ab, "a b"), Word.from_str(ab, "b a"), Word.from_str(ab, "a a b")),
    )


def test_expansion_of_two_substitutions_matches_recomputing_each_sequence(two_substitutions):
    for depth in range(4):
        got = expand_relators_annotated(two_substitutions, depth)
        assert got == expand_by_sequences(two_substitutions, depth)
    # the swap repeats images, so deduplication drops 20 of the 46
    assert len(got) == 26 and {(1, 0, 1), (0, 1, 0)} <= {seq for seq, _, _ in got}


def test_expansion_applies_no_substitution_to_positive_relators(lysenok, two_substitutions, monkeypatch):
    calls = []
    monkeypatch.setattr(gpq.endo, "apply_substitution", lambda sub, w: calls.append(1) or apply_substitution(sub, w))
    assert len(expand_relators(lysenok, 4)) == 15
    assert len(expand_relators(two_substitutions, 3)) == 26
    assert calls == []


def test_expansion_builds_only_the_letters_r_reaches():
    # b doubles at every level, so a table entry for b would have 2^200
    # letters; R never reaches b
    ab = Alphabet.make("a", "b")
    ep = EndomorphicPresentation(
        alphabet=ab,
        q_relators=(),
        substitutions=(Substitution.from_rules(ab, {"a": "a", "b": "b b"}),),
        r_relators=(Word.from_str(ab, "a a"),),
    )
    start = time.perf_counter()
    assert [str(w) for w in expand_relators(ep, 200)] == ["a a"]
    assert time.perf_counter() - start < 1.0


def test_expansion_past_the_letter_cap_is_refused_before_any_image(grig, monkeypatch):
    # Lysenok's R = (a d)^4 under sigma_acd: the images to depth 12 hold
    # 123,176 letters, to depth 13 249,368 and to depth 14 503,616
    ep = EndomorphicPresentation(grig.acd, (), (grig.sigma_acd,), (Word.from_str(grig.acd, "(a d)^4"),), ("t",))
    got = expand_relators_annotated(ep, 12)
    assert got == expand_by_levels(ep, 12) and sum(len(w) for _, _, w in got) == 123_176
    concat, calls = gpq.endo._concat, []
    monkeypatch.setattr(gpq.endo, "_concat", lambda table, letters: calls.append(1) or concat(table, letters))
    start = time.perf_counter()
    with pytest.raises(LimitExceeded) as refused:
        expand_relators(ep, 14)
    assert time.perf_counter() - start < 1.0 and calls == []
    assert str(refused.value) == "relator expansion to depth 14 builds more than 262,144 letters"
    assert len(expand_relators(ep, 1)) == 2 and calls  # the spy counts
    # an empty relator has one image per sequence: 2^31 - 2 of them to depth 30
    ab = Alphabet.make("a", "b")
    subs = (Substitution.from_rules(ab, {"a": "a", "b": "b"}), Substitution.from_rules(ab, {"a": "b", "b": "a"}))
    with pytest.raises(LimitExceeded, match="^relator expansion to depth 30 builds more than 262,144 letters$"):
        expand_relators(EndomorphicPresentation(ab, (), subs, (Word.identity(ab),)), 30)


def test_expansion_refuses_a_non_positive_relator_only_when_it_substitutes():
    ab = Alphabet.make("a", "b")
    sub = Substitution.from_rules(ab, {"a": "a b", "b": "b"})
    r_relators = (Word.from_str(ab, "a b"), Word.from_str(ab, "a b' a"), Word.from_str(ab, "a'"))
    ep = EndomorphicPresentation(ab, (Word.from_str(ab, "a' b'"),), (sub,), r_relators)
    for depth in (1, 1000):  # at depth 1000 before the letter cap, too
        with pytest.raises(NegativeExponent) as refused:
            expand_relators(ep, depth)
        assert str(refused.value) == "substitution applied to inverse letter b'"
    assert [str(w) for w in expand_relators(ep, 0)] == ["a' b'", "a b", "a b' a", "a'"]
    unsubstituted = EndomorphicPresentation(ab, (), (), r_relators)
    assert expand_relators(unsubstituted, 3) == list(r_relators)


def _random_endomorphic(rng):
    """1-4 letters, some involutive; 0-3 substitutions; Q relators and
    repeated, empty and non-positive R relators."""
    n = rng.randint(1, 4)
    alphabet = Alphabet(tuple("abcd"[:n]), tuple(rng.random() < 0.3 for _ in range(n)))

    def word(length, positive):
        return Word(alphabet, tuple((rng.randrange(n), 1 if positive else rng.choice((1, -1))) for _ in range(length)))

    subs = tuple(
        Substitution(alphabet, tuple(word(rng.randint(1, 3), True) for _ in range(n)))
        for _ in range(rng.randrange(4))
    )
    q_relators = tuple(word(rng.randrange(5), False) for _ in range(rng.randrange(3)))
    r_relators = [word(rng.randrange(5), rng.random() < 0.7) for _ in range(rng.randrange(4))]
    if r_relators and rng.random() < 0.3:
        r_relators.append(rng.choice(r_relators))
    return EndomorphicPresentation(alphabet, q_relators, subs, tuple(r_relators))


def test_expansion_matches_the_expansion_by_levels():
    rng = random.Random(35)
    seen = {"expanded": 0, "refused": 0, "deduplicated": 0, "two or more substitutions": 0}
    for _ in range(400):
        ep = _random_endomorphic(rng)
        # depth 0-6, fewer levels for more substitutions
        depth = rng.randrange((7, 7, 5, 4)[len(ep.substitutions)])
        try:
            want = expand_by_levels(ep, depth)
        except NegativeExponent as exc:
            with pytest.raises(NegativeExponent) as refused:
                expand_relators_annotated(ep, depth)
            assert str(refused.value) == str(exc)
            seen["refused"] += 1
            continue
        got = expand_relators_annotated(ep, depth)
        assert [(seq, ri, w.letters) for seq, ri, w in got] == [(seq, ri, w.letters) for seq, ri, w in want]
        assert got == want
        seen["expanded"] += 1
        images = len(ep.q_relators) + len(ep.r_relators) * sum(len(ep.substitutions) ** k for k in range(depth + 1))
        seen["deduplicated"] += len(got) < images
        seen["two or more substitutions"] += len(ep.substitutions) > 1
    assert min(seen.values()) > 20, seen
