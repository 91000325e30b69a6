"""Word-problem oracles: tables, dihedral groups, B(1,n), free (abelian) groups."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gpq.backends import (
    BS_WORD_LETTER_CAP,
    BaumslagSolitarOracle,
    FiniteGroupTable,
    FreeAbelianOracle,
    bs_oracle,
    dihedral_group,
    free_abelian_oracle,
    free_oracle,
    klein_group,
)
from gpq.errors import BadOrder, LimitExceeded, Unsupported
from gpq.words import Word, free_reduce, words_up_to_length


def W(oracle, text):
    return Word.from_str(oracle.alphabet, text)


def test_d8_elements_and_names():
    d8 = dihedral_group(8, ("a", "d"))
    names = [str(w).replace(" ", "") or "e" for w in d8.element_names]
    assert names == ["e", "a", "d", "ad", "da", "ada", "dad", "adad"]


def test_d8_normal_form_example():
    d8 = dihedral_group(8, ("a", "d"))
    assert str(d8.normal_form(W(d8, "a d a d a"))) == "d a d"


def test_order_2_dihedral_is_z2():
    g = dihedral_group(2)
    assert g.order == 2
    assert g.is_identity(W(g, "x x"))
    assert [str(w) or "e" for w in g.element_names] == ["e", "x"]


def test_bad_order_rejected():
    with pytest.raises(BadOrder):
        dihedral_group(7)
    with pytest.raises(BadOrder):
        dihedral_group(0)


@pytest.mark.parametrize("order", [2, 4, 8, 12, 16])
def test_dihedral_structure(order):
    g = dihedral_group(order)
    assert g.order == order
    assert g.check_associative()
    # (xy) has order exactly m
    xy = g.multiply_indices(g.generator_map[0], g.generator_map[1])
    m, acc = 1, xy
    while acc != 0:
        acc = g.mul[acc][xy]
        m += 1
    assert m == order // 2 or (order == 2 and m == 1)


def test_table_normal_form_matches_table_walk_exhaustively():
    d8 = dihedral_group(8, ("a", "d"))
    for w in words_up_to_length(d8.alphabet, 6):
        assert d8.normal_form(w) == d8.element_names[d8.evaluate(w)]
        assert d8.evaluate(d8.normal_form(w)) == d8.evaluate(w)


def test_klein_group_table():
    v = klein_group(("c", "d"))
    assert v.order == 4
    assert v.is_identity(W(v, "c d c d"))
    assert not v.is_identity(W(v, "c d"))


def test_free_oracles():
    f2 = free_oracle(2)
    assert str(f2.normal_form(W(f2, "a b b' "))) == "a"
    z2 = free_abelian_oracle(2)
    assert str(z2.normal_form(W(z2, "b a b'"))) == "a"
    assert z2.is_identity(W(z2, "a b a' b'"))
    assert not f2.is_identity(W(f2, "a b a' b'"))


def test_bs_oracle_examples():
    bs = bs_oracle(1, 2)
    assert bs.is_identity(W(bs, "a b a' b' b'"))
    assert not bs.is_identity(W(bs, "b"))
    assert str(bs.normal_form(W(bs, "a b b a'"))) == "b b b b"


def test_bs_unsupported_cases():
    with pytest.raises(Unsupported):
        bs_oracle(2, 3)
    with pytest.raises(Unsupported):
        bs_oracle(1, 0)


def _random_word(alphabet, rng, max_len):
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        i = rng.randrange(len(alphabet))
        e = 1 if alphabet.involutive[i] else rng.choice((1, -1))
        letters.append((i, e))
    return Word(alphabet, tuple(letters))


@pytest.mark.parametrize(
    "make",
    [
        lambda: free_oracle(2),
        lambda: free_abelian_oracle(3),
        lambda: dihedral_group(8, ("a", "d")),
        lambda: dihedral_group(16, ("a", "c")),
        lambda: bs_oracle(1, 2),
        lambda: bs_oracle(1, 3),
    ],
)
def test_w_winverse_is_identity(make):
    oracle = make()
    rng = random.Random(5)
    for _ in range(1000):
        w = _random_word(oracle.alphabet, rng, 30)
        assert oracle.is_identity(w * w.inverse())
    for _ in range(100):
        nf = oracle.normal_form(_random_word(oracle.alphabet, rng, 30))
        assert oracle.normal_form(nf) == nf  # idempotent


@pytest.mark.parametrize(
    "make",
    [
        lambda: free_oracle(2),
        lambda: free_abelian_oracle(3),
        lambda: dihedral_group(8, ("a", "d")),
        lambda: dihedral_group(16, ("a", "c")),
        lambda: bs_oracle(1, 1),
        lambda: bs_oracle(1, 2),
        lambda: bs_oracle(1, 3),
    ],
)
def test_oracle_keys_agree_with_normal_forms(make):
    # word(key(w)) is the normal form, and key and step agree with a
    # reference that does not step
    oracle = make()
    alphabet = oracle.alphabet
    dirs = [(i, e) for i in range(len(alphabet)) for e in ((1,) if alphabet.involutive[i] else (1, -1))]
    reference, value = _reference_and_value(oracle)
    rng = random.Random(13)
    key_of_value = {}
    for _ in range(300):
        w = _random_word(alphabet, rng, 14)
        key = oracle.key(w)
        assert oracle.word(key) == oracle.normal_form(w)
        assert oracle.key(oracle.word(key)) == key
        assert value(key) == reference(w)
        for d in dirs:
            assert value(oracle.step(key, d)) == reference(w * Word(alphabet, (d,)))
        # distinct keys name distinct elements
        assert key_of_value.setdefault(value(key), key) == key


def _reference_and_value(oracle):
    """An element model computed from a whole word without `step`, and the
    model value a key names."""
    if isinstance(oracle, BaumslagSolitarOracle):
        # the key (p, m, r) names a^-p b^m a^r, which the affine model
        # evaluates to x -> n^(r-p) x + m / n^p
        return oracle.evaluate_affine, lambda k: (k[2] - k[0], Fraction(k[1], oracle.n ** k[0]))
    if isinstance(oracle, FiniteGroupTable):
        return oracle.evaluate, lambda k: k
    if isinstance(oracle, FreeAbelianOracle):

        def exponent_sums(word):
            sums = [0] * len(word.alphabet)
            for idx, exp in word.letters:
                sums[idx] += exp
            return tuple(sums)

        return exponent_sums, lambda k: k
    # the free group's key is its one-pass reduction, which `step` must follow
    return (lambda word: free_reduce(word).letters), lambda k: k


def test_bs_normal_form_shape():
    # a^-p b^q a^r with p, r >= 0 and n not dividing q when both positive
    bs = bs_oracle(1, 2)
    rng = random.Random(17)
    for _ in range(300):
        w = _random_word(bs.alphabet, rng, 12)
        nf = bs.normal_form(w)
        seen_phase = 0  # 0: leading a^-, 1: b block, 2: trailing a^+
        p = r = q = 0
        for idx, exp in nf.letters:
            if idx == 0 and exp == -1:
                assert seen_phase == 0
                p += 1
            elif idx == 1:
                assert seen_phase <= 1
                seen_phase = 1
                q += exp
            else:
                assert idx == 0 and exp == 1
                seen_phase = 2
                r += 1
        if p > 0 and r > 0:
            assert q % 2 != 0


def test_bs_normal_form_over_the_letter_cap_raises():
    # a^k b a^-k is b^(3^k): 3^30 letters would not fit in memory
    bs = bs_oracle(1, 3)
    for k, fits in ((12, True), (13, False), (30, False)):
        w = W(bs, f"(a)^{k} b (a')^{k}")
        assert bs.key(w) == (0, 3**k, 0)
        assert (3**k <= BS_WORD_LETTER_CAP) == fits
        if fits:
            assert bs.normal_form(w).letters == ((1, 1),) * 3**k
        else:
            with pytest.raises(LimitExceeded, match="more than 1,000,000 letters"):
                bs.normal_form(w)


def test_bs_normal_forms_faithful_against_affine_model():
    bs = bs_oracle(1, 2)
    rng = random.Random(71)
    words = [_random_word(bs.alphabet, rng, 10) for _ in range(400)]
    for u in words:
        # sound and complete on samples: equal affine value iff equal normal form
        nu, au = bs.normal_form(u), bs.evaluate_affine(u)
        assert bs.evaluate_affine(nu) == au
    for u, v in zip(words[::2], words[1::2]):
        same_nf = bs.normal_form(u) == bs.normal_form(v)
        same_val = bs.evaluate_affine(u) == bs.evaluate_affine(v)
        assert same_nf == same_val


def _bounded_congruence_reachable(bs, start, goal, max_len=9, cap=250_000):
    """BFS over relator insert/delete/free moves inside a bounded word ball."""
    from gpq.words import free_reduce, rotations_and_inverses

    relator = Word.from_str(bs.alphabet, "a b a' b' b'")
    rewrites = []
    for variant in rotations_and_inverses(relator):
        for cut in range(len(variant) + 1):
            u = variant.letters[:cut]
            v = Word(bs.alphabet, variant.letters[cut:])
            rewrites.append((u, v.inverse().letters))
    s = free_reduce(start).letters
    g = free_reduce(goal).letters
    seen = {s}
    frontier = [s]
    budget = 0
    while frontier:
        nxt = []
        for state in frontier:
            if state == g:
                return True
            n = len(state)
            for u, ins in rewrites:
                for pos in range(n - len(u) + 1):
                    if tuple(state[pos : pos + len(u)]) != u:
                        continue
                    cand = free_reduce(
                        Word(bs.alphabet, state[:pos] + ins + state[pos + len(u) :])
                    ).letters
                    budget += 1
                    if budget > cap:
                        return g in seen
                    if len(cand) <= max_len and cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return g in seen


def test_bs_identifications_match_bounded_congruence_closure():
    # words the oracle identifies are connected by relator moves in a bounded ball
    bs = bs_oracle(1, 2)
    rng = random.Random(29)
    pairs_checked = 0
    words = [_random_word(bs.alphabet, rng, 5) for _ in range(60)]
    by_nf = {}
    for w in words:
        by_nf.setdefault(bs.normal_form(w).letters, []).append(w)
    for group in by_nf.values():
        for u, v in zip(group, group[1:]):
            assert _bounded_congruence_reachable(bs, u, v)
            pairs_checked += 1
            if pairs_checked >= 8:
                return
