"""Word-problem oracles: tables, dihedral groups, B(1,n), free (abelian) groups."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path

import pytest

from gpq.backends import (
    BaumslagSolitarOracle,
    FiniteGroupTable,
    FreeAbelianOracle,
    FreeGroupOracle,
    bs_oracle,
    cyclic_group,
    dihedral_group,
    free_abelian_oracle,
    free_oracle,
    klein_group,
)
from gpq.balls import build_ball
from gpq.errors import BadOrder, OracleMismatch, Unsupported
from gpq.grigorchuk import make_grigorchuk_data
from gpq.presentations import Presentation
from gpq.words import Alphabet, Word, free_reduce, words_up_to_length
from helpers import cyclic_closure, dihedral_closure, evaluate_affine, is_associative, klein_closure


ROOT = Path(__file__).resolve().parent.parent


def W(oracle, text):
    return Word.from_str(oracle.alphabet, text)


def test_d8_elements_and_names():
    d8 = dihedral_group(8, ("a", "d"))
    names = [str(w).replace(" ", "") or "e" for w in d8.element_names]
    assert names == ["e", "a", "d", "ad", "da", "ada", "dad", "adad"]


def test_d8_normal_form_example():
    d8 = dihedral_group(8, ("a", "d"))
    assert str(d8.element_names[d8.key(W(d8, "a d a d a"))]) == "d a d"


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


@pytest.mark.parametrize("n", [0, -1, -3])
def test_cyclic_order_below_one_rejected(n):
    # 0 divided by zero, and -3 gave a group of order 3
    with pytest.raises(BadOrder, match=f"cyclic order must be >= 1, got {n}"):
        cyclic_group(n)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_cyclic_group_order(n):
    g = cyclic_group(n)
    assert g.order == n
    assert g.is_identity(Word(g.alphabet, ((0, 1),) * n))
    assert n == 1 or not g.is_identity(Word(g.alphabet, ((0, 1),) * (n - 1)))


@pytest.mark.parametrize("order", [2, 4, 8, 12, 16])
def test_dihedral_structure(order):
    g = dihedral_group(order)
    assert g.order == order
    assert is_associative(g)
    # (xy) has order exactly m
    xy = g.mul[g.generator_map[0]][g.generator_map[1]]
    m, acc = 1, xy
    while acc != 0:
        acc = g.mul[acc][xy]
        m += 1
    assert m == order // 2 or (order == 2 and m == 1)


def test_table_normal_form_matches_table_walk_exhaustively():
    d8 = dihedral_group(8, ("a", "d"))
    for w in words_up_to_length(d8.alphabet, 6):
        assert d8.key(w) == d8.evaluate(w)
        assert d8.evaluate(d8.element_names[d8.key(w)]) == d8.key(w)


def test_klein_group_table():
    v = klein_group(("c", "d"))
    assert v.order == 4
    assert v.is_identity(W(v, "c d c d"))
    assert not v.is_identity(W(v, "c d"))


def _bad_tables():
    """(an alphabet and rows broken in one way, what the error names) pairs,
    beside the Klein group's rows ((1, 2), (0, 3), (3, 0), (2, 1))."""
    v = klein_group(("c", "d"))
    rows, cd, x = v.rows, v.alphabet, Alphabet.make("x!")
    return [
        ((cd, ()), "a table needs rows"),
        ((cd, rows[:3] + (rows[3][:1],)), "row 3 has 1 entries, not one per direction (2)"),
        ((cd, rows[:3] + ((2, 4),)), "rows[3][1] = 4 is not an element index in 0..3"),
        ((cd, rows[:3] + ((2, -1),)), "rows[3][1] = -1 is not an element index in 0..3"),
        ((cd, rows[:3] + ((2, 1.0),)), "rows[3][1] = 1.0 is not an element index in 0..3"),
        ((cd, rows[:3] + ((2, "1"),)), "rows[3][1] = '1' is not an element index in 0..3"),
        # x declared involutive, but of order 3
        ((x, ((1,), (2,), (0,))), "letter x steps element 0 to 1, and its inverse does not step back"),
        ((cd, ((1, 2), (0, 3), (3, 0), (2, 2))), "letter d steps element 1 to 3, and its inverse does not step back"),
        # c and d swapped: the identity's row reaches element 2 first
        ((cd, ((2, 1), (3, 0), (0, 3), (1, 2))), "element 2 is reached before element 1"),
        ((x, ((0,), (1,))), "element 1 is not reached from the identity"),
    ]


def _table_errors():
    """The ValueError message of each bad table, or None where one is accepted."""
    out = []
    for args, _ in _bad_tables():
        try:
            FiniteGroupTable(*args)
            out.append(None)
        except ValueError as exc:
            out.append(str(exc))
    return out


def test_table_rejects_a_broken_table_naming_the_condition():
    v = klein_group(("c", "d"))
    assert v.rows == ((1, 2), (0, 3), (3, 0), (2, 1))
    assert FiniteGroupTable(v.alphabet, v.rows) == v
    for (_, want), got in zip(_bad_tables(), _table_errors()):
        assert got is not None and want in got, (want, got)


def test_from_generators_rejects_an_involutive_letter_of_another_order():
    with pytest.raises(ValueError, match="letter x steps element 0 to 1, and its inverse does not step back"):
        FiniteGroupTable.from_generators(Alphabet.make("x!"), [1], lambda p, q: (p + q) % 3, 0)


def test_rows_of_an_action_that_is_not_regular_are_rejected_when_mul_is_read():
    # S_3 on three points by x = (0 1), y = (1 2): the constructor's checks
    # hold, but x y sends point 1 to 0, as x does, so row 1 of mul is (1, 0, 0)
    table = FiniteGroupTable(Alphabet.make("x!", "y!"), ((1, 0), (0, 2), (2, 1)))
    for name in "mul", "inv":
        with pytest.raises(ValueError, match="row 1 of mul is not a permutation: the rows are not a group's regular action"):
            getattr(table, name)


def _closure_cases():
    """(a table, the closure it must equal) pairs."""
    for order in range(2, 41, 2):
        table = dihedral_group(order)
        yield table, dihedral_closure(table.alphabet, order)
    for n in range(1, 13):
        table = cyclic_group(n)
        yield table, cyclic_closure(table.alphabet, n)
    grig = make_grigorchuk_data()
    for table in klein_group(), grig.klein_cd:
        yield table, klein_closure(table.alphabet)
    for table, order in (grig.d8, 8), (grig.d16, 16):
        yield table, dihedral_closure(table.alphabet, order)


def test_tables_read_off_the_rows_match_the_closure():
    for table, (names, mul, inv, gmap) in _closure_cases():
        assert table.element_names == names, table.describe()
        assert (table.mul, table.inv, table.generator_map) == (mul, inv, gmap), table.describe()
        assert table.order == len(names) and is_associative(table), table.describe()


def test_a_ball_on_a_large_dihedral_table_reads_only_its_rows():
    table = dihedral_group(4000, ("a", "d"))
    p = Presentation(table.alphabet, (Word.from_str(table.alphabet, "(a d)^2000"),))
    ball = build_ball(table, p, 2)
    assert [str(v) for v in ball.vertices] == ["", "a", "d", "a d", "d a"]
    assert "mul" not in vars(table) and "element_names" not in vars(table)


_TABLES_UNDER_O = """
import sys
sys.path.insert(0, "tests")
from test_backends import _table_errors

assert False, "asserts are on"
print(_table_errors())
"""


def test_table_checks_hold_under_python_O():
    # the checks are plain code, not asserts that -O strips: the run gets
    # past its `assert False` and still rejects every broken table
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TABLES_UNDER_O], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    errors = _table_errors()
    assert None not in errors and proc.stdout.strip() == str(errors)


def _free_letters(oracle, key):
    """The reduced letters a free-group key names: its base-(w + 1) digits,
    w the number of directions, are the letters' columns + 1, the last
    letter lowest."""
    dirs = oracle.alphabet.directions
    letters = []
    while key:
        key, digit = divmod(key, len(dirs) + 1)
        assert digit, "a zero digit inside a key names no letter"
        letters.append(dirs[digit - 1])
    return tuple(reversed(letters))


def _exponents(oracle, key):
    """The exponent vector a free-abelian key names: one balanced 64-bit
    field per letter, the first letter's lowest."""
    sums = []
    for _ in oracle.alphabet.letters:
        x = (key + 2**63) % 2**64 - 2**63
        sums.append(x)
        key = (key - x) >> 64
    assert key == 0, "a key names no more fields than letters"
    return tuple(sums)


def test_free_oracles_refuse_a_rank_other_than_the_alphabets():
    ab = Alphabet.make("a", "b")
    for make in (free_oracle, free_abelian_oracle):
        assert len(make(2, ab).alphabet) == 2 and len(make(26).alphabet) == 26
        for k in (1, 5):
            with pytest.raises(ValueError, match=f"rank {k} given with an alphabet of 2 letters"):
                make(k, ab)
        # the default names run out at z
        with pytest.raises(ValueError, match="rank 27 given with an alphabet of 26 letters"):
            make(27)


def test_free_oracles():
    f2 = free_oracle(2)
    assert _free_letters(f2, f2.key(W(f2, "a b b' "))) == ((0, 1),)
    z2 = free_abelian_oracle(2)
    assert _exponents(z2, z2.key(W(z2, "b a b'"))) == (1, 0)
    assert z2.is_identity(W(z2, "a b a' b'"))
    assert not f2.is_identity(W(f2, "a b a' b'"))


def test_free_identity_agrees_with_the_key_fold():
    # words over a, a' and the involution s, with cancelling pairs inserted
    alphabet = Alphabet.make("a", "s!", "b")
    f = free_oracle(3, alphabet)
    directions = alphabet.directions
    rng = random.Random(4250)
    trivial = 0
    for _ in range(1000):
        letters = [rng.choice(directions) for _ in range(rng.randrange(6))]
        for _ in range(rng.randrange(4)):
            d = rng.choice(directions)
            at = rng.randrange(len(letters) + 1)
            letters[at:at] = [d, (d[0], d[1] if alphabet.involutive[d[0]] else -d[1])]
        word = Word(alphabet, tuple(letters))
        identity = f.key(word) == f.identity
        assert f.is_identity(word) == identity, word
        trivial += identity
    assert 100 < trivial < 900


def test_free_identity_makes_no_step(monkeypatch):
    # at the letter cap the key fold would do big-int work per letter
    f = free_oracle(2)
    steps = []
    step = FreeGroupOracle.step
    monkeypatch.setattr(FreeGroupOracle, "step", lambda self, key, k: steps.append(k) or step(self, key, k))
    word = W(f, "(a b)^131072")
    assert len(word) == 262144 and not f.is_identity(word)
    assert f.is_identity(word * word.inverse())
    assert steps == []
    assert f.key(W(f, "a b")) and len(steps) == 2  # the spy counts


def test_free_abelian_keys_round_trip_near_the_field_bound():
    # steps from explicit keys whose coordinates sit at +-(2^63 - 2) and 0
    # stay injective up to +-(2^63 - 1): no field carries into the next
    z3 = free_abelian_oracle(3)
    edge = 2**63 - 2
    for start in product((edge, -edge, 0), repeat=3):
        key = sum(x << 64 * i for i, x in enumerate(start))
        assert _exponents(z3, key) == start
        for k, (i, e) in enumerate(z3.alphabet.directions):
            want = list(start)
            want[i] += e
            assert _exponents(z3, z3.step(key, k)) == tuple(want)
    top = sum((2**63 - 1) << 64 * i for i in range(3))
    assert _exponents(z3, top) == (2**63 - 1,) * 3
    assert _exponents(z3, -top) == (1 - 2**63,) * 3


def test_free_abelian_oracle_refuses_involutive_letters():
    # a! = a' would close b a b a into a loop, which is not trivial in Z^2
    involutions = Alphabet.make("a", "b!")
    with pytest.raises(OracleMismatch, match="involutive letter 'b'"):
        free_abelian_oracle(2, involutions)
    assert free_oracle(2, involutions).is_identity(Word.from_str(involutions, "a b b a'"))


def test_bs_oracle_examples():
    bs = bs_oracle(1, 2)
    assert bs.is_identity(W(bs, "a b a' b' b'"))
    assert not bs.is_identity(W(bs, "b"))
    assert bs.key(W(bs, "a b b a'")) == (0, 4, 0)


def test_bs_unsupported_cases():
    with pytest.raises(Unsupported):
        bs_oracle(2, 3)
    with pytest.raises(Unsupported):
        bs_oracle(1, 0)


# ten directions, two of them involutive letters: a free key digit runs past 7
_WIDE = Alphabet.make("a", "b", "c", "d!", "e!", "f")


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
        lambda: free_oracle(6, _WIDE),
    ],
)
def test_w_winverse_is_identity(make):
    oracle = make()
    rng = random.Random(5)
    for _ in range(1000):
        w = _random_word(oracle.alphabet, rng, 30)
        assert oracle.is_identity(w * w.inverse())
    for _ in range(100):
        w, u = _random_word(oracle.alphabet, rng, 30), _random_word(oracle.alphabet, rng, 10)
        assert oracle.key(w * u * u.inverse()) == oracle.key(w)  # one key per element


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
        lambda: free_oracle(6, _WIDE),
    ],
)
def test_oracle_keys_agree_with_normal_forms(make):
    # key and step agree with a reference that does not step
    oracle = make()
    alphabet = oracle.alphabet
    dirs = [(i, e) for i in range(len(alphabet)) for e in ((1,) if alphabet.involutive[i] else (1, -1))]
    reference, value = _reference_and_value(oracle)
    rng = random.Random(13)
    key_of_value = {}
    for _ in range(300):
        w = _random_word(alphabet, rng, 14)
        key = oracle.key(w)
        assert value(key) == reference(w)
        for d in dirs:
            assert value(oracle.step(key, alphabet.columns[d])) == reference(w * Word(alphabet, (d,)))
        # distinct keys name distinct elements
        assert key_of_value.setdefault(value(key), key) == key


def _reference_and_value(oracle):
    """An element model computed from a whole word without `step`, and the
    model value a key names."""
    if isinstance(oracle, BaumslagSolitarOracle):
        # the key (p, m, r) names a^-p b^m a^r, which the affine model
        # evaluates to x -> n^(r-p) x + m / n^p
        return partial(evaluate_affine, oracle.n), lambda k: (k[2] - k[0], Fraction(k[1], oracle.n ** k[0]))
    if isinstance(oracle, FiniteGroupTable):
        return oracle.evaluate, lambda k: k
    if isinstance(oracle, FreeAbelianOracle):

        def exponent_sums(word):
            sums = [0] * len(word.alphabet)
            for idx, exp in word.letters:
                sums[idx] += exp
            return tuple(sums)

        return exponent_sums, partial(_exponents, oracle)
    # the free group's key packs the reduced word, which its steps reach
    return (lambda word: free_reduce(word).letters), partial(_free_letters, oracle)


def test_bs_normal_form_shape():
    # the key (p, m, r) of a^-p b^m a^r: p, r >= 0, and n does not divide m
    # when both p and r are positive
    for n in (2, 3):
        bs = bs_oracle(1, n)
        rng = random.Random(17)
        for _ in range(300):
            p, m, r = bs.key(_random_word(bs.alphabet, rng, 12))
            assert p >= 0 and r >= 0
            if p > 0 and r > 0:
                assert m % n != 0


def test_bs_normal_forms_faithful_against_affine_model():
    # sound and complete on samples: equal key iff equal affine value
    bs = bs_oracle(1, 2)
    rel = W(bs, "a b a' b' b'")
    rng = random.Random(71)
    words = [_random_word(bs.alphabet, rng, 10) for _ in range(400)]
    pairs = list(zip(words[::2], words[1::2]))
    for u in words[:100]:
        # u times a conjugate of the relator: the same element, spelled apart
        c = _random_word(bs.alphabet, rng, 4)
        pairs.append((u, u * c * rng.choice((rel, rel.inverse())) * c.inverse()))
    same = 0
    for u, v in pairs:
        same_key = bs.key(u) == bs.key(v)
        assert same_key == (evaluate_affine(2, u) == evaluate_affine(2, v))
        same += same_key
    assert same >= 100


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
    by_key = {}
    for w in words:
        by_key.setdefault(bs.key(w), []).append(w)
    for group in by_key.values():
        for u, v in zip(group, group[1:]):
            assert _bounded_congruence_reachable(bs, u, v)
            pairs_checked += 1
            if pairs_checked >= 8:
                return
