"""The self-similar induction pipeline: data, transport maps, verification."""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
from dataclasses import fields
from itertools import chain
from pathlib import Path

import pytest

from gpq.backends import cyclic_group
from gpq.errors import DegenerateCase, DoesNotCloseUp, LimitExceeded
from gpq import grigorchuk, induction, words
from gpq.grigorchuk import (
    FAMILY_LETTER_CAP,
    GrigorchukData,
    _cancel,
    _check_chunks,
    _free_product_nf,
    _join,
    _joined_length,
    _nf_join,
    make_grigorchuk_data,
    run_full_verification,
    verify_sigma_identity,
)
from gpq.induction import YLetter, basic_relation, conjugate_relation
from gpq.words import Alphabet, Word, apply_substitution, free_reduce
from helpers import assemble, free_product_nf, phi0_letterwise, transport_induced_relation, verify_whole_words


ROOT = Path(__file__).resolve().parent.parent


def W(alphabet, text):
    return Word.from_str(alphabet, text)


def test_relator_family_examples(grig):
    assert str(grig.relator_family("abd", "w", 0)) == "a d a d a d a d"
    assert grig.relator_family("abd", "w", 1) == W(grig.abd, "(a b d a b d)^4")
    assert grig.relator_family("acd", "z", 0) == W(grig.acd, "(a d a c a c)^4")
    assert grig.relator_family("acd", "w", 1) == W(grig.acd, "(a c a c)^4")


def test_relator_lengths_track_letter_counts(grig):
    # substitution length bookkeeping: |sigma(w)| = sum of image lengths
    for fam in ("w", "z"):
        for n in range(5):
            w = grig.relator_family("abd", fam, n)
            expected = sum(len(grig.sigma_abd.images[i]) for i, _ in w.letters)
            assert len(grig.relator_family("abd", fam, n + 1)) == expected


def test_phi0_hat_examples(grig):
    def phi0_hat(w):
        return grig.translate_bd_to_cd(apply_substitution(grig.sigma_abd, w))

    assert phi0_hat(W(grig.abd, "a d")) == W(grig.acd, "a c a c")
    assert phi0_hat(W(grig.abd, "b")) == W(grig.acd, "d")
    assert phi0_hat(Word.identity(grig.abd)).is_empty()


def test_translate_examples(grig):
    assert grig.translate_bd_to_cd(W(grig.abd, "b")) == W(grig.acd, "c d")
    assert grig.translate_bd_to_cd(W(grig.abd, "b d")) == W(grig.acd, "c")
    # abda = sigma_abd(a) translates to aca = sigma_acd(a), the coherence pattern
    assert grig.translate_bd_to_cd(W(grig.abd, "a b d a")) == W(grig.acd, "a c a")


def test_substitution_coherence_random(grig):
    # letterwise phi0 = translate . sigma on positive words: the monoid form of
    # "the quotient isomorphism acts like the substitution"
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randrange(51)
        w = Word(grig.abd, tuple((rng.randrange(3), 1) for _ in range(n)))
        assert phi0_letterwise(grig, w) == grig.translate_bd_to_cd(
            apply_substitution(grig.sigma_abd, w)
        )


def test_phi0_is_an_isomorphism_onto_its_image(grig):
    # injective and multiplicative on the full 8 x 8 table; image = <c, aca>
    phi = grig.phi0_table
    assert len(set(phi)) == 8
    for x in range(8):
        for y in range(8):
            assert phi[grig.d8.mul[x][y]] == grig.d16.mul[phi[x]][phi[y]]
    a, c = grig.d16.generator_map
    mul = grig.d16.mul
    aca = mul[mul[a][c]][a]
    # closure of {c, aca} inside D16
    image = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for g in frontier:
            for h in (c, aca):
                v = grig.d16.mul[g][h]
                if v not in image:
                    image.add(v)
                    nxt.append(v)
        frontier = nxt
    assert set(phi) == image


def test_phi0_words_are_substituted_canonical_names(grig):
    sub = {"a": W(grig.acd, "a c a"), "d": W(grig.acd, "c")}
    for x in range(8):
        name = grig.d8.element_names[x]
        letters = []
        for i, _ in name.letters:
            letters.extend(sub[grig.d8.alphabet.letters[i]].letters)
        assert grig.phi0_word(x) == Word(grig.acd, tuple(letters))


def test_split_extensions_are_built_on_first_read_and_once(monkeypatch):
    built = []
    split_extension = grigorchuk.SplitExtensionData

    def counting(*args, **kwargs):
        extension = split_extension(*args, **kwargs)
        built.append(extension.quotient.order)
        return extension

    monkeypatch.setattr(grigorchuk, "SplitExtensionData", counting)
    # phi0 reads the a extension; either read order builds each extension once
    orders = {("b_extension", "a_extension", "phi0_table"): [8, 16], ("phi0_table", "b_extension"): [16, 8]}
    for reads, built_orders in orders.items():
        built.clear()
        data = make_grigorchuk_data()
        assert built == []
        for name in reads * 2:
            assert getattr(data, name) is getattr(data, name)
        assert built == built_orders
    assert data.b_extension.presentation == data.presentation("abd")
    assert data.a_extension.presentation == data.presentation("acd")


_DEFINING = ("abcd", "acd", "abd", "sigma_abcd", "sigma_acd", "sigma_abd", "seeds", "d8", "d16", "klein_cd")
# the tables a case reads, each cached on its first read
_CACHED = (
    "b_extension", "a_extension", "phi0_table", "_phi0_words", "_bd_to_cd", "_tau", "_transport_chunks", "_x_classes"
)


def test_grigorchuk_data_takes_only_its_defining_values():
    # the extensions and phi0 follow from these, so no caller can pass them inconsistently
    assert tuple(f.name for f in fields(GrigorchukData) if f.init) == _DEFINING
    # and it has no field of working state
    assert [f.name for f in fields(GrigorchukData) if not f.init] == []


def test_a_grid_leaves_only_cached_tables_on_its_data():
    data = make_grigorchuk_data()
    _, summary = run_full_verification(data, 8)
    assert summary.total == 256 and summary.all_equal
    assert sorted(vars(data)) == sorted(_DEFINING + _CACHED)


def test_two_grids_on_one_data_give_equal_reports():
    data = make_grigorchuk_data()
    once, summary = run_full_verification(data, 4)
    twice, again = run_full_verification(data, 4)
    assert again == summary
    assert [rep.to_dict() for rep in twice] == [rep.to_dict() for rep in once]
    assert [(rep.expected.letters, rep.computed.letters) for rep in twice] == [
        (rep.expected.letters, rep.computed.letters) for rep in once
    ]
    assert sorted(vars(data)) == sorted(_DEFINING + _CACHED)


def test_transport_single_letters(grig):
    e_b = (YLetter(0, 1),)  # ^e b
    assert transport_induced_relation(grig, e_b, "second") == W(grig.acd, "d")
    assert transport_induced_relation(grig, e_b, "first") == W(grig.acd, "a d a")


def test_verify_base_cases(grig):
    rep = verify_sigma_identity(grig, 1, "w", "second", 0)
    assert rep.equal and rep.level == "dihedral"
    rep_first = verify_sigma_identity(grig, 1, "w", "first", 0)
    assert rep_first.equal
    # outer a-conjugation: first-factor expectation is a [second-factor] a
    second_expected = verify_sigma_identity(grig, 1, "w", "second", 0).expected
    a = W(grig.acd, "a")
    assert rep_first.expected == free_reduce(a * second_expected * a)


def test_verify_conjugated_case(grig):
    x = next(
        i for i, nm in enumerate(grig.d8.element_names) if str(nm).replace(" ", "") == "a"
    )
    rep = verify_sigma_identity(grig, 1, "w", "second", x)
    assert rep.equal
    conj = grig.phi0_word(x)
    core = grig.translate_bd_to_cd(grig.relator_family("abd", "w", 2))
    assert rep.expected == free_reduce(conj * core * conj.inverse())


def test_verify_degenerate_case(grig):
    with pytest.raises(DegenerateCase):
        verify_sigma_identity(grig, 0, "w", "second", 0)


def test_verification_grid_counts_and_levels(grig):
    reports, summary = run_full_verification(grig, 2)
    assert summary.total == 64 == len(reports)
    assert summary.all_equal
    assert set(summary.by_level) <= {"free", "klein", "dihedral"}
    for rep in reports:
        assert rep.equal and rep.level is not None
        # dihedral equality is implied whenever a stronger level holds
        assert rep.equal_dihedral


def test_run_zero_is_empty(grig):
    reports, summary = run_full_verification(grig, 0)
    assert reports == [] and summary.total == 0
    assert summary.skipped


def test_reports_replay_from_scratch(grig):
    # recomputing a report's words from its case id reproduces them
    # byte-for-byte, on fresh data whose family records the cases build in
    # reverse order, each (n, family) from the seed
    reports, _ = run_full_verification(grig, 3)
    fresh = make_grigorchuk_data()
    for rep in reversed(reports):
        again = verify_sigma_identity(fresh, rep.n, rep.family, rep.factor, rep.x)
        assert again.expected == rep.expected
        assert again.computed == rep.computed
        assert again.to_dict() == rep.to_dict()


def test_reports_match_whole_word_reference():
    # every report for n <= 5 equals the earlier whole-word case, on fresh
    # data whose family records the cases continue forward, and on fresh
    # data whose records they build in reverse
    forward, _ = run_full_verification(make_grigorchuk_data(), 5)
    cases = [(rep.n, rep.family, rep.factor, rep.x) for rep in forward]
    backward_data = make_grigorchuk_data()
    backward = {case: verify_sigma_identity(backward_data, *case) for case in reversed(cases)}
    reference_data = make_grigorchuk_data()
    for rep, case in zip(forward, cases):
        ref = verify_whole_words(reference_data, *case)
        for got in (rep, backward[case]):
            assert got.to_dict() == ref.to_dict(), case
            assert got.expected.letters == ref.expected.letters, case
            assert got.computed.letters == ref.computed.letters, case


def test_report_words_are_built_on_first_read(grig):
    # a report keeps what its words are joined from; only the cases whose two
    # lengths agree read their letters to decide the level: the 8 free ones
    # and n=3 w second x=d a d
    reports, _ = run_full_verification(make_grigorchuk_data(), 3)
    read = []
    for rep in reports:
        rep.to_dict()
        built = {"expected", "computed"} & set(vars(rep))
        assert built in ({"expected", "computed"}, set()), rep.case_id()
        if built:
            read.append((rep.case_id(), rep.level))
        assert rep.expected is rep.expected and len(rep.expected) == rep.expected_length
        assert rep.computed is rep.computed and len(rep.computed) == rep.computed_length
    assert [level for _, level in read] == ["free"] * 8 + ["dihedral"]
    assert read[-1][0] == "n=3 w second x=d a d"


def test_cancelling_commutes_with_conjugating(grig):
    # the premise the 16 cases of an (n, family) share one cancellation on:
    # x g = x h only for g = h, so cancelling x T(w_n) piece by piece gives
    # x applied to the cancelled T(w_n)
    cancelled_pieces = 0
    for n in range(1, 7):
        for family in ("w", "z"):
            basic = basic_relation(grig.relator_family("abd", family, n), grig.b_extension)
            cancelled = _cancel(yl.conjugator for yl in basic)
            cancelled_pieces += len(basic) - len(cancelled)
            for x in range(8):
                conjugated = conjugate_relation(basic, x, grig.b_extension)
                row = grig.d8.mul[x]
                assert _cancel(yl.conjugator for yl in conjugated) == [row[g] for g in cancelled], (n, family, x)
    assert cancelled_pieces > 1000


def test_the_grid_cancels_once_per_n_and_family(monkeypatch):
    calls = []

    def counted(gs):
        calls.append(1)
        return _cancel(gs)

    monkeypatch.setattr(grigorchuk, "_cancel", counted)
    _, summary = run_full_verification(make_grigorchuk_data(), 4)
    assert summary.total == 128 and summary.all_equal
    assert len(calls) == 8


def test_the_grid_builds_one_middle_per_n_family_and_x(monkeypatch):
    # both factors' cases of every x of an (n, family) and class of x share
    # one middle: 4 x 2 x 4 middles for the 128 cases of the n <= 4 grid
    built = []
    middle = grigorchuk._Middle
    monkeypatch.setattr(grigorchuk, "_Middle", lambda *args: built.append(args) or middle(*args))
    _, summary = run_full_verification(make_grigorchuk_data(), 4)
    assert summary.total == 128 and summary.all_equal
    assert len(built) == 32


def test_both_factors_share_each_middle(grig):
    # the two reports of one (n, family, x) hold the same middle chunks, not
    # a copy, and so do those of x and a x; those of other x do not
    reports, _ = run_full_verification(make_grigorchuk_data(), 3)
    by_case = {(rep.n, rep.family, rep.x, rep.factor): rep for rep in reports}
    a = grig.d8.generator_map[0]
    mids = []
    for n in range(1, 4):
        for family in ("w", "z"):
            for x in range(8):
                first, second = (by_case[n, family, x, factor].computed_parts[1] for factor in ("first", "second"))
                assert first is second, (n, family, x)
                assert first is by_case[n, family, grig.d8.mul[a][x], "first"].computed_parts[1], (n, family, x)
                mids.append(first)
    assert len(mids) == 48 and len(set(map(id, mids))) == 24


def test_grid_cases_come_in_n_family_factor_x_order(grig):
    reports, _ = run_full_verification(make_grigorchuk_data(), 3)
    names = [str(name) or "e" for name in grig.d8.element_names]
    assert [rep.case_id() for rep in reports] == [
        f"n={n} {family} {factor} x={name}"
        for n in range(1, 4)
        for family in ("w", "z")
        for factor in ("first", "second")
        for name in names
    ]


def test_both_factors_share_the_mid_table(grig):
    # J(g, h) = reduce((a C_g)^-1 a C_h) = reduce(C_g^-1 C_h): the one mid
    # table is what each factor's own heads and inverses give
    d = grig._chunk(((grig.acd.index("d"), 1),))
    first, second = grig._transport_chunks["first"], grig._transport_chunks["second"]
    assert first.mid is second.mid and first.head != second.head
    for chunks in (first, second):
        pairs = 0
        for g in range(8):
            for h in range(8):
                if g == h:
                    assert chunks.mid[g][h] is None
                    continue
                pairs += 1
                want = grig._join_chunks(d, grig._join_chunks(chunks.inverse[g], chunks.head[h]))
                assert chunks.mid[g][h] == want, (g, h)
        assert pairs == 56


def test_mapped_mid_tables_keep_their_d16_values_and_pair_x_with_a_x(grig):
    # the two facts the grid's sharing rests on, from the J letters alone:
    # J(x g, x h) and J(g, h) have one value in D_16, and the mid tables of x
    # and y agree exactly when y is x or a x
    mid, mul = grig._transport_chunks["first"].mid, grig.d8.mul
    a = grig.d8.generator_map[0]
    value = grig.a_extension._image_of

    def j(g, h):
        return Word._of(grig.acd, mid[g][h].letters[1:])

    pairs = [(g, h) for g in range(8) for h in range(8) if g != h]
    for x in range(8):
        for g, h in pairs:
            assert value(j(mul[x][g], mul[x][h])) == value(j(g, h)), (x, g, h)
    tables = [[mid[mul[x][g]][mul[x][h]].letters for g, h in pairs] for x in range(8)]
    for x in range(8):
        for y in range(8):
            assert (tables[x] == tables[y]) == (y in (x, mul[a][x])), (x, y)
    assert [set(xs) for xs, _ in grig._x_classes] == [{x, mul[a][x]} for x in (0, 2, 4, 6)]


def test_a_mid_table_whose_dihedral_forms_vary_with_x_is_refused(monkeypatch):
    # one chunk's D_16 value changed, still nontrivial: neither the grid nor a
    # lone case shares the dihedral form of the other x's middles
    chunks = make_grigorchuk_data()._transport_chunks
    mid = chunks["first"].mid
    good = mid[0][1]
    other = next(v for v in range(1, 16) if v != good.dihedral[1])
    bad = good._replace(dihedral=(good.dihedral[0], other))
    table = tuple(tuple(bad if (g, h) == (0, 1) else m for h, m in enumerate(row)) for g, row in enumerate(mid))
    broken = {factor: c._replace(mid=table) for factor, c in chunks.items()}
    runs = [lambda data: run_full_verification(data, 2)]
    runs += [lambda data, x=x: verify_sigma_identity(data, 1, "w", "second", x) for x in (0, 5)]
    for run in runs:
        data = make_grigorchuk_data()
        monkeypatch.setitem(vars(data), "_transport_chunks", broken)
        with pytest.raises(RuntimeError, match="differ in D_16"):
            run(data)


def test_a_lone_case_after_a_grid_matches_the_grid():
    # cases of the grid's last x, in and beyond the grid, on the grid's data
    reports, _ = run_full_verification(make_grigorchuk_data(), 3)
    by_case = {(rep.n, rep.family, rep.factor, rep.x): rep for rep in reports}
    data = make_grigorchuk_data()
    run_full_verification(data, 2)
    for case in ((2, "w", "first", 7), (3, "w", "second", 7), (3, "z", "first", 7), (1, "z", "second", 7)):
        lone, grid = verify_sigma_identity(data, *case), by_case[case]
        assert lone.to_dict() == grid.to_dict(), case
        assert lone.expected.letters == grid.expected.letters, case
        assert lone.computed.letters == grid.computed.letters, case


def test_lone_cases_in_shuffled_order_match_the_grid():
    # every n <= 4 case alone, in a seeded shuffle, on one data
    reports, _ = run_full_verification(make_grigorchuk_data(), 4)
    by_case = {(rep.n, rep.family, rep.factor, rep.x): rep for rep in reports}
    cases = list(by_case)
    random.Random(4249).shuffle(cases)
    data = make_grigorchuk_data()
    for case in cases:
        lone, grid = verify_sigma_identity(data, *case), by_case[case]
        assert lone.to_dict() == grid.to_dict(), case
        assert lone.expected.letters == grid.expected.letters, case
        assert lone.computed.letters == grid.computed.letters, case


def test_lone_cases_of_n_8_in_reverse_grid_order_match_the_grid():
    # each lone case builds its own w_8, record and middle, and leaves none
    # of them on the data
    reports, _ = run_full_verification(make_grigorchuk_data(), 8)
    grid = [rep for rep in reports if rep.n == 8]
    data = make_grigorchuk_data()
    lone = [verify_sigma_identity(data, 8, rep.family, rep.factor, rep.x) for rep in reversed(grid)][::-1]
    assert len(lone) == 32
    for alone, rep in zip(lone, grid):
        assert alone.to_dict() == rep.to_dict(), rep.case_id()
        assert alone.expected.letters == rep.expected.letters, rep.case_id()
        assert alone.computed.letters == rep.computed.letters, rep.case_id()
    assert sorted(vars(data)) == sorted(_DEFINING + _CACHED)


def test_joined_length_is_the_length_of_the_join():
    # cores shorter than, as long as and longer than the conjugator, so the
    # second seam reaches back into c, stops in the core, or both
    rng = random.Random(4248)

    def reduced(n):
        letters = []
        while len(letters) < n:
            letter = (rng.randrange(3), 1)
            if not letters or letters[-1] != letter:
                letters.append(letter)
        return tuple(letters)

    for _ in range(2000):
        c = reduced(rng.randrange(6))
        core = reduced(rng.randrange(10))
        c_inv = c[::-1]
        if rng.random() < 0.5 and c:  # make the core start with c^-1's letters
            core = _join(c_inv[: rng.randrange(len(c) + 1)], core)
        assert _joined_length(c, core, c_inv) == len(_join(_join(c, core), c_inv)), (c, core)


_PASSTHROUGH_UNDER_O = """
from gpq.grigorchuk import make_grigorchuk_data
from gpq.words import Alphabet, Word

assert False, "asserts are on"
word = Word.from_str(Alphabet.make("a", "c!", "d!"), "a a")
try:
    make_grigorchuk_data().klein_nf(word)
except ValueError as exc:
    print(exc)
"""


def test_a_passthrough_letter_of_infinite_order_is_refused(grig):
    # in <a> * V with a of infinite order, a a is not the identity; the normal
    # forms take only involutive passthrough letters, in process and under -O
    for nf, names, text in ((grig.klein_nf, ("a", "c!", "d!"), "a a"), (grig.dihedral_nf, ("a!", "c!", "d"), "d d")):
        with pytest.raises(ValueError, match=f"passthrough letter '{text[0]}' is not involutive"):
            nf(Word.from_str(Alphabet.make(*names), text))
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PASSTHROUGH_UNDER_O], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "passthrough letter 'a' is not involutive"


_EMBEDDED_UNDER_O = """
from gpq.grigorchuk import make_grigorchuk_data
from gpq.words import Alphabet, Word

assert False, "asserts are on"
data = make_grigorchuk_data()
for nf, names, text in ((data.dihedral_nf, ("a", "c!", "d!"), "a a"), (data.klein_nf, ("a!", "c", "d!"), "c c")):
    try:
        print(nf(Word.from_str(Alphabet.make(*names), text)))
    except ValueError as exc:
        print(exc)
"""


def test_an_embedded_letter_of_infinite_order_is_refused(grig):
    # a a is the identity in D_16 but not where a has infinite order; the
    # normal forms embed only involutions onto involutions, in process and
    # under -O
    messages = [f"embedded letter {x!r} must be involutive, and its table generator square to 1" for x in "ac"]
    cases = ((grig.dihedral_nf, ("a", "c!", "d!"), "a a"), (grig.klein_nf, ("a!", "c", "d!"), "c c"))
    for (nf, names, text), message in zip(cases, messages):
        with pytest.raises(ValueError, match=message):
            nf(Word.from_str(Alphabet.make(*names), text))
    # x x is not the identity where x is an involution sent to an element of order 3
    with pytest.raises(ValueError, match="embedded letter 'x' must be involutive"):
        _free_product_nf(Word.from_str(Alphabet.make("x!", "p!"), "x x"), cyclic_group(3), {"x": 0}, ("p",))
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _EMBEDDED_UNDER_O], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == messages


def test_nf_join_is_the_normal_form_of_the_product(grig):
    # joining two normal forms at their seam gives the normal form of the
    # product, at both levels; v = u^-1 w makes the cancellation run across
    # the seam, through identity products of table syllables
    rng = random.Random(4245)

    def random_word(max_len):
        return Word(grig.acd, tuple((rng.randrange(3), 1) for _ in range(rng.randrange(max_len))))

    for nf, table in ((grig.klein_nf, grig.klein_cd), (grig.dihedral_nf, grig.d16)):
        for k in range(400):
            u, w = random_word(16), random_word(8)
            v = w if k % 2 else u.inverse() * w
            assert _nf_join(nf(u), nf(v), table.mul) == nf(u * v), (str(u), str(v))


def test_nf_join_with_two_passthrough_letters():
    # with two passthrough letters p q can stand side by side, so a seam
    # that cancels p p can leave a table syllable facing q, where it stops
    rng = random.Random(4249)
    alphabet = Alphabet.make("x!", "p!", "q!")
    table = cyclic_group(2)
    nf = lambda w: _free_product_nf(w, table, {"x": 0}, ("p", "q"))  # noqa: E731
    u, v = W(alphabet, "x p"), W(alphabet, "p q")
    assert (nf(u), nf(v)) == ((1, -2), (-2, -3))
    assert _nf_join(nf(u), nf(v), table.mul) == nf(u * v) == (1, -3)
    for _ in range(400):
        u = Word(alphabet, tuple((rng.randrange(3), 1) for _ in range(rng.randrange(10))))
        w = Word(alphabet, tuple((rng.randrange(3), 1) for _ in range(rng.randrange(6))))
        v = u.inverse() * w if rng.random() < 0.5 else w
        assert nf(u) == free_product_nf(u, table, ("p", "q")), str(u)
        assert _nf_join(nf(u), nf(v), table.mul) == nf(u * v), (str(u), str(v))


def test_transport_cancels_whole_pieces(grig):
    # two equal consecutive conjugators: the second piece C d C^-1 cancels
    # whole, and the pieces around it meet at the seam
    for factor in ("first", "second"):
        for g in range(8):
            for h in range(8):
                single = transport_induced_relation(grig, (YLetter(h, 1),), factor)
                for xs, want in (((h, g, g), single), ((g, g), ()), ((h, g, g, h), ())):
                    relation = tuple(YLetter(c, 1) for c in xs)
                    got = transport_induced_relation(grig, relation, factor)
                    assert got.letters == (want.letters if want else ()), (factor, xs)
    # and on random conjugator sequences, the free reduction of the whole
    # concatenation
    rng = random.Random(4246)
    a, d = W(grig.acd, "a"), W(grig.acd, "d")
    for factor in ("first", "second"):
        for _ in range(200):
            xs = [rng.randrange(8) for _ in range(rng.randrange(12))]
            whole = Word.identity(grig.acd)
            for c in xs:
                u = grig.phi0_word(c) if factor == "second" else free_reduce(a * grig.phi0_word(c))
                whole = whole * u * d * u.inverse()
            relation = tuple(YLetter(c, 1) for c in xs)
            assert transport_induced_relation(grig, relation, factor) == free_reduce(whole)


def test_transport_matches_basic_relation_pipeline(grig):
    # the transported word's d-letters carry exactly the phi0-images of the
    # induced relator's conjugators (checked through the a,c,d extension)
    w1 = grig.relator_family("abd", "w", 1)
    t = basic_relation(w1, grig.b_extension)
    transported = transport_induced_relation(grig, t, "second")
    induced = basic_relation(transported, grig.a_extension)
    expected_conjugators = [grig.phi0_table[yl.conjugator] for yl in t]
    assert [yl.conjugator for yl in induced] == expected_conjugators


def test_family_correspondence_under_translation(grig):
    # relator families of the two 3-letter variants correspond under b -> cd,
    # at the Klein level (c and d commute); w_0, w_1, z_0 even correspond freely
    for fam in ("w", "z"):
        for n in range(4):
            translated = grig.translate_bd_to_cd(grig.relator_family("abd", fam, n))
            native = free_reduce(grig.relator_family("acd", fam, n))
            assert grig.klein_nf(translated) == grig.klein_nf(native), (fam, n)
    assert grig.translate_bd_to_cd(grig.relator_family("abd", "w", 1)) == free_reduce(
        grig.relator_family("acd", "w", 1)
    )
    assert grig.translate_bd_to_cd(grig.relator_family("abd", "z", 0)) == free_reduce(
        grig.relator_family("acd", "z", 0)
    )


def test_klein_nf_identifies_commuting_involutions(grig):
    u = W(grig.acd, "c d c")
    v = W(grig.acd, "d")
    assert grig.klein_nf(u) == grig.klein_nf(v)
    assert grig.klein_nf(W(grig.acd, "a c d a")) != grig.klein_nf(W(grig.acd, "a d a"))


def test_dihedral_nf_uses_the_level_one_relator(grig):
    # (acac)^4 = 1 holds at the dihedral level but not at the Klein level
    w = W(grig.acd, "(a c a c)^4")
    assert grig.dihedral_nf(w) == ()
    assert grig.klein_nf(w) != ()


def test_abcd_variant_coherence_under_translation(grig):
    # dropping b via b -> cd carries the 4-generator substitution to the
    # 3-generator one, again at the Klein level (sigma_abcd(b) = d vs
    # sigma_acd(cd) = cdc)
    def translate_abcd(word):
        images = {
            "a": W(grig.acd, "a"),
            "b": W(grig.acd, "c d"),
            "c": W(grig.acd, "c"),
            "d": W(grig.acd, "d"),
        }
        out = []
        for idx, _ in word.letters:
            out.extend(images[grig.abcd.letters[idx]].letters)
        return free_reduce(Word(grig.acd, tuple(out)))

    for fam in ("w", "z"):
        for n in range(3):
            lhs = translate_abcd(grig.relator_family("abcd", fam, n))
            rhs = free_reduce(grig.relator_family("acd", fam, n))
            assert grig.klein_nf(lhs) == grig.klein_nf(rhs), (fam, n)


def test_seed_presentations_by_depth(grig):
    p0 = grig.presentation("acd", 0)
    p2 = grig.presentation("acd", 2)
    assert len(p0.relators) == 2 and len(p2.relators) == 6
    assert set(r.letters for r in p0.relators) <= set(r.letters for r in p2.relators)
    p_abcd = grig.presentation("abcd", 0)
    assert str(p_abcd.relators[0]) == "b c d"


def test_klein_nf_is_a_congruence(grig):
    # inserting any defining relator of <a> * V anywhere never changes the form
    rng = random.Random(77)
    relators = [W(grig.acd, t) for t in ("a a", "c c", "d d", "c d c d")]
    for _ in range(200):
        u = Word(grig.acd, tuple((rng.randrange(3), 1) for _ in range(rng.randrange(12))))
        v = Word(grig.acd, tuple((rng.randrange(3), 1) for _ in range(rng.randrange(12))))
        rel = rng.choice(relators)
        assert grig.klein_nf(u * rel * v) == grig.klein_nf(u * v)


def test_dihedral_nf_is_a_congruence(grig):
    # same for D16 * <d>: the (acac)^4 relator may be inserted anywhere
    rng = random.Random(78)
    relators = [W(grig.acd, t) for t in ("a a", "c c", "d d", "(a c a c)^4")]
    for _ in range(200):
        u = Word(grig.acd, tuple((rng.randrange(3), 1) for _ in range(rng.randrange(12))))
        v = Word(grig.acd, tuple((rng.randrange(3), 1) for _ in range(rng.randrange(12))))
        rel = rng.choice(relators)
        assert grig.dihedral_nf(u * rel * v) == grig.dihedral_nf(u * v)


def test_normal_forms_match_the_rewriting_model(grig):
    # the one-pass normal forms agree with rewriting to a fixpoint, on random
    # words and on products of conjugated relators, which collapse to ()
    rng = random.Random(4243)
    groups = (
        (grig.klein_nf, grig.klein_cd, ("a",), ("a a", "c c", "d d", "c d c d")),
        (grig.dihedral_nf, grig.d16, ("d",), ("a a", "c c", "d d", "(a c a c)^4")),
    )

    def random_word(max_len):
        return Word(grig.acd, tuple((rng.randrange(3), 1) for _ in range(rng.randrange(max_len))))

    for nf, table, passthrough, relator_texts in groups:
        relators = [W(grig.acd, t) for t in relator_texts]
        forms = []
        for k in range(300):
            if k % 2:
                w = random_word(24)
            else:
                w = Word.identity(grig.acd)
                for _ in range(rng.randrange(1, 4)):
                    u = random_word(10)
                    w = w * u * rng.choice(relators) * u.inverse()
            forms.append(nf(w))
            assert forms[-1] == free_product_nf(w, table, passthrough), str(w)
        assert sum(f == () for f in forms) >= 150
        # both syllable kinds occur: table elements > 0, passthrough letters < 0
        assert any(min(f) < 0 < max(f) for f in forms if f)


def test_normal_forms_reject_foreign_letters(grig):
    w = W(grig.abcd, "a b a")
    for nf in (grig.klein_nf, grig.dihedral_nf):
        with pytest.raises(ValueError):
            nf(w)


def test_verification_extends_to_n_five(grig):
    reports, summary = run_full_verification(grig, 5)
    assert summary.total == 160 and summary.all_equal


def test_verify_and_relator_family_reject_bad_arguments(grig):
    for x in (-1, 8):
        with pytest.raises(ValueError, match="x must be"):
            verify_sigma_identity(grig, 1, "w", "first", x)
    with pytest.raises(ValueError, match="factor"):
        verify_sigma_identity(grig, 1, "w", "third", 0)
    with pytest.raises(ValueError, match="unknown family"):
        verify_sigma_identity(grig, 1, "q", "first", 0)
    with pytest.raises(ValueError, match="unknown family"):
        grig.relator_family("abd", "q", 1)
    with pytest.raises(ValueError, match="n must be"):
        verify_sigma_identity(grig, -1, "w", "first", 0)


@pytest.mark.parametrize("n, x", [(True, 0), (1.0, 0), (1, True), (1, 1.0), (1, False)])
def test_verify_refuses_an_n_or_x_that_is_not_an_int(grig, n, x):
    # True == 1 and 1.0 == 1, but a report's case id and x would keep them
    with pytest.raises(ValueError, match="n must be an int" if type(n) is not int else "x must be"):
        verify_sigma_identity(grig, n, "w", "first", x)


@pytest.mark.parametrize("max_n", [True, 1.0, -1])
def test_full_verification_refuses_a_max_n_other_than_an_int_at_least_0(grig, max_n):
    with pytest.raises(ValueError, match="max_n must be an int >= 0"):
        run_full_verification(grig, max_n)


def test_family_words_apply_sigma_once_per_n(monkeypatch):
    # the grid up to max_n needs w_1 .. w_{max_n} of each family, and builds
    # each from the one before it; relator_family is unchanged
    data = make_grigorchuk_data()
    calls = []
    apply = words.apply_substitution

    def counted(sub, word):
        calls.append(sub is data.sigma_abd)
        return apply(sub, word)

    monkeypatch.setattr(words, "apply_substitution", counted)
    run_full_verification(data, 4)
    assert calls == [True] * (2 * 4)
    for family in ("w", "z"):
        for n in (5, 2, 3, 0, 6):
            word = data.relator_family("abd", family, n)
            if (n, family) == (0, "w"):
                # w_0 is b-free: it gets no record
                with pytest.raises(DegenerateCase):
                    data._family(n, family, word)
                continue
            # a record is a function of w_n alone
            record = data._family(n, family, word)
            assert record[:2] == (n, family) and data._family(n, family, word) == record


def test_the_grid_builds_no_y_letter_and_no_word_past_max_n(monkeypatch):
    # the n <= 8 grid reads T(w_n) off the prefix walk, as ints, and its
    # cores off w_n: it builds w_1 .. w_8 of each family, never w_9 or z_9
    data = make_grigorchuk_data()
    beyond = {data.relator_family("abd", family, 9).letters for family in ("w", "z")}
    y_letters, built = [], []
    init, apply = induction.YLetter.__init__, words.apply_substitution
    monkeypatch.setattr(induction.YLetter, "__init__", lambda self, *args: y_letters.append(args) or init(self, *args))
    monkeypatch.setattr(words, "apply_substitution", lambda sub, word: built.append(apply(sub, word)) or built[-1])
    _, summary = run_full_verification(data, 8)
    assert summary.total == 256 and summary.all_equal
    assert y_letters == []
    assert len(built) == 2 * 8 and not beyond & {word.letters for word in built}
    # the counters count: basic_relation builds its YLetters
    assert len(basic_relation(data.relator_family("abd", "w", 1), data.b_extension)) == len(y_letters) > 0


_WALK_REFUSALS = """
import dataclasses, sys
from gpq.grigorchuk import make_grigorchuk_data
from gpq.induction import basic_relation
from gpq.words import Word

print(sys.flags.optimize)
grig = make_grigorchuk_data()
# w_0 = b dies in D_8, w_1 = sigma(b) = d does not
bad = dataclasses.replace(grig, seeds={**grig.seeds, ("abd", "w"): "b"})
for refused in (lambda: bad._family(1, "w", bad.relator_family("abd", "w", 1)), lambda: basic_relation(Word.from_str(grig.abd, "d"), grig.b_extension)):
    try:
        refused()
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


def test_the_grid_reads_basic_relations_off_the_prefix_walk(grig):
    # the grid's cancelled conjugators and y-letter count are those of
    # basic_relation, which runs the same walk
    for n in range(1, 10):
        for family in ("w", "z"):
            basic = basic_relation(grig.relator_family("abd", family, n), grig.b_extension)
            record = grig._family(n, family, grig.relator_family("abd", family, n))
            assert list(record.stack) == _cancel(yl.conjugator for yl in basic), (n, family)
            assert record.y_letters == len(basic), (n, family)
    with pytest.raises(DegenerateCase, match=r"^w_0 has no inducible letters \(b-free\)$"):
        grig._family(0, "w", grig.relator_family("abd", "w", 0))
    # a family word that does not close up is refused by the walk, with the
    # same message for the grid and for basic_relation, in process and under -O
    message = "'d' has quotient image d, not the identity"
    bad = dataclasses.replace(grig, seeds={**grig.seeds, ("abd", "w"): "b"})
    with pytest.raises(DoesNotCloseUp, match=f"^{message}$"):
        bad._family(1, "w", bad.relator_family("abd", "w", 1))
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for flags, optimize in (([], "0"), (["-O"], "1")):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _WALK_REFUSALS], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [optimize] + [f"DoesNotCloseUp {message}"] * 2


def test_cores_are_read_through_the_letter_images_of_sigma_then_translate(grig):
    # _tau holds translate(sigma(x)) per letter x, and w_n read through it
    # reduces to translate(w_{n+1}), the core the grid uses
    for idx, name in enumerate(grig.abd.letters):
        image = apply_substitution(grig.sigma_abd, Word.letter(grig.abd, name))
        assert grig._tau[idx] == grig.translate_bd_to_cd(image).letters, name
    for family in ("w", "z"):
        word = grig.relator_family("abd", family, 0)
        for n in range(11):
            after = apply_substitution(grig.sigma_abd, word)
            reference = grig.translate_bd_to_cd(after)
            read = chain.from_iterable(grig._tau[idx] for idx, _ in word.letters)
            assert free_reduce(Word(grig.acd, tuple(read))) == reference, (n, family)
            if n:
                assert grig._family(n, family, word).core.letters == reference.letters, (n, family)
            word = after


def _whole_pieces(grig, factor, gs):
    """The pieces C_g d C_g^-1 of gs concatenated unreduced, C_g built from
    phi0_word and free_reduce alone."""
    a, d = W(grig.acd, "a"), W(grig.acd, "d")
    letters = []
    for g in gs:
        u = grig.phi0_word(g) if factor == "second" else free_reduce(a * grig.phi0_word(g))
        letters.extend((u * d * u.inverse()).letters)
    return Word(grig.acd, tuple(letters))


def _check_assembly(grig, factor, gs):
    whole = _whole_pieces(grig, factor, gs)
    letters, klein, dihedral = assemble(grig, factor, gs)
    assert letters == free_reduce(whole).letters, (factor, gs)
    assert klein == grig.klein_nf(whole), (factor, gs)
    assert dihedral == grig.dihedral_nf(whole), (factor, gs)


def test_assembly_matches_the_whole_word_normal_forms(grig):
    # random conjugator sequences, with repeats so that pieces cancel; and
    # sequences f g h k with J(g, h) = c, where d J(g, h) d = c in V meets
    # the neighbouring J's last and first letters and a Klein seam product
    # is the identity, so the fold must run back into earlier chunks
    rng = random.Random(4247)
    a = W(grig.acd, "a")
    c = grig.acd.index("c")
    for factor in ("first", "second"):
        conj = [
            grig.phi0_word(g) if factor == "second" else free_reduce(a * grig.phi0_word(g))
            for g in range(8)
        ]
        J = {
            (g, h): free_reduce(conj[g].inverse() * conj[h]).letters
            for g in range(8)
            for h in range(8)
            if g != h
        }
        for _ in range(200):
            gs = [rng.randrange(8) for _ in range(rng.randrange(16))]
            if rng.random() < 0.5:
                gs += gs[::-1][: rng.randrange(len(gs) + 1)]
            _check_assembly(grig, factor, gs)
        identity_seams = 0
        for (g, h), j in J.items():
            if j != ((c, 1),):
                continue
            for f in range(8):
                for k in range(8):
                    if f == g or k == h:
                        continue
                    # d J(g, h) d = c in V cancels the c that ends J(f, g) or
                    # starts J(h, k), when exactly one of them has it there
                    if (J[f, g][-1][0] == c) != (J[h, k][0][0] == c):
                        identity_seams += 1
                        before = [rng.choice([e for e in range(8) if e != f])]
                        after = [rng.choice([e for e in range(8) if e != k])]
                        _check_assembly(grig, factor, before + [f, g, h, k] + after)
        assert identity_seams >= 20, factor


def test_assembly_matches_the_whole_word_normal_forms_on_the_grid(grig):
    for n in range(1, 7):
        for family in ("w", "z"):
            basic = basic_relation(grig.relator_family("abd", family, n), grig.b_extension)
            for x in range(8):
                gs = [yl.conjugator for yl in conjugate_relation(basic, x, grig.b_extension)]
                for factor in ("first", "second"):
                    _check_assembly(grig, factor, gs)


def test_chunk_tables_are_checked_when_built(grig):
    # the assembly's premises: each J(g, h) non-empty, d-free and nontrivial
    # in D_16; a table that breaks one is refused
    d = (grig.acd.index("d"), 1)
    for factor in ("first", "second"):
        chunks = grig._transport_chunks[factor]
        assert _check_chunks(chunks, d) is chunks
        good = chunks.mid[0][1]
        for bad in (
            good._replace(letters=(d,)),
            good._replace(letters=good.letters + (d,)),
            good._replace(dihedral=good.dihedral[:1]),
        ):
            mid = tuple(
                tuple(bad if (g, h) == (0, 1) else m for h, m in enumerate(row))
                for g, row in enumerate(chunks.mid)
            )
            with pytest.raises(RuntimeError, match="J"):
                _check_chunks(chunks._replace(mid=mid), d)
    with pytest.raises(ValueError, match="factor"):
        transport_induced_relation(grig, (), "third")


def test_family_words_over_the_letter_cap_are_refused_before_they_are_built(grig):
    # in the abd variant w_11, z_11, w_12 and z_12 have 46,136, 139,560,
    # 93,424 and 282,136 letters
    assert len(grig.relator_family("abd", "z", 11)) <= FAMILY_LETTER_CAP
    for variant, family, n in (("abd", "z", 12), ("acd", "w", 40), ("abcd", "z", 10**9)):
        with pytest.raises(LimitExceeded, match=f"{family}_{n} of the {variant} variant"):
            grig.relator_family(variant, family, n)
    # the grid checks its longest words, w_(n+1) and z_(n+1), up front
    with pytest.raises(LimitExceeded, match="z_12"):
        run_full_verification(grig, 11)
    # and a single case continuing from a shorter family word checks too
    verify_sigma_identity(grig, 2, "z", "first", 0)
    with pytest.raises(LimitExceeded, match="z_12"):
        verify_sigma_identity(grig, 11, "z", "first", 0)
