"""Reduction traces, critical pairs, confluence certificates, ball witnesses."""

from __future__ import annotations

import json
import random
from dataclasses import FrozenInstanceError, replace

import pytest

from gpq.backends import dihedral_group, free_abelian_oracle
from gpq.errors import LimitExceeded, OracleMismatch
from gpq.presentations import Presentation
from gpq.rewriting import (
    Certified,
    Counterexample,
    Inconclusive,
    NotGeodesic,
    NullHomotopyCertificate,
    ReductionStep,
    ReductionTrace,
    RewritingSystem,
    abelian_plane_system,
    ball_null_homotopy_witness,
    certify_local_confluence,
    critical_pairs,
    _unmatched_rule,
    dihedral_rewriting_system,
    free_reduction_system,
    is_geodesic,
    normal_form,
    reduce,
)
from gpq.words import Alphabet, Word, free_reduce, rotations_and_inverses, words_up_to_length
from helpers import rewrite_restart, witness_word_by_word


def W(rs, text):
    return Word.from_str(rs.alphabet, text)


def test_free_reduction_single_step():
    rs = free_reduction_system(Alphabet.make("a", "b"))
    nf, trace = reduce(rs, W(rs, "a a' b"))
    assert str(nf) == "b"
    assert len(trace.steps) == 1
    assert trace.verify(rs)


def test_d8_reduction_with_trace():
    rs = dihedral_rewriting_system(8, ("a", "d"))
    nf, trace = reduce(rs, W(rs, "a d a d a"))
    assert str(nf) == "d a d"
    assert trace.verify(rs)
    d8 = dihedral_group(8, ("a", "d"))
    assert d8.element_names[d8.key(W(rs, "a d a d a"))] == nf


def test_expanding_rule_hits_limit():
    rs = RewritingSystem.make("a", [("a", "a a")])
    with pytest.raises(LimitExceeded) as err:
        reduce(rs, W(rs, "a"), step_limit=25)
    assert err.value.trace is not None and len(err.value.trace.steps) == 25


def test_reduce_rejects_a_word_over_another_alphabet():
    rs = RewritingSystem.make("a,b", [("a a", "b")])
    xyz = Alphabet.make("x", "y", "z")
    with pytest.raises(ValueError, match="different alphabet"):
        reduce(rs, Word.from_str(xyz, "x x z"))


def test_traced_steps_are_the_constructors_steps():
    # _traced stores each step's fields past the frozen __init__: the steps
    # must still be the dataclass's, field by field, and stay frozen
    rs = dihedral_rewriting_system(8, ("a", "d"))
    word = W(rs, "a d a d a d")
    _, trace = reduce(rs, word)
    want = [
        ReductionStep(Word(rs.alphabet, before), rule, pos, Word(rs.alphabet, after))
        for before, rule, pos, after in rewrite_restart(rs, word, 100)[1]
    ]
    assert len(trace.steps) == len(want) == 3
    for step, built in zip(trace.steps, want):
        assert type(step) is ReductionStep
        assert step == built and hash(step) == hash(built) and repr(step) == repr(built)
        assert vars(step) == vars(built)
        with pytest.raises(FrozenInstanceError):
            step.rule = 0


def test_verify_refuses_steps_outside_the_rules_or_the_word():
    rs = dihedral_rewriting_system(8, ("a", "d"))
    _, trace = reduce(rs, W(rs, "a d a d a d"))
    assert trace.verify(rs)

    def forged(**fields):
        return ReductionTrace(tuple(replace(s, **{k: f(s) for k, f in fields.items()}) for s in trace.steps))

    # rule - 3 names the same rule from the end of the 3-rule list
    assert not forged(rule=lambda s: s.rule - 3).verify(rs)
    assert not forged(rule=lambda s: len(rs.rules)).verify(rs)
    # d a d a -> a d a d at position 1 of a d a d a d, named from the end
    first = trace.steps[0]
    assert ReductionTrace((first,)).verify(rs)
    assert not ReductionTrace((replace(first, position=first.position - len(first.before)),)).verify(rs)
    assert not ReductionTrace((replace(first, position=len(first.before)),)).verify(rs)


def test_verify_refuses_a_forged_window_result_or_chain():
    rs = dihedral_rewriting_system(8, ("a", "d"))
    _, trace = reduce(rs, W(rs, "d a d a d d a"))
    assert trace.verify(rs) and len(trace.steps) == 4
    first, second, third = trace.steps[:3]
    # d a d a -> a d a d at 0; at 1 the word reads a d a d, no left-hand side
    assert not ReductionTrace((replace(first, position=1),)).verify(rs)
    assert not ReductionTrace((replace(first, after=second.after),)).verify(rs)
    assert not ReductionTrace((first, third)).verify(rs)  # third does not start where first ends
    assert ReductionTrace((first, second)).verify(rs)


def test_is_geodesic():
    assert is_geodesic(free_reduction_system(Alphabet.make("a", "b")))
    assert not is_geodesic(RewritingSystem.make("a", [("a", "a a")]))
    assert is_geodesic(dihedral_rewriting_system(8))


def test_trace_serializes_to_json():
    rs = free_reduction_system(Alphabet.make("a"))
    _, trace = reduce(rs, W(rs, "a a' a a'"))
    assert '"steps"' in json.dumps(trace.to_dict(), sort_keys=True)


def test_critical_pairs_self_overlap():
    rs = RewritingSystem.make("a", [("a a", "")])
    pairs = critical_pairs(rs)
    assert len(pairs) == 1
    assert str(pairs[0].peak) == "a a a"
    assert str(pairs[0].left) == "a" and str(pairs[0].right) == "a"


def test_critical_pairs_two_rule_overlap():
    rs = RewritingSystem.make("a, b, c, d", [("a b", "c"), ("b c", "d")])
    pairs = critical_pairs(rs)
    assert len(pairs) == 1
    peak = pairs[0]
    assert (str(peak.peak), str(peak.left), str(peak.right)) == ("a b c", "c c", "a d")


def test_critical_pairs_disjoint_rules():
    rs = RewritingSystem.make("a, b, c, d", [("a b", ""), ("c d", "")])
    assert critical_pairs(rs) == []


def test_confluence_free_reduction_certified():
    rs = free_reduction_system(Alphabet.make("a", "b"))
    assert isinstance(certify_local_confluence(rs), Certified)


def test_confluence_counterexample():
    rs = RewritingSystem.make("a, b", [("a b", "a"), ("a b", "b")])
    result = certify_local_confluence(rs)
    assert isinstance(result, Counterexample)
    assert (str(result.peak), str(result.left), str(result.right)) == ("a b", "a", "b")


def test_confluence_inconclusive_on_expanding_rule():
    rs = RewritingSystem.make("a", [("a", "a a")])
    assert isinstance(certify_local_confluence(rs), Inconclusive)


def test_d8_and_plane_systems_certified():
    assert isinstance(certify_local_confluence(dihedral_rewriting_system(8)), Certified)
    assert isinstance(certify_local_confluence(abelian_plane_system()), Certified)


def test_geodesic_traces_never_lengthen():
    rs = dihedral_rewriting_system(8, ("a", "d"))
    for w in words_up_to_length(rs.alphabet, 6):
        _, trace = reduce(rs, w)
        for step in trace.steps:
            assert len(step.after) <= len(step.before)


def test_normal_forms_agree_with_oracle_d8():
    # Certified + words of length <= 8 reduce  =>  NF equality matches the table
    rs = dihedral_rewriting_system(8, ("a", "d"))
    d8 = dihedral_group(8, ("a", "d"))
    words = list(words_up_to_length(rs.alphabet, 4))
    nfs = {w.letters: reduce(rs, w)[0] for w in words_up_to_length(rs.alphabet, 8)}
    for w in words_up_to_length(rs.alphabet, 8):
        # the table's element names are the system's normal forms
        assert d8.element_names[d8.key(w)] == nfs[w.letters]
    for u in words:
        for v in words:
            same_rs = nfs[(u * v.inverse()).letters].is_empty()
            assert same_rs == d8.is_identity(u * v.inverse())


def test_normal_forms_agree_with_oracle_z2():
    import random

    rs = abelian_plane_system()
    z2 = free_abelian_oracle(2, rs.alphabet)
    words = list(words_up_to_length(rs.alphabet, 4))  # pairs give words of length <= 8
    for u in words:
        assert reduce(rs, u * u.inverse())[0].is_empty()
    rng = random.Random(6)
    for _ in range(4000):
        u, v = rng.choice(words), rng.choice(words)
        uv = u * v.inverse()
        assert reduce(rs, uv)[0].is_empty() == z2.is_identity(uv)


def test_ball_witness_d8():
    rs = dihedral_rewriting_system(8, ("a", "d"))
    p = Presentation.make("a!, d!", ["a a", "d d", "(a d)^4"], "d8")
    cert = ball_null_homotopy_witness(rs, p, 2)
    assert isinstance(cert, NullHomotopyCertificate)
    assert cert.words_checked == 63  # 2^0 + ... + 2^5
    assert all(nf_trace.verify(rs) for _, nf_trace in cert.witnesses)
    bound = 2 * 2 + 1
    for w, trace in cert.witnesses:
        for step in trace.steps:
            assert len(step.before) <= bound and len(step.after) <= bound


def test_ball_witness_word_cap_is_checked_before_any_reduction(monkeypatch):
    # d8 has 2^0 + ... + 2^3 = 15 words of length <= 3: a cap of 15 admits
    # them all, a cap of 14 refuses the radius without reducing a word
    from gpq import rewriting

    rs = dihedral_rewriting_system(8, ("a", "d"))
    p = Presentation.make("a!, d!", ["a a", "d d", "(a d)^4"], "d8")
    assert ball_null_homotopy_witness(rs, p, 1, word_cap=15).words_checked == 15
    calls = []
    rewrite = rewriting._rewrite
    monkeypatch.setattr(rewriting, "_rewrite", lambda *args: calls.append(args) or rewrite(*args))
    ball_null_homotopy_witness(rs, p, 1, word_cap=15)
    assert len(calls) == 15  # every candidate goes through _rewrite
    calls.clear()
    with pytest.raises(LimitExceeded, match="^more than 14 candidate words at radius 1$"):
        ball_null_homotopy_witness(rs, p, 1, word_cap=14)
    assert calls == []


def test_ball_witness_refuses_a_negative_radius():
    rs = dihedral_rewriting_system(8, ("a", "d"))
    p = Presentation.make("a!, d!", ["a a", "d d", "(a d)^4"], "d8")
    with pytest.raises(ValueError, match="^radius must be >= 0$"):
        ball_null_homotopy_witness(rs, p, -1)


def test_ball_witness_free_group_vacuous():
    p = Presentation.make("a, b", [], "f2")
    rs = free_reduction_system(p.alphabet)
    cert = ball_null_homotopy_witness(rs, p, 2)
    assert isinstance(cert, NullHomotopyCertificate)
    assert all(reduce(rs, w)[0].is_empty() for w, _ in cert.witnesses)


def test_ball_witness_requires_geodesic():
    p = Presentation.make("a", ["a a a"], "z3")
    rs = RewritingSystem.make("a", [("a", "a a")])
    with pytest.raises(NotGeodesic):
        ball_null_homotopy_witness(rs, p, 1)


def test_ball_witness_requires_matching_relators():
    rs = dihedral_rewriting_system(8, ("a", "d"))
    p = Presentation.make("a!, d!", ["a a", "d d"], "v4")  # missing (ad)^4
    with pytest.raises(OracleMismatch, match="'d a d a -> a d a d' has no associated relator"):
        ball_null_homotopy_witness(rs, p, 1)


def _matches_some_rotation(rs, p, rule) -> bool:
    """The rule check spelled out: lhs rhs^-1, reduced with only explicit
    x x^-1 pairs cancelling, is empty or one of the rotations of a relator,
    so reduced, or of its inverse."""
    lhs, rhs = rule
    plain = Alphabet(rs.alphabet.letters, (False,) * len(rs.alphabet))
    target = free_reduce(Word(plain, (lhs * rhs.inverse()).letters)).letters
    if not target:
        return True
    for rel in p.relators:
        base = Word(rs.alphabet, free_reduce(Word(plain, rel.letters)).letters)
        if any(variant.letters == target for variant in rotations_and_inverses(base)):
            return True
    return False


def test_the_rule_check_agrees_with_every_rotation_on_seeded_rules():
    rng = random.Random(39)
    alphabet = Alphabet.make("a", "b!", "c")

    def word(low, high):
        letters = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(low, high))]
        return Word(alphabet, letters)

    matched = 0
    for _ in range(1_200):
        p = Presentation(alphabet, tuple(word(0, 6) for _ in range(rng.randint(0, 3))), "seeded")
        if p.relators and rng.random() < 0.6:  # cut a rotation of a relator or its inverse in two
            variant = rng.choice(rotations_and_inverses(rng.choice(p.relators)))
            cut = rng.randint(1, max(len(variant), 1))
            lhs = Word(alphabet, variant.letters[:cut] or ((0, 1),))
            rhs = Word(alphabet, variant.letters[cut:]).inverse()
        else:
            lhs, rhs = word(1, 4), word(0, 3)
        rs = RewritingSystem(alphabet, ((lhs, rhs),))
        want = _matches_some_rotation(rs, p, (lhs, rhs))
        assert (_unmatched_rule(rs, p) is None) == want, (p, lhs, rhs)
        matched += want
    assert 300 < matched < 900


def test_an_unmatched_rule_over_long_relators_is_named_in_one_short_line():
    # relators of 100,000 letters: a rule is found among their rotations by
    # one substring search each, and long sides are named by head and length
    alphabet = Alphabet.make("a", "b")
    long = Word(alphabet, ((0, 1), (1, 1), (0, -1), (1, 1)) * 25_000)
    p = Presentation(alphabet, (long, long.inverse(), Word(alphabet, long.letters[4:] + long.letters[:4])), "big")
    rotated = long.letters[1:] + long.letters[:1]
    matched = (Word(alphabet, rotated[:60_000]), Word(alphabet, rotated[60_000:]).inverse())
    unmatched = (Word(alphabet, ((0, 1),) * 100), Word(alphabet, ((1, 1),) * 3))
    rs = RewritingSystem(alphabet, (matched,))
    assert _unmatched_rule(rs, p) is None
    assert ball_null_homotopy_witness(rs, p, 0).words_checked == 5  # the words of length <= 1
    with pytest.raises(OracleMismatch) as info:
        ball_null_homotopy_witness(RewritingSystem(alphabet, (matched, unmatched)), p, 0)
    assert str(info.value) == (
        f"rule '{' '.join(['a'] * 64)} ...' (100 letters) -> 'b b b' has no associated relator "
        "in presentation 'big' (3 relators)"
    )


def test_reduce_outputs_are_irreducible():
    for rs in (
        dihedral_rewriting_system(8, ("a", "d")),
        abelian_plane_system(),
        free_reduction_system(Alphabet.make("a", "b")),
    ):
        for w in words_up_to_length(rs.alphabet, 5):
            nf, _ = reduce(rs, w)
            # no window of the normal form is a left-hand side
            for lhs, _ in rs.rules:
                windows = {nf.letters[i : i + len(lhs)] for i in range(len(nf) - len(lhs) + 1)}
                assert lhs.letters not in windows, (str(w), str(nf))


def _reduce_outcome(rs, word, step_limit):
    """reduce's answer in the form of rewrite_restart."""
    try:
        nf, trace = reduce(rs, word, step_limit=step_limit)
        finished = True
    except LimitExceeded as exc:
        nf, trace, finished = exc.word, exc.trace, False
    steps = [(s.before.letters, s.rule, s.position, s.after.letters) for s in trace.steps]
    return nf.letters, steps, finished


def test_resumed_reduce_matches_restart_reference():
    rng = random.Random(9)
    expanding = RewritingSystem.make("a, b", [("a a'", ""), ("b a", "a b a"), ("b' b", "")])
    # rules sharing a first letter, a longer one first: ties at one position
    # go to the lower rule index, not to the shorter or the later rule
    shared = RewritingSystem.make(
        "a, b",
        [("a b a", "b"), ("a b", "b a'"), ("b a'", "a' b"), ("a a'", ""), ("b b'", "a"), ("b", "a a")],
    )
    steps = limited = 0
    for rs, limit in (
        (dihedral_rewriting_system(8, ("a", "d")), 10_000),
        (dihedral_rewriting_system(16, ("a", "d")), 10_000),
        (abelian_plane_system(), 10_000),
        (free_reduction_system(Alphabet.make("a", "b!", "c")), 10_000),
        (expanding, 40),
        (shared, 40),
    ):
        symbols = rs.alphabet.directions
        for _ in range(150):
            word = Word(rs.alphabet, tuple(rng.choice(symbols) for _ in range(rng.randrange(40))))
            want = rewrite_restart(rs, word, limit)
            assert _reduce_outcome(rs, word, limit) == want, str(word)
            steps += len(want[1])
            limited += not want[2]
    # every system rewrites, and the expanding one also stops at its limit
    assert steps > 5_000 and limited > 20


def test_normal_form_is_reduce_without_its_trace():
    # the same word and step count, or the same LimitExceeded message and word
    rng = random.Random(34)
    expanding = RewritingSystem.make("a, b", [("a a'", ""), ("b a", "a b a"), ("b' b", "")])
    limited = 0
    for rs, limit in (
        (dihedral_rewriting_system(8, ("a", "d")), 10_000),
        (abelian_plane_system(), 10_000),
        (free_reduction_system(Alphabet.make("a", "b!", "c")), 10_000),
        (expanding, 40),
    ):
        symbols = rs.alphabet.directions
        for _ in range(100):
            word = Word(rs.alphabet, tuple(rng.choice(symbols) for _ in range(rng.randrange(40))))
            try:
                nf, trace = reduce(rs, word, limit)
            except LimitExceeded as want:
                with pytest.raises(LimitExceeded) as got:
                    normal_form(rs, word, limit)
                assert str(got.value) == str(want) and got.value.word == want.word
                assert got.value.trace is None
                limited += 1
            else:
                assert normal_form(rs, word, limit) == (nf, len(trace.steps))
                assert str(normal_form(rs, word, limit)[0]) == str(nf)
    assert limited > 10
    xyz = Alphabet.make("x", "y", "z")
    with pytest.raises(ValueError, match="different alphabet"):
        normal_form(free_reduction_system(Alphabet.make("a")), Word.from_str(xyz, "x"))


def _witness_by_reduce(rs, r, step_limit):
    """The certificate of ball_null_homotopy_witness from one full `reduce`
    per candidate word, or the LimitExceeded it raises."""
    witnesses, checked = [], 0
    for w in words_up_to_length(rs.alphabet, 2 * r + 1):
        checked += 1
        try:
            nf, trace = reduce(rs, w, step_limit=step_limit)
        except LimitExceeded as exc:
            return LimitExceeded(f"candidate word '{w}': {exc}", exc.word, exc.trace)
        if nf.is_empty():
            witnesses.append((w, trace))
    return NullHomotopyCertificate(r, checked, tuple(witnesses))


@pytest.mark.parametrize(
    "make, relators, max_r",
    [
        (lambda: dihedral_rewriting_system(8, ("a", "d")), ["a a", "d d", "(a d)^4"], 3),
        (lambda: dihedral_rewriting_system(16, ("a", "d")), ["a a", "d d", "(a d)^8"], 2),
        (abelian_plane_system, ["a b a' b'"], 2),
    ],
    ids=["d8", "d16", "z2"],
)
def test_ball_witness_matches_a_reduce_per_candidate(make, relators, max_r):
    rs = make()
    gens = ", ".join(rs.alphabet.spec(i) for i in range(len(rs.alphabet)))
    p = Presentation.make(gens, relators, "p")
    for r in range(max_r + 1):
        want = _witness_by_reduce(rs, r, 10_000)
        assert ball_null_homotopy_witness(rs, p, r) == want
        assert want.witnesses and all(trace.steps or w.is_empty() for w, trace in want.witnesses)


@pytest.mark.parametrize(
    "make, relators, max_r",
    [
        (lambda: dihedral_rewriting_system(8, ("a", "d")), ["a a", "d d", "(a d)^4"], 4),
        (lambda: dihedral_rewriting_system(16, ("a", "d")), ["a a", "d d", "(a d)^8"], 3),
        (abelian_plane_system, ["a b a' b'"], 3),
    ],
    ids=["d8", "d16", "z2"],
)
def test_ball_witness_matches_the_word_by_word_enumeration(make, relators, max_r):
    rs = make()
    gens = ", ".join(rs.alphabet.spec(i) for i in range(len(rs.alphabet)))
    p = Presentation.make(gens, relators, "p")
    for r in range(max_r + 1):
        assert ball_null_homotopy_witness(rs, p, r) == witness_word_by_word(rs, r, 10_000)


def test_ball_witness_limit_matches_a_reduce_per_candidate():
    # a b -> b a and b a -> a b swap forever: the first such candidate hits the limit
    p = Presentation.make("a, b", ["a b a' b'"], "z2")
    rs = RewritingSystem(p.alphabet, ((W(p, "a b"), W(p, "b a")), (W(p, "b a"), W(p, "a b"))))
    want = _witness_by_reduce(rs, 1, 25)
    assert isinstance(want, LimitExceeded)
    with pytest.raises(LimitExceeded) as err:
        ball_null_homotopy_witness(rs, p, 1, step_limit=25)
    got = err.value
    assert str(got) == str(want) == "candidate word 'a b': no irreducible word within 25 steps"
    assert (got.word, got.trace) == (want.word, want.trace)
    assert len(got.trace.steps) == 25 and got.trace.verify(rs)


def test_reduce_over_a_large_alphabet_matches_restart_reference():
    # 70 letters give 140 directions, so letter codes run past chr(127) and
    # through regex metacharacters such as '(', '*', '.', '?', '[' and '\\';
    # 140 cancellation rules and 3 more make the alternation 143 groups wide
    letters = [f"x{i}" for i in range(70)]
    alphabet = Alphabet.make(*letters)
    extra = [("x69 x0", "x0 x69"), ("x40 x41 x42", "x63"), ("x63'", "x40' x41'")]
    rs = RewritingSystem(
        alphabet,
        free_reduction_system(alphabet).rules
        + tuple((Word.from_str(alphabet, l), Word.from_str(alphabet, r)) for l, r in extra),
    )
    assert len(rs.alphabet.directions) == 140 and len(rs.rules) == 143
    rng = random.Random(11)
    columns = (0, 1, 40, 41, 42, 43, 46, 47, 63, 80, 81, 82, 83, 84, 85, 90, 91, 92, 93, 126, 127, 138, 139)
    symbols = [alphabet.directions[k] for k in columns]
    fired = set()
    for _ in range(400):
        word = Word(alphabet, tuple(rng.choice(symbols) for _ in range(rng.randrange(30))))
        want = rewrite_restart(rs, word, 10_000)
        assert _reduce_outcome(rs, word, 10_000) == want, str(word)
        fired.update(rule for _, rule, _, _ in want[1])
    # the cancellations of x20 ('(' ')'), x21 ('*' '+'), x45 ('Z' '[') and
    # x46 ('\\' ']'), and all three extra rules, are among the rules that fired
    assert {40, 41, 42, 43, 90, 91, 92, 93, 140, 141, 142} <= fired
