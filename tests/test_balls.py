"""Cayley-ball topology: counts, loop generators, searches, combings."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import fields
from itertools import product

import pytest

from gpq.backends import (
    FiniteGroupTable,
    FreeGroupOracle,
    WordOracle,
    bs_oracle,
    cyclic_group,
    dihedral_group,
    free_abelian_oracle,
    free_oracle,
    klein_group,
)
from gpq.balls import (
    Combing,
    HomotopyMove,
    Witness,
    _loop_inside,
    _never_decreasing,
    _reduce_recording,
    build_ball,
    build_sphere,
    geodesic_0_combing,
    kill_radius,
    null_homotopy_search,
    pi1_generators,
    pi1_kill_radius,
)
from gpq.errors import Exhausted, NotNullHomotopic, OracleMismatch
from gpq import balls, presentations
from gpq.presentations import Presentation
from gpq.words import Alphabet, Word, free_reduce, words_up_to_length
from helpers import (
    closed_paths_up_to,
    pi1_generators_by_paths,
    pi1_generators_second_bfs,
    reduce_recording_restart,
    search_whole_words,
)


def W(p, text):
    return Word.from_str(p.alphabet, text)


def lattice_ball_count(k, r):
    """Independent integer-point oracle: |x1| + ... + |xk| <= r."""
    return sum(
        1
        for xs in product(range(-r, r + 1), repeat=k)
        if sum(abs(x) for x in xs) <= r
    )


def test_z2_ball_counts(z2_setup):
    p, oracle = z2_setup
    b = build_ball(oracle, p, 2)
    assert (len(b.vertices), len(b.edges), len(b.cells)) == (13, 16, 4)


def test_f2_ball_is_tree(f2_setup):
    p, oracle = f2_setup
    b = build_ball(oracle, p, 1)
    assert (len(b.vertices), len(b.edges), len(b.cells)) == (5, 4, 0)


def test_radius_zero_ball(z2_setup):
    p, oracle = z2_setup
    b = build_ball(oracle, p, 0)
    assert (len(b.vertices), len(b.edges)) == (1, 0)


def test_sphere_examples(z2_setup, f2_setup):
    p, oracle = z2_setup
    s = build_sphere(oracle, p, 1)
    assert (len(s.vertices), len(s.edges)) == (4, 0)
    pf, of = f2_setup
    sf = build_sphere(of, pf, 2)
    assert (len(sf.vertices), len(sf.edges)) == (12, 0)
    s0 = build_sphere(oracle, p, 0)
    assert len(s0.vertices) == 1


def test_oracle_mismatch_detected(z2_setup):
    p, _ = z2_setup
    wrong = free_oracle(2, p.alphabet)  # commutator relator not trivial in F2
    with pytest.raises(OracleMismatch):
        build_ball(wrong, p, 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lattice_ball_vertex_counts(k):
    names = "a, b, c"[: 3 * k - 2]
    rels = []
    letters = [n.strip() for n in names.split(",")]
    for i in range(k):
        for j in range(i + 1, k):
            rels.append(f"{letters[i]} {letters[j]} {letters[i]}' {letters[j]}'")
    p = Presentation.make(names, rels, f"z{k}")
    oracle = free_abelian_oracle(k, p.alphabet)
    for r in range(5):
        b = build_ball(oracle, p, r)
        assert len(b.vertices) == lattice_ball_count(k, r), (k, r)


def test_ball_monotonicity(z2_setup, f2_setup, d8_setup, bs2_setup):
    for p, oracle in (z2_setup, f2_setup, d8_setup, bs2_setup):
        prev = None
        for r in range(5):
            b = build_ball(oracle, p, r)
            if prev is not None:
                assert set(w.letters for w in prev.vertices) <= set(
                    w.letters for w in b.vertices
                )
                prev_edges = {
                    (prev.vertices[i].letters, l, prev.vertices[j].letters)
                    for i, l, j in prev.edges
                }
                edges = {
                    (b.vertices[i].letters, l, b.vertices[j].letters)
                    for i, l, j in b.edges
                }
                assert prev_edges <= edges
                prev_cells = {
                    (prev.vertices[i].letters, ri) for i, ri in prev.cells
                }
                cells = {(b.vertices[i].letters, ri) for i, ri in b.cells}
                assert prev_cells <= cells
            prev = b


def test_pi1_generator_counts(z2_setup, f2_setup):
    p, oracle = z2_setup
    assert pi1_generators(build_ball(oracle, p, 2)).rank == 4
    assert pi1_generators(build_ball(oracle, p, 1)).rank == 0  # B(1) is a tree
    pf, of = f2_setup
    for r in range(4):
        assert pi1_generators(build_ball(of, pf, r)).rank == 0


def test_generator_length_bound_all_backends(z2_setup, f2_setup, d8_setup, bs2_setup):
    for p, oracle in (z2_setup, f2_setup, d8_setup, bs2_setup):
        for r in range(4):
            ball = build_ball(oracle, p, r)
            lcs = pi1_generators(ball)
            assert lcs.rank == len(ball.edges) - len(ball.vertices) + 1
            for g in lcs.generators:
                assert len(g) <= 2 * r + 1


def test_commutator_witness_single_cell(z2_setup):
    p, oracle = z2_setup
    region = build_ball(oracle, p, 2)
    wit = null_homotopy_search(oracle, p, W(p, "a b a' b'"), region)
    assert wit.replay()
    assert sum(1 for m in wit.moves if m.kind == "relator") == 1


def test_trivial_cancellation_witness(z2_setup):
    p, oracle = z2_setup
    region = build_ball(oracle, p, 1)
    wit = null_homotopy_search(oracle, p, W(p, "a a'"), region)
    assert wit.replay()
    assert len(wit.moves) == 1 and wit.moves[0].kind == "free"


def test_search_exhausts_with_tiny_cap(z2_setup):
    p, oracle = z2_setup
    region = build_ball(oracle, p, 2)
    loop = W(p, "(a b a' b')^2")  # needs two cells, cap of one state forces exhaustion
    with pytest.raises(Exhausted):
        null_homotopy_search(oracle, p, loop, region, step_cap=1)


def test_search_rejects_nontrivial_loop(z2_setup):
    p, oracle = z2_setup
    region = build_ball(oracle, p, 2)
    with pytest.raises(NotNullHomotopic):
        null_homotopy_search(oracle, p, W(p, "a"), region)


def test_kill_radius(z2_setup, f2_setup):
    p, oracle = z2_setup
    assert pi1_kill_radius(oracle, p, 2, 4) == 2
    pf, of = f2_setup
    for r in range(3):
        assert pi1_kill_radius(of, pf, r, r) == r


def test_kill_radius_of_a_ball_about_any_basepoint(z2_setup, bs2_setup, d8_setup):
    # the Cayley complex looks the same from every vertex: a ball about another
    # basepoint has the kill radius, and explores the states, of one about e
    for p, oracle in (z2_setup, bs2_setup, d8_setup):
        for r, cap in ((1, 20_000), (3, 2)):  # z2 at (3, 2) ends Exhausted
            try:
                want = pi1_kill_radius(oracle, p, r, r + 1, step_cap=cap)
            except Exhausted as exc:
                want = exc.states_explored
            ball = build_ball(oracle, p, r, W(p, "a d a" if p.name == "d8" else "b a' b"))
            try:
                got = kill_radius(ball, r + 1, step_cap=cap)
            except Exhausted as exc:
                got = exc.states_explored
            assert got == want, (p.name, r, cap)
        with pytest.raises(ValueError, match="need r <= r_max"):
            kill_radius(ball, r - 1)


def test_exhausted_kill_radius_claims_no_survival_and_counts_its_states(z2_setup):
    # a search shows that a loop dies, never that it survives: the error says
    # which radii and cap it tried, and carries every state its searches explored
    p, oracle = z2_setup
    for q, r, cap in ((Presentation(p.alphabet, (), p.name), 2, 100), (p, 3, 2)):
        with pytest.raises(Exhausted) as info:
            pi1_kill_radius(oracle, q, r, r + 1, step_cap=cap)
        explored = 0
        generators = pi1_generators(build_ball(oracle, q, r)).generators
        for R in (r, r + 1):  # each radius searches up to the first generator that gives up
            region = build_ball(oracle, q, R)
            for g in generators:
                try:
                    explored += null_homotopy_search(oracle, q, g, region, cap).states_explored
                except Exhausted as exc:
                    explored += exc.states_explored
                    break
        assert info.value.states_explored == explored > 1
        assert str(info.value) == (
            f"no R in [{r}, {r + 1}] certified that the loop generators of B({r}) die in B(R) "
            f"within {cap} states per search"
        )


def test_kill_radius_bounded_outcome_for_nonstandard_z_presentation():
    # Z presented with a redundant generator killed in a twisted way: the
    # relator b a b a' b' forces b = 1.  The bounded search's outcome (a value
    # or exhaustion) is recorded, not asserted: this presentation's universal
    # cover is the classic non-wgsc example, killing one b-loop creates another.
    p = Presentation.make("a, b", ["b a b a' b'"], "z_twisted")
    oracle = _TwistedZOracle(p.alphabet)
    try:
        result = pi1_kill_radius(oracle, p, 2, 3, step_cap=300)
        outcome = f"kill radius {result}"
        assert 2 <= result <= 3
    except Exhausted as exc:
        outcome = f"exhausted ({exc.states_explored} states)"
    assert outcome  # bounded search must terminate with a recorded outcome


def test_combing_certificates(z2_setup, f2_setup):
    p, oracle = z2_setup
    combing = geodesic_0_combing(oracle, p, 3)
    assert combing.verify_tame()
    assert len(combing.paths) == lattice_ball_count(2, 3)
    pf, of = f2_setup
    assert geodesic_0_combing(of, pf, 2).verify_tame()
    empty = geodesic_0_combing(oracle, p, 0)
    assert len(empty.paths) == 1 and empty.paths[0].is_empty()


def test_combing_refuses_a_negative_radius(z2_setup):
    # as build_ball does: a negative radius is not read as B(0)
    p, oracle = z2_setup
    with pytest.raises(ValueError, match="radius must be >= 0"):
        geodesic_0_combing(oracle, p, -1)


def test_combing_paths_are_geodesics(z2_setup):
    p, oracle = z2_setup
    combing = geodesic_0_combing(oracle, p, 3)
    for vi, v in enumerate(combing.ball.vertices):
        assert len(combing.paths[vi]) == combing.ball.distances[vi]
        assert oracle.key(combing.paths[vi]) == oracle.key(v)
        assert combing.path_vertices(vi)[-1] == vi


def test_cross_check_witness_and_kill_radius(d8_setup):
    # geodesic confluent system certifies simply connected balls; the
    # search-based kill radius must agree (kill radius r at radius r)
    from gpq.rewriting import (
        NullHomotopyCertificate,
        ball_null_homotopy_witness,
        dihedral_rewriting_system,
    )

    p, oracle = d8_setup
    rs = dihedral_rewriting_system(8, ("a", "d"))
    for r in range(1, 4):
        cert = ball_null_homotopy_witness(rs, p, r)
        assert isinstance(cert, NullHomotopyCertificate)
        assert pi1_kill_radius(oracle, p, r, r + 2) == r


def test_ball_json_export(z2_setup):
    import json

    p, oracle = z2_setup
    payload = json.loads(build_ball(oracle, p, 1).to_json())
    assert payload["radius"] == 1
    assert len(payload["vertices"]) == 5
    assert all(len(e) == 3 for e in payload["edges"])


def test_ball_around_shifted_basepoint(z2_setup):
    # translation invariance: same counts, different vertex set
    p, oracle = z2_setup
    shifted = build_ball(oracle, p, 2, basepoint=W(p, "a a b"))
    origin = build_ball(oracle, p, 2)
    assert (len(shifted.vertices), len(shifted.edges), len(shifted.cells)) == (
        len(origin.vertices),
        len(origin.edges),
        len(origin.cells),
    )
    assert shifted.vertices != origin.vertices
    assert pi1_generators(shifted).rank == pi1_generators(origin).rank


def _counting(oracle):
    """A copy of `oracle` whose class counts its step calls."""
    calls = Counter()
    base = type(oracle)

    class Counting(base):
        def step(self, key, direction):
            calls["step"] += 1
            return base.step(self, key, direction)

    return Counting(**{f.name: getattr(oracle, f.name) for f in fields(oracle)}), calls


@pytest.mark.parametrize("setup", ["z2_setup", "f2_setup", "d8_setup", "bs2_setup"])
def test_one_oracle_step_per_vertex_and_direction(setup, request):
    p, oracle = request.getfixturevalue(setup)
    counting, calls = _counting(oracle)
    directions = sum(1 if inv else 2 for inv in p.alphabet.involutive)
    # the keys of the basepoint and of the checked relators fold one step per
    # letter, except the free group's, which free-reduces in one pass
    folds = not isinstance(oracle, FreeGroupOracle)
    for r in range(5):
        for base in (None, Word(p.alphabet, ((1, 1), (0, 1), (1, 1)))):
            folded = folds * ((0 if base is None else len(base)) + sum(len(rel) for rel in p.relators))
            ball = build_ball(counting, p, r, base)
            assert calls.pop("step") == len(ball.vertices) * directions + folded
            # the sphere explores the whole ball to find its shell and edges
            build_sphere(counting, p, r, base)
            assert calls.pop("step") == len(ball.vertices) * directions + folded


def test_reduce_recording_matches_leftmost_restart_reference():
    rng = random.Random(4)
    for alphabet in (Alphabet.make("a", "b"), Alphabet.make("a!", "c!", "d"), Alphabet.make("x!")):
        symbols = [(i, 1) for i in range(len(alphabet))]
        symbols += [(i, -1) for i in range(len(alphabet)) if not alphabet.involutive[i]]
        moved = 0
        for _ in range(2000):
            letters = tuple(rng.choice(symbols) for _ in range(rng.randrange(20)))
            reduced, moves = _reduce_recording(Word(alphabet, letters))
            want_letters, want_moves = reduce_recording_restart(letters, alphabet.involutive)
            assert reduced.letters == want_letters
            assert [(m.position, m.removed) for m in moves] == want_moves
            assert all(m.inserted == () and m.kind == "free" for m in moves)
            moved += len(moves) > 1
        assert moved > 500


def test_search_checks_its_cells_against_the_oracle(z2_setup):
    # a cell the group lacks: with a = 1 glued in, a b a' b' would die in Z^2
    p, oracle = z2_setup
    no_cells = Presentation.make("a, b", [], "no_cells")
    region = build_ball(oracle, no_cells, 2)
    loop = W(p, "a b a' b'")
    with pytest.raises(Exhausted):
        null_homotopy_search(oracle, no_cells, loop, region, step_cap=200)
    bogus = Presentation.make("a, b", ["a b a' b'", "a"], "z2_with_a")
    with pytest.raises(OracleMismatch, match="relator 'a' is not trivial"):
        null_homotopy_search(oracle, bogus, loop, region)


def test_replay_rejects_moves_that_open_the_loop(z2_setup):
    # deleting a lone a leaves a path from the basepoint to a' inside the
    # ball; later moves close it again, but the homotopy broke the loop
    p, oracle = z2_setup
    a, b = (0, 1), (1, 1)
    region = build_ball(oracle, p, 2)
    moves = (
        HomotopyMove(0, (a,), (), "relator"),
        HomotopyMove(1, ((0, -1),), (), "relator"),
        HomotopyMove(0, (b, (1, -1)), (), "free"),
    )
    assert not Witness(W(p, "a b a' b'"), moves, region, 0, p).replay()
    good = null_homotopy_search(oracle, p, W(p, "a b a' b'"), region)
    assert good.replay()


def test_replay_rejects_a_cell_the_presentation_lacks(z2_setup):
    # a b a' b' is trivial in Z^2, but a ball with no 2-cells is a graph,
    # where that loop does not die
    p, oracle = z2_setup
    no_cells = Presentation.make("a, b", [], "no_cells")
    region = build_ball(oracle, no_cells, 2)
    loop = W(p, "a b a' b'")
    slide = (HomotopyMove(0, loop.letters, (), "relator"),)
    assert not Witness(loop, slide, region, 0, no_cells).replay()
    assert Witness(loop, slide, build_ball(oracle, p, 2), 0, p).replay()


class _InverseLettersZOracle(WordOracle):
    """Z = <a, b | a b> on int keys: b is a^-1, so a b closes a loop."""

    identity = 0

    def __init__(self, alphabet):
        self.alphabet = alphabet

    def step(self, key, direction):
        return key + direction[1] if direction[0] == 0 else key - direction[1]

    def describe(self):
        return "Z with a = 1, b = -1"


def test_replay_rejects_free_moves_that_cancel_nothing(d8_setup):
    # a b is trivial here, so removing it keeps every loop closed: only the
    # move check tells a cell slide from a free cancellation
    p = Presentation.make("a, b", ["a b"], "z_ab")
    region = build_ball(_InverseLettersZOracle(p.alphabet), p, 2)
    a, b, a_, b_ = (0, 1), (1, 1), (0, -1), (1, -1)
    ab, spur = W(p, "a b"), W(p, "a a'")

    def replays(loop, *moves):
        return Witness(loop, moves, region, 0, p).replay()

    assert not replays(ab, HomotopyMove(0, (a, b), (), "free"))
    assert not replays(ab, HomotopyMove(0, (a, b), (), "spur"))  # no such kind
    assert replays(ab, HomotopyMove(0, (a, b), (), "relator"))
    # a free move inserts nothing, and removes a pair, not one letter
    assert not replays(spur, HomotopyMove(0, (a, a_), (b, b_), "free"), HomotopyMove(0, (b, b_), (), "free"))
    assert not replays(spur, HomotopyMove(0, (a,), (), "free"), HomotopyMove(0, (a_,), (), "free"))
    assert replays(spur, HomotopyMove(0, (a, a_), (), "free"))
    # an involutive letter cancels against itself
    pd, od = d8_setup
    aa = W(pd, "a a")
    assert Witness(aa, (HomotopyMove(0, aa.letters, (), "free"),), build_ball(od, pd, 1), 0, pd).replay()


def test_replay_rejects_legal_moves_whose_loop_leaves_the_region(z2_setup):
    # every move is a cell slide or a cancellation, but the inserted relator
    # runs from vertex a through a^2 b, at distance 3 outside B(2)
    p, oracle = z2_setup
    rel = W(p, "a b a' b'").letters
    moves = (
        HomotopyMove(1, (), rel, "relator"),
        HomotopyMove(1, rel, (), "relator"),
        HomotopyMove(0, ((0, 1), (0, -1)), (), "free"),
    )
    loop = W(p, "a a'")
    assert not Witness(loop, moves, build_ball(oracle, p, 2), 0, p).replay()
    assert Witness(loop, moves, build_ball(oracle, p, 3), 0, p).replay()


def test_cell_moves_are_built_once_per_presentation(monkeypatch):
    # the table depends only on the presentation: one kill radius search
    # builds it once, and a presentation equal by value builds its own
    calls = []
    real = presentations.rotations_and_inverses
    monkeypatch.setattr(presentations, "rotations_and_inverses", lambda w: calls.append(w) or real(w))
    p = Presentation.make("a, b", ["a b a' b'"], "z2")
    oracle = free_abelian_oracle(2, p.alphabet)
    assert pi1_kill_radius(oracle, p, 2, 4) == 2
    assert len(calls) == 1
    twin = Presentation.make("a, b", ["a b a' b'"], "z2")
    assert twin == p
    assert twin.cell_moves == p.cell_moves and twin.cell_moves is not p.cell_moves
    assert len(calls) == 2


def test_search_past_its_frontier_only_tests_for_one_move_kills(monkeypatch):
    # the square of side 2 never kills the unit square, so the search ends
    # at its cap; past the frontier a state costs a few kill tests, not the
    # hundreds of splices of its successors
    p = Presentation.make("a, b", ["a a b b a' a' b' b'"], "z2_side_2")
    oracle = free_abelian_oracle(2, p.alphabet)
    region = build_ball(oracle, p, 3)
    calls = []
    real = balls._splice_reduced
    monkeypatch.setattr(balls, "_splice_reduced", lambda *args: calls.append(args) or real(*args))
    for cap in (200, 2_000):
        calls.clear()
        with pytest.raises(Exhausted, match=f"^no null-homotopy within {cap} states$"):
            null_homotopy_search(oracle, p, W(p, "a b a' b'"), region, cap)
        assert 0 < len(calls) <= 20 * cap, (cap, len(calls))


def test_kill_radius_builds_the_radius_r_ball_once(monkeypatch, z2_setup):
    # B(r) gives the generators and is the first region searched
    p, oracle = z2_setup
    radii = []
    real = balls._build
    monkeypatch.setattr(balls, "_build", lambda o, q, r, *rest, **kw: radii.append(r) or real(o, q, r, *rest, **kw))
    assert pi1_kill_radius(oracle, p, 2, 4) == 2
    assert radii == [2]
    radii.clear()
    with pytest.raises(Exhausted):  # with no 2-cells no loop dies
        pi1_kill_radius(oracle, Presentation.make("a, b", []), 2, 4)
    assert radii == [2, 3, 4]


class _TwistedZOracle(WordOracle):
    """Z = <a, b | b a b a' b'> on int keys: a counts, b = 1.  It defines
    only the identity key, the step and the description."""

    identity = 0

    def __init__(self, alphabet):
        self.alphabet = alphabet

    def step(self, key, direction):
        return key + direction[1] if direction[0] == 0 else key

    def describe(self):
        return "Z with a = 1, b = 0"


def _search_outcome(oracle, p, loop, region, cap):
    """null_homotopy_search's answer in the form of search_whole_words."""
    try:
        w = null_homotopy_search(oracle, p, loop, region, step_cap=cap)
    except Exhausted as exc:
        ends = {
            f"no null-homotopy within {cap} states": "cap",
            f"state space exhausted after {exc.states_explored} states without a null-homotopy": "state space",
        }
        return ("exhausted", ends[str(exc)], exc.states_explored)
    except ValueError:
        return ("outside",)
    moves = [(m.position, m.removed, m.inserted, m.kind) for m in w.moves]
    return ("witness", moves, w.states_explored)


def _identity_loops(oracle, region, max_length, count, rng):
    """`count` identity words of length <= max_length that close inside
    `region` and do not cancel freely."""
    loops = [
        w
        for w in words_up_to_length(region.presentation.alphabet, max_length)
        if oracle.is_identity(w) and not free_reduce(w).is_empty() and _loop_inside(region, w)
    ]
    return rng.sample(loops, min(count, len(loops)))


def _cell_loops(region, cells, count, rng):
    """Up to `count` products of `cells` conjugates of the longest relator or
    its inverse that close inside `region` and do not cancel freely."""
    p = region.presentation
    rel = max(p.relators, key=len)
    symbols = p.alphabet.directions
    loops = []
    for _ in range(100 * count):
        loop = Word.identity(p.alphabet)
        for _ in range(cells):
            u = Word(p.alphabet, tuple(rng.choice(symbols) for _ in range(rng.randrange(3))))
            loop = loop * u * rng.choice((rel, rel.inverse())) * u.inverse()
        if not free_reduce(loop).is_empty() and _loop_inside(region, loop):
            loops.append(loop)
            if len(loops) == count:
                break
    return loops


def test_search_matches_whole_word_reference(z2_setup, d8_setup, bs2_setup):
    d16 = (Presentation.make("a!, d!", ["a a", "d d", "(a d)^8"], "d16"), dihedral_group(16, ("a", "d")))
    twisted = Presentation.make("a, b", ["b a b a' b'"], "z_twisted")
    rng = random.Random(6)
    compared = Counter()
    for (p, oracle), r, base, length, cells in (
        (z2_setup, 2, None, 6, 2),
        (z2_setup, 2, "a b", 6, 2),
        (bs2_setup, 2, None, 6, 2),
        (d8_setup, 4, None, 8, 2),
        (d8_setup, 4, "a d a", 8, 2),
        (d16, 8, None, 0, 1),
        ((twisted, _TwistedZOracle(twisted.alphabet)), 2, None, 5, 1),
    ):
        basepoint = W(p, base) if base else None
        region = build_ball(oracle, p, r, basepoint)
        loops = _identity_loops(oracle, region, length, 8, rng)
        loops += _cell_loops(region, cells, 8, rng)
        loops += pi1_generators(region).generators[:4]
        for loop in loops:
            # a loop certified within 100 states also runs at the cap it needs, and one less
            found = search_whole_words(p, loop, region, 100)
            needed = (found[2], found[2] - 1) if found[0] == "witness" else ()
            for cap in (1, 2, 3, 4, 5, 100) + needed:
                want = search_whole_words(p, loop, region, cap)
                assert _search_outcome(oracle, p, loop, region, cap) == want, (p.name, str(loop), cap)
                compared[want[:2] if want[0] == "exhausted" else want[0]] += 1
        # spheres hold no vertex of their centre, so no loop starts inside
        sphere = build_sphere(oracle, p, r, basepoint)
        for loop in loops[:3]:
            assert _search_outcome(oracle, p, loop, sphere, 100) == ("outside",)
            assert search_whole_words(p, loop, sphere, 100) == ("outside",)
        # with no cells nothing moves: the state space ends after the first state
        bare = Presentation(p.alphabet, (), p.name)
        for loop in loops[:3]:
            want = search_whole_words(bare, loop, region, 100)
            assert _search_outcome(oracle, bare, loop, region, 100) == want == ("exhausted", "state space", 1)
            compared[want[:2]] += 1
    assert compared["witness"] > 200 and compared["exhausted", "cap"] > 40, compared
    assert compared["exhausted", "state space"] > 20, compared


def test_search_with_short_loop_cells_matches_whole_word_reference(z2_setup, bs2_setup):
    # short-loop cells: every short closed path, as the relators of a
    # presentation that replace the presentation's own
    compared = Counter()
    for p, oracle in (z2_setup, bs2_setup):
        ball = build_ball(oracle, p, 2)
        stripped = Presentation(p.alphabet, (), p.name)
        for c in (3, 5):
            short = tuple(closed_paths_up_to(ball, c))
            loops = Presentation(p.alphabet, short, p.name)
            for g in pi1_generators(ball).generators:
                for cap in (2, 200):
                    want = search_whole_words(stripped, g, ball, cap, short)
                    got = _search_outcome(oracle, loops, g, ball, cap)
                    assert got == want, (p.name, c, str(g), cap)
                    compared[want[0]] += 1
    assert compared["witness"] > 5 and compared["exhausted"] > 5


class _WideZ2Oracle(WordOracle):
    """Z^2 on 140 letters: the first and the last are the unit vectors, and
    every other letter acts trivially."""

    identity = (0, 0)

    def __init__(self, alphabet):
        self.alphabet = alphabet

    def step(self, key, direction):
        idx, exp = direction
        if idx == 0:
            return (key[0] + exp, key[1])
        return (key[0], key[1] + exp) if idx == len(self.alphabet) - 1 else key

    def describe(self):
        return "Z^2 on the first and last of 140 letters"


def test_search_over_280_directions_matches_whole_word_reference():
    # the last letter's directions are the 279th and 280th, past any byte
    alphabet = Alphabet.make(*(f"x{i}" for i in range(140)))
    p = Presentation.make(", ".join(alphabet.letters), ["x0 x139 x0' x139'"], "wide_z2")
    oracle = _WideZ2Oracle(alphabet)
    region = build_ball(oracle, p, 2)
    rng = random.Random(15)
    acting = [d for d in alphabet.directions if d[0] in (0, 139)]
    loops = [
        Word(alphabet, letters)
        for n in range(2, 7)
        for letters in product(acting, repeat=n)
        if oracle.is_identity(Word(alphabet, letters))
    ]
    loops = [w for w in loops if not free_reduce(w).is_empty() and _loop_inside(region, w)]
    loops = rng.sample(loops, 12) + _cell_loops(region, 2, 8, rng)
    compared = Counter()
    for loop in loops:
        for cap in (1, 4, 100):
            want = search_whole_words(p, loop, region, cap)
            assert _search_outcome(oracle, p, loop, region, cap) == want, (str(loop), cap)
            compared[want[0]] += 1
    assert all((139, 1) in w.letters or (139, -1) in w.letters for w in loops)
    assert compared["witness"] > 10 and compared["exhausted"] > 5


def test_searches_with_other_cells_on_one_region_match_whole_word_reference(z2_setup):
    # one region, searched with the presentation's cells and then with the
    # short-loop cells, every short closed path: no search leaves state on
    # the region that changes a later search with other cells
    p, oracle = z2_setup
    region = build_ball(oracle, p, 2)
    rng = random.Random(16)
    loops = _identity_loops(oracle, region, 6, 8, rng) + list(pi1_generators(region).generators)
    compared = Counter()
    for loop in loops:
        for cap in (1, 100):
            want = search_whole_words(p, loop, region, cap)
            assert _search_outcome(oracle, p, loop, region, cap) == want, str(loop)
            compared[want[0]] += 1
    stripped = Presentation(p.alphabet, (), p.name)
    for c in (3, 7):
        short = tuple(closed_paths_up_to(region, c))
        cells = Presentation(p.alphabet, short, p.name)
        for loop in loops[::2]:
            for cap in (1, 100):
                want = search_whole_words(stripped, loop, region, cap, short)
                assert _search_outcome(oracle, cells, loop, region, cap) == want, (c, str(loop))
                compared[want[0]] += 1
    assert compared["witness"] > 10 and compared["exhausted"] > 10


# every backend, as (generators, relators, oracle on the presentation's alphabet)
_BACKENDS = {
    "z2": ("a, b", ["a b a' b'"], lambda al: free_abelian_oracle(2, al)),
    "z3": ("a, b, c", ["a b a' b'", "a c a' c'", "b c b' c'"], lambda al: free_abelian_oracle(3, al)),
    "f2": ("a, b", [], lambda al: free_oracle(2, al)),
    "d8": ("a!, d!", ["a a", "d d", "(a d)^4"], lambda al: dihedral_group(8, al.letters)),
    "d16": ("a!, d!", ["a a", "d d", "(a d)^8"], lambda al: dihedral_group(16, al.letters)),
    "klein": ("c!, d!", ["c c", "d d", "(c d)^2"], lambda al: klein_group(al.letters)),
    "c4": ("x", ["(x)^4"], lambda al: cyclic_group(4, "x")),
    "c5": ("x", ["(x)^5"], lambda al: cyclic_group(5, "x")),
    "bs12": ("a, b", ["a b a' b' b'"], lambda al: bs_oracle(1, 2, al.letters)),
    "bs13": ("a, b", ["a b a' (b')^3"], lambda al: bs_oracle(1, 3, al.letters)),
}


def _backend(name):
    gens, rels, make = _BACKENDS[name]
    p = Presentation.make(gens, rels, name)
    return p, make(p.alphabet)


@pytest.mark.parametrize("name", list(_BACKENDS))
def test_vertices_are_named_by_their_first_bfs_path(name):
    p, oracle = _backend(name)
    last = len(p.alphabet) - 1
    for base in ((), ((0, 1),), ((last, 1), (0, 1), (last, 1))):
        basepoint = Word(p.alphabet, base) if base else None
        for r in range(7):
            for build in (build_ball, build_sphere):
                ball = build(oracle, p, r, basepoint)
                keys = [oracle.key(v) for v in ball.vertices]
                assert len(set(keys)) == len(keys)
                for v, key, d in zip(ball.vertices, keys, ball.distances):
                    assert v.letters[: len(base)] == base
                    assert len(v) - len(base) == d
                    if not base and isinstance(oracle, FiniteGroupTable):
                        assert v == oracle.element_names[key]


_BASEPOINTS = lambda p: ((), ((0, 1),), ((len(p.alphabet) - 1, 1), (0, 1), (len(p.alphabet) - 1, 1)))


def _edges_by_set_and_sort(ball):
    """The ball's edges collected in a set, an involutive edge as (lower end,
    letter, upper end), and sorted."""
    alphabet = ball.presentation.alphabet
    edges = set()
    for i, row in enumerate(ball.neighbours):
        for (li, e), j in zip(alphabet.directions, row):
            if e == 1 and j is not None:
                edges.add((min(i, j), li, max(i, j)) if alphabet.involutive[li] else (i, li, j))
    return tuple(sorted(edges))


@pytest.mark.parametrize("name", list(_BACKENDS))
def test_edges_read_off_the_rows_match_set_and_sort(name):
    p, oracle = _backend(name)
    for base in _BASEPOINTS(p):
        basepoint = Word(p.alphabet, base) if base else None
        for r in range(6):
            for build in (build_ball, build_sphere):
                ball = build(oracle, p, r, basepoint)
                assert ball.edges == _edges_by_set_and_sort(ball), (r, base, build.__name__)


def test_edges_read_off_the_rows_keep_each_self_loop_once():
    # Z/3 on a, with e and the involutive f acting as the identity: every
    # vertex has an ordinary self-loop e and an involutive self-loop f
    alphabet = Alphabet.make("a", "e", "f!")
    oracle = FiniteGroupTable.from_generators(alphabet, [1, 0, 0], lambda x, y: (x + y) % 3, 0)
    p = Presentation(alphabet, tuple(Word.from_str(alphabet, t) for t in ("a a a", "e", "f", "a e a' e'")))
    loops = Counter()
    for base in ((), ((0, 1),), ((2, 1), (0, 1))):
        basepoint = Word(alphabet, base) if base else None
        for r in range(4):
            for build in (build_ball, build_sphere):
                ball = build(oracle, p, r, basepoint)
                assert ball.edges == _edges_by_set_and_sort(ball), (r, base, build.__name__)
                loops.update(alphabet.letters[li] for i, li, j in ball.edges if i == j)
                assert sum(li == 2 for _, li, _ in ball.edges) == len(ball.vertices)
    assert loops["e"] == loops["f"] > 0 and not loops["a"]


def test_alphabet_directions_and_columns_follow_the_involutive_flags():
    wide = Alphabet.make(*(f"x{i}" for i in range(140)))
    alphabets = [Presentation.make(gens, rels).alphabet for gens, rels, _ in _BACKENDS.values()]
    for alphabet in alphabets + [wide, Alphabet.make("a!", "b", "c!", "d")]:
        want = []
        for i, invol in enumerate(alphabet.involutive):
            want += [(i, 1)] if invol else [(i, 1), (i, -1)]
        assert alphabet.directions == tuple(want)
        assert alphabet.columns == {d: k for k, d in enumerate(want)}
        # one table per alphabet, built once
        assert alphabet.directions is alphabet.directions
        assert alphabet.columns is alphabet.columns
    assert len(wide.directions) == 280 and wide.columns[(139, -1)] == 279


@pytest.mark.parametrize("name", list(_BACKENDS))
def test_rows_hold_the_oracle_neighbour_of_every_vertex(name):
    # entry k of vertex i's row is j exactly when stepping i's element in
    # direction k reaches j's element, and None when it reaches no vertex
    p, oracle = _backend(name)
    dirs = p.alphabet.directions
    for base in _BASEPOINTS(p):
        basepoint = Word(p.alphabet, base) if base else None
        for r in range(6):
            for build in (build_ball, build_sphere):
                ball = build(oracle, p, r, basepoint)
                keys = [oracle.key(v) for v in ball.vertices]
                index = {k: i for i, k in enumerate(keys)}
                assert len(ball.neighbours) == len(keys)
                for key, row in zip(keys, ball.neighbours):
                    assert row == tuple(index.get(oracle.step(key, d)) for d in dirs)


@pytest.mark.parametrize("name", list(_BACKENDS))
def test_sphere_is_the_distance_r_subcomplex_of_the_ball(name):
    p, oracle = _backend(name)
    empty = 0
    for base in _BASEPOINTS(p):
        basepoint = Word(p.alphabet, base) if base else None
        for r in range(6):
            ball = build_ball(oracle, p, r, basepoint)
            sphere = build_sphere(oracle, p, r, basepoint)
            shell = [i for i, d in enumerate(ball.distances) if d == r]
            new = {i: k for k, i in enumerate(shell)}
            shell_keys = {oracle.key(ball.vertices[i]) for i in shell}

            def on_shell(b, ri):
                key = oracle.key(ball.vertices[b])
                for direction in p.relators[ri].letters:
                    key = oracle.step(key, direction)
                    if key not in shell_keys:
                        return False
                return True

            assert sphere.vertices == tuple(ball.vertices[i] for i in shell)
            assert sphere.distances == (r,) * len(shell)
            assert sphere.edges == tuple((new[i], li, new[j]) for i, li, j in ball.edges if i in new and j in new)
            assert sphere.cells == tuple((new[b], ri) for b, ri in ball.cells if b in new and on_shell(b, ri))
            empty += not shell
    # past the diameter of a finite group the sphere is empty
    assert bool(empty) == (name in ("d8", "klein", "c4", "c5"))


@pytest.mark.parametrize("name", list(_BACKENDS))
def test_loop_generators_match_second_bfs_reference(name):
    p, oracle = _backend(name)
    last = len(p.alphabet) - 1
    for base in ((), ((0, 1),), ((last, 1), (0, 1), (last, 1))):
        basepoint = Word(p.alphabet, base) if base else None
        for r in range(5):
            ball = build_ball(oracle, p, r, basepoint)
            tree_paths, generators = pi1_generators_second_bfs(ball)
            assert pi1_generators(ball).generators == generators, (r, base)
            assert [base + path.letters for path in tree_paths] == [v.letters for v in ball.vertices]


@pytest.mark.parametrize("name", ["z2", "z3", "f2", "bs12", "d8", "c1"])
def test_loop_generators_match_the_path_comparison_reference(name):
    # c1, the trivial group on one letter: its one edge is a self-loop
    p, oracle = (Presentation.make("x", ["x"], "c1"), cyclic_group(1, "x")) if name == "c1" else _backend(name)
    for base in ((), ((len(p.alphabet) - 1, 1), (0, 1))):
        basepoint = Word(p.alphabet, base) if base else None
        for r in range(5):
            ball = build_ball(oracle, p, r, basepoint)
            assert pi1_generators(ball).generators == pi1_generators_by_paths(ball), (r, base)
            # each tree entry (i, k) of vertex v: rows[i][k] is v, and no
            # earlier row entry holds v
            rows = ball.neighbours
            assert len(ball.tree) == len(rows) - 1
            first = {}
            for i, row in enumerate(rows):
                for k, j in enumerate(row):
                    first.setdefault(j, (i, k))
            for v, (i, k) in enumerate(ball.tree, 1):
                assert rows[i][k] == v and first[v] == (i, k)
            assert build_sphere(oracle, p, r, basepoint).tree == ()


def test_tree_paths_name_the_vertices_for_an_order_two_letter_not_declared_involutive():
    # in Z/2 x Z/3 on non-involutive a, b the letter a has order 2: a and a'
    # reach the same vertex, the name takes a, and so does the tree, which a
    # second BFS over the edges would not: there it takes a'
    alphabet = Alphabet.make("a", "b")
    oracle = FiniteGroupTable.from_generators(
        alphabet, [(1, 0), (0, 1)], lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 3), (0, 0)
    )
    p = Presentation(alphabet, tuple(Word.from_str(alphabet, t) for t in ("a a", "b b b", "a b a' b'")))
    for base in ((), ((0, 1),), ((1, 1), (0, 1))):
        basepoint = Word(alphabet, base) if base else None
        for r in range(5):
            ball = build_ball(oracle, p, r, basepoint)
            lcs = pi1_generators(ball)
            assert lcs.generators == pi1_generators_by_paths(ball)
            assert lcs.rank == len(pi1_generators_second_bfs(ball)[1])
            assert all(oracle.is_identity(g) for g in lcs.generators)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_loop_generators_refuse_a_sphere(z2_setup, r):
    p, oracle = z2_setup
    with pytest.raises(ValueError, match="loop generators need a ball, not a sphere"):
        pi1_generators(build_sphere(oracle, p, r))
    # the sphere of radius 0 is the ball of radius 0
    assert pi1_generators(build_sphere(oracle, p, 0)).rank == 0


def test_bs13_names_stay_as_short_as_the_radius():
    # a vertex at distance <= 10 can be a^-p b^m a^r with |m| in the
    # thousands: spelling it in that form would take |m| letters b
    p, oracle = _backend("bs13")
    ball = build_ball(oracle, p, 10)
    assert max(len(v) for v in ball.vertices) == 10
    assert max(abs(m) for _, m, _ in map(oracle.key, ball.vertices)) > 10_000


def _tame_reference(ds, radius):
    """Tameness of one combing path by definition: for every n <= radius, the
    positions of the path inside B(n) form an initial segment."""
    for n in range(radius + 1):
        inside = [t for t, d in enumerate(ds) if d <= n]
        if inside and inside != list(range(inside[0], inside[-1] + 1)):
            return False
        if inside and inside[0] != 0:
            return False
    return True


def test_tameness_is_never_decreasing_distance():
    outcomes = Counter()
    for length in range(7):
        for ds in product(range(4), repeat=length):
            want = _tame_reference(ds, 3)
            assert _never_decreasing(ds) == want, ds
            outcomes[want] += 1
    assert outcomes[True] > 100 and outcomes[False] > 1000


def test_combing_that_leaves_a_ball_and_comes_back_is_not_tame(z2_setup):
    p, oracle = z2_setup
    combing = geodesic_0_combing(oracle, p, 3)
    vi = combing.ball.vertices.index(W(p, "a"))
    detour = Combing(combing.ball, combing.paths[:vi] + (W(p, "b a b'"),) + combing.paths[vi + 1 :])
    ds = [combing.ball.distances[j] for j in detour.path_vertices(vi)]
    assert ds == [0, 1, 2, 1]
    assert not _tame_reference(ds, 3)
    assert not detour.verify_tame()


def test_verify_tame_checks_that_each_path_ends_at_its_vertex(z2_setup):
    p, oracle = z2_setup
    ball = build_ball(oracle, p, 2)
    empty = Combing(ball, (Word.identity(p.alphabet),) * len(ball.vertices))
    assert all(empty.path_vertices(vi) == [0] for vi in range(len(ball.vertices)))
    assert not empty.verify_tame()
    # two vertices swap their geodesics: every step still climbs
    geodesic = geodesic_0_combing(oracle, p, 2)
    i, j = ball.vertices.index(W(p, "a")), ball.vertices.index(W(p, "a b"))
    paths = list(geodesic.paths)
    paths[i], paths[j] = paths[j], paths[i]
    assert not Combing(ball, tuple(paths)).verify_tame()


def _leaving_combing(p, oracle):
    """The geodesic combing of Z^2's B(1), with the path a a a' for vertex a."""
    combing = geodesic_0_combing(oracle, p, 1)
    vi = combing.ball.vertices.index(W(p, "a"))
    paths = combing.paths[:vi] + (W(p, "a a a'"),) + combing.paths[vi + 1 :]
    return Combing(combing.ball, paths), vi


def test_path_vertices_names_where_a_path_leaves_the_ball(z2_setup):
    combing, vi = _leaving_combing(*z2_setup)
    with pytest.raises(ValueError, match=f"^combing path 'a a a'' of vertex {vi} \\(a\\) leaves the ball at its letter 2, 'a'$"):
        combing.path_vertices(vi)


def test_a_combing_path_that_leaves_the_ball_is_not_tame(z2_setup):
    combing, _ = _leaving_combing(*z2_setup)
    assert not combing.verify_tame()


def _tame_by_walking_every_path(combing):
    """The tameness check by definition of its docstring: every path walked
    whole, inside the ball, to its own vertex."""
    distances = combing.ball.distances
    for vi in range(len(combing.ball.vertices)):
        try:
            walk = combing.path_vertices(vi)
        except ValueError:
            return False
        if walk[-1] != vi or not _never_decreasing([distances[j] for j in walk]):
            return False
    return True


def _random_combing(ball, rng, dip, prefix_closed):
    """Path i ends at vertex i; a step goes down in distance with chance `dip`.

    Prefix-closed: a tree grown in random order, each path extending the
    path of a vertex reached before by one letter.  Otherwise each path is
    a walk of its own, found backwards from its vertex to the basepoint.
    """
    dirs = ball.presentation.alphabet.directions
    invol = ball.presentation.alphabet.involutive
    dist, rows = ball.distances, ball.neighbours

    def pick(steps):  # steps: (goes down, step)
        down = [step for is_down, step in steps if is_down]
        up = [step for is_down, step in steps if not is_down]
        return rng.choice(down if down and (not up or rng.random() < dip) else up)

    paths = {0: ()}
    while prefix_closed and len(paths) < len(rows):
        j, d, i = pick([
            (dist[i] < dist[j], (j, d, i))
            for j in paths for d, i in zip(dirs, rows[j]) if i is not None and i not in paths
        ])
        paths[i] = paths[j] + (d,)
    for v in range(len(rows)):
        back, cur = [], v
        while v not in paths and cur:  # the step d from cur to j is read j -> cur
            d, cur = pick([(dist[j] > dist[cur], (d, j)) for d, j in zip(dirs, rows[cur]) if j is not None and dist[j] != dist[cur]])
            back.append((d[0], d[1] if invol[d[0]] else -d[1]))
        paths.setdefault(v, tuple(reversed(back)))
    return [paths[v] for v in range(len(rows))]


def test_verify_tame_matches_walking_every_path(z2_setup):
    # kinds: fresh walks, prefix-closed trees, and each with one path moved
    # to another vertex; the verdict counted is that before the move
    p, oracle = z2_setup
    ball = build_ball(oracle, p, 3)
    n = len(ball.vertices)
    rng = random.Random(18)
    outcomes = Counter()
    for trial in range(400):
        kind = trial % 4
        paths = _random_combing(ball, rng, rng.choice((0, 0.02, 0.05)), kind % 2 == 1)
        combing = Combing(ball, tuple(Word(p.alphabet, path) for path in paths))
        verdict = _tame_by_walking_every_path(combing)
        if kind >= 2:
            i, j = rng.sample(range(n), 2)
            paths[i] = paths[j]
            combing = Combing(ball, tuple(Word(p.alphabet, path) for path in paths))
            assert not _tame_by_walking_every_path(combing)
        assert combing.verify_tame() == _tame_by_walking_every_path(combing), trial
        outcomes[kind, verdict] += 1
    assert all(outcomes[kind, verdict] >= 10 for kind in range(4) for verdict in (True, False)), outcomes
