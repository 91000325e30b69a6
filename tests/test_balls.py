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
    _closed_paths_up_to,
    _loop_inside,
    _never_decreasing,
    _reduce_recording,
    build_ball,
    build_sphere,
    check_pi1_bounded_balls,
    geodesic_0_combing,
    isodiametric_estimate,
    null_homotopy_search,
    pi1_generators,
    pi1_kill_radius,
)
from gpq.errors import Exhausted, NotNullHomotopic, OracleMismatch
from gpq.presentations import Presentation
from gpq.words import Alphabet, Word, directions, free_reduce, words_up_to_length
from helpers import pi1_generators_second_bfs, reduce_recording_restart, search_whole_words


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


def test_kill_radius_bounded_outcome_for_nonstandard_z_presentation():
    # Z presented with a redundant generator killed in a twisted way: the
    # relator b a b a' b' forces b = 1.  The bounded search's outcome (a value
    # or exhaustion) is recorded, not asserted: this presentation's universal
    # cover is the classic non-wgsc example, killing one b-loop creates another.
    p = Presentation.make("a, b", ["b a b a' b'"], "z_twisted")

    class ZOracle:
        alphabet = p.alphabet

        def normal_form(self, word):
            total = sum(e for i, e in word.letters if i == 0)  # b dies
            letters = tuple(((0, 1 if total > 0 else -1),) * abs(total))
            return Word(p.alphabet, letters)

        def is_identity(self, word):
            return self.normal_form(word).is_empty()

        def describe(self):
            return "Z with a = 1, b = 0"

    oracle = ZOracle()
    try:
        result = pi1_kill_radius(oracle, p, 2, 3, step_cap=300)
        outcome = f"kill radius {result}"
        assert 2 <= result <= 3
    except Exhausted as exc:
        outcome = f"exhausted ({exc.states_explored} states)"
    assert outcome  # bounded search must terminate with a recorded outcome


def test_pi1_bounded_balls(z2_setup, f2_setup):
    p, oracle = z2_setup
    assert check_pi1_bounded_balls(oracle, p, 2, 5) is True
    assert check_pi1_bounded_balls(oracle, p, 2, 3) is False
    pf, of = f2_setup
    assert check_pi1_bounded_balls(of, pf, 2, 1) is True  # vacuous


def test_isodiametric_estimates(z2_setup, bs2_setup):
    p, oracle = z2_setup
    assert isodiametric_estimate(oracle, p, W(p, "a b a' b'"), 4) == 2
    assert isodiametric_estimate(oracle, p, Word.identity(p.alphabet), 4) == 0
    pb, ob = bs2_setup
    assert isodiametric_estimate(ob, pb, W(pb, "a b a' b' b'"), 3) <= 3
    with pytest.raises(NotNullHomotopic):
        isodiametric_estimate(oracle, p, W(p, "a"), 3)


def test_combing_certificates(z2_setup, f2_setup):
    p, oracle = z2_setup
    combing = geodesic_0_combing(oracle, p, 3)
    assert combing.verify_tame()
    assert len(combing.paths) == lattice_ball_count(2, 3)
    pf, of = f2_setup
    assert geodesic_0_combing(of, pf, 2).verify_tame()
    empty = geodesic_0_combing(oracle, p, 0)
    assert len(empty.paths) == 1 and empty.paths[0].is_empty()


def test_combing_paths_are_geodesics(z2_setup):
    p, oracle = z2_setup
    combing = geodesic_0_combing(oracle, p, 3)
    for vi, v in enumerate(combing.ball.vertices):
        assert len(combing.paths[vi]) == combing.ball.distances[vi]
        assert oracle.normal_form(combing.paths[vi]) == v


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
    """A copy of `oracle` whose class counts its step and normal_form calls."""
    calls = Counter()
    base = type(oracle)

    class Counting(base):
        def step(self, key, direction):
            calls["step"] += 1
            return base.step(self, key, direction)

        def normal_form(self, word):
            calls["normal_form"] += 1
            return base.normal_form(self, word)

    return Counting(**{f.name: getattr(oracle, f.name) for f in fields(oracle)}), calls


class _NormalFormOnly:
    """A duck-typed oracle: alphabet, normal_form, is_identity, describe."""

    def __init__(self, oracle):
        self.alphabet = oracle.alphabet
        self._oracle = oracle

    def normal_form(self, word):
        return self._oracle.normal_form(word)

    def is_identity(self, word):
        return self.normal_form(word).is_empty()

    def describe(self):
        return "normal forms only"


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
            # even the relator check compares keys: no normal form is built
            assert calls.pop("normal_form", 0) == 0


@pytest.mark.parametrize("setup", ["z2_setup", "f2_setup", "d8_setup", "bs2_setup"])
def test_duck_typed_oracle_builds_the_same_balls(setup, request):
    # an oracle with normal forms only is keyed by its normal-form letters
    p, oracle = request.getfixturevalue(setup)
    duck = _NormalFormOnly(oracle)
    for r in range(4):
        for build in (build_ball, build_sphere):
            native, adapted = build(oracle, p, r), build(duck, p, r)
            assert (adapted.vertices, adapted.distances, adapted.edges, adapted.cells) == (
                native.vertices,
                native.distances,
                native.edges,
                native.cells,
            )


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
    assert not Witness(W(p, "a b a' b'"), moves, region, 0).replay()
    good = null_homotopy_search(oracle, p, W(p, "a b a' b'"), region)
    assert good.replay()


class _TwistedZOracle:
    """Duck-typed oracle for Z = <a, b | b a b a' b'>: a counts, b = 1."""

    def __init__(self, alphabet):
        self.alphabet = alphabet

    def normal_form(self, word):
        total = sum(e for i, e in word.letters if i == 0)
        return Word(self.alphabet, ((0, 1 if total > 0 else -1),) * abs(total))

    def is_identity(self, word):
        return self.normal_form(word).is_empty()

    def describe(self):
        return "Z with a = 1, b = 0"


def _search_outcome(oracle, p, loop, region, cap):
    """null_homotopy_search's answer in the form of search_whole_words."""
    try:
        w = null_homotopy_search(oracle, p, loop, region, step_cap=cap)
    except Exhausted as exc:
        return ("exhausted", exc.states_explored)
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
    symbols = directions(p.alphabet)
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
            for cap in (1, 4, 100):
                want = search_whole_words(p, loop, region, cap)
                assert _search_outcome(oracle, p, loop, region, cap) == want, (p.name, str(loop), cap)
                compared[want[0]] += 1
        # spheres hold no vertex of their centre, so no loop starts inside
        sphere = build_sphere(oracle, p, r, basepoint)
        for loop in loops[:3]:
            assert _search_outcome(oracle, p, loop, sphere, 100) == ("outside",)
            assert search_whole_words(p, loop, sphere, 100) == ("outside",)
    assert compared["witness"] > 200 and compared["exhausted"] > 40


def test_search_with_short_loop_cells_matches_whole_word_reference(z2_setup, bs2_setup):
    # the cells check_pi1_bounded_balls glues: every short closed path, as the
    # relators of a presentation that replace the presentation's own
    compared = Counter()
    for p, oracle in (z2_setup, bs2_setup):
        ball = build_ball(oracle, p, 2)
        stripped = Presentation(p.alphabet, (), p.name)
        for c in (3, 5):
            short = tuple(_closed_paths_up_to(ball, c))
            loops = Presentation(p.alphabet, short, p.name)
            for g in pi1_generators(ball).generators:
                for cap in (2, 200):
                    want = search_whole_words(stripped, g, ball, cap, short)
                    got = _search_outcome(oracle, loops, g, ball, cap)
                    assert got == want, (p.name, c, str(g), cap)
                    compared[want[0]] += 1
    assert compared["witness"] > 5 and compared["exhausted"] > 5


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


def _without_word(oracle):
    """A copy of `oracle` whose class has no normal-form words."""
    base = type(oracle)

    class NoWord(base):
        def word(self, key):
            raise AssertionError("a ball must not ask for a normal form")

    return NoWord(**{f.name: getattr(oracle, f.name) for f in fields(oracle)})


@pytest.mark.parametrize("name", list(_BACKENDS))
def test_vertices_are_named_by_their_first_bfs_path(name):
    p, oracle = _backend(name)
    last = len(p.alphabet) - 1
    no_word = _without_word(oracle)
    for base in ((), ((0, 1),), ((last, 1), (0, 1), (last, 1))):
        basepoint = Word(p.alphabet, base) if base else None
        for r in range(7):
            for build in (build_ball, build_sphere):
                ball = build(oracle, p, r, basepoint)
                for v, key, d in zip(ball.vertices, ball.keys, ball.distances):
                    assert v.letters[: len(base)] == base
                    assert len(v) - len(base) == d
                    assert oracle.key(v) == key
                    if not base and not name.startswith("bs"):
                        assert v == oracle.normal_form(v)
                bare = build(no_word, p, r, basepoint)
                assert (bare.vertices, bare.edges, bare.cells) == (ball.vertices, ball.edges, ball.cells)


@pytest.mark.parametrize("name", list(_BACKENDS))
def test_loop_generators_match_second_bfs_reference(name):
    p, oracle = _backend(name)
    last = len(p.alphabet) - 1
    for base in ((), ((0, 1),), ((last, 1), (0, 1), (last, 1))):
        basepoint = Word(p.alphabet, base) if base else None
        for r in range(5):
            ball = build_ball(oracle, p, r, basepoint)
            lcs = pi1_generators(ball)
            assert (lcs.tree_paths, lcs.generators) == pi1_generators_second_bfs(ball), (r, base)
            assert [base + path.letters for path in lcs.tree_paths] == [v.letters for v in ball.vertices]


def test_tree_paths_name_the_vertices_for_an_order_two_letter_not_declared_involutive():
    # in Z/2 x Z/3 on non-involutive a, b the letter a has order 2: a and a'
    # reach the same vertex, the name takes a, and so does the tree
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
            assert [base + path.letters for path in lcs.tree_paths] == [v.letters for v in ball.vertices]
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
    # the normal form of a vertex at distance <= 10 can have thousands of letters
    p, oracle = _backend("bs13")
    ball = build_ball(oracle, p, 10)
    assert max(len(v) for v in ball.vertices) == 10
    assert max(len(oracle.normal_form(v)) for v in ball.vertices) > 10_000


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
