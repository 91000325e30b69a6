"""The four workloads: seeded operation lists, fixtures, and answer checks.

Each workload has three parts:

* ``generate(rng, warm_rng, smoke)`` makes the timed and the warm-up
  operation lists as plain data (lists, ints, strings) from two seeded
  ``random.Random`` streams; it never touches gpq, so the same seed gives
  byte-identical JSON, and no warm-up operation repeats a timed one.
  Each operation carries its designed outcome where one is possible: a
  search certifies or ends ``Exhausted``, a kill radius has a known value, a
  pinch reduction ends ``Stuck`` or not.
* ``prepare(ops)`` does the reference work the fixtures need (decode inputs,
  region states), once and untimed; it never touches gpq either.
* ``setup(g, ops, prep)`` turns the data into gpq objects (presentations,
  oracles, regions, long words, parsed documents) and returns one ``Job`` per
  operation.  ``g`` holds the freshly imported gpq modules; calls look their
  functions up on the modules at call time, so a traced run sees its wrappers.
  Set-up is timed, so it does no reference work.
* each ``Job`` has ``call`` (the timed work), ``check`` (compares the answer
  with ``reference``, untimed) and ``documented``: the exceptions that are a
  bounded "don't know" answer rather than a failure.  An answer that decides
  less than the operation was designed to fails its check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import reference as ref
from reference import GROUPS, SYSTEMS


@dataclass
class Job:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any, BaseException | None], str | None]
    documented: tuple = ()
    weight: int = 1
    decided: Callable[[Any, BaseException | None], int] | None = None
    fingerprint: Callable[[Any, BaseException | None], Any] = lambda ans, exc: None
    moves: int = 0  # user-level Tietze moves, for presentations.apply_move_per_move

    def decided_count(self, ans, exc) -> int:
        if self.decided is not None:
            return self.decided(ans, exc)
        return 0 if exc is not None else self.weight


def _letters(word):
    return tuple(tuple(x) for x in word)


def _random_word(rng, invol, length):
    out = []
    for _ in range(length):
        i = rng.randrange(len(invol))
        out.append((i, 1 if invol[i] else rng.choice((1, -1))))
    return out


def _spaced(lo, hi, count):
    """`count` values spread evenly over [lo, hi]."""
    return [lo + round((hi - lo) * j / max(count - 1, 1)) for j in range(count)]


def _exc_fp(exc):
    return None if exc is None else (type(exc).__name__, getattr(exc, "states_explored", None))


def _presentation(g, name):
    grp = GROUPS[name]
    return g.presentations.Presentation.make(grp.gens_text(), grp.relator_texts(), name)


def _oracle(g, name, alphabet):
    b = g.backends
    return {
        "z2": lambda: b.free_abelian_oracle(2, alphabet),
        "z3": lambda: b.free_abelian_oracle(3, alphabet),
        "f2": lambda: b.free_oracle(2, alphabet),
        "bs12": lambda: b.bs_oracle(1, 2),
        "d8": lambda: b.dihedral_group(8, ("a", "d")),
        "d16": lambda: b.dihedral_group(16, ("a", "d")),
    }[name]()


# --- grigorchuk-verify -------------------------------------------------------------

# The paper's result for the n <= 8 grid: every identity closes, 8 of them
# letter for letter and the other 248 only in D_16 * <d>.
GRID_LEVELS = {8: {"dihedral": 248, "free": 8}}


def grigorchuk_generate(rng, warm_rng, smoke):
    return {"timed": [{"kind": "grid", "max_n": 3 if smoke else 8}], "warmup": [{"kind": "grid", "max_n": 2}]}


def grigorchuk_setup(g, ops, prep):
    data = g.grigorchuk.make_grigorchuk_data()

    def job(op):
        max_n = op["max_n"]
        cases = 32 * max_n

        def call():
            return g.grigorchuk.run_full_verification(data, max_n)

        def check(ans, exc):
            reports, summary = ans
            if len(reports) != cases or summary.total != cases:
                return f"grid n<={max_n}: {summary.total} cases, expected {cases}"
            if summary.equal != cases:
                return f"grid n<={max_n}: only {summary.equal}/{cases} identities close"
            levels = dict(summary.by_level)
            want = GRID_LEVELS.get(max_n)
            if want is not None and levels != want:
                return f"grid n<={max_n}: levels {levels}, expected {want}"
            if not set(levels) <= {"free", "klein", "dihedral"}:
                return f"grid n<={max_n}: unknown levels {levels}"
            return None

        return Job(
            "grid",
            call,
            check,
            weight=cases,
            decided=lambda ans, exc: sum(1 for r in ans[0] if r.level is not None),
            fingerprint=lambda ans, exc: (ans[1].total, ans[1].equal, tuple(sorted(ans[1].by_level.items()))),
        )

    return [job(op) for op in ops]


# --- ball-build --------------------------------------------------------------------

# (low, high) radius per group and job kind.  BS(1,2) jobs come in two kinds
# of basepoint: near the identity, and a^k with k in 4..6, where vertex
# normal forms run to hundreds of letters.
BALL_RADII = {
    "z2": {"ball": (3, 18), "sphere": (3, 24), "combing": (2, 10)},
    "z3": {"ball": (2, 7), "sphere": (2, 8), "combing": (2, 5)},
    "f2": {"ball": (2, 6), "sphere": (2, 6), "combing": (2, 5)},
    "bs12": {"ball": (2, 7), "sphere": (2, 7), "combing": (2, 6)},
    "d8": {"ball": (1, 5), "sphere": (1, 4), "combing": (1, 4)},
}
BS_DEEP_RADII = (2, 4)


def ball_generate(rng, warm_rng, smoke):
    per_cell = 1 if smoke else 8
    ops = []
    for group, kinds in BALL_RADII.items():
        invol = GROUPS[group].invol
        for kind, (lo, hi) in kinds.items():
            for j, r in enumerate(_spaced(lo, hi, per_cell)):
                op = {"kind": kind, "group": group, "r": r}
                if kind != "combing":
                    base = _random_word(rng, invol, rng.randrange(4))
                    if group == "bs12":
                        # Any a in a basepoint doubles its normal forms'
                        # length; only the deep jobs carry a, and a fixed
                        # power of it, so the work does not vary by seed.
                        base = [(1, rng.choice((1, -1))) for _ in base]
                    if group == "bs12" and j % 2 == 1:
                        base = [(0, 1)] * (4 + j // 2 % 3) + base
                        op["r"] = BS_DEEP_RADII[0] + j // 2 % (BS_DEEP_RADII[1] - BS_DEEP_RADII[0] + 1)
                    op["base"] = base
                ops.append(op)
    # Warm-up radii lie just below every timed range.
    warm = []
    for group, kinds in BALL_RADII.items():
        for kind, (lo, _) in kinds.items():
            base = _random_word(warm_rng, GROUPS[group].invol, 2)
            warm.append({"kind": kind, "group": group, "r": lo - 1, "base": base})
    return {"timed": ops, "warmup": warm}


def _check_ball(group, base, r, ball, sphere, cache):
    grp = GROUPS[group]
    if "ref" not in cache:
        cache["ref"] = ref.reference_ball(grp, base, r, sphere)
    dist, v, e, c = cache["ref"]
    got = (len(ball.vertices), len(ball.edges), len(ball.cells))
    if got != (v, e, c):
        return f"{group} r={r} sphere={sphere}: V,E,C={got}, reference {(v, e, c)}"
    if group == "f2" and got != ref.free_closed_form(2, r, sphere):
        return f"f2 r={r}: V,E,C={got}, closed form {ref.free_closed_form(2, r, sphere)}"
    model = grp.model
    seen = set()
    for w, d in zip(ball.vertices, ball.distances):
        s = model.evaluate(w.letters)
        if dist.get(s) != d:
            return f"{group} r={r}: vertex '{w}' at distance {d}, reference {dist.get(s)}"
        seen.add(s)
    if len(seen) != v:
        return f"{group} r={r}: two vertices name the same element"
    return None


def ball_setup(g, ops, prep):
    fixtures = {}
    for name in BALL_RADII:
        p = _presentation(g, name)
        fixtures[name] = (p, _oracle(g, name, p.alphabet))

    def job(op):
        group, r, kind = op["group"], op["r"], op["kind"]
        p, oracle = fixtures[group]
        grp = GROUPS[group]
        cache = {}
        if kind == "combing":
            base = ()

            def call():
                return g.balls.geodesic_0_combing(oracle, p, r)

            def check(ans, exc):
                err = _check_ball(group, base, r, ans.ball, False, cache)
                if err:
                    return err
                if len(ans.paths) != len(ans.ball.vertices):
                    return "combing: one path per vertex expected"
                for w, d, path in zip(ans.ball.vertices, ans.ball.distances, ans.paths):
                    if len(path) != d or grp.model.evaluate(path.letters) != grp.model.evaluate(w.letters):
                        return f"combing path to '{w}' is not a geodesic to it"
                return None

            fp = lambda ans, exc: (hash(ans.ball.vertices), ans.ball.edges, hash(ans.paths))
            return Job(kind, call, check, fingerprint=fp)

        base = _letters(op["base"])
        base_word = g.words.Word(p.alphabet, base)
        sphere = kind == "sphere"
        if sphere:

            def call():
                return g.balls.build_sphere(oracle, p, r, base_word)

            def check(ans, exc):
                return _check_ball(group, base, r, ans, True, cache)

            fp = lambda ans, exc: (hash(ans.vertices), ans.edges, ans.cells)
            return Job(kind, call, check, fingerprint=fp)

        def call():
            ball = g.balls.build_ball(oracle, p, r, base_word)
            return ball, g.balls.pi1_generators(ball)

        def check(ans, exc):
            ball, lcs = ans
            err = _check_ball(group, base, r, ball, False, cache)
            if err:
                return err
            if lcs.rank != len(ball.edges) - len(ball.vertices) + 1:
                return f"{group} r={r}: rank {lcs.rank} != E - V + 1"
            for gen in lcs.generators:
                if len(gen) > 2 * r + 1:
                    return f"{group} r={r}: generator '{gen}' longer than 2r+1"
                if grp.model.evaluate(gen.letters) != grp.model.identity:
                    return f"{group} r={r}: generator '{gen}' is not a loop"
            return None

        fp = lambda ans, exc: (hash(ans[0].vertices), ans[0].edges, ans[0].cells, hash(ans[1].generators))
        return Job(kind, call, check, fingerprint=fp)

    return [job(op) for op in ops]


# --- null-homotopy -----------------------------------------------------------------

# Regions are balls around the identity built once in set-up.  D_8 B(4) and
# D_16 B(8) are the whole group.
REGION_RADIUS = {"z2": 3, "bs12": 3, "d8": 4, "d16": 8}
# Loops with at most two relator cells are certified within CERTIFY_CAP
# states.  A Z^2 loop of signed area 3 needs three relator moves, so its
# breadth-first search must first explore every loop one move away, which is
# more than EXHAUST_CAP states: those searches end Exhausted by construction.
# Their cost varies twofold from loop to loop, so there are many of them,
# each with a small cap: op_p90_ms falls near the median of their costs,
# which moves least from seed to seed.  An Exhausted search must have
# explored exactly its cap.
CERTIFY_CAP = 400
EXHAUST_CAP = 5
EXHAUST_JOBS = 96
# (group, r, r_max, step cap, designed radius).  Every loop generator of these
# balls bounds cells inside the ball itself, so the kill radius is r.  With
# one state per search, every loop generator of Z^2 B(2) still dies (each
# bounds one cell); one of B(3) does not, so the last job ends Exhausted.
KILL_JOBS = (
    ("z2", 1, 2, 60, 1),
    ("z2", 2, 3, 60, 2),
    ("z2", 3, 3, 60, 3),
    ("bs12", 1, 2, 60, 1),
    ("bs12", 2, 3, 60, 2),
    ("bs12", 3, 3, 60, 3),
    ("d8", 1, 3, 200, 1),
    ("d8", 3, 5, 200, 3),
    ("d16", 2, 4, 200, 2),
    ("d16", 5, 7, 200, 5),
    ("z2", 2, 2, 1, 2),
    ("z2", 3, 3, 1, None),
)
WITNESS_JOBS = (("d8", 1), ("d8", 2), ("d8", 3), ("d16", 1), ("d16", 2), ("d16", 3), ("d16", 4), ("z2", 1), ("z2", 2))
# (group, relator cells, loops).  Two-cell loops only in the finite groups,
# whose search cost varies least from loop to loop.
SEARCH_JOBS = (("z2", 1, 6), ("bs12", 1, 6), ("d8", 1, 6), ("d16", 1, 6), ("d8", 2, 4), ("d16", 2, 4))
REDUCE_JOBS = 130  # per system: most of the list, so op_p50_ms falls among them


def _region_states(group, radius):
    grp = GROUPS[group]
    dist = ref.bfs_distances(grp.model, grp.invol, grp.model.identity, radius)
    return set(dist)


def _conjugated_loop(rng, group, cells, sign, states):
    """Product of `cells` conjugated relators staying inside `states`."""
    grp = GROUPS[group]
    rel = max(grp.relators, key=len)
    while True:
        word = ()
        for _ in range(cells):
            u = tuple(_random_word(rng, grp.invol, rng.randrange(3)))
            e = sign if sign else rng.choice((1, -1))
            body = rel if e == 1 else ref.inverse(rel, grp.invol)
            word += u + body + ref.inverse(u, grp.invol)
        word = ref.normalize(word, grp.invol)
        if ref.free_reduce(word, grp.invol) and ref.loop_inside(grp.model, word, states):
            return [list(x) for x in word]


def null_generate(rng, warm_rng, smoke):
    states = {grp: _region_states(grp, r) for grp, r in REGION_RADIUS.items()}
    scale = 4 if smoke else 1
    ops = []
    for group, cells, count in SEARCH_JOBS:
        for _ in range(max(1, count // scale)):
            loop = _conjugated_loop(rng, group, cells, 0, states[group])
            ops.append({"kind": "search", "group": group, "loop": loop, "cap": CERTIFY_CAP, "expect": "certify"})
    for _ in range(max(1, EXHAUST_JOBS // scale)):
        loop = _conjugated_loop(rng, "z2", 3, 1, states["z2"])
        ops.append({"kind": "search", "group": "z2", "loop": loop, "cap": EXHAUST_CAP, "expect": "exhausted"})
    kills = KILL_JOBS if not smoke else KILL_JOBS[::4]
    ops += [{"kind": "kill", "group": g, "r": r, "r_max": r_max, "cap": cap, "expect": want} for g, r, r_max, cap, want in kills]
    wits = WITNESS_JOBS if not smoke else WITNESS_JOBS[::4]
    ops += [{"kind": "witness", "system": s, "r": r} for s, r in wits]
    for system in SYSTEMS:
        invol = GROUPS[SYSTEMS[system][0]].invol
        for n in _spaced(10, 60, max(1, REDUCE_JOBS // scale)):
            ops.append({"kind": "reduce", "system": system, "word": _random_word(rng, invol, n)})
    # Warm-up jobs are of kinds and sizes the timed list does not contain.
    warm = [
        {"kind": "search", "group": grp, "loop": _conjugated_loop(warm_rng, grp, 2, 0, states[grp]), "cap": CERTIFY_CAP, "expect": "certify"}
        for grp in ("z2", "bs12")
    ]
    warm.append({"kind": "kill", "group": "d8", "r": 2, "r_max": 3, "cap": 200, "expect": 2})
    warm.append({"kind": "witness", "system": "d8", "r": 4})
    for system in SYSTEMS:
        invol = GROUPS[SYSTEMS[system][0]].invol
        warm.append({"kind": "reduce", "system": system, "word": _random_word(warm_rng, invol, 8)})
    return {"timed": ops, "warmup": warm}


def null_prepare(ops):
    """The states of every region, for replaying witnesses inside it."""
    return {name: _region_states(name, r) for name, r in REGION_RADIUS.items()}


def _witness_moves(w):
    return [(m.position, m.removed, m.inserted, m.kind) for m in w.moves]


def null_setup(g, ops, region_states):
    groups = {}
    for name in REGION_RADIUS:
        p = _presentation(g, name)
        groups[name] = (p, _oracle(g, name, p.alphabet))
    regions = {name: g.balls.build_ball(o, p, REGION_RADIUS[name]) for name, (p, o) in groups.items()}
    rw = g.rewriting
    systems = {
        "d8": rw.dihedral_rewriting_system(8, ("a", "d")),
        "d16": rw.dihedral_rewriting_system(16, ("a", "d")),
        "z2": rw.abelian_plane_system(),
    }
    Exhausted = g.errors.Exhausted

    def search_job(op):
        group, cap, expect = op["group"], op["cap"], op["expect"]
        p, oracle = groups[group]
        grp = GROUPS[group]
        loop_letters = _letters(op["loop"])
        loop = g.words.Word(p.alphabet, loop_letters)
        region = regions[group]

        def call():
            return g.balls.null_homotopy_search(oracle, p, loop, region, step_cap=cap)

        def check(ans, exc):
            if exc is not None:
                if expect == "certify":
                    return f"search Exhausted after {exc.states_explored} states; designed to certify within {cap}"
                if exc.states_explored != cap:
                    return f"search Exhausted after {exc.states_explored} states with cap {cap}"
                return None
            # A certificate where exhaustion was designed decides more; it
            # passes only if it replays.
            if ans.start.letters != loop_letters or not ans.replay():
                return "witness does not replay"
            return ref.check_homotopy(
                loop_letters, _witness_moves(ans), grp.relators, grp.invol, grp.model, region_states[group]
            )

        fp = lambda ans, exc: _exc_fp(exc) if exc else (ans.states_explored, tuple(_witness_moves(ans)))
        return Job("search", call, check, (Exhausted,), fingerprint=fp)

    def kill_job(op):
        group, r, r_max, cap, expect = op["group"], op["r"], op["r_max"], op["cap"], op["expect"]
        p, oracle = groups[group]
        grp = GROUPS[group]

        def call():
            return g.balls.pi1_kill_radius(oracle, p, r, r_max, step_cap=cap)

        def check(ans, exc):
            if exc is not None:
                return None if expect is None else f"kill radius Exhausted; designed radius {expect}"
            if expect is not None and ans != expect:
                return f"kill radius {ans}, designed radius {expect}"
            if not r <= ans <= r_max:
                return f"kill radius {ans} outside [{r}, {r_max}]"
            # Re-derive a witness for every generator of B(r) inside B(ans)
            # and replay it against the model.
            gens = g.balls.pi1_generators(g.balls.build_ball(oracle, p, r)).generators
            big = g.balls.build_ball(oracle, p, ans)
            states = _region_states(group, ans)
            for gen in gens:
                w = g.balls.null_homotopy_search(oracle, p, gen, big, step_cap=cap)
                err = ref.check_homotopy(gen.letters, _witness_moves(w), grp.relators, grp.invol, grp.model, states)
                if err:
                    return f"kill radius {ans}: generator '{gen}': {err}"
            return None

        return Job("kill", call, check, (Exhausted,), fingerprint=lambda ans, exc: _exc_fp(exc) or ans)

    def witness_job(op):
        name, r = op["system"], op["r"]
        group, rules = SYSTEMS[name]
        grp = GROUPS[group]
        rs, p = systems[name], groups[group][0]

        def call():
            return rw.ball_null_homotopy_witness(rs, p, r)

        def check(ans, exc):
            if not isinstance(ans, rw.NullHomotopyCertificate):
                return f"{name} r={r}: no certificate ({ans})"
            bound = 2 * r + 1
            if ans.radius != r or ans.words_checked != ref.words_up_to(grp.invol, bound):
                return f"{name} r={r}: checked {ans.words_checked} words"
            want = ref.identity_words_up_to(grp.model, grp.invol, bound)
            got = {w.letters for w, _ in ans.witnesses}
            if got != want:
                return f"{name} r={r}: {len(got)} witnesses, {len(want)} identity words"
            for w, trace in ans.witnesses:
                if not trace.verify(rs):
                    return f"{name} r={r}: trace of '{w}' does not verify"
                steps = [(s.before.letters, s.rule, s.position, s.after.letters) for s in trace.steps]
                err = ref.check_rewrite_trace(rules, w.letters, steps, ())
                if err or any(len(s[0]) > bound for s in steps):
                    return f"{name} r={r}: witness '{w}': {err or 'leaves the ball'}"
            return None

        fp = lambda ans, exc: (ans.words_checked, len(ans.witnesses))
        return Job("witness", call, check, fingerprint=fp)

    def reduce_job(op):
        name = op["system"]
        group, rules = SYSTEMS[name]
        grp = GROUPS[group]
        rs = systems[name]
        letters = _letters(op["word"])
        word = g.words.Word(rs.alphabet, letters)

        def call():
            return rw.reduce(rs, word)

        def check(ans, exc):
            nf, trace = ans
            if not trace.verify(rs):
                return "reduction trace does not verify"
            steps = [(s.before.letters, s.rule, s.position, s.after.letters) for s in trace.steps]
            err = ref.check_rewrite_trace(rules, letters, steps, nf.letters)
            if err:
                return f"reduce {name}: {err}"
            if grp.model.evaluate(nf.letters) != grp.model.evaluate(letters):
                return f"reduce {name}: '{nf}' is another element"
            return None

        return Job("reduce", call, check, fingerprint=lambda ans, exc: (ans[0].letters, len(ans[1].steps)))

    build = {"search": search_job, "kill": kill_job, "witness": witness_job, "reduce": reduce_job}
    return [build[op["kind"]](op) for op in ops]


# --- presentation-calculus ---------------------------------------------------------

TIETZE_START = (("a", "b"), (False, True), (((0, 1), (1, 1), (0, -1), (1, 1)), ((1, 1), (0, 1)) * 3))
# The Grigorchuk substitutions (Lysenok, Bartholdi), over a,c,d and a,b,d.
SIGMA = {
    "acd": (((0, 1), (1, 1), (0, 1)), ((1, 1), (2, 1)), ((1, 1),)),
    "abd": (((0, 1), (1, 1), (2, 1), (0, 1)), ((2, 1),), ((1, 1), (2, 1))),
}
FAMILY_SEEDS = {
    "acd": (((0, 1), (0, 1)), ((0, 1), (2, 1)) * 4, ((0, 1), (2, 1), (0, 1), (1, 1), (0, 1), (1, 1)) * 4),
    "abd": (((0, 1), (0, 1)), ((0, 1), (2, 1)) * 4, ((0, 1), (2, 1), (0, 1), (1, 1), (2, 1), (0, 1), (1, 1), (2, 1)) * 4),
}
STABLE = 3  # index of the stable letter t in a, c, d, t
INVOL_ACDT = (True, True, True, False)
DOC_NAMES = ("a", "b", "c", "d", "e", "f", "x", "y", "z", "t0", "g1", "h_2")


def _tietze_moves(rng, count):
    names, invol, rels = list(TIETZE_START[0]), list(TIETZE_START[1]), list(TIETZE_START[2])
    # T3 certificates cite the start relators and T1 definitions only, so
    # relator lengths stay bounded and the cost of a trace follows its length.
    citable = list(range(len(rels)))
    moves = []
    for k in range(count):
        if k % 2 == 0:
            s = ref.normalize(_random_word(rng, invol, 3), invol)
            moves.append(["T1", f"g{k}", s])
            citable.append(len(rels))
            rels.append(((len(names), 1),) + ref.inverse(s, invol))
            names.append(f"g{k}")
            invol.append(False)
        else:
            cert, prod = [], ()
            for _ in range(2):
                u = ref.normalize(_random_word(rng, invol, 2), invol)
                idx, e = rng.choice(citable), rng.choice((1, -1))
                base = rels[idx] if e == 1 else ref.inverse(rels[idx], invol)
                prod += u + base + ref.inverse(u, invol)
                cert.append([u, idx, e])
            rel = ref.free_reduce(prod, tuple(invol))
            moves.append(["T3", rel, cert])
            rels.append(rel)
    return moves, [names, invol, rels]


def _source_of_image(rng, images, seed, image_length):
    """A factor of an iterate of `seed`, starting at a seeded offset, whose
    image has `image_length` letters or one more.  A long iterate has the
    same letter frequencies everywhere, so the work depends on the length."""
    word = seed
    while len(word) < 2 * image_length:
        word = ref.substitute(images, word)
    start = rng.randrange(len(word) // 2)
    total = 0
    for k in range(start, len(word)):
        total += len(images[word[k][0]])
        if total >= image_length:
            return word[start : k + 1]
    raise AssertionError("iterate too short")


def _pinch_word(rng, stuck):
    """Stable-letter pinches side by side, separated by base letters.

    Expansions t u t^-1 always apply; a decoding t^-1 u t applies when u is a
    reduced image of sigma.  A stuck word carries one t^-1 u t whose u is not
    an image, so the outcome of every word is known in advance."""
    images = SIGMA["acd"]
    invol = INVOL_ACDT[:3]
    out = tuple(_random_word(rng, invol, 2))
    pinches = 5
    bad = rng.randrange(pinches) if stuck else -1
    for k in range(pinches):
        if k == bad:
            while True:
                u = ref.free_reduce(tuple(_random_word(rng, invol, 2)), invol)
                if u and not _decodable(images, u):
                    break
            out += ((STABLE, -1),) + u + ((STABLE, 1),)
        elif k % 2 == 0:
            u = tuple(_random_word(rng, invol, 5))
            out += ((STABLE, 1),) + u + ((STABLE, -1),)
        else:
            while True:
                u = ref.substitute(images, tuple(_random_word(rng, invol, 3)))
                if ref.free_reduce(u, invol) == u:
                    break
            out += ((STABLE, -1),) + u + ((STABLE, 1),)
        out += tuple(_random_word(rng, invol, 2))
    return [list(x) for x in out]


def _decodable(images, word):
    ok = [False] * (len(word) + 1)
    ok[len(word)] = True
    for pos in range(len(word) - 1, -1, -1):
        ok[pos] = any(word[pos : pos + len(img)] == img and ok[pos + len(img)] for img in images)
    return ok[0]


def _document(rng, endo):
    n = rng.randint(2, 5)
    names = rng.sample(DOC_NAMES, n)
    invol = [rng.random() < 0.4 for _ in range(n)]
    name = f"doc{rng.randrange(1000)}"

    def words(lo, hi, length=14):
        return [ref.normalize(_random_word(rng, invol, rng.randint(1, length)), invol) for _ in range(rng.randint(lo, hi))]

    def sub(sname):
        return [sname, [tuple((rng.randrange(n), 1) for _ in range(rng.randint(1, 4))) for _ in range(n)]]

    doc = {"name": name, "names": names, "invol": invol, "endo": endo}
    text = [f"name {name};"]
    gens = ", ".join(x + ("!" if inv else "") for x, inv in zip(names, invol))
    if endo:
        doc.update(q=words(0, 3), r=words(1, 6), subs=[sub("sigma")], relators=[], rules=[])
        text.append(f"endo gens {gens};")
        text.append("Q " + ", ".join(ref.word_text(w, names) for w in doc["q"]) + ";" if doc["q"] else "Q;")
        text.append("R " + ", ".join(ref.word_text(w, names) for w in doc["r"]) + ";")
        keyword = "phi"
    else:
        rules = [[w, ref.normalize(_random_word(rng, invol, rng.randrange(4)), invol)] for w in words(0, 6, 5)]
        doc.update(q=[], r=[], subs=[sub(f"s{k}") for k in range(rng.randint(0, 2))], relators=words(8, 30), rules=rules)
        text.append(f"gens {gens};")
        text += [f"rel {ref.word_text(w, names)};" for w in doc["relators"]]
        keyword = "sub"
    for sname, images in doc["subs"]:
        parts = [f"{x} -> {ref.word_text(img, names)}" for x, img in zip(names, images)]
        text.append(f"{keyword} {sname}: " + "; ".join(parts) + ";")
    for lhs, rhs in doc["rules"]:
        text.append(f"rule {ref.word_text(lhs, names)} -> {ref.word_text(rhs, names)};")
    doc["text"] = "\n".join(text) + "\n"
    return doc


def presentation_generate(rng, warm_rng, smoke):
    scale = 5 if smoke else 1
    ops = []
    for n in _spaced(20, 80, max(1, 8 // scale)):
        moves, final = _tietze_moves(rng, n)
        ops.append({"kind": "tietze", "moves": moves, "final": final})
    for j, length in enumerate(_spaced(1000, 11000, max(1, 8 // scale))):
        variant = ("acd", "abd")[j % 2]
        source = _source_of_image(rng, SIGMA[variant], FAMILY_SEEDS[variant][2], length)
        ops.append({"kind": "decode", "variant": variant, "source": source})
    for j in range(max(1, 51 // scale)):
        ops.append({"kind": "pinch", "word": _pinch_word(rng, stuck=j % 3 == 0), "stuck": j % 3 == 0})
    for depth in _spaced(4, 8, max(1, 20 // scale)):
        variant = rng.choice(("acd", "abd"))
        extra = [tuple((rng.randrange(3), 1) for _ in range(rng.randint(2, 10))) for _ in range(rng.randrange(3))]
        ops.append({"kind": "expand", "variant": variant, "depth": depth, "extra": extra})
    for j in range(max(1, 15 // scale)):
        ops.append({"kind": "parse", "doc": _document(rng, endo=j % 3 == 0)})
        ops.append({"kind": "print", "doc": _document(rng, endo=j % 3 == 1)})
    warm_moves, warm_final = _tietze_moves(warm_rng, 12)
    warm = [
        {"kind": "tietze", "moves": warm_moves, "final": warm_final},
        {"kind": "decode", "variant": "acd", "source": _source_of_image(warm_rng, SIGMA["acd"], FAMILY_SEEDS["acd"][1], 600)},
        {"kind": "pinch", "word": _pinch_word(warm_rng, stuck=False), "stuck": False},
        {"kind": "pinch", "word": _pinch_word(warm_rng, stuck=True), "stuck": True},
        {"kind": "expand", "variant": "abd", "depth": 3, "extra": []},
        {"kind": "parse", "doc": _document(warm_rng, endo=False)},
        {"kind": "print", "doc": _document(warm_rng, endo=True)},
    ]
    return {"timed": ops, "warmup": warm}


def _expansion(variant, r_letters, depth):
    """The relators expand_relators should return: each relator under
    sigma^0 .. sigma^depth, in that order, without repeats."""
    want, seen = [], set()
    for k in range(depth + 1):
        for r in r_letters:
            w = r
            for _ in range(k):
                w = ref.substitute(SIGMA[variant], w)
            if w not in seen:
                seen.add(w)
                want.append(w)
    return want


def presentation_prepare(ops):
    """Per operation: the image a decode starts from, and the relators an
    expansion should return."""
    out = []
    for op in ops:
        if op["kind"] == "decode":
            out.append(ref.substitute(SIGMA[op["variant"]], _letters(op["source"])))
        elif op["kind"] == "expand":
            out.append(_expansion(op["variant"], _expand_relators(op), op["depth"]))
        else:
            out.append(None)
    return out


def _expand_relators(op):
    return FAMILY_SEEDS[op["variant"]] + tuple(_letters(w) for w in op["extra"])


def presentation_setup(g, ops, prep):
    W = g.words
    data = g.grigorchuk.make_grigorchuk_data()
    subs = {"acd": data.sigma_acd, "abd": data.sigma_abd}
    lysenok = g.endo.EndomorphicPresentation(
        alphabet=data.acd,
        q_relators=(),
        substitutions=(data.sigma_acd,),
        r_relators=tuple(W.Word(data.acd, r) for r in FAMILY_SEEDS["acd"]),
        stable_names=("t",),
        name="lysenok",
    )
    combined = lysenok.combined_alphabet()
    BrittonStuck = g.errors.BrittonStuck

    def alphabet(names, invol):
        return W.Alphabet(tuple(names), tuple(invol))

    def tietze_job(op, _):
        names, invol, rels = op["final"]
        start_alpha = alphabet(*TIETZE_START[:2])
        start = g.presentations.Presentation(start_alpha, tuple(W.Word(start_alpha, r) for r in TIETZE_START[2]), "start")
        moves = []
        n = len(TIETZE_START[0])
        for mv in op["moves"]:
            a = alphabet(names[:n], invol[:n])
            if mv[0] == "T1":
                moves.append(g.presentations.T1(mv[1], W.Word(a, _letters(mv[2]))))
                n += 1
            else:
                cert = tuple((W.Word(a, _letters(u)), idx, e) for u, idx, e in mv[2])
                moves.append(g.presentations.T3(W.Word(a, _letters(mv[1])), cert))
        want = (tuple(names), tuple(invol), tuple(_letters(r) for r in rels))

        def call():
            trace = g.presentations.FiniteEquivalenceTrace(start)
            for mv in moves:
                trace.apply(mv)
            return trace.replay(), trace.invert()

        def check(ans, exc):
            final, back = ans
            got = (final.alphabet.letters, final.alphabet.involutive, tuple(r.letters for r in final.relators))
            if got != want:
                return f"Tietze trace of {len(moves)} moves ends at another presentation"
            if back != start:
                return "Tietze trace does not invert to the start presentation"
            return None

        fp = lambda ans, exc: hash(ans[0].relators)
        return Job("tietze", call, check, fingerprint=fp, moves=len(moves))

    def decode_job(op, image):
        variant = op["variant"]
        sub = subs[variant]
        source = _letters(op["source"])
        word = W.Word(sub.alphabet, image)

        def call():
            return g.endo.sigma_decode(sub, word)

        def check(ans, exc):
            if ans.letters != source:
                return f"decode of a {len(image)}-letter image returned another source"
            if g.words.apply_substitution(sub, ans) != word:
                return "decoded word does not map back to the input"
            return None

        return Job("decode", call, check, fingerprint=lambda ans, exc: hash(ans.letters))

    def pinch_job(op, _):
        letters, stuck = _letters(op["word"]), op["stuck"]
        word = W.Word(combined, letters)
        images = SIGMA["acd"]

        def steps_of(steps):
            return [(s.before.letters, s.position, s.length, s.replacement.letters, s.kind) for s in steps]

        def call():
            return g.endo.britton_pinch_reduce(lysenok, word)

        def check(ans, exc):
            if exc is not None:
                if not stuck:
                    return "BrittonStuck on a word designed to reduce"
                if exc.trace is None or exc.word is None:
                    return "BrittonStuck without its partial trace"
                err = ref.check_pinch_trace(letters, steps_of(exc.trace), exc.word.letters, images, INVOL_ACDT, STABLE)
                return err or _stuck_pinch_error(exc.word.letters)
            out, steps = ans
            if g.endo.replay_pinch_trace(word, steps) != out:
                return "pinch trace does not replay"
            err = ref.check_pinch_trace(letters, steps_of(steps), out.letters, images, INVOL_ACDT, STABLE)
            if err is None and ref.find_pinch(out.letters, STABLE) is not None:
                err = "a pinch is left in the result"
            return err

        fp = lambda ans, exc: ("stuck", exc.word.letters) if exc else ans[0].letters
        return Job("pinch", call, check, (BrittonStuck,), fingerprint=fp)

    def expand_job(op, want):
        depth = op["depth"]
        sub = subs[op["variant"]]
        ep = g.endo.EndomorphicPresentation(
            alphabet=sub.alphabet,
            q_relators=(),
            substitutions=(sub,),
            r_relators=tuple(W.Word(sub.alphabet, r) for r in _expand_relators(op)),
            stable_names=("t",),
        )

        def call():
            return g.endo.expand_relators(ep, depth)

        def check(ans, exc):
            if [w.letters for w in ans] != want:
                return f"expand_relators depth {depth}: {len(ans)} relators, expected {len(want)}"
            return None

        return Job("expand", call, check, fingerprint=lambda ans, exc: hash(tuple(ans)))

    def want_doc(doc):
        subs_ = tuple((s, tuple(_letters(i) for i in imgs)) for s, imgs in doc["subs"])
        return (
            doc["name"],
            tuple(doc["names"]),
            tuple(doc["invol"]),
            doc["endo"],
            tuple(_letters(w) for w in doc["relators"]),
            tuple(_letters(w) for w in doc["q"]),
            tuple(_letters(w) for w in doc["r"]),
            subs_,
            tuple((_letters(l), _letters(r)) for l, r in doc["rules"]),
        )

    def got_doc(d):
        return (
            d.name,
            d.alphabet.letters,
            d.alphabet.involutive,
            d.endomorphic,
            tuple(w.letters for w in d.relators),
            tuple(w.letters for w in d.q_relators),
            tuple(w.letters for w in d.r_relators),
            tuple((s, tuple(img.letters for img in sub.images)) for s, sub in d.substitutions.items()),
            tuple((l.letters, r.letters) for l, r in d.rules),
        )

    def parse_job(op, _):
        text, want = op["doc"]["text"], want_doc(op["doc"])

        def call():
            return g.parsing.parse_document(text)

        def check(ans, exc):
            return None if got_doc(ans) == want else "parsed document differs from its source"

        return Job("parse", call, check, fingerprint=lambda ans, exc: got_doc(ans))

    def print_job(op, _):
        text = op["doc"]["text"]
        doc = g.parsing.parse_document(text)

        def call():
            return g.parsing.print_document(doc)

        def check(ans, exc):
            return None if ans == text else "printed document is not the canonical source text"

        return Job("print", call, check, fingerprint=lambda ans, exc: ans)

    build = {
        "tietze": tietze_job,
        "decode": decode_job,
        "pinch": pinch_job,
        "expand": expand_job,
        "parse": parse_job,
        "print": print_job,
    }
    return [build[op["kind"]](op, p) for op, p in zip(ops, prep)]


def _stuck_pinch_error(word):
    """Why a word left by BrittonStuck could have been reduced further, or
    None: its innermost pinch must be a t^-1 u t whose u, freely reduced, is
    not a positive word that decodes letter for letter."""
    pinch = ref.find_pinch(word, STABLE)
    if pinch is None:
        return "stuck although no pinch is left"
    start, end, e = pinch
    middle = ref.free_reduce(word[start + 1 : end], INVOL_ACDT[:STABLE])
    if e == 1 or (all(x > 0 for _, x in middle) and _decodable(SIGMA["acd"], middle)):
        return "stuck on a pinch that reduces"
    return None


@dataclass(frozen=True)
class Workload:
    generate: Callable
    setup: Callable
    prepare: Callable = lambda ops: None


WORKLOADS = {
    "grigorchuk-verify": Workload(grigorchuk_generate, grigorchuk_setup),
    "ball-build": Workload(ball_generate, ball_setup),
    "null-homotopy": Workload(null_generate, null_setup, null_prepare),
    "presentation-calculus": Workload(presentation_generate, presentation_setup, presentation_prepare),
}
