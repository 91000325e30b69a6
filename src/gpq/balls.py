"""Metric balls and spheres in Cayley 2-complexes, and bounded searches on them.

Vertices are the oracle's element keys at distance <= r from the basepoint,
named by their first BFS path, in discovery (shortlex) order.  One
breadth-first pass steps once per vertex and direction, in `words.directions`
order and the outer shell included; it records the path that first reaches
each vertex, which by induction on distance is the shortlex-least geodesic
from the basepoint, and fills the neighbour table that edges, 2-cells, loop
tracing and combings read.  A vertex's name is the basepoint followed by that
path.  An edge or 2-cell belongs to the ball exactly when all its boundary
vertices do.  On top of the complex: loop generators for the fundamental
group from the tree of those first paths (each of length <= 2r+1),
breadth-first null-homotopy search with replayable witnesses, bounded
connectivity-radius estimates, and geodesic combings with a mechanically
checked tameness certificate.  All searches carry explicit caps:
incompleteness is a visible value, never a silent timeout.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .backends import WordOracle
from .errors import (
    CombinatorialExplosion,
    Exhausted,
    NotNullHomotopic,
    OracleMismatch,
)
from .presentations import Presentation
from .words import Word, direction_codes, directions, free_reduce, rotations_and_inverses


def _check_oracle(oracle: WordOracle, p: Presentation):
    if oracle.alphabet != p.alphabet:
        raise OracleMismatch(
            f"oracle alphabet {oracle.alphabet.letters} != presentation alphabet {p.alphabet.letters}"
        )
    for rel in p.relators:
        if not oracle.is_identity(rel):
            raise OracleMismatch(f"relator '{rel}' is not trivial under {oracle.describe()}")


@dataclass(frozen=True)
class Ball:
    """A metric ball (or sphere) in the Cayley complex of (oracle, presentation)."""

    presentation: Presentation
    oracle: WordOracle
    basepoint: Word
    radius: int
    vertices: tuple[Word, ...]             # basepoint * first BFS path, discovery (shortlex) order
    edges: tuple[tuple[int, int, int], ...]  # (vertex, letter, vertex), positive direction
    cells: tuple[tuple[int, int], ...]     # (base vertex, relator index)
    distances: tuple[int, ...]
    keys: tuple                            # oracle element key per vertex
    base_key: object                       # oracle element key of the basepoint
    # (vertex key, direction) -> neighbour key, for every vertex and direction
    neighbours: dict = field(compare=False, repr=False)
    is_sphere: bool = False

    @cached_property
    def _index(self) -> dict:
        return {k: i for i, k in enumerate(self.keys)}

    def summary(self) -> str:
        kind = "S" if self.is_sphere else "B"
        return (
            f"{kind}({self.radius}): V={len(self.vertices)} "
            f"E={len(self.edges)} C={len(self.cells)}"
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "radius": self.radius,
                "vertices": [str(v) for v in self.vertices],
                "edges": [
                    [i, self.presentation.alphabet.letters[l], j] for i, l, j in self.edges
                ],
                "cells": [[base, rel] for base, rel in self.cells],
            },
            sort_keys=True,
        )


def _explore(oracle: WordOracle, basepoint: Word, r: int):
    """Basepoint key, the first-reaching path of each key within radius r in
    discovery order, and the neighbour table."""
    dirs = directions(oracle.alphabet)
    step = oracle.step
    base = oracle.key(basepoint)
    path = {base: ()}
    table = {}
    frontier = [base]
    for d in range(r + 1):
        nxt = []
        for key in frontier:
            for direction in dirs:
                found = step(key, direction)
                table[(key, direction)] = found
                if d < r and found not in path:
                    path[found] = path[key] + (direction,)
                    nxt.append(found)
        frontier = nxt
    return base, path, table


def _build(oracle: WordOracle, p: Presentation, r: int, basepoint: Word | None, sphere: bool):
    if r < 0:
        raise ValueError("radius must be >= 0")
    _check_oracle(oracle, p)
    alphabet = p.alphabet
    if basepoint is None:
        basepoint = Word.identity(alphabet)
    base, path, table = _explore(oracle, basepoint, r)
    keys = tuple(k for k, letters in path.items() if len(letters) == r or not sphere)
    index = {k: i for i, k in enumerate(keys)}
    if sphere:
        table = {kd: k for kd, k in table.items() if kd[0] in index}
    # a cell's boundary path from its base vertex, its last edge closing it
    boundaries = [(ri, rel.letters[:-1]) for ri, rel in enumerate(p.relators) if rel.letters]
    edges = set()
    cells = []
    for i, key in enumerate(keys):
        for li in range(len(alphabet)):
            j = index.get(table[(key, (li, 1))])
            if j is not None:
                edges.add((min(i, j), li, max(i, j)) if alphabet.involutive[li] else (i, li, j))
        for ri, boundary in boundaries:
            cur = key
            for direction in boundary:
                cur = table.get((cur, direction))
                if cur not in index:
                    break
            else:
                cells.append((i, ri))
    prefix = basepoint.letters
    return Ball(
        p, oracle, basepoint, r, tuple(Word._of(alphabet, prefix + path[k]) for k in keys),
        tuple(sorted(edges)), tuple(cells), tuple(len(path[k]) for k in keys), keys, base,
        table, sphere,
    )


def build_ball(oracle: WordOracle, p: Presentation, r: int, basepoint: Word | None = None) -> Ball:
    """The metric ball of radius r, built by one BFS over oracle element keys."""
    return _build(oracle, p, r, basepoint, sphere=False)


def build_sphere(oracle: WordOracle, p: Presentation, r: int, basepoint: Word | None = None) -> Ball:
    """The metric sphere: vertices at distance exactly r, edges/cells with all
    boundary vertices at distance exactly r."""
    return _build(oracle, p, r, basepoint, sphere=True)


# --- fundamental group generators (spanning tree) --------------------------------


@dataclass(frozen=True)
class LoopClassSet:
    ball: Ball
    generators: tuple[Word, ...]        # one loop per non-tree edge

    @property
    def rank(self) -> int:
        return len(self.generators)


def pi1_generators(ball: Ball) -> LoopClassSet:
    """Spanning-tree loop generators; each has length <= 2r+1.

    The tree is the BFS tree that names the vertices: a vertex's tree path
    is its name after the basepoint.  A loop through vertex p factors through
    geodesics to the basepoint, so each edge off the tree gives the generator
    tree-path * edge * reverse tree-path.
    """
    if ball.is_sphere and ball.radius:
        raise ValueError("loop generators need a ball, not a sphere")
    alphabet = ball.presentation.alphabet
    invol = alphabet.involutive
    paths = [v.letters[len(ball.basepoint) :] for v in ball.vertices]
    generators = []
    for i, li, j in ball.edges:
        against = (li, 1 if invol[li] else -1)  # the edge read from j to i
        if paths[j] == paths[i] + ((li, 1),) or paths[i] == paths[j] + (against,):
            continue  # a tree edge: it ends the path of j, or of i
        back = tuple((idx, exp if invol[idx] else -exp) for idx, exp in reversed(paths[j]))
        loop = Word._of(alphabet, paths[i] + ((li, 1),) + back)
        assert len(loop) <= 2 * ball.radius + 1, "generator exceeds the 2r+1 bound"
        generators.append(loop)
    lcs = LoopClassSet(ball, tuple(generators))
    assert lcs.rank == len(ball.edges) - len(paths) + 1
    return lcs


# --- null-homotopy search ---------------------------------------------------------


@dataclass(frozen=True)
class HomotopyMove:
    position: int
    removed: tuple[tuple[int, int], ...]
    inserted: tuple[tuple[int, int], ...]
    kind: str  # "free" or "relator"


@dataclass(frozen=True)
class Witness:
    start: Word
    moves: tuple[HomotopyMove, ...]
    region: Ball
    states_explored: int
    presentation: Presentation  # whose cells the relator moves slide across

    def replay(self) -> bool:
        """Re-apply every move; True iff each is legal and the loop dies
        inside the region.  A free move removes one cancelling pair and
        inserts nothing; a relator move is one of the presentation's
        `cell_moves`; every loop, first to last, closes inside the region."""
        current = self.start
        if not _loop_inside(self.region, current):
            return False
        invol = current.alphabet.involutive
        slides = {(u, ins) for u, ins, _, _ in self.presentation.cell_moves}
        for mv in self.moves:
            if mv.kind == "free":
                if mv.inserted or len(mv.removed) != 2:
                    return False
                (i, e), (j, f) = mv.removed
                if i != j or not (invol[i] or e == -f):
                    return False
            elif mv.kind != "relator" or (mv.removed, mv.inserted) not in slides:
                return False
            if current.letters[mv.position : mv.position + len(mv.removed)] != mv.removed:
                return False
            current = current.splice(mv.position, len(mv.removed), mv.inserted)
            if not _loop_inside(self.region, current):
                return False
        return free_reduce(current).is_empty()


def _loop_inside(region: Ball, loop: Word) -> bool:
    """True iff `loop` traces a closed path from the basepoint inside the region."""
    # the table has rows for the region's vertices only: leaving it finds None
    table = region.neighbours
    key = region.base_key
    for direction in loop.letters:
        key = table.get((key, direction))
        if key is None:
            return False
    return key == region.base_key and key in region._index


def _reduce_recording(word: Word):
    """Free-reduce while recording each cancellation as a HomotopyMove.

    One left-to-right stack pass.  The stack is always reduced, so the pair a
    new letter cancels with the stack top is the leftmost cancelling pair of
    the current word: the moves are those of cancelling leftmost-first.
    """
    moves = []
    stack: list[tuple[int, int]] = []
    invol = word.alphabet.involutive
    for idx, exp in word.letters:
        if stack:
            pidx, pexp = stack[-1]
            if pidx == idx and (invol[idx] or pexp == -exp):
                stack.pop()
                moves.append(HomotopyMove(len(stack), ((pidx, pexp), (idx, exp)), (), "free"))
                continue
        stack.append((idx, exp))
    return Word._of(word.alphabet, tuple(stack)), moves


def _splice_reduced(state: str, pos: int, end: int, red: str, inverse: dict) -> str:
    """free_reduce(state[:pos] + red + state[end:]) for coded reduced `state`
    and `red`: only the two seams cancel, the prefix tail against red, then
    what is left against the suffix."""
    i, j = pos, 0
    while i and j < len(red) and inverse[state[i - 1]] == red[j]:
        i -= 1
        j += 1
    head = state[:i] + red[j:]
    h, n = len(head), len(state)
    while h and end < n and inverse[head[h - 1]] == state[end]:
        h -= 1
        end += 1
    return head[:h] + state[end:]


def null_homotopy_search(
    oracle: WordOracle,
    p: Presentation,
    loop: Word,
    region: Ball,
    step_cap: int = 20_000,
) -> Witness:
    """Breadth-first search for a null-homotopy of `loop` inside `region`.

    States are free-reduced loops based at the region's basepoint; moves are
    free cancellations/insertions and relator-subword replacements, and every
    intermediate loop must trace inside the region.  Raises Exhausted after
    `step_cap` states; incompleteness is explicit.

    On entry every relator of `p` must be trivial under the oracle, or
    OracleMismatch is raised: a cell the group does not have would certify
    loops that do not die.  The cells are those of `p`, which may differ
    from the region's presentation.  A state is a str, one character per
    signed letter (`words.direction_codes`).  Each state's successors are
    tried move by move in `p.cell_moves` order, and for one move at
    ascending positions; that order fixes which parent first reaches a
    state, hence the witness and `states_explored`.  A candidate passes the
    walk of the inserted letters inside the region (memoised per move and
    start vertex for this search only), then the seam-cost splice, then the
    `seen` test: pure filters, whose order changes no answer.
    """
    _check_oracle(oracle, p)
    if not oracle.is_identity(loop):
        raise NotNullHomotopic(f"'{loop}' is not trivial under {oracle.describe()}")
    if not _loop_inside(region, loop):
        raise ValueError(f"loop '{loop}' does not stay inside the region")

    start, norm_moves = _reduce_recording(loop)
    if start.is_empty():
        return Witness(loop, tuple(norm_moves), region, 0, p)

    dirs, code = direction_codes(p.alphabet)
    invol = p.alphabet.involutive
    inverse = {code[(i, e)]: code[(i, e if invol[i] else -e)] for i, e in dirs}
    walks = [{} for _ in p.cell_moves]  # per move: start vertex -> end vertex or None
    table = region.neighbours
    first = "".join(map(code.get, start.letters))
    seen = {first: None}  # state -> (previous state, position, move index)
    queue = deque([first])
    explored = 0
    while queue:
        if explored >= step_cap:
            raise Exhausted(
                f"no null-homotopy within {step_cap} states", states_explored=explored
            )
        state = queue.popleft()
        explored += 1
        # at[i]: the vertex after the first i letters
        at = [region.base_key]
        for c in state:
            at.append(table[(at[-1], dirs[ord(c)])])
        for k, (_, ins, u, red) in enumerate(p.cell_moves):
            lu, ends = len(u), walks[k]
            pos = state.find(u)  # every position, 0 to len(state), for an empty u
            while pos >= 0:
                # the unreduced intermediate must stay inside too: the slide
                # across the cell happens before the spurs cancel.  Prefix and
                # suffix are paths of the inside state; ins runs from at[pos]
                # and, u ins^-1 being trivial, closes at at[pos + lu].
                vertex = at[pos]
                if vertex not in ends:
                    end = vertex
                    for direction in ins:  # None once it leaves: no row has key None
                        end = table.get((end, direction))
                    ends[vertex] = end
                if ends[vertex] == at[pos + lu]:
                    key = _splice_reduced(state, pos, pos + lu, red, inverse)
                    if key not in seen:
                        seen[key] = (state, pos, k)
                        if not key:
                            return _assemble_witness(loop, norm_moves, seen, p, dirs, region, explored)
                        queue.append(key)
                pos = state.find(u, pos + 1)
    raise Exhausted(
        f"state space exhausted after {explored} states without a null-homotopy",
        states_explored=explored,
    )


def _assemble_witness(loop, norm_moves, seen, p, dirs, region, explored) -> Witness:
    # walk parents back from the empty state, re-recording reductions as free moves
    chain = []
    key = ""
    while seen[key] is not None:
        chain.append(seen[key])
        key = seen[key][0]
    alphabet = p.alphabet
    moves = list(norm_moves)
    for prev, pos, k in reversed(chain):
        u, ins, _, _ = p.cell_moves[k]
        moves.append(HomotopyMove(pos, u, ins, "relator"))
        raw = tuple(dirs[ord(c)] for c in prev)
        moves.extend(_reduce_recording(Word._of(alphabet, raw[:pos] + ins + raw[pos + len(u) :]))[1])
    witness = Witness(loop, tuple(moves), region, explored, p)
    assert witness.replay(), "constructed witness failed to replay"
    return witness


# --- bounded invariants ------------------------------------------------------------


def pi1_kill_radius(
    oracle: WordOracle,
    p: Presentation,
    r: int,
    r_max: int,
    step_cap: int = 20_000,
) -> int:
    """Least R in [r, r_max] such that every loop generator of B(r) dies in B(R).

    Bounded analogue of the connectivity radius; monotone in step_cap.  Raises
    Exhausted when no R up to r_max certifies.
    """
    if r > r_max:
        raise ValueError("need r <= r_max")
    generators = pi1_generators(build_ball(oracle, p, r)).generators
    for R in range(r, r_max + 1):
        region = build_ball(oracle, p, R)
        try:
            for g in generators:
                null_homotopy_search(oracle, p, g, region, step_cap)
        except Exhausted:
            continue
        return R
    raise Exhausted(f"pi1(B({r})) still survives in B({r_max})")


def _closed_paths_up_to(region: Ball, max_length: int, cap: int = 500_000):
    """All closed paths of length < max_length based anywhere in the region,
    deduplicated as cyclic words up to rotation and inversion."""
    alphabet = region.presentation.alphabet
    dirs = directions(alphabet)
    index = region._index
    table = region.neighbours
    loops = {}
    budget = 0

    def dfs(start_key, vertex_key, word):
        nonlocal budget
        budget += 1
        if budget > cap:
            raise CombinatorialExplosion("closed-path enumeration exceeded its cap")
        if word and vertex_key == start_key:
            w = Word(alphabet, tuple(word))
            if not free_reduce(w).is_empty():
                key = min(v.letters for v in rotations_and_inverses(w))
                loops.setdefault(key, w)
        if len(word) >= max_length - 1:
            return
        for d in dirs:
            nxt = table.get((vertex_key, d))
            if nxt in index:
                word.append(d)
                dfs(start_key, nxt, word)
                word.pop()

    for key in region.keys:
        dfs(key, key, [])
    return list(loops.values())


def check_pi1_bounded_balls(
    oracle: WordOracle,
    p: Presentation,
    r: int,
    c: int,
    step_cap: int = 20_000,
) -> bool:
    """True iff every loop generator of B(r) is found (within bounds) to be a
    product of conjugates of loops of length < c.

    Implemented by gluing a cell along every closed path of length < c in the
    ball and searching for null-homotopies there.  False means not found
    within bounds, never a disproof.
    """
    ball = build_ball(oracle, p, r)
    generators = pi1_generators(ball).generators
    if not generators:
        return True
    # the short loops replace the presentation's cells entirely: a generator is
    # normally generated by short loops iff it dies using short-loop cells only
    loops = Presentation(p.alphabet, tuple(_closed_paths_up_to(ball, c)), p.name)
    for g in generators:
        try:
            null_homotopy_search(oracle, loops, g, ball, step_cap)
        except Exhausted:
            return False
    return True


# --- geodesic 0-combings -------------------------------------------------------------


@dataclass(frozen=True)
class Combing:
    """Per-vertex geodesic paths to the basepoint over the exhaustion by balls."""

    ball: Ball
    paths: tuple[Word, ...]  # path word from basepoint to each vertex

    def path_vertices(self, vi: int) -> list[int]:
        """Indices of the vertices the combing path to vertex vi passes through."""
        ball = self.ball
        key = ball.base_key
        out = [ball._index[key]]
        for direction in self.paths[vi].letters:
            key = ball.neighbours[(key, direction)]
            out.append(ball._index[key])
        return out

    def verify_tame(self) -> bool:
        """For every vertex and every n <= r: the portion of its combing path
        inside B(n) is a single initial segment.  That holds for every n
        exactly when the distances along the path never decrease: a drop at
        step t puts position t + 1 inside B(ds[t + 1]) and position t outside."""
        distances = self.ball.distances
        return all(
            _never_decreasing([distances[j] for j in self.path_vertices(vi)])
            for vi in range(len(self.ball.vertices))
        )


def _never_decreasing(ds) -> bool:
    return all(a <= b for a, b in zip(ds, ds[1:]))


def geodesic_0_combing(oracle: WordOracle, p: Presentation, r_max: int) -> Combing:
    """Combing by shortlex-first geodesics, built inductively over B(0) c B(1) c ...

    Each vertex of B(n) \\ B(n-1) extends a combing path of a distance-(n-1)
    neighbour by one edge, which is exactly the inductive construction that
    makes the combing tame.  The BFS tree that names the vertices realizes
    that induction: at the identity basepoint a vertex's name is its path.
    """
    ball = build_ball(oracle, p, max(r_max, 0))
    combing = Combing(ball, ball.vertices)
    assert combing.verify_tame(), "geodesic combing failed its tameness certificate"
    return combing
