"""Metric balls and spheres in Cayley 2-complexes, and bounded searches on them.

A vertex is an index into discovery (shortlex) order of the elements within
distance r; a ball's vertex 0 is its basepoint.  One breadth-first pass steps
oracle keys, which live only in that pass, once per vertex and direction, the
outer shell included, and records one row per vertex, whose entry k is the
neighbour in direction `Alphabet.directions`[k] or None outside: edges,
2-cells, loop tracing and combings read the rows.  The first row entry that
holds a vertex is the step that first reaches it, so the rows give each
vertex's first path (the shortlex-least geodesic from the basepoint, by
induction on distance); a vertex's name is the basepoint followed by it.
The ball keeps that tree, as (parent, column) per vertex after the
basepoint: `Ball.tree`.
An edge or 2-cell belongs to the ball exactly when all its boundary vertices
do.  On top of the complex: loop generators for the fundamental group from
the tree of those first paths (each of length <= 2r+1), breadth-first
null-homotopy search with replayable witnesses, the kill radius those
searches bound, and geodesic combings with a mechanically checked tameness
certificate.  All searches carry explicit caps: incompleteness is a visible
value, never a silent timeout.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .backends import WordOracle, _explore, _first_paths
from .errors import Exhausted, NotNullHomotopic, OracleMismatch
from .presentations import Presentation
from .words import Word, free_reduce


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
    # one row per vertex: entry k is the neighbour in direction k of
    # `Alphabet.directions`, as a vertex index, or None outside the ball
    neighbours: tuple[tuple[int | None, ...], ...] = field(compare=False, repr=False)
    # the BFS tree: (parent, column) per vertex after the basepoint, rows[parent][column]
    # the first row entry that holds it; () for a sphere, whose parents lie outside it
    tree: tuple[tuple[int, int], ...] = field(compare=False, repr=False)
    is_sphere: bool = False

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


def _build(oracle: WordOracle, p: Presentation, r: int, basepoint: Word | None, sphere: bool):
    if r < 0:
        raise ValueError("radius must be >= 0")
    _check_oracle(oracle, p)
    alphabet = p.alphabet
    if basepoint is None:
        basepoint = Word.identity(alphabet)
    dirs, column, invol = alphabet.directions, alphabet.columns, alphabet.involutive
    tree, rows = _explore(dirs, oracle.key(basepoint), oracle.step, r)
    paths = _first_paths(tree, dirs)
    if sphere:  # the last BFS layer: a suffix of discovery order, from vertex s on
        s = sum(len(path) < r for path in paths)
        paths = paths[s:]
        rows = [tuple(None if j is None or j < s else j - s for j in row) for row in rows[s:]]
        tree = ()
    # a cell's boundary path from its base vertex, its last edge closing it
    boundaries = [(ri, [column[d] for d in rel.letters[:-1]]) for ri, rel in enumerate(p.relators) if rel.letters]
    # read off the rows in vertex order, the edges come out sorted; an
    # involutive edge is kept from its lower end only
    edges = []
    cells = []
    for i, row in enumerate(rows):
        for (li, e), j in zip(dirs, row):
            if e == 1 and j is not None and (i <= j or not invol[li]):
                edges.append((i, li, j))
        for ri, boundary in boundaries:
            if _walk(rows, i, boundary) is not None:
                cells.append((i, ri))
    prefix = basepoint.letters
    return Ball(
        p, oracle, basepoint, r, tuple(Word._of(alphabet, prefix + path) for path in paths),
        tuple(edges), tuple(cells), tuple(map(len, paths)), tuple(rows), tuple(tree), sphere,
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
    generators: tuple[Word, ...]        # one loop per non-tree edge

    @property
    def rank(self) -> int:
        return len(self.generators)


def pi1_generators(ball: Ball) -> LoopClassSet:
    """Spanning-tree loop generators; each has length <= 2r+1.

    The tree is the BFS tree that names the vertices, `Ball.tree`: a
    vertex's tree path is its name after the basepoint.  A loop through
    vertex p factors through geodesics to the basepoint, so each edge off the
    tree gives the generator tree-path * edge * reverse tree-path.  An edge
    (i, a, j) is on the tree when j's entry is (i, column of a), or i's entry
    is (j, column of a read from j to i).
    """
    if ball.is_sphere and ball.radius:
        raise ValueError("loop generators need a ball, not a sphere")
    alphabet = ball.presentation.alphabet
    dirs, column, invol = alphabet.directions, alphabet.columns, alphabet.involutive
    tree = ball.tree
    back = [(idx, e if invol[idx] else -e) for idx, e in dirs]  # each column's inverse letter
    # each vertex's reverse tree path, one concatenation per vertex
    reverse = [()]
    for i, k in tree:
        reverse.append((back[k],) + reverse[i])
    paths = [v.letters[len(ball.basepoint) :] for v in ball.vertices]
    generators = []
    for i, li, j in ball.edges:
        k = column[(li, 1)]
        if (j and tree[j - 1] == (i, k)) or (i and tree[i - 1] == (j, column[back[k]])):
            continue
        loop = Word._of(alphabet, paths[i] + (dirs[k],) + reverse[j])
        if len(loop) > 2 * ball.radius + 1:
            raise RuntimeError(f"generator '{loop}' exceeds the 2r+1 bound")
        generators.append(loop)
    lcs = LoopClassSet(tuple(generators))
    if lcs.rank != len(ball.edges) - len(paths) + 1:
        raise RuntimeError(f"loop rank {lcs.rank} is not edges - vertices + 1")
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
    if region.is_sphere and region.radius:
        return False  # the basepoint is not a vertex of the sphere
    column = region.presentation.alphabet.columns
    return _walk(region.neighbours, 0, (column[d] for d in loop.letters)) == 0


def _walk(rows, vertex: int, columns) -> int | None:
    """The vertex reached from `vertex` along `columns` of the rows, or None
    once the path leaves the ball."""
    for k in columns:
        vertex = rows[vertex][k]
        if vertex is None:
            return None
    return vertex


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


def _core_length(word: str, inverse: dict) -> int:
    """The length of the cyclic core of a coded reduced word: the word less
    its matching x...x^-1 ends."""
    i, j = 0, len(word)
    while j - i > 1 and inverse[word[i]] == word[j - 1]:
        i += 1
        j -= 1
    return j - i


def _one_move_kills(state: str, moves, cores: set, inverse: dict):
    """The (position, move index) of every move of `moves` that splices the
    coded reduced `state` to nothing, in search order.

    Two necessary conditions prune the splices.  If prefix red suffix reduces
    to nothing, the state is freely prefix (u ins^-1) prefix^-1, a conjugate
    of a relator rotation: its cyclic core is as long as a relator's, one of
    `cores`.  And the suffix is then the inverse of what prefix red leaves
    once the prefix tail cancels into red, so d = len(state) - len(u) -
    len(red) is even and >= 0, and the position lies in [d/2, d/2 + len(red)].
    """
    if _core_length(state, inverse) not in cores:
        return
    for k, (_, _, u, red) in enumerate(moves):
        lu, lr = len(u), len(red)
        d = len(state) - lu - lr
        if d < 0 or d % 2:
            continue
        end = d // 2 + lr + lu  # the last position a match may start at, plus lu
        pos = state.find(u, d // 2, end)
        while pos >= 0:
            if not _splice_reduced(state, pos, pos + lu, red, inverse):
                yield pos, k
            pos = state.find(u, pos + 1, end)


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
    `step_cap` states; incompleteness is explicit.  The search keeps at most
    `step_cap` states: once the explored and queued states reach the cap (the
    frontier), a new state would never be popped, so it is not recorded,
    and once one has turned up, each state still popped is tested only for
    a move that kills it outright.

    On entry every relator of `p` must be trivial under the oracle, or
    OracleMismatch is raised: a cell the group does not have would certify
    loops that do not die; the region's own oracle and presentation were
    checked when it was built.  The cells are those of `p`, which may differ
    from the region's presentation.  A state is a str, one character per
    signed letter: chr of its `Alphabet.columns` column, the column of
    the region's rows it steps along.  Each state's successors are tried
    move by move in `p.cell_moves` order, and for one move at
    ascending positions; that order fixes which parent first reaches a
    state, hence the witness and `states_explored`.  A candidate passes the
    walk of the inserted letters inside the region (memoised per move and
    start vertex for this search only), then the seam-cost splice, then the
    `seen` test: pure filters, whose order changes no answer.
    """
    if oracle is not region.oracle or p is not region.presentation:  # else `_build` checked them
        _check_oracle(oracle, p)
    if not oracle.is_identity(loop):
        raise NotNullHomotopic(f"'{loop}' is not trivial under {oracle.describe()}")
    if not _loop_inside(region, loop):
        raise ValueError(f"loop '{loop}' does not stay inside the region")

    start, norm_moves = _reduce_recording(loop)
    if start.is_empty():
        return Witness(loop, tuple(norm_moves), region, 0, p)

    column = p.alphabet.columns
    invol = p.alphabet.involutive
    inverse = {chr(k): chr(column[(i, e if invol[i] else -e)]) for (i, e), k in column.items()}
    walks = [{} for _ in p.cell_moves]  # per move: start vertex -> end vertex or None
    rows = region.neighbours
    # the cyclic core lengths of the relators that give moves
    cores = {_core_length(red, inverse) for _, _, u, red in p.cell_moves if not u}
    first = "".join(chr(column[d]) for d in start.letters)
    seen = {first: None}  # state -> (previous state, position, move index)
    queue = deque([first])
    explored = 0
    beyond = False  # a new state turned up past the frontier
    while queue and explored < step_cap:
        state = queue.popleft()
        explored += 1
        if not beyond:
            # at[i]: the vertex after the first i letters
            at = [0]
            for c in state:
                at.append(rows[at[-1]][ord(c)])
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
                        ends[vertex] = _walk(rows, vertex, (column[d] for d in ins))
                    if ends[vertex] == at[pos + lu]:
                        key = _splice_reduced(state, pos, pos + lu, red, inverse)
                        if key not in seen:
                            if key and explored + len(queue) >= step_cap:
                                beyond = True  # the frontier: it would never be popped
                                break
                            seen[key] = (state, pos, k)
                            if not key:
                                return _assemble_witness(loop, norm_moves, seen, p, region, explored)
                            queue.append(key)
                    pos = state.find(u, pos + 1)
                if beyond:
                    break
        if beyond:  # no state queued from here is popped: only a kill counts
            # a move tried before the frontier killed nothing (a kill returns)
            # or fails its walk again, so the state's first kill is the next
            for pos, k in _one_move_kills(state, p.cell_moves, cores, inverse):
                _, ins, u, _ = p.cell_moves[k]
                vertex = _walk(rows, 0, map(ord, state[:pos]))
                if _walk(rows, vertex, (column[d] for d in ins)) == _walk(rows, vertex, map(ord, u)):
                    seen[""] = (state, pos, k)
                    return _assemble_witness(loop, norm_moves, seen, p, region, explored)
    if queue or beyond:
        raise Exhausted(f"no null-homotopy within {step_cap} states", states_explored=explored)
    raise Exhausted(
        f"state space exhausted after {explored} states without a null-homotopy",
        states_explored=explored,
    )


def _assemble_witness(loop, norm_moves, seen, p, region, explored) -> Witness:
    # walk parents back from the empty state, re-recording reductions as free moves
    chain = []
    key = ""
    while seen[key] is not None:
        chain.append(seen[key])
        key = seen[key][0]
    alphabet = p.alphabet
    dirs = alphabet.directions
    moves = list(norm_moves)
    for prev, pos, k in reversed(chain):
        u, ins, _, _ = p.cell_moves[k]
        moves.append(HomotopyMove(pos, u, ins, "relator"))
        raw = tuple(dirs[ord(c)] for c in prev)
        moves.extend(_reduce_recording(Word._of(alphabet, raw[:pos] + ins + raw[pos + len(u) :]))[1])
    witness = Witness(loop, tuple(moves), region, explored, p)
    if not witness.replay():
        raise RuntimeError("constructed witness failed to replay")
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
    Exhausted, with the states its searches explored, when no R up to r_max
    certifies: no search can show that a loop survives.
    """
    return kill_radius(build_ball(oracle, p, r), r_max, step_cap)


def kill_radius(ball: Ball, r_max: int, step_cap: int = 20_000) -> int:
    """`pi1_kill_radius` of the ball's oracle, presentation and radius, on the
    ball itself: the larger balls share its basepoint."""
    r, oracle, p = ball.radius, ball.oracle, ball.presentation
    if r > r_max:
        raise ValueError("need r <= r_max")
    generators = pi1_generators(ball).generators
    explored = 0
    for R in range(r, r_max + 1):
        region = ball if R == r else build_ball(oracle, p, R, ball.basepoint)
        try:
            for g in generators:
                explored += null_homotopy_search(oracle, p, g, region, step_cap).states_explored
        except Exhausted as exc:
            explored += exc.states_explored
            continue
        return R
    raise Exhausted(
        f"no R in [{r}, {r_max}] certified that the loop generators of B({r}) die in B(R) "
        f"within {step_cap} states per search",
        states_explored=explored,
    )


# --- geodesic 0-combings -------------------------------------------------------------


@dataclass(frozen=True)
class Combing:
    """Per-vertex geodesic paths to the basepoint over the exhaustion by balls."""

    ball: Ball
    paths: tuple[Word, ...]  # path word from basepoint to each vertex

    def path_vertices(self, vi: int) -> list[int]:
        """Indices of the vertices the combing path to vertex vi passes
        through; ValueError if it leaves the ball."""
        rows = self.ball.neighbours
        column = self.ball.presentation.alphabet.columns
        path = self.paths[vi]
        out = [0]
        for t, direction in enumerate(path.letters):
            out.append(rows[out[-1]][column[direction]])
            if out[-1] is None:
                raise ValueError(
                    f"combing path '{path}' of vertex {vi} ({self.ball.vertices[vi]}) leaves "
                    f"the ball at its letter {t + 1}, '{Word._of(path.alphabet, (direction,))}'"
                )
        return out

    def verify_tame(self) -> bool:
        """For every vertex and every n <= r: its combing path ends at it,
        inside the ball, and the portion inside B(n) is a single initial
        segment.  That holds for every n exactly when the distances along
        the path never decrease: a drop at step t puts position t + 1 inside
        B(ds[t + 1]) and position t outside.  A path that extends an earlier
        vertex's path by one letter takes that path's verdict and checks its
        last step; any other path is walked whole, so a geodesic combing
        costs one row lookup per vertex."""
        rows = self.ball.neighbours
        column = self.ball.presentation.alphabet.columns
        distances = self.ball.distances
        ends = {}  # the vertex of each path found tame so far
        for vi in range(len(self.ball.vertices)):
            path = self.paths[vi].letters
            start = ends.get(path[:-1]) if path else None
            if start is not None:
                walk = (start, rows[start][column[path[-1]]])
            else:
                try:
                    walk = self.path_vertices(vi)
                except ValueError:
                    return False
            if walk[-1] != vi or not _never_decreasing([distances[j] for j in walk]):
                return False
            ends[path] = vi
        return True


def _never_decreasing(ds) -> bool:
    return all(a <= b for a, b in zip(ds, ds[1:]))


def geodesic_0_combing(oracle: WordOracle, p: Presentation, r_max: int) -> Combing:
    """Combing by shortlex-first geodesics, built inductively over B(0) c B(1) c ...

    Each vertex of B(n) \\ B(n-1) extends a combing path of a distance-(n-1)
    neighbour by one edge, which is exactly the inductive construction that
    makes the combing tame.  The BFS tree that names the vertices realizes
    that induction: at the identity basepoint a vertex's name is its path.
    """
    ball = build_ball(oracle, p, r_max)
    combing = Combing(ball, ball.vertices)
    if not combing.verify_tame():
        raise RuntimeError("geodesic combing failed its tameness certificate")
    return combing
