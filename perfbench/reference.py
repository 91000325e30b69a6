"""Reference answers computed without the gpq package.

Every group the benchmark uses has a faithful model here: integer vectors for
Z^k, reduced letter tuples for free groups, the affine maps x -> 2^k x + q for
B(1,2), and permutations of a regular polygon's corners for dihedral groups.
Words are tuples of (letter index, exponent) pairs, exactly as gpq stores
them, so answers can be compared letter for letter.  Nothing in this module
imports gpq: it is the independent side of every check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product


# --- words ---------------------------------------------------------------------


def normalize(word, invol):
    """Involutive letters are always stored with exponent +1."""
    return tuple((i, 1 if invol[i] else e) for i, e in word)


def inverse(word, invol):
    return tuple((i, 1 if invol[i] else -e) for i, e in reversed(word))


def free_reduce(word, invol):
    stack = []
    for i, e in word:
        if stack and stack[-1][0] == i and (invol[i] or stack[-1][1] == -e):
            stack.pop()
        else:
            stack.append((i, e))
    return tuple(stack)


def substitute(images, word):
    """Letterwise image of a positive word; images[i] is the image of letter i."""
    out = []
    for i, e in word:
        if e != 1:
            raise ValueError("substitution of a negative letter")
        out.extend(images[i])
    return tuple(out)


def substitute_signed(images, word, invol):
    out = []
    for i, e in word:
        out.extend(images[i] if e == 1 else inverse(images[i], invol))
    return tuple(out)


def word_text(word, names):
    return " ".join(names[i] + ("" if e == 1 else "'") for i, e in word)


def relator_variants(relators, invol):
    """Every cyclic rotation of every relator and of its inverse."""
    out = set()
    for rel in relators:
        for base in (normalize(rel, invol), inverse(rel, invol)):
            for k in range(len(base)):
                out.add(base[k:] + base[:k])
    return out


# --- group models ---------------------------------------------------------------


class Abelian:
    """Z^k: a word is its exponent-sum vector."""

    def __init__(self, k):
        self.identity = (0,) * k

    def step(self, state, letter):
        i, e = letter
        out = list(state)
        out[i] += e
        return tuple(out)

    def evaluate(self, word):
        out = list(self.identity)
        for i, e in word:
            out[i] += e
        return tuple(out)


class Free:
    """Free product of Z and Z/2 factors: a word is its reduced form."""

    def __init__(self, invol):
        self.invol = invol
        self.identity = ()

    def step(self, state, letter):
        return free_reduce(state + (letter,), self.invol)

    def evaluate(self, word):
        return free_reduce(tuple(word), self.invol)


class AffineBS:
    """B(1,n) as the maps x -> n^k x + q; a -> (k+1), b -> (q + n^k)."""

    def __init__(self, n=2):
        self.n = n
        self.identity = (0, Fraction(0))

    def step(self, state, letter):
        k, q = state
        i, e = letter
        if i == 0:
            return (k + e, q)
        return (k, q + e * Fraction(self.n) ** k)

    def evaluate(self, word):
        k, q = self.identity
        for (i, e), run in groupby(word):
            m = sum(1 for _ in run) * e
            if i == 0:
                k += m
            else:
                q += m * Fraction(self.n) ** k
        return (k, q)


class Dihedral:
    """D_2m acting on the corners of a regular m-gon; both letters are
    reflections whose product is a rotation by one corner."""

    def __init__(self, m):
        self.gens = (
            tuple((-x) % m for x in range(m)),
            tuple((1 - x) % m for x in range(m)),
        )
        self.identity = tuple(range(m))

    def step(self, state, letter):
        g = self.gens[letter[0]]
        return tuple(state[x] for x in g)

    def evaluate(self, word):
        state = self.identity
        for letter in word:
            state = self.step(state, letter)
        return state


@dataclass(frozen=True)
class Group:
    """A presented group: letter names, involution flags, relators, model."""

    names: tuple
    invol: tuple
    relators: tuple
    model: object

    def gens_text(self):
        return ", ".join(n + ("!" if inv else "") for n, inv in zip(self.names, self.invol))

    def relator_texts(self):
        return [word_text(r, self.names) for r in self.relators]


_A, _B, _C = (0, 1), (1, 1), (2, 1)
_a, _b, _c = (0, -1), (1, -1), (2, -1)

GROUPS = {
    "z2": Group(("a", "b"), (False, False), ((_A, _B, _a, _b),), Abelian(2)),
    "z3": Group(
        ("a", "b", "c"),
        (False, False, False),
        ((_A, _B, _a, _b), (_A, _C, _a, _c), (_B, _C, _b, _c)),
        Abelian(3),
    ),
    "f2": Group(("a", "b"), (False, False), (), Free((False, False))),
    "bs12": Group(("a", "b"), (False, False), ((_A, _B, _a, _b, _b),), AffineBS(2)),
    "d8": Group(("a", "d"), (True, True), ((_A, _A), (_B, _B), (_A, _B) * 4), Dihedral(4)),
    "d16": Group(("a", "d"), (True, True), ((_A, _A), (_B, _B), (_A, _B) * 8), Dihedral(8)),
}

# Geodesic rewriting systems, rule for rule as the module docstrings of
# gpq.rewriting describe them: D_2m over involutions x, y with
# (y x)^(m/2) -> (x y)^(m/2), and Z^2 with normal forms a^p b^q.
SYSTEMS = {
    "d8": ("d8", (((_A, _A), ()), ((_B, _B), ()), ((_B, _A) * 2, (_A, _B) * 2))),
    "d16": ("d16", (((_A, _A), ()), ((_B, _B), ()), ((_B, _A) * 4, (_A, _B) * 4))),
    "z2": (
        "z2",
        (
            ((_A, _a), ()),
            ((_a, _A), ()),
            ((_B, _b), ()),
            ((_b, _B), ()),
            ((_B, _A), (_A, _B)),
            ((_B, _a), (_a, _B)),
            ((_b, _A), (_A, _b)),
            ((_b, _a), (_a, _b)),
        ),
    ),
}


def directions(invol):
    dirs = []
    for i, inv in enumerate(invol):
        dirs.append((i, 1))
        if not inv:
            dirs.append((i, -1))
    return dirs


# --- Cayley balls -----------------------------------------------------------------


def bfs_distances(model, invol, start, r):
    dist = {start: 0}
    frontier = [start]
    dirs = directions(invol)
    for d in range(1, r + 1):
        nxt = []
        for s in frontier:
            for letter in dirs:
                t = model.step(s, letter)
                if t not in dist:
                    dist[t] = d
                    nxt.append(t)
        frontier = nxt
    return dist


def lattice_distances(start, r):
    """Integer points of Z^k within l1 distance r of `start`, enumerated directly."""
    k = len(start)
    out = {}
    for xs in product(range(-r, r + 1), repeat=k):
        d = sum(abs(x) for x in xs)
        if d <= r:
            out[tuple(s + x for s, x in zip(start, xs))] = d
    return out


def cayley_counts(model, invol, relators, states):
    """Edges and 2-cells of the Cayley complex with every vertex in `states`."""
    edges = 0
    for i, inv in enumerate(invol):
        hits = sum(1 for s in states if model.step(s, (i, 1)) in states)
        edges += hits // 2 if inv else hits
    cells = 0
    for rel in relators:
        if not rel:
            continue
        for s in states:
            cur = s
            for letter in rel[:-1]:
                cur = model.step(cur, letter)
                if cur not in states:
                    break
            else:
                cells += 1
    return edges, cells


def reference_ball(group, basepoint, r, sphere=False):
    """(distance by state, V, E, C) of the ball or sphere of radius r."""
    model = group.model
    start = model.evaluate(basepoint)
    if isinstance(model, Abelian):
        dist = lattice_distances(start, r)
    else:
        dist = bfs_distances(model, group.invol, start, r)
    if sphere:
        dist = {s: d for s, d in dist.items() if d == r}
    states = set(dist)
    edges, cells = cayley_counts(model, group.invol, group.relators, states)
    return dist, len(states), edges, cells


def free_closed_form(k, r, sphere=False):
    """(V, E, C) of a ball or sphere in the free group of rank k."""
    if sphere:
        return (1 if r == 0 else 2 * k * (2 * k - 1) ** (r - 1)), 0, 0
    v = 1 + sum(2 * k * (2 * k - 1) ** (j - 1) for j in range(1, r + 1))
    return v, v - 1, 0


def words_up_to(invol, length):
    """Number of words of length <= `length` (one symbol per involutive letter)."""
    s = len(directions(invol))
    return sum(s**n for n in range(length + 1))


def identity_words_up_to(model, invol, length):
    dirs = directions(invol)
    out = set()
    for n in range(length + 1):
        for w in product(dirs, repeat=n):
            if model.evaluate(w) == model.identity:
                out.add(w)
    return out


# --- replayable answers -------------------------------------------------------------


def loop_inside(model, word, states):
    """Whether the path of `word` from the identity visits only `states`."""
    state = model.identity
    if state not in states:
        return False
    for letter in word:
        state = model.step(state, letter)
        if state not in states:
            return False
    return True


def check_homotopy(start, moves, relators, invol, model, region):
    """Independent replay of a null-homotopy: every move is a free cancellation
    or a relator slide, every intermediate loop stays inside `region` (a set of
    model states, based at the identity) and the last loop reduces to nothing.
    Returns an error string or None."""
    variants = relator_variants(relators, invol)
    current = tuple(start)
    if not loop_inside(model, current, region):
        return "start loop leaves the region"
    for k, (pos, removed, inserted, kind) in enumerate(moves):
        if current[pos : pos + len(removed)] != removed:
            return f"move {k}: removed letters not found at {pos}"
        if kind == "free":
            if inserted or len(removed) != 2 or free_reduce(removed, invol):
                return f"move {k}: not a free cancellation"
        elif kind == "relator":
            if removed + inverse(inserted, invol) not in variants:
                return f"move {k}: not a relator slide"
        else:
            return f"move {k}: unknown kind {kind!r}"
        current = current[:pos] + inserted + current[pos + len(removed) :]
        if not loop_inside(model, current, region):
            return f"move {k}: loop leaves the region"
    if free_reduce(current, invol):
        return "final loop is not freely trivial"
    return None


def check_rewrite_trace(rules, word, steps, result):
    """steps: (before, rule index, position, after) letter tuples.
    Returns an error string or None."""
    current = tuple(word)
    for k, (before, ri, pos, after) in enumerate(steps):
        lhs, rhs = rules[ri]
        if before != current:
            return f"step {k} does not chain"
        if before[pos : pos + len(lhs)] != lhs:
            return f"step {k}: rule {ri} does not match at {pos}"
        if after != before[:pos] + rhs + before[pos + len(lhs) :]:
            return f"step {k}: wrong splice"
        current = after
    if current != tuple(result):
        return "trace does not end at the result"
    for lhs, _ in rules:
        for p in range(len(current) - len(lhs) + 1):
            if current[p : p + len(lhs)] == lhs:
                return "result is not irreducible"
    return None


def find_pinch(word, t):
    """Innermost t^e u t^-e with u free of t, as (start, end, e), or None."""
    last = None
    for k, (i, e) in enumerate(word):
        if i != t:
            continue
        if last is not None and last[1] == -e:
            return last[0], k, last[1]
        last = (k, e)
    return None


def check_pinch_trace(word, steps, result, images, invol, t):
    """steps: (before, position, length, replacement, kind) letter tuples.
    Returns an error string or None."""
    current = tuple(word)
    stable = sum(1 for i, _ in current if i == t)
    for k, (before, pos, length, repl, kind) in enumerate(steps):
        if before != current:
            return f"pinch {k} does not chain"
        seg = current[pos : pos + length]
        if len(seg) < 2 or seg[0][0] != t or seg[-1][0] != t or seg[0][1] != -seg[-1][1]:
            return f"pinch {k}: segment is not bounded by opposite stable letters"
        middle = seg[1:-1]
        if any(i == t for i, _ in middle):
            return f"pinch {k}: stable letter inside the pinch"
        if kind == "expand":
            if seg[0][1] != 1 or repl != substitute_signed(images, middle, invol):
                return f"pinch {k}: wrong expansion"
        elif kind == "decode":
            if seg[0][1] != -1 or substitute(images, repl) != free_reduce(middle, invol):
                return f"pinch {k}: wrong decoding"
        else:
            return f"pinch {k}: unknown kind {kind!r}"
        current = current[:pos] + repl + current[pos + length :]
        now = sum(1 for i, _ in current if i == t)
        if now != stable - 2:
            return f"pinch {k}: stable letters did not drop by two"
        stable = now
    if current != tuple(result):
        return "pinch trace does not end at the result"
    return None
