"""Independent test oracles, kept out of the library on purpose.

`group_order` runs a small HLT-style coset enumeration over the trivial
subgroup: the order of a finitely presented finite group, computed without
touching any library word machinery beyond reading the presentation.

`free_product_nf` is the syllable normal form in (finite group) * (free
product of involutions), found by rewriting one step at a time until nothing
changes; the library computes the same form in one pass.

`reduce_recording_restart` and `decode_by_tuples` are the earlier, slower
forms of the library's recorded free reduction (cancel the leftmost pair,
rescan from the left) and of its decoding dynamic programme (a whole source
tuple per suffix), kept as references for the one-pass forms.

`family_of_word` is the earlier record of one relator family at one n, read
off the whole word w_n: basic_relation's conjugators, cancelled by
`cancel_pieces`, and the core w_{n+1} built and translated, with a normal
form pass over it each; a reference for the library's records, folded
level by level from letter tables without building w_n.

`search_whole_words` is the earlier null-homotopy search, which builds,
free-reduces and walks every candidate loop in full, and `rewrite_restart`
the earlier rewriting loop, which rescans from the left after every step:
references for the library's seam-cost search and resumed scan.

`witness_word_by_word` is the earlier enumeration of
`rewriting.ball_null_homotopy_witness`'s candidates: one `Word` per
candidate, rewritten by `rewrite_restart`, with each step of an identity
word's trace built by the `ReductionStep` constructor; a reference for the
library's coded candidates and its steps built past `__init__`.

`pi1_generators_second_bfs` is the earlier loop-generator construction,
which finds a spanning tree by a second breadth-first search over an
adjacency list with sorted rows; a reference for the library's reading of
the tree that names the vertices.

`pi1_generators_by_paths` is the earlier reading of that tree, which tells
a tree edge by comparing its ends' whole paths and reverses a path per
generator; a reference for the library's reading of the tree entries.

`closed_paths_up_to` enumerates the short closed paths of a ball, deduplicated
as cyclic words: test data for searches whose cells are short loops rather
than a presentation's relators.

`words_of_length_recursive` is the earlier recursive enumeration of the
words of one length, kept as a reference for `words.words_of_length`.

`phi0_letterwise` is the letterwise map a -> aca, b -> d, d -> c on positive
a,b,d-words; the library's composite translate_bd_to_cd(apply_substitution(
sigma_abd, .)) computes the same map, and the coherence tests check the two
agree.

`closure_table` is the earlier finite-group closure: a shortlex BFS over
words names each element by the first word that reaches it, then every
product and inverse is composed or scanned for; a reference for the
tables that `FiniteGroupTable` reads off its breadth-first rows.
`dihedral_closure`, `klein_closure` and `cyclic_closure` give it the same
generator values as the library's named groups.

`evaluate_affine` is the faithful affine model of B(1,n) (a: x -> n x,
b: x -> x + 1), against which the tests check the oracle's keys;
`cyclically_reduce` is the cyclic reduction of a word; `is_associative`
checks a finite group table's `mul` on every triple.

`expand_by_sequences` is the earliest relator expansion, which applies each
composition sequence from its relator in full, and `expand_by_levels` the
later one, which applies one substitution per relator and level to the
images of the level before; references for the library's expansion, which
concatenates letter tables.

`verify_whole_words` is the earlier Grigorchuk verification case, on whole
words: it concatenates the transport pieces of the conjugated relation and
free-reduces the result, builds the expected word from w_{n+1} iterated from
the seed, and takes each of the four normal forms in a pass over its word;
a reference for the library's seam joins and memoised core normal forms.
It returns a `WholeWordReport`, its own record with the fields and the
`to_dict()` of the library's `VerificationReport`, so that nothing of the
library's report (its lengths, its words joined on first read, its level)
stands in the reference.

`tokenize_by_characters` and `word_letters_recursive` are the earlier
tokenizer of the text format, a branch per character class, and its earlier
word grammar, a recursive descent with one call per open group; references
for the library's one-pattern tokenizer and its loop over a stack of groups.

`transport_induced_relation` expands a conjugated-b relator into a word over
a,c,d, and `assemble` gives the letters, Klein form and dihedral form of a
factor's pieces C_g d C_g^-1, from the chunks `pieces_of` lists: all read
the library's transport chunks the way its verification cases do, so the
tests can check that path against whole-word reductions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product

from gpq.errors import DegenerateCase, LimitExceeded, ParseError
from gpq.grigorchuk import _Chunk, _Family, _fold
from gpq.induction import basic_relation, conjugate_relation
from gpq.rewriting import NullHomotopyCertificate, ReductionStep, ReductionTrace
from gpq.words import Word, apply_substitution, free_reduce, rotations_and_inverses, words_up_to_length


def closure_table(alphabet, values, compose, identity):
    """(element_names, mul, inv, generator_map) of the group that the
    letters' values generate under `compose`."""
    syms = alphabet.directions
    sym_values = {}
    for idx, exp in syms:
        v = values[idx]
        if exp == -1:  # finite order: invert by repeated composition
            w, prev = v, identity
            while w != identity:
                prev, w = w, compose(w, v)
            v = prev
        sym_values[(idx, exp)] = v
    elems = {identity: 0}
    names = [Word.identity(alphabet)]
    value_list = [identity]
    frontier = [(names[0], identity)]
    while frontier:
        new_frontier = []
        for word, val in frontier:
            for sym in syms:
                nval = compose(val, sym_values[sym])
                if nval not in elems:
                    elems[nval] = len(value_list)
                    nword = Word(alphabet, word.letters + (sym,))
                    names.append(nword)
                    value_list.append(nval)
                    new_frontier.append((nword, nval))
        frontier = new_frontier
    n = len(value_list)
    mul = tuple(tuple(elems[compose(value_list[i], value_list[j])] for j in range(n)) for i in range(n))
    inv = tuple(next(j for j in range(n) if mul[i][j] == 0) for i in range(n))
    gmap = tuple(elems[values[i]] for i in range(len(alphabet)))
    return tuple(names), mul, inv, gmap


def dihedral_closure(alphabet, order):
    """`closure_table` of `dihedral_group(order)`: its two letters the
    reflections (0, 1) and (1, 1) of (Z/m) x| (Z/2), order = 2m."""
    m = order // 2

    def compose(p, q):
        return ((p[0] + (q[0] if p[1] == 0 else -q[0])) % m, (p[1] + q[1]) % 2)

    return closure_table(alphabet, [(0, 1), (1 % m, 1)], compose, (0, 0))


def klein_closure(alphabet):
    """`closure_table` of `klein_group()`, on (Z/2)^2."""
    compose = lambda p, q: ((p[0] + q[0]) % 2, (p[1] + q[1]) % 2)  # noqa: E731
    return closure_table(alphabet, [(1, 0), (0, 1)], compose, (0, 0))


def cyclic_closure(alphabet, n):
    """`closure_table` of `cyclic_group(n)`, on Z/n."""
    return closure_table(alphabet, [1 % n], lambda p, q: (p + q) % n, 0)


def evaluate_affine(n, word):
    """(k, q) with the B(1,n) word acting as x -> n^k x + q, for a: x -> n x
    and b: x -> x + 1.  Appending a letter composes on the right, so b
    contributes n^k at the current scale k."""
    k = 0
    q = Fraction(0)
    for idx, exp in word.letters:
        if idx == 0:
            k += exp
        else:
            q += exp * Fraction(n) ** k
    return k, q


def cyclically_reduce(word):
    """The free reduction of `word` with cancelling first and last letters
    stripped until none are left."""
    letters = list(free_reduce(word).letters)
    invol = word.alphabet.involutive
    while len(letters) >= 2:
        (i0, e0), (i1, e1) = letters[0], letters[-1]
        if i0 == i1 and (invol[i0] or e0 == -e1):
            letters = letters[1:-1]
        else:
            break
    return Word(word.alphabet, tuple(letters))


def is_associative(table):
    """True iff (ij)k = i(jk) for every triple of the table's elements."""
    mul = table.mul
    n = len(mul)
    return all(mul[mul[i][j]][k] == mul[i][mul[j][k]] for i in range(n) for j in range(n) for k in range(n))


def _symbols(alphabet):
    """Symbol list: one per letter, plus a distinct inverse for non-involutive
    letters.  Returns (symbols as (letter, exp), inverse-symbol index map)."""
    syms = []
    for i in range(len(alphabet)):
        syms.append((i, 1))
        if not alphabet.involutive[i]:
            syms.append((i, -1))
    inv = {}
    index = {s: k for k, s in enumerate(syms)}
    for k, (i, e) in enumerate(syms):
        if alphabet.involutive[i]:
            inv[k] = k
        else:
            inv[k] = index[(i, -e)]
    return syms, inv, index


def group_order(presentation, limit: int = 50_000) -> int:
    """Order of the presented group by coset enumeration (trivial subgroup).

    Raises RuntimeError when `limit` cosets are exceeded (group too large or
    enumeration diverging); intended for desk-scale groups only.
    """
    alphabet = presentation.alphabet
    syms, inv, index = _symbols(alphabet)
    nsyms = len(syms)

    relator_paths = []
    for rel in presentation.relators:
        path = []
        for i, e in rel.letters:
            path.append(index[(i, e if not alphabet.involutive[i] else 1)])
        if path:
            relator_paths.append(path)
    # involutive letters contribute implicit square relators
    for i in range(len(alphabet)):
        if alphabet.involutive[i]:
            s = index[(i, 1)]
            relator_paths.append([s, s])

    table = [[None] * nsyms]
    rep = [0]

    def find(c):
        while rep[c] != c:
            rep[c] = rep[rep[c]]
            c = rep[c]
        return c

    def define(c, s):
        table.append([None] * nsyms)
        rep.append(len(table) - 1)
        d = len(table) - 1
        table[c][s] = d
        table[d][inv[s]] = c
        if len(table) > limit:
            raise RuntimeError(f"coset enumeration exceeded {limit} cosets")
        return d

    def merge(a, b, queue):
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        rep[b] = a
        for s in range(nsyms):
            t = table[b][s]
            if t is None:
                continue
            if table[a][s] is None:
                table[a][s] = t
                tt = find(t)
                if table[tt][inv[s]] is None:
                    table[tt][inv[s]] = a
                else:
                    queue.append((table[tt][inv[s]], a))
            else:
                queue.append((table[a][s], t))

    def process(queue):
        while queue:
            merge(*queue.pop(), queue)

    def scan(c, path):
        # forward
        f, fi = find(c), 0
        while fi < len(path):
            nxt = table[f][path[fi]]
            if nxt is None:
                break
            f, fi = find(nxt), fi + 1
        if fi == len(path):
            if f != find(c):
                q = [(f, find(c))]
                process(q)
            return
        # backward
        b, bi = find(c), len(path)
        while bi > fi:
            prv = table[b][inv[path[bi - 1]]]
            if prv is None:
                break
            b, bi = find(prv), bi - 1
        if bi == fi:
            q = [(b, f)] if b != f else []
            process(q)
        elif bi == fi + 1:
            table[f][path[fi]] = b
            table[b][inv[path[fi]]] = f
        else:
            # fill one gap and rescan
            define(f, path[fi])
            scan(c, path)

    c = 0
    while c < len(table):
        if find(c) != c:
            c += 1
            continue
        for path in relator_paths:
            if find(c) != c:
                break
            scan(c, path)
        if find(c) == c:
            for s in range(nsyms):
                if table[c][s] is None:
                    define(c, s)
        c += 1

    live = {find(i) for i in range(len(table))}
    # closure sanity: every live coset has a fully defined, live row
    for c in live:
        for s in range(nsyms):
            assert table[c][s] is not None
    return len(live)


def free_product_nf(word, table, passthrough):
    """Syllable normal form of `word` in (group of `table`) * (free product of
    the involutive `passthrough` letters), as int syllables: a table element
    g > 0 as itself, a passthrough letter as -1 - its index in the word's
    alphabet.

    Letters of the table's alphabet form 't' blocks.  Until no rule applies:
    join two adjacent blocks, drop a block that evaluates to the identity, or
    cancel two adjacent equal passthrough letters.  Each rule is an equality
    in the free product, and the reduced form is unique, so the order of the
    rewrites does not matter.  Raises ValueError for any other letter.
    """
    items = []
    for idx, exp in word.letters:
        name = word.alphabet.letters[idx]
        if name in table.alphabet.letters:
            items.append(("t", ((table.alphabet.index(name), exp),)))
        elif name in passthrough:
            items.append(("p", name))
        else:
            raise ValueError(f"letter {name!r} is neither embedded nor passthrough")

    def evaluate(block):
        return table.evaluate(Word(table.alphabet, block))

    def rewrite_once():
        for i, (kind, value) in enumerate(items):
            if kind == "t" and evaluate(value) == 0:
                del items[i]
                return True
            if i + 1 < len(items):
                nxt_kind, nxt_value = items[i + 1]
                if kind == nxt_kind == "t":
                    items[i : i + 2] = [("t", value + nxt_value)]
                    return True
                if kind == nxt_kind == "p" and value == nxt_value:
                    del items[i : i + 2]
                    return True
        return False

    while rewrite_once():
        pass
    return tuple(evaluate(v) if k == "t" else -1 - word.alphabet.index(v) for k, v in items)


def reduce_recording_restart(letters, involutive):
    """Free reduction of a letter tuple by cancelling the leftmost cancelling
    pair and rescanning from the left; returns the reduced letters and one
    (position, removed pair) per cancellation."""
    moves = []
    changed = True
    while changed:
        changed = False
        for k in range(len(letters) - 1):
            (i1, e1), (i2, e2) = letters[k], letters[k + 1]
            if i1 == i2 and (involutive[i1] or e1 == -e2):
                moves.append((k, (letters[k], letters[k + 1])))
                letters = letters[:k] + letters[k + 2 :]
                changed = True
                break
    return letters, moves


def decode_by_tuples(images, letters):
    """Shortlex-least source letters of `letters` under the letter images and
    whether two or more parses exist; (None, False) when there is no parse.

    Keeps the whole least source tuple of every suffix."""
    n = len(letters)
    best = [None] * (n + 1)
    counts = [0] * (n + 1)
    best[n] = ()
    counts[n] = 1
    for pos in range(n - 1, -1, -1):
        options = []
        total = 0
        for li, img in enumerate(images):
            end = pos + len(img)
            if end <= n and letters[pos:end] == img and best[end] is not None:
                options.append(((li, 1),) + best[end])
                total += counts[end]
        if options:
            best[pos] = min(options, key=lambda src: (len(src), src))
            counts[pos] = min(total, 2)
    return best[0], counts[0] > 1


def expand_by_sequences(ep, depth):
    """The (sequence, relator index, word) list of expand_relators_annotated,
    each composite applied from its relator."""
    out, seen = [], set()
    for qi, q in enumerate(ep.q_relators):
        if q.letters not in seen:
            seen.add(q.letters)
            out.append(((), -1 - qi, q))
    for k in range(depth + 1):
        for seq in product(range(len(ep.substitutions)), repeat=k):
            for ri, w in enumerate(ep.r_relators):
                for i in reversed(seq):  # phi_{i1} applied last
                    w = apply_substitution(ep.substitutions[i], w)
                if w.letters not in seen:
                    seen.add(w.letters)
                    out.append((seq, ri, w))
    return out


def expand_by_levels(ep, depth):
    """The (sequence, relator index, word) list of expand_relators_annotated:
    the images under (i1, ..., ik) are phi_{i1} of the kept images under
    (i2, ..., ik)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    out, seen = [], set()

    def emit(seq, ri, w):
        if w.letters not in seen:
            seen.add(w.letters)
            out.append((seq, ri, w))

    for qi, q in enumerate(ep.q_relators):
        emit((), -1 - qi, q)
    subs = ep.substitutions
    level = {(): ep.r_relators}
    for k in range(depth + 1):
        if k:
            level = {
                seq: tuple(apply_substitution(subs[seq[0]], w) for w in level[seq[1:]])
                for seq in product(range(len(subs)), repeat=k)
            }
        for seq, images in level.items():
            for ri, w in enumerate(images):
                emit(seq, ri, w)
    return out


def closed_paths_up_to(region, max_length):
    """All closed paths of length < max_length based anywhere in the region,
    that do not cancel freely, deduplicated as cyclic words up to rotation and
    inversion: the first found of each class, depth first."""
    alphabet = region.presentation.alphabet
    rows = region.neighbours
    loops = {}

    def dfs(start, vertex, word):
        if word and vertex == start:
            w = Word(alphabet, tuple(word))
            if not free_reduce(w).is_empty():
                loops.setdefault(min(v.letters for v in rotations_and_inverses(w)), w)
        if len(word) >= max_length - 1:
            return
        for direction, nxt in zip(alphabet.directions, rows[vertex]):
            if nxt is not None:
                word.append(direction)
                dfs(start, nxt, word)
                word.pop()

    for v in range(len(rows)):
        dfs(v, v, [])
    return list(loops.values())


def words_of_length_recursive(alphabet, length):
    """Letter tuples of every word of the given length over `alphabet`: a
    depth-first walk appending x, then x' unless x is involutive, letter by
    letter in alphabet order."""
    syms, _, _ = _symbols(alphabet)
    out = []

    def rec(prefix):
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        for sym in syms:
            prefix.append(sym)
            rec(prefix)
            prefix.pop()

    rec([])
    return out


def phi0_letterwise(data, word):
    """a -> aca, b -> d, d -> c letter by letter on a positive a,b,d-word,
    free-reduced over a,c,d."""
    images = {"a": "a c a", "b": "d", "d": "c"}
    out = []
    for idx, exp in word.letters:
        assert exp == 1, "letterwise maps apply to positive words"
        out.extend(Word.from_str(data.acd, images[data.abd.letters[idx]]).letters)
    return free_reduce(Word(data.acd, tuple(out)))


@dataclass(frozen=True)
class WholeWordReport:
    """One Grigorchuk case computed on whole words, with both words kept."""

    n: int
    family: str
    factor: str
    x: int
    x_name: str
    expected: Word
    computed: Word
    equal_free: bool
    equal_klein: bool
    equal_dihedral: bool
    level: str | None
    y_letters: int

    def to_dict(self) -> dict:
        return {
            "case": f"n={self.n} {self.family} {self.factor} x={self.x_name or 'e'}",
            "n": self.n,
            "family": self.family,
            "factor": self.factor,
            "x": self.x_name or "e",
            "equal": self.level is not None,
            "level": self.level,
            "equal_free": self.equal_free,
            "equal_klein": self.equal_klein,
            "equal_dihedral": self.equal_dihedral,
            "expected_length": len(self.expected),
            "computed_length": len(self.computed),
            "y_letters": self.y_letters,
        }


def verify_whole_words(data, n, family, factor, x):
    """The WholeWordReport of one case, every word built whole: the pieces
    C d C^-1 of ^x T(w_n) concatenated, then free-reduced, against
    free_reduce(C w_{n+1} C^-1), with C = phi0(x) for the second factor and
    free_reduce(a phi0(x)) for the first."""
    a, d = Word.letter(data.acd, "a"), Word.letter(data.acd, "d")

    def conjugator(g):
        u = data.phi0_word(g)
        return free_reduce(a * u) if factor == "first" else u

    relation = conjugate_relation(
        basic_relation(data.relator_family("abd", family, n), data.b_extension), x, data.b_extension
    )
    letters = []
    for yl in relation:
        u = conjugator(yl.conjugator)
        letters.extend((u * d * u.inverse()).letters)
    computed = free_reduce(Word(data.acd, tuple(letters)))
    c = conjugator(x)
    core = data.translate_bd_to_cd(data.relator_family("abd", family, n + 1))
    expected = free_reduce(c * core * c.inverse())
    equal_free = computed.letters == expected.letters
    equal_klein = data.klein_nf(computed) == data.klein_nf(expected)
    equal_dihedral = data.dihedral_nf(computed) == data.dihedral_nf(expected)
    level = (
        "free" if equal_free else "klein" if equal_klein else "dihedral" if equal_dihedral else None
    )
    return WholeWordReport(
        n=n,
        family=family,
        factor=factor,
        x=x,
        x_name=str(data.d8.element_names[x]),
        expected=expected,
        computed=computed,
        equal_free=equal_free,
        equal_klein=equal_klein,
        equal_dihedral=equal_dihedral,
        level=level,
        y_letters=len(relation),
    )


def cancel_pieces(gs):
    """The conjugators gs with equal neighbours cancelled, by one pass with a
    stack: each piece P_g = C_g d C_g^-1 is an involution as a word, so
    P_g P_g = 1."""
    stack = []
    for g in gs:
        if stack and stack[-1] == g:
            stack.pop()
        else:
            stack.append(g)
    return stack


def family_of_word(data, n, family, word):
    """The grigorchuk._Family of `family` at n read off w_n = `word` over
    a,b,d: the conjugators of basic_relation's y-letters, cancelled by
    `cancel_pieces`; the core translate_bd_to_cd(sigma(w_n)) built whole,
    with its Klein and dihedral forms from a pass over its letters each; and
    the middle's dihedral form from the mid table of x = e."""
    conjugators = [yl.conjugator for yl in basic_relation(word, data.b_extension)]
    if not conjugators:
        raise DegenerateCase(f"{family}_{n} has no inducible letters (b-free)")
    stack = tuple(cancel_pieces(conjugators))
    core = data.translate_bd_to_cd(apply_substitution(data.sigma_abd, word))
    mid = data._transport_chunks["first"].mid
    dihedral = tuple(chain.from_iterable(mid[g][h].dihedral for g, h in zip(stack, stack[1:])))
    chunk = _Chunk(core.letters, data.klein_nf(core), data.dihedral_nf(core))
    return _Family(n, family, stack, len(conjugators), chunk, dihedral)


def search_whole_words(p, loop, region, step_cap, extra_relators=()):
    """Breadth-first null-homotopy search of `loop` in `region`, one whole word
    per candidate: a Word, a free reduction and a walk of the unreduced loop.

    Returns ("outside",) when the loop leaves the region, ("exhausted", end,
    states explored) with end "cap" when states were still queued at the cap
    and "state space" when the queue ran dry, or ("witness", moves, states
    explored) with moves as (position, removed, inserted, kind), free
    cancellations leftmost first.
    """
    alphabet = p.alphabet
    oracle = region.oracle
    inside = {oracle.key(v) for v in region.vertices}
    base = oracle.key(region.basepoint)

    def closes_inside(letters):
        key = base
        for direction in letters:
            if key not in inside:
                return False
            key = oracle.step(key, alphabet.columns[direction])
        return key == base and key in inside

    def free_moves(letters):
        reduced, cancels = reduce_recording_restart(letters, alphabet.involutive)
        return reduced, [(k, pair, (), "free") for k, pair in cancels]

    rewrites = []
    for rel in tuple(p.relators) + tuple(extra_relators):
        if free_reduce(rel).is_empty():
            continue
        for variant in rotations_and_inverses(rel):
            for cut in range(len(variant) + 1):
                v = Word(alphabet, variant.letters[cut:])
                rewrite = (variant.letters[:cut], v.inverse().letters)
                if rewrite not in rewrites:
                    rewrites.append(rewrite)

    if not closes_inside(loop.letters):
        return ("outside",)
    start, moves = free_moves(loop.letters)
    if not start:
        return ("witness", moves, 0)
    parent = {start: None}
    queue = deque([start])
    explored = 0
    while queue:
        if explored >= step_cap:
            return ("exhausted", "cap", explored)
        state = queue.popleft()
        explored += 1
        for u, ins in rewrites:
            for pos in range(len(state) - len(u) + 1):
                if state[pos : pos + len(u)] != u:
                    continue
                raw = Word(alphabet, state[:pos] + ins + state[pos + len(u) :])
                key = free_reduce(raw).letters
                if key in parent or not closes_inside(raw.letters):
                    continue
                parent[key] = (state, (pos, u, ins, "relator"))
                if key:
                    queue.append(key)
                    continue
                chain = []
                while parent[key] is not None:
                    key, move = parent[key]
                    chain.append((key, move))
                for prev, move in reversed(chain):
                    at, removed, inserted, _ = move
                    moves.append(move)
                    moves += free_moves(prev[:at] + inserted + prev[at + len(removed) :])[1]
                return ("witness", moves, explored)
    return ("exhausted", "state space", explored)


def rewrite_restart(rs, word, step_limit):
    """Rewrite the leftmost match (lowest rule index first) until none is
    left, rescanning the whole word from the left after every step.

    Returns (letters, steps, finished) with steps as (before, rule, position,
    after) letter tuples; finished is False when the step limit stopped it.
    """
    letters = word.letters
    steps = []
    while True:
        hit = None
        for pos in range(len(letters)):
            for ri, (lhs, _) in enumerate(rs.rules):
                if letters[pos : pos + len(lhs)] == lhs.letters:
                    hit = (pos, ri)
                    break
            if hit:
                break
        if hit is None:
            return letters, steps, True
        if len(steps) >= step_limit:
            return letters, steps, False
        pos, ri = hit
        lhs, rhs = rs.rules[ri]
        after = letters[:pos] + rhs.letters + letters[pos + len(lhs) :]
        steps.append((letters, ri, pos, after))
        letters = after


def witness_word_by_word(rs, r, step_limit):
    """The certificate of `ball_null_homotopy_witness(rs, p, r, step_limit)`
    for a p that every rule matches, or the LimitExceeded it raises."""
    witnesses, checked = [], 0
    for w in words_up_to_length(rs.alphabet, 2 * r + 1):
        checked += 1
        letters, steps, finished = rewrite_restart(rs, w, step_limit)
        if letters and finished:
            continue
        trace = ReductionTrace(
            tuple(ReductionStep(Word(rs.alphabet, b), ri, pos, Word(rs.alphabet, a)) for b, ri, pos, a in steps)
        )
        if not finished:
            limit = f"no irreducible word within {step_limit} steps"
            return LimitExceeded(f"candidate word '{w}': {limit}", Word(rs.alphabet, letters), trace)
        witnesses.append((w, trace))
    return NullHomotopyCertificate(r, checked, tuple(witnesses))


def pi1_generators_second_bfs(ball):
    """(tree paths, loop generators) of a ball, as Words, from a BFS spanning
    tree over the ball's edges: each row of neighbours sorted, one generator
    tree-path * edge * reverse tree-path per edge off the tree, in edge order."""
    alphabet = ball.presentation.alphabet
    invol = alphabet.involutive
    nv = len(ball.vertices)
    adj = [[] for _ in range(nv)]
    for ei, (i, li, j) in enumerate(ball.edges):
        adj[i].append((j, li, 1, ei))
        if i != j:
            adj[j].append((i, li, 1 if invol[li] else -1, ei))
    root = ball.vertices.index(ball.basepoint)
    paths = [None] * nv
    paths[root] = ()
    order = deque([root])
    in_tree = set()
    while order:
        u = order.popleft()
        for v, li, exp, ei in sorted(adj[u]):
            if paths[v] is None:
                paths[v] = paths[u] + ((li, exp),)
                in_tree.add(ei)
                order.append(v)
    assert None not in paths, "ball is not connected"
    generators = []
    for ei, (i, li, j) in enumerate(ball.edges):
        if ei not in in_tree:
            back = tuple((idx, exp if invol[idx] else -exp) for idx, exp in reversed(paths[j]))
            generators.append(Word(alphabet, paths[i] + ((li, 1),) + back))
    return tuple(Word(alphabet, p) for p in paths), tuple(generators)


def pi1_generators_by_paths(ball):
    """The loop generators of a ball, as Words, from its vertices' tree paths
    (their names after the basepoint): an edge (i, a, j) is a tree edge when
    path(j) = path(i) a or path(i) = path(j) a^-1, and every other edge gives
    path(i) a path(j)^-1, in edge order."""
    alphabet = ball.presentation.alphabet
    invol = alphabet.involutive
    paths = [v.letters[len(ball.basepoint) :] for v in ball.vertices]
    generators = []
    for i, li, j in ball.edges:
        against = (li, 1 if invol[li] else -1)  # the edge read from j to i
        if paths[j] == paths[i] + ((li, 1),) or paths[i] == paths[j] + (against,):
            continue
        back = tuple((idx, exp if invol[idx] else -exp) for idx, exp in reversed(paths[j]))
        generators.append(Word(alphabet, paths[i] + ((li, 1),) + back))
    return tuple(generators)


def transport_induced_relation(data, relation, factor):
    """Expand a conjugated-b relator into a word over a,c,d.

    Each ^x b becomes u d u^-1 with u = phi0(x) for the second direct factor
    and u = a phi0(x) for the first (the a-conjugated embedding); the
    concatenation is involutively reduced.
    """
    letters, _, _ = assemble(data, factor, (yl.conjugator for yl in relation))
    return Word._of(data.acd, letters)


def assemble(data, factor, gs):
    """(letters, Klein form, dihedral form) of the free reduction of the
    pieces C_g d C_g^-1, g in gs, of one factor."""
    if factor not in data._transport_chunks:
        raise ValueError("factor must be 'first' or 'second'")
    pieces = pieces_of(data._transport_chunks[factor], cancel_pieces(gs))
    return (
        tuple(chain.from_iterable(p.letters for p in pieces)),
        tuple(_fold([], (p.klein for p in pieces), data.klein_cd.mul)),
        tuple(chain.from_iterable(p.dihedral for p in pieces)),
    )


def pieces_of(chunks, stack):
    """The chunks of the pieces of conjugators `stack`, no two neighbours
    equal: head[g1] mid[g1][g2] ... tail[gk].

    As J(g, h) is non-empty and d-free, no seam at a d cancels: the reduced
    word is the chunks' letters joined, and so is its dihedral form, J being
    nontrivial in D_16.  In V, c d c d = 1 can make a seam product of the
    Klein forms the identity, so _fold runs back into earlier chunks.
    """
    if not stack:
        return []
    head, _, mid, tail = chunks
    pieces = [head[stack[0]]]
    pieces.extend(mid[g][h] for g, h in zip(stack, stack[1:]))
    pieces.append(tail[stack[-1]])
    return pieces


_PUNCT = {";", ",", ":", "(", ")", "^", "'", "!"}


def tokenize_by_characters(text):
    """The (text, line, column) tokens of `text`, read one character class at
    a time; ParseError at a character that starts no token."""
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("->", i):
            toks.append(("->", line, col))
            i += 2
            col += 2
        elif ch in _PUNCT:
            toks.append((ch, line, col))
            i += 1
            col += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append((text[i:j], line, col))
            col += j - i
            i = j
        elif ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    return toks


def word_letters_recursive(alphabet, tokens):
    """The (index, exponent) letters of a word's tokens, one recursive call
    per open group; ParseError on malformed text, KeyError on an unknown
    letter.  It reads an exponent that `str.isdigit` accepts with `int`, so
    one such as '2' in superscript raises ValueError."""
    pos = 0

    def parse_seq(stop_at_close):
        nonlocal pos
        out = []
        while pos < len(tokens):
            tok = tokens[pos]
            if tok == ")":
                if not stop_at_close:
                    raise ParseError("unbalanced ')' in word")
                return out
            if tok == "(":
                pos += 1
                inner = parse_seq(True)
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise ParseError("unbalanced '(' in word")
                pos += 1
                if pos < len(tokens) and tokens[pos] == "^":
                    pos += 1
                    if pos >= len(tokens) or not tokens[pos].isdigit():
                        raise ParseError("expected integer after '^'")
                    k = int(tokens[pos])
                    pos += 1
                else:
                    k = 1
                out.extend(inner * k)
                continue
            if tok in _PUNCT or tok == "->":
                raise ParseError(f"unexpected {tok!r} in word")
            idx = alphabet.index(tok)
            exp = 1
            pos += 1
            if pos < len(tokens) and tokens[pos] == "'":
                exp = -1
                pos += 1
            out.append((idx, exp))
        if stop_at_close:
            raise ParseError("unbalanced '(' in word")
        return out

    result = parse_seq(False)
    if pos != len(tokens):
        raise ParseError("trailing tokens in word")
    return tuple(result)
