"""Word-problem oracles: finite tables, free / free-abelian groups, B(1,n).

Every oracle names group elements by small hashable keys, equal exactly when
the elements are.  It states its group law once, as `step(key, k)`: the key
times the signed letter in column k of `Alphabet.directions`, as a ball's
rows name it.  `identity` is the key of the empty word.  The base class
folds `key(w)` from `identity` over the word's columns and derives
`is_identity(w)`; so an oracle defines `alphabet`, `identity`, `step` and
`describe`; the free group also `is_identity`, as free reduction, its key
growing by a digit per letter.  Keys are a table index, one int for the free
and free-abelian groups (a step shifts a digit in or out, or adds a stride,
read from a per-column table), and (p, m, r) for B(1,n).  Oracles are
immutable after construction and safe for concurrent queries.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import BadOrder, OracleMismatch, Unsupported
from .words import Alphabet, Word, free_reduce, frozen


class WordOracle:
    """Interface: the identity key and one step per column, from which keys
    and is_identity follow, plus a descriptor."""

    alphabet: Alphabet
    identity: object  # the key of the empty word

    def key(self, word: Word):
        key, step, column = self.identity, self.step, self.alphabet.columns
        for k in [column[d] for d in word.letters]:
            key = step(key, k)
        return key

    def step(self, key, k: int):
        raise NotImplementedError

    def is_identity(self, word: Word) -> bool:
        return self.key(word) == self.identity

    def describe(self) -> str:
        raise NotImplementedError


# --- finite groups by right-multiplication rows -----------------------------------


def _explore(directions, start, step, r):
    """The tree of first entries, one row per key and each key's distance
    from `start`, for the keys within r steps of it, in discovery order
    (breadth-first, each key's steps in `directions` order).  Entry k of a
    row is the index of the key one step along directions[k], None beyond
    radius r; the tree holds (i, k) per key j >= 1, rows[i][k] being the
    first entry that holds j, the step that first reaches it.  `step(key, d)`
    is the key one step from `key` along d."""
    keys = [start]
    index = {start: 0}
    depths = [0]
    tree = []
    rows = []
    for key, depth in zip(keys, depths):  # both grow while the pass reads them
        row = []
        for direction in directions:
            found = step(key, direction)
            j = index.get(found)
            if j is None and depth < r:
                j = index[found] = len(keys)
                keys.append(found)
                depths.append(depth + 1)
                tree.append((len(rows), len(row)))
            row.append(j)
        rows.append(tuple(row))
    return tree, rows, depths


def _first_paths(tree, directions) -> list[tuple[tuple[int, int], ...]]:
    """Each key's path from key 0 in a tree of first entries."""
    paths = [()]
    for i, k in tree:
        paths.append(paths[i] + (directions[k],))
    return paths


@frozen
class FiniteGroupTable(WordOracle):
    """A finite group given by its right-multiplication rows.

    rows[i][k] is element i times the signed letter `Alphabet.directions`[k].
    Element 0 is the identity, and the elements are numbered in the order a
    breadth-first pass over the rows reaches them, so the path that first
    reaches element i, element_names[i], is its shortlex-least word.  The
    constructor checks that order, the rows' shape and that each letter's
    inverse steps back, and reading `mul` that its rows are permutations,
    not that the rows are a group's.  The names, the full table `mul`, `inv`
    and the generator map are read off the rows on first use.
    """

    alphabet: Alphabet
    rows: tuple[tuple[int, ...], ...]
    identity = 0

    def __post_init__(self):
        # plain checks, which `python -O` keeps
        rows, alphabet, n = self.rows, self.alphabet, len(self.rows)
        dirs = alphabet.directions
        if not n:
            raise ValueError("a table needs rows, the identity's first")
        for i, row in enumerate(rows):
            if len(row) != len(dirs):
                raise ValueError(f"row {i} has {len(row)} entries, not one per direction ({len(dirs)})")
            for k, j in enumerate(row):
                if type(j) is not int or not 0 <= j < n:
                    raise ValueError(f"rows[{i}][{k}] = {j!r} is not an element index in 0..{n - 1}")
        back = alphabet.inverse_columns
        reached = 1  # the rows read so far reach elements 0..reached-1
        for i, row in enumerate(rows):
            if i >= reached:
                raise ValueError(f"element {i} is not reached from the identity")
            for k, j in enumerate(row):
                if rows[j][back[k]] != i:
                    letter = Word._of(alphabet, (dirs[k],))
                    raise ValueError(f"letter {letter} steps element {i} to {j}, and its inverse does not step back")
                if j > reached:
                    raise ValueError(f"element {j} is reached before element {reached}: rows out of breadth-first order")
                reached += j == reached

    @cached_property
    def _tree(self) -> list[tuple[int, int]]:
        """The tree of first entries, from a breadth-first pass over the rows, which are in its order."""
        return _explore(range(len(self.alphabet.directions)), 0, self.step, math.inf)[0]

    @cached_property
    def element_names(self) -> tuple[Word, ...]:
        """Each element's path from the identity in the tree of first entries."""
        paths = _first_paths(self._tree, self.alphabet.directions)
        return tuple(Word._of(self.alphabet, path) for path in paths)

    @cached_property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        """mul[i][j] is element i times element j: i stepped along j's tree path."""
        rows, tree = self.rows, self._tree
        table = []
        for i in range(len(rows)):
            row = [i]
            for parent, k in tree:
                row.append(rows[row[parent]][k])
            if len(set(row)) < len(row):
                raise ValueError(f"row {i} of mul is not a permutation: the rows are not a group's regular action")
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def inv(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.mul)

    @cached_property
    def generator_map(self) -> tuple[int, ...]:
        """The element of each letter."""
        return tuple(self.rows[0][self.alphabet.columns[(i, 1)]] for i in range(len(self.alphabet)))

    @property
    def order(self) -> int:
        return len(self.rows)

    def evaluate(self, word: Word, images=None) -> int:
        """The element index of `word`, each letter index sent to its element
        in `images` (by default the generator map)."""
        images = self.generator_map if images is None else images
        acc = 0
        for idx, exp in word.letters:
            g = images[idx]
            acc = self.mul[acc][g if exp == 1 else self.inv[g]]
        return acc

    def step(self, key: int, k: int) -> int:
        return self.rows[key][k]

    def describe(self) -> str:
        gens = ",".join(self.alphabet.letters)
        return f"finite group of order {self.order} on <{gens}>"

    @staticmethod
    def from_generators(alphabet: Alphabet, values, compose, identity) -> "FiniteGroupTable":
        """The table of the group that the letters' `values` generate under
        `compose`: one breadth-first pass from `identity` numbers its
        elements, one `compose` per element and direction."""

        def inverse(v):  # finite order: v^-1 is the last power of v before the identity
            power, last = v, identity
            while power != identity:
                last, power = power, compose(power, v)
            return last

        steps = [values[i] if e == 1 else inverse(values[i]) for i, e in alphabet.directions]
        return FiniteGroupTable(alphabet, tuple(_explore(steps, identity, compose, math.inf)[1]))


def dihedral_group(order: int, names: tuple[str, str] = ("x", "y")) -> FiniteGroupTable:
    """Dihedral group of the given (even) order as a table over two involutions.

    Presented by x^2 = y^2 = (xy)^m = 1 with order = 2m; canonical element
    names are the alternating words discovered shortlex-first.
    """
    if order < 2 or order % 2 != 0:
        raise BadOrder(f"dihedral order must be even and >= 2, got {order}")
    m = order // 2
    alphabet = Alphabet.make(names[0] + "!", names[1] + "!")

    # (r, f) in the semidirect product (Z/m) x| (Z/2) is s^r x^f, s = y x the
    # rotation; x s = s^-1 x, so (r1, f1)(r2, f2) = (r1 + (-1)^f1 r2, f1 + f2)
    def compose(p, q):
        r1, f1 = p
        r2, f2 = q
        return ((r1 + (r2 if f1 == 0 else -r2)) % m, (f1 + f2) % 2)

    return FiniteGroupTable.from_generators(alphabet, [(0, 1), (1 % m, 1)], compose, (0, 0))


def klein_group(names: tuple[str, str] = ("c", "d")) -> FiniteGroupTable:
    """The Klein four-group on two commuting involutions."""

    def compose(p, q):
        return ((p[0] + q[0]) % 2, (p[1] + q[1]) % 2)

    alphabet = Alphabet.make(names[0] + "!", names[1] + "!")
    return FiniteGroupTable.from_generators(alphabet, [(1, 0), (0, 1)], compose, (0, 0))


def cyclic_group(n: int, name: str = "x") -> FiniteGroupTable:
    if n < 1:
        raise BadOrder(f"cyclic order must be >= 1, got {n}")
    alphabet = Alphabet.make(name + ("!" if n == 2 else ""))
    return FiniteGroupTable.from_generators(alphabet, [1 % n], lambda p, q: (p + q) % n, 0)


# --- free and free-abelian groups ------------------------------------------------

_DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"


@frozen
class FreeGroupOracle(WordOracle):
    """F_k; the key of a reduced word is the int whose base-(w + 1) digits
    are its letters' columns + 1, its last letter the lowest digit, with w
    the number of directions: 0 is the identity."""

    alphabet: Alphabet
    identity = 0

    @cached_property
    def _digits(self) -> tuple[tuple[int, int, int], ...]:
        """Each column's digit, the digit of its inverse, and the base."""
        inverse = self.alphabet.inverse_columns
        return tuple((k + 1, back + 1, len(inverse) + 1) for k, back in enumerate(inverse))

    def step(self, key: int, k: int) -> int:
        digit, back, base = self._digits[k]
        if key % base == back:
            return key // base
        return key * base + digit

    def is_identity(self, word: Word) -> bool:
        return not free_reduce(word).letters

    def describe(self) -> str:
        return f"free group of rank {len(self.alphabet)}"


@frozen
class FreeAbelianOracle(WordOracle):
    """Z^k; the key of (x_0, ..., x_{k-1}) is the int sum of x_i 2^(64 i),
    each x_i a balanced 64-bit field: 0 is the identity, and a step adds the
    direction's stride.  The sum is injective while every |x_i| < 2^63, and
    a coordinate reached in a ball is at most the basepoint's length plus the
    radius; no additive int key of Z^k is injective without such a bound."""

    alphabet: Alphabet
    identity = 0

    def __post_init__(self):
        # Z^k has no element of order 2 for an involutive letter to name
        for letter, involutive in zip(self.alphabet.letters, self.alphabet.involutive):
            if involutive:
                raise OracleMismatch(f"involutive letter '{letter}' in a free abelian group")

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        return tuple(e << 64 * i for i, e in self.alphabet.directions)

    def step(self, key: int, k: int) -> int:
        return key + self._strides[k]

    def describe(self) -> str:
        return f"free abelian group of rank {len(self.alphabet)}"


def _rank_alphabet(k: int, alphabet: Alphabet | None) -> Alphabet:
    """`alphabet`, by default the first k default names, which must have k letters."""
    alphabet = Alphabet.make(*_DEFAULT_NAMES[:k]) if alphabet is None else alphabet
    if len(alphabet) != k:
        raise ValueError(f"rank {k} given with an alphabet of {len(alphabet)} letters")
    return alphabet


def free_oracle(k: int, alphabet: Alphabet | None = None) -> FreeGroupOracle:
    return FreeGroupOracle(_rank_alphabet(k, alphabet))


def free_abelian_oracle(k: int, alphabet: Alphabet | None = None) -> FreeAbelianOracle:
    return FreeAbelianOracle(_rank_alphabet(k, alphabet))


# --- Baumslag-Solitar B(1, n) ----------------------------------------------------


@frozen
class BaumslagSolitarOracle(WordOracle):
    """B(1,n) = < a, b | a b a^-1 b^-n >; the key (p, m, r) names a^-p b^m a^r.

    Here p, r >= 0 and n does not divide m when both p and r are positive,
    which makes the key unique.  A step by b^e adds e n^r to m, one by a^e moves r
    (b^m a^-1 = a^-1 b^(mn) at r = 0), and a^-1 b^(nm) a = b^m then cancels.
    """

    alphabet: Alphabet
    n: int
    identity = (0, 0, 0)

    @cached_property
    def _moves(self) -> tuple[tuple[int, int, int], ...]:
        """Each column's letter index and sign, with n: one read per step."""
        return tuple((i, e, self.n) for i, e in self.alphabet.directions)

    def step(self, key: tuple[int, int, int], k: int) -> tuple[int, int, int]:
        p, m, r = key
        idx, e, n = self._moves[k]
        if idx == 1:
            m += e * n**r
        elif r + e >= 0:
            r += e
        else:
            p, m = p + 1, m * n
        while p and r and m % n == 0:
            p, m, r = p - 1, m // n, r - 1
        return p, m, r

    def describe(self) -> str:
        return f"Baumslag-Solitar group B(1,{self.n})"


def bs_oracle(m: int, n: int, names: tuple[str, str] = ("a", "b")) -> BaumslagSolitarOracle:
    """Oracle for B(m,n); only the solvable case m = 1 is implemented."""
    if m != 1:
        raise Unsupported(f"only B(1,n) has a built-in oracle, got m={m}")
    if n < 1:
        raise Unsupported(f"need n >= 1, got n={n}")
    alphabet = Alphabet.make(names[0], names[1])
    return BaumslagSolitarOracle(alphabet, n)
