"""Word-problem oracles: finite tables, free / free-abelian groups, B(1,n).

Every oracle names group elements by small hashable keys, equal exactly when
the elements are.  It states its group law once, as `step(k, d)`: the key of
k times the letter d = (index, exponent).  `identity` is the key of the empty
word.  The base class folds `key(w)` from `identity` by one step per letter
and derives `is_identity(w)` by comparing with `identity`; so an oracle
defines `alphabet`, `identity`, `step` and `describe`, and nothing else.
Oracles are immutable after construction and safe for concurrent queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadOrder, OracleMismatch, Unsupported
from .words import Alphabet, Word, free_reduce


class WordOracle:
    """Interface: the identity key and one step per letter, from which keys
    and is_identity follow, plus a descriptor."""

    alphabet: Alphabet
    identity: object  # the key of the empty word

    def key(self, word: Word):
        key, step = self.identity, self.step
        for direction in word.letters:
            key = step(key, direction)
        return key

    def step(self, key, direction: tuple[int, int]):
        raise NotImplementedError

    def is_identity(self, word: Word) -> bool:
        return self.key(word) == self.identity

    def describe(self) -> str:
        raise NotImplementedError


# --- finite groups by multiplication table --------------------------------------


@dataclass(frozen=True)
class FiniteGroupTable(WordOracle):
    """A finite group given by its full multiplication table.

    Index 0 is the identity; element_names[i] is the canonical word for
    element i (shortlex-first over the generating alphabet); generator_map
    sends alphabet letters to element indices.
    """

    alphabet: Alphabet
    element_names: tuple[Word, ...]
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    generator_map: tuple[int, ...]
    identity = 0

    def __post_init__(self):
        # plain checks, which `python -O` keeps
        n, mul, inv = len(self.element_names), self.mul, self.inv
        if not n or not self.element_names[0].is_empty():
            raise ValueError("element 0 must be the identity, named by the empty word")
        if len(mul) != n or any(len(row) != n for row in mul):
            raise ValueError(f"mul must be {n} x {n}, one row and column per element")
        if len(inv) != n:
            raise ValueError(f"inv must have {n} entries, one per element, not {len(inv)}")
        if len(self.generator_map) != len(self.alphabet):
            raise ValueError(f"generator_map must have {len(self.alphabet)} entries, one per letter")
        for i in range(n):
            if mul[0][i] != i or mul[i][0] != i:
                raise ValueError(f"row and column 0 of mul are not the identity's at element {i}")
            if not 0 <= inv[i] < n or mul[i][inv[i]] or mul[inv[i]][i]:
                raise ValueError(f"inv[{i}] = {inv[i]} is not the inverse of element {i}")

    @property
    def order(self) -> int:
        return len(self.element_names)

    def evaluate(self, word: Word, images=None) -> int:
        """The element index of `word`, each letter index sent to its element
        in `images` (by default the generator map)."""
        images = self.generator_map if images is None else images
        acc = 0
        for idx, exp in word.letters:
            g = images[idx]
            acc = self.mul[acc][g if exp == 1 else self.inv[g]]
        return acc

    def step(self, key: int, direction: tuple[int, int]) -> int:
        g = self.generator_map[direction[0]]
        return self.mul[key][g if direction[1] == 1 else self.inv[g]]

    def describe(self) -> str:
        gens = ",".join(self.alphabet.letters)
        return f"finite group of order {self.order} on <{gens}>"

    @staticmethod
    def from_generators(alphabet: Alphabet, values, compose, identity) -> "FiniteGroupTable":
        """Closure of abstract generator values under `compose`.

        Elements are discovered by shortlex BFS over positive letters (and
        inverses for non-involutive ones); the first word reaching an element
        becomes its canonical name.
        """
        gen_syms = alphabet.directions
        # values for the symbols; an inverse value is found by power search
        elems = {identity: 0}
        names = [Word.identity(alphabet)]
        value_list = [identity]
        frontier = [(Word.identity(alphabet), identity)]
        sym_values = {}
        for idx, exp in gen_syms:
            v = values[idx]
            if exp == -1:
                # finite order: invert by repeated composition
                w = v
                prev = identity
                while w != identity:
                    prev = w
                    w = compose(w, v)
                v = prev if v != identity else identity
            sym_values[(idx, exp)] = v
        while frontier:
            new_frontier = []
            for word, val in frontier:
                for sym in gen_syms:
                    nval = compose(val, sym_values[sym])
                    if nval not in elems:
                        elems[nval] = len(value_list)
                        nword = Word(alphabet, word.letters + (sym,))
                        names.append(nword)
                        value_list.append(nval)
                        new_frontier.append((nword, nval))
            frontier = new_frontier
        n = len(value_list)
        mul = tuple(
            tuple(elems[compose(value_list[i], value_list[j])] for j in range(n))
            for i in range(n)
        )
        inv = []
        for i in range(n):
            inv.append(next(j for j in range(n) if mul[i][j] == 0))
        gmap = tuple(elems[values[i]] for i in range(len(alphabet)))
        return FiniteGroupTable(alphabet, tuple(names), mul, tuple(inv), gmap)


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

    x = (0, 1)
    y = (1 % m, 1)
    return FiniteGroupTable.from_generators(alphabet, [x, y], compose, (0, 0))


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
    return FiniteGroupTable.from_generators(
        alphabet, [1 % n], lambda p, q: (p + q) % n, 0
    )


# --- free and free-abelian groups ------------------------------------------------

_DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class FreeGroupOracle(WordOracle):
    alphabet: Alphabet
    identity = ()

    def key(self, word: Word) -> tuple[tuple[int, int], ...]:
        # one pass: a fold of `step` copies the key at every letter, quadratic in |w|
        return free_reduce(word).letters

    def step(self, key, direction: tuple[int, int]):
        idx, exp = direction
        if key and key[-1][0] == idx and (self.alphabet.involutive[idx] or key[-1][1] == -exp):
            return key[:-1]
        return key + (direction,)

    def describe(self) -> str:
        return f"free group of rank {len(self.alphabet)}"


@dataclass(frozen=True)
class FreeAbelianOracle(WordOracle):
    alphabet: Alphabet

    def __post_init__(self):
        # Z^k has no element of order 2 for an involutive letter to name
        for letter, involutive in zip(self.alphabet.letters, self.alphabet.involutive):
            if involutive:
                raise OracleMismatch(f"involutive letter '{letter}' in a free abelian group")

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.alphabet)

    def step(self, key: tuple[int, ...], direction: tuple[int, int]) -> tuple[int, ...]:
        idx, exp = direction
        return key[:idx] + (key[idx] + exp,) + key[idx + 1 :]

    def describe(self) -> str:
        return f"free abelian group of rank {len(self.alphabet)}"


def free_oracle(k: int, alphabet: Alphabet | None = None) -> FreeGroupOracle:
    if alphabet is None:
        alphabet = Alphabet.make(*_DEFAULT_NAMES[:k])
    return FreeGroupOracle(alphabet)


def free_abelian_oracle(k: int, alphabet: Alphabet | None = None) -> FreeAbelianOracle:
    if alphabet is None:
        alphabet = Alphabet.make(*_DEFAULT_NAMES[:k])
    return FreeAbelianOracle(alphabet)


# --- Baumslag-Solitar B(1, n) ----------------------------------------------------


@dataclass(frozen=True)
class BaumslagSolitarOracle(WordOracle):
    """B(1,n) = < a, b | a b a^-1 b^-n >; the key (p, m, r) names a^-p b^m a^r.

    Here p, r >= 0 and n does not divide m when both p and r are positive,
    which makes the key unique.  A step by b^e adds e n^r to m, one by a^e moves r
    (b^m a^-1 = a^-1 b^(mn) at r = 0), and a^-1 b^(nm) a = b^m then cancels.
    """

    alphabet: Alphabet
    n: int
    identity = (0, 0, 0)

    def step(self, key: tuple[int, int, int], direction: tuple[int, int]) -> tuple[int, int, int]:
        p, m, r = key
        idx, e = direction
        n = self.n
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
