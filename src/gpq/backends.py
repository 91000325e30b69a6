"""Word-problem oracles: finite tables, free / free-abelian groups, B(1,n).

Every oracle names group elements by small hashable keys.  It states its
group law once, as `step(k, d)`: the key of k times the letter
d = (index, exponent).  `identity` is the key of the empty word, and
`word(k)` the canonical normal-form word, for callers who want one.
The base class folds `key(w)` from `identity` by one step per letter, and
derives `normal_form(w)` as `word(key(w))` and `is_identity(w)` by comparing
with `identity`; so an oracle defines `identity`, `step`, `describe` and,
unless its keys are normal-form letter tuples, `word`.  Balls need only
`identity`, `step` and `describe`.  An object offering only `alphabet` and
`normal_form` gets keys from `keyed`.  Oracles are
immutable after construction and safe for concurrent queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadOrder, LimitExceeded, Unsupported
from .words import Alphabet, Word, directions, free_reduce


class WordOracle:
    """Interface: the identity key and one step per letter, from which keys,
    normal forms and is_identity follow, plus a descriptor.

    The default `word` reads a key as the letter tuple of its normal form.
    """

    alphabet: Alphabet
    identity: object  # the key of the empty word

    def key(self, word: Word):
        key, step = self.identity, self.step
        for direction in word.letters:
            key = step(key, direction)
        return key

    def step(self, key, direction: tuple[int, int]):
        raise NotImplementedError

    def word(self, key) -> Word:
        return Word(self.alphabet, key)

    def normal_form(self, word: Word) -> Word:
        return self.word(self.key(word))

    def is_identity(self, word: Word) -> bool:
        return self.key(word) == self.identity

    def describe(self) -> str:
        raise NotImplementedError


class NormalFormKeys(WordOracle):
    """Keys for any object with `alphabet` and `normal_form`: the letter tuple
    of the object's normal form."""

    identity = ()

    def __init__(self, oracle):
        self.alphabet = oracle.alphabet
        self._normal_form = oracle.normal_form

    def key(self, word: Word):
        return self._normal_form(word).letters

    def step(self, key, direction: tuple[int, int]):
        return self._normal_form(Word(self.alphabet, key + (direction,))).letters


def keyed(oracle) -> WordOracle:
    """`oracle` itself if it offers element keys, else its NormalFormKeys."""
    return oracle if hasattr(oracle, "step") else NormalFormKeys(oracle)


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
        n = len(self.element_names)
        assert self.element_names[0].is_empty(), "index 0 must be the identity"
        for i in range(n):
            assert self.mul[0][i] == i and self.mul[i][0] == i
            assert self.mul[i][self.inv[i]] == 0 and self.mul[self.inv[i]][i] == 0

    @property
    def order(self) -> int:
        return len(self.element_names)

    def check_associative(self) -> bool:
        n = self.order
        return all(
            self.mul[self.mul[i][j]][k] == self.mul[i][self.mul[j][k]]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )

    def evaluate(self, word: Word, images=None) -> int:
        """The element index of `word`, each letter index sent to its element
        in `images` (by default the generator map)."""
        images = self.generator_map if images is None else images
        acc = 0
        for idx, exp in word.letters:
            g = images[idx]
            acc = self.mul[acc][g if exp == 1 else self.inv[g]]
        return acc

    def multiply_indices(self, *indices: int) -> int:
        acc = 0
        for i in indices:
            acc = self.mul[acc][i]
        return acc

    def step(self, key: int, direction: tuple[int, int]) -> int:
        g = self.generator_map[direction[0]]
        return self.mul[key][g if direction[1] == 1 else self.inv[g]]

    def word(self, key: int) -> Word:
        return self.element_names[key]

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
        gen_syms = directions(alphabet)
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

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.alphabet)

    def step(self, key: tuple[int, ...], direction: tuple[int, int]) -> tuple[int, ...]:
        idx, exp = direction
        return key[:idx] + (key[idx] + exp,) + key[idx + 1 :]

    def word(self, key: tuple[int, ...]) -> Word:
        letters = []
        for i, e in enumerate(key):
            letters.extend([(i, 1 if e > 0 else -1)] * abs(e))
        return Word(self.alphabet, tuple(letters))

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


# The longest normal form BaumslagSolitarOracle.word builds.  |m| can grow
# like n^k in a word with k letters a, so a short word can have a normal form
# too long to hold in memory: a^30 b a^-30 in B(1,3) has 3^30 letters b.
BS_WORD_LETTER_CAP = 1_000_000


@dataclass(frozen=True)
class BaumslagSolitarOracle(WordOracle):
    """B(1,n) = < a, b | a b a^-1 b^-n >, normal form a^-p b^m a^r.

    Here p, r >= 0 and n does not divide m when both p and r are positive;
    the key is (p, m, r).  A step by b^e adds e n^r to m, one by a^e moves r
    (b^m a^-1 = a^-1 b^(mn) at r = 0), and a^-1 b^(nm) a = b^m then cancels.
    `word` raises LimitExceeded rather than build a normal form of more than
    BS_WORD_LETTER_CAP letters; keys have no such limit.
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

    def word(self, key: tuple[int, int, int]) -> Word:
        p, m, r = key
        if p + abs(m) + r > BS_WORD_LETTER_CAP:
            raise LimitExceeded(
                f"the normal form a^-{p} b^m a^{r} in B(1,{self.n}) has more than "
                f"{BS_WORD_LETTER_CAP:,} letters"
            )
        b = (1, 1 if m > 0 else -1)
        return Word(self.alphabet, ((0, -1),) * p + (b,) * abs(m) + ((0, 1),) * r)

    def evaluate_affine(self, word: Word) -> tuple[int, Fraction]:
        """Faithful affine model (a: x -> n x, b: x -> x + 1) for cross-checks.

        The word maps to x -> n^k x + q; appending a letter composes on the
        right, so b contributes n^k at the current scale k.
        """
        k = 0
        q = Fraction(0)
        for idx, exp in word.letters:
            if idx == 0:
                k += exp
            else:
                q += exp * Fraction(self.n) ** k
        return k, q

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
