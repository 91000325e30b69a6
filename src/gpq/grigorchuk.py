"""Machine verification of the self-similar induction identities for the
Grigorchuk group's recursive presentations.

Three presentation variants are carried: the four-generator one on a,b,c,d
and the three-generator ones on a,c,d (substitution a->aca, c->cd, d->c) and
a,b,d (substitution a->abda, b->d, d->bd).  The pipeline induces relators of
the normal subgroup generated by b (quotient D_8 = <a,d>) from the a,b,d
variant, transports them through the tree isomorphism into conjugated
d-relators (quotient D_16 = <a,c>), and checks that each transported relator
is the next member of the relator family, conjugated accordingly.

Equality of the transported and expected words is reported at three levels:

* free      - letter-exact after involutive free reduction;
* klein     - in <a> * V, V the Klein group on c,d (relators c2, d2, (cd)2);
* dihedral  - in D_16 * <d>, i.e. also modulo (acac)^4, itself the first
              iterated relator of the family.

The identities close at the dihedral level: expanding the conjugated
d-letters multiplies neighbouring conjugator words inside the finite quotient
<a,c>, which free reduction alone cannot see.  Each report states the first
level at which its case closes.

Work per GrigorchukData, done on its first case: each factor's _Chunks,
the conjugators C_g (phi0(g), a phi0(g) for the first factor) and the chunks
the transported word is built from, head C_g, tail d C_g^-1 and, shared by
both factors, mid d J(g, h), J(g, h) = reduce(C_g^-1 C_h), each with its
Klein and dihedral normal forms as tuples of ints; and the classes of x
whose rows of the D_8 table map the mid table alike (_x_classes).  No
family word is built.  What a case reads off w_n joins under concatenation,
and sigma acts letter by letter, so the grid holds one _Level per a,b,d
letter x for sigma^n(x), advanced once per n by folding those of sigma(x)'s
letters, and folds each (n, family)'s record from its seed's letters: the
y-letter count of T(w_n) and its conjugators, equal neighbours cancelled to
s_1 .. s_k, the core w_{n+1} over a,c,d through b -> cd with its two normal
forms, and the middle's dihedral form, which serves every x.  Each class
of x gets one middle, the chunks mid[x s_i][x s_i+1] with their Klein form,
for both factors' cases of every x in it; a lone case folds the levels up
to its n.  GrigorchukData keeps none of them.  Work per case (factor, x): the
transported word is the head of x s_1, the middle and the tail of x s_k;
its dihedral form is theirs concatenated, and its Klein form joins them at
two seams by the same fold, which can cascade into the middle.  The
expected word joins C, the core and C^-1 at two seams, its normal forms by
the same fold.  Letters are compared only when the two lengths agree, and a
report's words are joined on first read.  One fold, _fold, combines normal
forms: at every seam, and over a word's letters in klein_nf and dihedral_nf,
which only the transport chunks and the level-0 cores run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import field
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from typing import NamedTuple

from .backends import FiniteGroupTable, dihedral_group, klein_group
from .errors import DegenerateCase, DoesNotCloseUp, LimitExceeded
from .induction import SplitExtensionData
from .presentations import Presentation
from .words import (
    LETTER_CAP,
    Alphabet,
    Substitution,
    Word,
    apply_substitution,
    free_reduce,
    frozen,
    image_letter_counts,
    iterate_substitution,
    rename_word,
)


# The longest relator-family word, the cap on a word read from text.  Every
# sigma sends a to a word with two a's, so w_n and z_n at least double with
# n; the cap admits every member with n <= 11 and refuses w_40's trillions of
# letters before building any.  The grid builds no family word, but its
# records' cores grow as w_{n+1} does, so it takes the n <= 10 grid, whose
# z_11 has 139,560 letters, and refuses a larger one before any case.
FAMILY_LETTER_CAP = LETTER_CAP


class _Chunk(NamedTuple):
    """A reduced word over a,c,d with its Klein and its dihedral normal form."""

    letters: tuple
    klein: tuple
    dihedral: tuple


class _Chunks(NamedTuple):
    """One factor's transport chunks, indexed by D_8 elements g and h: the
    conjugator C_g and C_g^-1, which the expected word joins around the core,
    and the tables the transported word is assembled from.  The mid table is
    the same for both factors: a is an involution, so
    reduce((a C_g)^-1 a C_h) = reduce(C_g^-1 C_h)."""

    head: tuple  # C_g
    inverse: tuple  # C_g^-1
    mid: tuple  # mid[g][h] = d J(g, h), J(g, h) = reduce(C_g^-1 C_h); None for g = h
    tail: tuple  # d C_g^-1


class _Middle(NamedTuple):
    """The middle of the transported word of one (n, family) and class of x,
    the same for both factors and every x of the class: for the cancelled
    conjugators s_1 .. s_k of T(w_n), the chunks mid[x s_i][x s_i+1], their
    Klein form folded over the seams, and their letter count."""

    chunks: tuple
    klein: list
    length: int


class _Level(NamedTuple):
    """What the grid reads off sigma^n(v), v an a,b,d letter or word: the _Chunk
    of translate(sigma^(n+1)(v)), the D_8 value of sigma^n(v), the D_8
    conjugators of its y-letters, equal neighbours cancelled, and their number."""

    core: _Chunk
    value: int
    stack: tuple
    y_letters: int


class _Family(NamedTuple):
    """One relator family at one n: the stack, y-letter count and core of the
    _Level of w_n, and every x's middle's dihedral form, the chunks' forms
    concatenated."""

    n: int
    family: str
    stack: tuple
    y_letters: int
    core: _Chunk
    dihedral: tuple


@frozen
class GrigorchukData:
    """All fixed data of the computation: variants, quotients, and as cached
    properties the split extensions and transport maps they determine."""

    abcd: Alphabet
    acd: Alphabet
    abd: Alphabet
    sigma_abcd: Substitution
    sigma_acd: Substitution
    sigma_abd: Substitution
    seeds: dict
    d8: FiniteGroupTable
    d16: FiniteGroupTable
    klein_cd: FiniteGroupTable

    @cached_property
    def b_extension(self) -> SplitExtensionData:
        """1 -> B -> G -> D8 = <a, d> -> 1, split, over the a,b,d variant."""
        d8 = self.d8
        lifts = tuple(rename_word(nm, self.abd) for nm in d8.element_names)
        p_map = (d8.generator_map[0], 0, d8.generator_map[1])  # a -> a, b -> e, d -> d
        return SplitExtensionData(self.presentation("abd"), d8, p_map, lifts)

    @cached_property
    def a_extension(self) -> SplitExtensionData:
        """1 -> A -> G -> D16 = <a, c> -> 1, split, over the a,c,d variant."""
        d16 = self.d16
        lifts = tuple(rename_word(nm, self.acd) for nm in d16.element_names)
        p_map = (d16.generator_map[0], d16.generator_map[1], 0)  # a -> a, c -> c, d -> e
        return SplitExtensionData(self.presentation("acd"), d16, p_map, lifts)

    @cached_property
    def phi0_table(self) -> tuple[int, ...]:
        """D8 element -> D16 element under phi0: D8 = <a,d>  ~->  <c, aca> <= D16,
        a -> aca, d -> c, which is sigma_acd on the letters a, d."""
        image, sigma, acd = self.a_extension._image_of, self.sigma_acd, self.acd
        return tuple(image(apply_substitution(sigma, rename_word(nm, acd))) for nm in self.d8.element_names)

    @cached_property
    def _phi0_words(self) -> tuple[Word, ...]:
        """phi0_word(x) for every x."""
        return tuple(rename_word(self.d16.element_names[g], self.acd) for g in self.phi0_table)

    @cached_property
    def _bd_to_cd(self) -> tuple:
        """The letters of each a,b,d letter's image under b -> cd."""
        images = {"a": "a", "b": "c d", "d": "d"}
        return tuple(Word.from_str(self.acd, images[name]).letters for name in self.abd.letters)

    @cached_property
    def _transport_chunks(self) -> dict:
        """The _Chunks of the 'first' and the 'second' factor, around one mid
        table, which the first factor's heads and inverses build."""
        d, join = self._chunk(((self.acd.index("d"), 1),)), self._join_chunks
        chunks, mid = {}, None
        for factor, prefix in (("first", ((self.acd.index("a"), 1),)), ("second", ())):
            head = tuple(self._chunk(_join(prefix, u.letters)) for u in self._phi0_words)
            inverse = tuple(self._chunk(c.letters[::-1]) for c in head)  # involutive letters
            mid = mid or tuple(
                tuple(None if g == h else join([d, u, v]) for h, v in enumerate(head))
                for g, u in enumerate(inverse)
            )
            tail = tuple(join([d, c]) for c in inverse)
            chunks[factor] = _check_chunks(_Chunks(head, inverse, mid, tail), d.letters[0])
        return chunks

    @cached_property
    def _x_classes(self) -> tuple:
        """The D_8 elements x in classes, each with the mid table mapped by
        its x, table[g][h] = mid[x g][x h]: x and y share a class, and every
        middle, when their mapped tables are equal.  Raises unless every
        mapped chunk has the dihedral form of mid[g][h] (phi0 is a
        homomorphism, so J(x g, x h) has the value of J(g, h) in D_16), on
        which one dihedral form per (n, family) serves all x."""
        mid = self._transport_chunks["first"].mid
        dihedral = [[m and m.dihedral for m in row] for row in mid]
        classes: list = []
        for x, row in enumerate(self.d8.mul):
            table = tuple(tuple(mid[g][h] for h in row) for g in row)
            if [[m and m.dihedral for m in r] for r in table] != dihedral:
                raise RuntimeError(f"mid[x g][x h] and mid[g][h] differ in D_16 for x = {x}")
            xs = next((xs for xs, t in classes if t == table), None)
            if xs is None:
                classes.append(([x], table))
            else:
                xs.append(x)
        return tuple((tuple(xs), table) for xs, table in classes)

    def _chunk(self, letters: tuple) -> _Chunk:
        word = Word._of(self.acd, letters)
        return _Chunk(letters, self.klein_nf(word), self.dihedral_nf(word))

    def _join_chunks(self, chunks: list) -> _Chunk:
        """The chunk of the reduced product of `chunks`, joined seam by seam."""
        return _Chunk(
            _join(*map(itemgetter(0), chunks)),
            tuple(_fold([], map(itemgetter(1), chunks), self.klein_cd.mul)),
            tuple(_fold([], map(itemgetter(2), chunks), self.d16.mul)),
        )

    # -- presentations ---------------------------------------------------------

    def presentation(self, variant: str, depth: int = 0) -> Presentation:
        """Seed presentation of the requested variant with families up to depth."""
        alphabet, sigma = self._variant(variant)
        relators = []
        if variant == "abcd":
            relators.append(Word.from_str(alphabet, "b c d"))
        for n in range(depth + 1):
            for fam in ("w", "z"):
                relators.append(self.relator_family(variant, fam, n))
        return Presentation(alphabet, tuple(relators), f"grigorchuk_{variant}")

    def _variant(self, variant: str):
        if variant not in ("abcd", "acd", "abd"):
            raise ValueError(f"unknown variant {variant!r}")
        return getattr(self, variant), getattr(self, "sigma_" + variant)

    def relator_family(self, variant: str, family: str, n: int) -> Word:
        """w_n or z_n: the n-th iterate of the family seed, unreduced.

        Raises LimitExceeded, before building any word, if it would have more
        than FAMILY_LETTER_CAP letters.
        """
        sigma, seed = self._checked_seed(variant, family, n)
        return iterate_substitution(sigma, seed, n)

    def _checked_seed(self, variant: str, family: str, n: int):
        """(sigma, the family seed), once relator_family(variant, family, n)
        is known to have at most FAMILY_LETTER_CAP letters, LimitExceeded
        otherwise, and for n > 0 a positive seed, NegativeExponent otherwise.
        The length is predicted from the seed's letter counts, level by level
        by image_letter_counts, without building a word."""
        if n < 0:
            raise ValueError("n must be >= 0")
        alphabet, sigma = self._variant(variant)
        if (variant, family) not in self.seeds:
            raise ValueError(f"unknown family {family!r}")
        seed = Word.from_str(alphabet, self.seeds[(variant, family)])
        counts = [sum(i == x for i, _ in seed.letters) for x in range(len(alphabet))]
        for _ in range(n):
            if sum(counts) > FAMILY_LETTER_CAP:
                break
            counts = image_letter_counts((sigma,), counts)
        if sum(counts) > FAMILY_LETTER_CAP:
            raise LimitExceeded(
                f"{family}_{n} of the {variant} variant has more than "
                f"{FAMILY_LETTER_CAP:,} letters"
            )
        if n and not seed.is_positive():
            apply_substitution(sigma, seed)  # refuses the first inverse letter: NegativeExponent
        return sigma, seed

    # -- transport maps ----------------------------------------------------------

    def phi0_word(self, x: int) -> Word:
        """Canonical <a,c>-word of the image of the D8 element x."""
        return self._phi0_words[x]

    def translate_bd_to_cd(self, word: Word) -> Word:
        """Substitute b -> cd (the Klein relation bcd = 1), involutively reduce."""
        if word.alphabet != self.abd:
            raise ValueError("translate expects a word over the a,b,d alphabet")
        images = self._bd_to_cd
        out = chain.from_iterable(images[idx] for idx, _ in word.letters)
        return free_reduce(Word._of(self.acd, tuple(out)))

    # -- normal forms for the equality levels -------------------------------------

    def klein_nf(self, word: Word):
        """Normal form in <a> * V, V the Klein four-group on c, d."""
        return _free_product_nf(word, self.klein_cd, {"c": 0, "d": 1}, ("a",))

    def dihedral_nf(self, word: Word):
        """Normal form in D_16 * <d>: maximal a,c-blocks evaluated in D_16."""
        return _free_product_nf(word, self.d16, {"a": 0, "c": 1}, ("d",))

    # -- the part of a verification case shared by all (factor, x) ----------------

    def _levels(self):
        """The _Level of each a,b,d letter x at n = 0, 1, 2, ...: at 0 that
        of x, at n + 1 the product of those at n of the letters of sigma(x)."""
        ext, images, level = self.b_extension, self.sigma_abd.images, []
        for x, image in enumerate(images):
            y = 0 if ext.y_is_trivial(x) else 1  # x alone: a y-letter has the empty prefix
            level.append(_Level(self._chunk(self.translate_bd_to_cd(image).letters), ext.p_map[x], (0,) * y, y))
        while True:
            yield level
            level = [self._product(level, image) for image in images]

    def _product(self, level: list, word: Word) -> _Level:
        """The _Level of `word` over a,b,d, from `level`, its letters' at the
        same n: their cores and their stacks joined at each seam, each letter's
        conjugators moved by the D_8 row of the value before it."""
        parts = [level[i] for i, _ in word.letters]
        mul, stacks, value = self.d8.mul, [], 0
        for part in parts:
            row = mul[value]
            stacks.append([row[g] for g in part.stack])
            value = row[part.value]
        core = self._join_chunks([part.core for part in parts])
        return _Level(core, value, _join(*stacks), sum(part.y_letters for part in parts))

    def _family(self, n: int, family: str, seed: Word, level: list) -> _Family:
        """The _Family of `family` (a,b,d variant, w_0 = `seed`) at n, folded from
        the letters' _Level at n; refused as basic_relation refuses w_n, which
        is built only for the message."""
        whole = self._product(level, seed)
        if whole.value:
            word = self.relator_family("abd", family, n)
            raise DoesNotCloseUp(f"'{word}' has quotient image {self.d8.element_names[whole.value]}, not the identity")
        if not whole.y_letters:
            raise DegenerateCase(f"{family}_{n} has no inducible letters (b-free)")
        s, mid = whole.stack, self._x_classes[0][1]  # any class's table: _x_classes checks their dihedral forms agree
        dihedral = tuple(chain.from_iterable(mid[g][h].dihedral for g, h in zip(s, s[1:])))
        return _Family(n, family, s, whole.y_letters, whole.core, dihedral)

    def _middle(self, record: _Family, table: tuple) -> _Middle:
        """The _Middle of x T(w_n) for every x whose mapped mid table, shared by
        both factors, is `table`: x g = x h only for g = h, so the stack
        stays cancelled."""
        s = record.stack
        chunks = tuple(table[g][h] for g, h in zip(s, s[1:]))
        return _Middle(
            chunks,
            _fold([], map(itemgetter(1), chunks), self.klein_cd.mul),
            sum(map(len, map(itemgetter(0), chunks))),
        )


def _check_chunks(chunks: _Chunks, d: tuple) -> _Chunks:
    """Raise unless the transport chunks have what their assembly needs: every
    C_g and J(g, h) is d-free, so no seam at a d cancels, and every J(g, h)
    is non-empty with a nontrivial value in D_16, so neither can a seam of
    the dihedral form."""
    for g, (head, row) in enumerate(zip(chunks.head, chunks.mid)):
        if d in head.letters:
            raise RuntimeError(f"transport conjugator {g} contains d")
        for h, mid in enumerate(row):
            if mid is None:
                continue
            j = mid.letters[1:]
            # mid = d J, and its dihedral form d followed by J's value in D_16
            if mid.letters[:1] != (d,) or not j or d in j or len(mid.dihedral) != 2:
                raise RuntimeError(f"J({g}, {h}) is empty, contains d or is trivial in D_16")
    return chunks


def _free_product_nf(word: Word, table: FiniteGroupTable, embed: dict, passthrough):
    """Syllable normal form in (group of `table`) * (free product of passthrough
    involutions), a tuple of int syllables: a table element g > 0 as itself,
    a passthrough letter as -1 - its index.  It is the _fold of the letters'
    one-syllable forms.  Every letter must be involutive, and an embedded
    one's table generator square to the identity: else x x would be the
    identity in the table but not in the word's group.
    """
    alphabet = word.alphabet
    forms = {}  # (idx, exp) -> the letter's form: (g,) for g > 0, () for g = 0, or (-1 - idx,)
    for idx, name in enumerate(alphabet.letters):
        if name in embed:
            g = table.generator_map[embed[name]]
            if not alphabet.involutive[idx] or table.mul[g][g]:
                raise ValueError(f"embedded letter {name!r} must be involutive, and its table generator square to 1")
            forms[(idx, 1)] = (g,) if g else ()
        elif name in passthrough:
            if not alphabet.involutive[idx]:
                raise ValueError(f"passthrough letter {name!r} is not involutive")
            forms[(idx, 1)] = (-1 - idx,)

    def form(letter):
        if letter not in forms:
            raise ValueError(f"letter {alphabet.letters[letter[0]]!r} is neither embedded nor passthrough")
        return forms[letter]

    return tuple(_fold([], map(form, word.letters), table.mul))


def _fold(out: list, forms, mul) -> list:
    """Extend the normal form `out` in place to that of its product with the
    normal forms in `forms`, in turn, and return it.  At each seam two table
    syllables (both > 0) multiply into one, and two equal passthrough
    syllables (both < 0) cancel; only an identity product or a cancellation
    lets the seam move on, into the next form and back into `out`."""
    for v in forms:
        j = len(out)
        out += v
        if not j or not v:
            continue
        left, right = out[j - 1], out[j]
        if left > 0 < right:
            g = mul[left][right]
            if g:  # the common seam: one syllable, no cascade
                out[j - 1] = g
                del out[j]
                continue
        elif left != right:
            continue
        i, j = j - 2, j + 1
        while i >= 0 and j < len(out):
            left, right = out[i], out[j]
            if left != right and not left > 0 < right:
                break
            j += 1
            if left > 0 and mul[left][right]:
                out[i] = mul[left][right]
                break
            i -= 1
        del out[i + 1 : j]
    return out


def make_grigorchuk_data() -> GrigorchukData:
    abcd = Alphabet.make("a!", "b!", "c!", "d!")
    acd = Alphabet.make("a!", "c!", "d!")
    abd = Alphabet.make("a!", "b!", "d!")
    sigma_abcd = Substitution.from_rules(
        abcd, {"a": "a c a", "b": "d", "c": "b", "d": "c"}, "sigma"
    )
    sigma_acd = Substitution.from_rules(acd, {"a": "a c a", "c": "c d", "d": "c"}, "sigma")
    sigma_abd = Substitution.from_rules(abd, {"a": "a b d a", "b": "d", "d": "b d"}, "sigma")
    seeds = {
        ("abcd", "w"): "(a d)^4",
        ("abcd", "z"): "(a d a c a c)^4",
        ("acd", "w"): "(a d)^4",
        ("acd", "z"): "(a d a c a c)^4",
        ("abd", "w"): "(a d)^4",
        ("abd", "z"): "(a d a b d a b d)^4",
    }
    return GrigorchukData(
        abcd=abcd,
        acd=acd,
        abd=abd,
        sigma_abcd=sigma_abcd,
        sigma_acd=sigma_acd,
        sigma_abd=sigma_abd,
        seeds=seeds,
        d8=dihedral_group(8, names=("a", "d")),
        d16=dihedral_group(16, names=("a", "c")),
        klein_cd=klein_group(names=("c", "d")),
    )


# --- transport and verification ------------------------------------------------------


@frozen
class VerificationReport:
    """One case.  Its expected and computed words are kept as what they are
    joined from, C, the core and C^-1, and the transported word's head chunk,
    middle chunks (shared with the case of the other factor) and tail chunk,
    and are built on first read."""

    n: int
    family: str
    factor: str
    x: int
    x_name: str
    y_letters: int
    equal_klein: bool
    equal_dihedral: bool
    expected_length: int
    computed_length: int
    alphabet: Alphabet = field(repr=False)
    expected_parts: tuple = field(repr=False)  # (C, core, C^-1), reduced letters
    computed_parts: tuple = field(repr=False)  # (head, middle chunks, tail), joined without cancellation

    @cached_property
    def expected(self) -> Word:
        c, core, c_inv = self.expected_parts
        return Word._of(self.alphabet, _join(c, core, c_inv))

    @cached_property
    def computed(self) -> Word:
        head, mids, tail = self.computed_parts
        letters = chain(head.letters, chain.from_iterable(map(itemgetter(0), mids)), tail.letters)
        return Word._of(self.alphabet, tuple(letters))

    @cached_property
    def equal_free(self) -> bool:
        # words of different lengths differ; only those of equal length are read
        return self.expected_length == self.computed_length and self.expected.letters == self.computed.letters

    @property
    def level(self) -> str | None:
        if self.equal_free:
            return "free"
        return "klein" if self.equal_klein else "dihedral" if self.equal_dihedral else None

    @property
    def equal(self) -> bool:
        return self.level is not None

    def case_id(self) -> str:
        return f"n={self.n} {self.family} {self.factor} x={self.x_name or 'e'}"

    def to_dict(self) -> dict:
        return {
            "case": self.case_id(),
            "n": self.n,
            "family": self.family,
            "factor": self.factor,
            "x": self.x_name or "e",
            "equal": self.equal,
            "level": self.level,
            "equal_free": self.equal_free,
            "equal_klein": self.equal_klein,
            "equal_dihedral": self.equal_dihedral,
            "expected_length": self.expected_length,
            "computed_length": self.computed_length,
            "y_letters": self.y_letters,
        }


def _overlap(u: tuple, v: tuple) -> int:
    """How many letters cancel where reduced u and v over involutive letters meet."""
    k = 0
    while k < min(len(u), len(v)) and u[-1 - k] == v[k]:
        k += 1
    return k


def _join(*parts) -> tuple:
    """free_reduce of the product of reduced parts over involutive letters, the
    overlap cancelling at each seam; so also the stack of their conjugators,
    each piece P_g = C_g d C_g^-1 being an involution as a word."""
    out: list = []
    for v in parts:
        k = _overlap(out, v)
        del out[len(out) - k :]
        out += v[k:]
    return tuple(out)


def _joined_length(c: tuple, core: tuple, c_inv: tuple) -> int:
    """len(_join(c, core, c_inv)), building no more than the last
    len(c_inv) letters of the first join, all the second one reads."""
    k = _overlap(c, core)
    rest = core[max(k, len(core) - len(c_inv)) :]
    tail = rest if len(rest) == len(c_inv) else c[: len(c) - k] + rest
    return len(c) + len(core) + len(c_inv) - 2 * (k + _overlap(tail, c_inv))


def _report(data: GrigorchukData, record: _Family, middle: _Middle, factor: str, x: int) -> VerificationReport:
    """The report of case (factor, x) of the (n, family) of `record`, the
    middle that of x."""
    # the transported word is head[s_1] mid[s_1][s_2] ... mid[s_k-1][s_k]
    # tail[s_k].  As J(g, h) is non-empty and d-free, no seam at a d cancels:
    # the reduced word is the chunks' letters joined, and so is its dihedral
    # form, J being nontrivial in D_16.  In V, c d c d = 1 can make a seam
    # product of the Klein forms the identity, so _fold runs back into the
    # middle.  C and the core are reduced, so only the two joins can cancel,
    # in the words and in their normal forms.
    chunks = data._transport_chunks[factor]
    row, core = data.d8.mul[x], record.core
    head, tail = chunks.head[row[record.stack[0]]], chunks.tail[row[record.stack[-1]]]
    c, c_inv = chunks.head[x], chunks.inverse[x]
    klein_mul, dihedral_mul = data.klein_cd.mul, data.d16.mul
    klein = _fold(list(head.klein), (middle.klein, tail.klein), klein_mul)
    dihedral = [*head.dihedral, *record.dihedral, *tail.dihedral]
    # positional, as keywords bind in Python under @frozen: n, family, factor,
    # x, x_name, y_letters, equal_klein, equal_dihedral, expected_length,
    # computed_length, alphabet, expected_parts, computed_parts
    return VerificationReport(
        record.n, record.family, factor, x, str(data.d8.element_names[x]), record.y_letters,
        klein == _fold(list(c.klein), (core.klein, c_inv.klein), klein_mul),
        dihedral == _fold(list(c.dihedral), (core.dihedral, c_inv.dihedral), dihedral_mul),
        _joined_length(c.letters, core.letters, c_inv.letters),
        len(head.letters) + middle.length + len(tail.letters),
        data.acd, (c.letters, core.letters, c_inv.letters), (head, middle.chunks, tail),
    )


def verify_sigma_identity(
    data: GrigorchukData, n: int, family: str, factor: str, x: int
) -> VerificationReport:
    """Check one induced-relator identity.

    The induced relator ^x T(w_n) (built over D_8), transported into
    conjugated d-letters, must equal  C sigma(w_n) C^-1  with C = phi0(x)
    (second factor) or a phi0(x) (first factor), where sigma(w_n) = w_{n+1}
    is read over a,c,d through b -> cd.  Equality is reported at the free,
    Klein, and dihedral levels; inequality is reported, never raised.
    """
    if factor not in data._transport_chunks:
        raise ValueError("factor must be 'first' or 'second'")
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be an int >= 0, got {n!r}")
    if type(x) is not int or x not in range(data.d8.order):
        raise ValueError(f"x must be a D_8 element index in 0..{data.d8.order - 1}")
    _, seed = data._checked_seed("abd", family, n + 1)  # as if w_{n+1} were built
    record = data._family(n, family, seed, next(islice(data._levels(), n, None)))
    table = next(table for xs, table in data._x_classes if x in xs)
    return _report(data, record, data._middle(record, table), factor, x)


@frozen
class VerificationSummary:
    """A verification grid's case count, its equal cases, the cases at each equality level, and what it skipped."""

    total: int
    equal: int
    by_level: dict
    skipped: tuple[str, ...]

    @property
    def all_equal(self) -> bool:
        return self.total == self.equal

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "equal": self.equal,
            "all_equal": self.all_equal,
            "by_level": dict(sorted(self.by_level.items())),
            "skipped": list(self.skipped),
        }


def run_full_verification(
    data: GrigorchukData, max_n: int
) -> tuple[list[VerificationReport], VerificationSummary]:
    """All cases n in [1, max_n] x {w, z} x {first, second} x D_8.

    n = 0 is skipped (w_0 is b-free, so its basic relation is degenerate);
    the skip is recorded in the summary.  Raises LimitExceeded before any
    case if the grid's longest words, w_(max_n + 1) and z_(max_n + 1), would
    exceed FAMILY_LETTER_CAP.
    """
    if type(max_n) is not int or max_n < 0:
        raise ValueError(f"max_n must be an int >= 0, got {max_n!r}")
    seeds = {family: data._checked_seed("abd", family, max_n + 1)[1] for family in ("w", "z")}
    reports = []
    skipped = ("n=0 skipped: w_0 = (ad)^4 is b-free, its basic relation is empty",)
    for n, level in zip(range(1, max_n + 1), islice(data._levels(), 1, None)):
        for family in ("w", "z"):
            record = data._family(n, family, seeds[family], level)
            # class before factor, so both factors' cases of every x of a class
            # share its middle, and it is dropped before the next class's is built
            first, second = [None] * data.d8.order, [None] * data.d8.order
            for xs, table in data._x_classes:
                middle = data._middle(record, table)
                for x in xs:
                    first[x] = _report(data, record, middle, "first", x)
                    second[x] = _report(data, record, middle, "second", x)
            reports += first + second
    by_level = dict(Counter(rep.level or "unequal" for rep in reports))
    equal = sum(1 for rep in reports if rep.equal)
    return reports, VerificationSummary(len(reports), equal, by_level, skipped)
