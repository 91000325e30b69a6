"""Presentation transfer across finite-index normal subgroups.

Two directions: Hall's composition lemma rebuilds a presentation of an
extension from presentations of kernel and quotient; the split-extension
lemma induces a presentation of the kernel from one of the whole group, using
y-letters  ^f y_j = f^ y_j f^-1  indexed by quotient elements.  Only split
extensions with positive relators are supported.
"""

from __future__ import annotations

from .backends import FiniteGroupTable
from .errors import ArityMismatch, DoesNotCloseUp, NonPositiveRelator, NotSplit
from .presentations import Presentation
from .words import Alphabet, Word, frozen, rename_word


@frozen
class SplitExtensionData:
    """1 -> K -> G -> F -> 1, split, with F finite and positive relators.

    p_map sends each generator of G to its image in F; lifts picks the section
    word for every element of F (identity lifts to the empty word).
    """

    presentation: Presentation
    quotient: FiniteGroupTable
    p_map: tuple[int, ...]
    lifts: tuple[Word, ...]

    def __post_init__(self):
        p = self.presentation
        F = self.quotient
        if len(self.p_map) != len(p.alphabet):
            raise NotSplit("p_map must cover every generator")
        if len(self.lifts) != F.order:
            raise NotSplit("one lift per quotient element required")
        for rel in p.relators:
            if not rel.is_positive():
                raise NonPositiveRelator(f"relator '{rel}' has negative exponents")
            if self._image_of(rel) != 0:
                raise NotSplit(f"relator '{rel}' does not die in the quotient")
        if not self.lifts[0].is_empty():
            raise NotSplit("the identity must lift to the empty word")
        for f, lift in enumerate(self.lifts):
            if lift.alphabet != p.alphabet:
                raise NotSplit("lift over a different alphabet")
            if self._image_of(lift) != f:
                raise NotSplit(f"lift of element {f} projects to {self._image_of(lift)}")

    def _image_of(self, word: Word) -> int:
        return self.quotient.evaluate(word, self.p_map)

    def y_is_trivial(self, gen_index: int) -> bool:
        """y_j = x_j lift(p(x_j))^-1 is trivial when x_j is literally its own lift."""
        lift = self.lifts[self.p_map[gen_index]]
        return lift.letters == ((gen_index, 1),)


@frozen
class YLetter:
    """The abstract symbol ^f y_j: conjugator f in F, base generator j."""

    conjugator: int
    base: int


def basic_relation(word: Word, data: SplitExtensionData) -> tuple[YLetter, ...]:
    """Rewrite a positive relator in y-letters, in one pass over its prefixes.

    Each occurrence of a nontrivially-lifting generator contributes the
    y-letter conjugated by the quotient value of the whole prefix before it;
    trivially-lifting generators only feed the prefixes.  The word must die in
    the quotient, else the relator does not close up: DoesNotCloseUp.
    """
    if not word.is_positive():
        raise NonPositiveRelator(f"'{word}' has negative exponents")
    F = data.quotient
    # per generator, read once: whether its y-letter is trivial, and the
    # column of the quotient table that right-multiplies by its image
    trivial = [data.y_is_trivial(j) for j in range(len(data.p_map))]
    columns = [[row[p] for row in F.mul] for p in data.p_map]
    relation = []
    prefix = 0
    for idx, _ in word.letters:
        if not trivial[idx]:
            relation.append(YLetter(prefix, idx))
        prefix = columns[idx][prefix]
    if prefix != 0:
        raise DoesNotCloseUp(
            f"'{word}' has quotient image {F.element_names[prefix]}, not the identity"
        )
    return tuple(relation)


def conjugate_relation(relation: tuple[YLetter, ...], x: int, data: SplitExtensionData) -> tuple[YLetter, ...]:
    """^x R: left-multiply every conjugator by x, renormalized in F."""
    F = data.quotient
    return tuple(YLetter(F.mul[x][yl.conjugator], yl.base) for yl in relation)


@frozen
class InducedPresentation:
    """Result of the split-extension induction, with its simplification log."""

    presentation: Presentation
    data: SplitExtensionData
    pre_simplification_generator_count: int
    eliminated_generators: tuple[str, ...]
    dropped_relators: tuple[str, ...]

    @property
    def log(self) -> tuple[str, ...]:
        """The two simplifications in words, each when it happened."""
        names, dropped, log = self.eliminated_generators, self.dropped_relators, []
        if names:
            log.append(
                f"eliminated {len(names)} trivial y-letters (generators equal to their own lifts): {', '.join(names)}"
            )
        if dropped:
            log.append(f"dropped {len(dropped)} empty induced relators")
        return tuple(log)

    def to_dict(self) -> dict:
        return {
            "generators": list(self.presentation.alphabet.letters),
            "relators": [str(r) for r in self.presentation.relators],
            "pre_simplification_generator_count": self.pre_simplification_generator_count,
            "eliminated_generators": list(self.eliminated_generators),
            "dropped_relators": list(self.dropped_relators),
            "log": list(self.log),
        }


def y_letter_name(data: SplitExtensionData, yl: YLetter) -> str:
    """The base letter's name, then for x != e '_' and the letters of x's
    name, 'i' after an inverse one: b_ad is ^(a d) b.  Alphabet refuses a clash."""
    base = data.presentation.alphabet.letters[yl.base]
    if yl.conjugator == 0:
        return base
    path = data.quotient.element_names[yl.conjugator]
    return base + "_" + "".join(path.alphabet.letters[i] + "i" * (e < 0) for i, e in path.letters)


def induce_presentation(data: SplitExtensionData) -> InducedPresentation:
    """Present the kernel K of a split extension with finite quotient F.

    Generators: all |F| * |S| y-letters; relators: the basic relation of every
    relator of G together with all its F-conjugates.  Y-letters of generators
    that equal their own lifts are forced trivial and eliminated, and empty
    relators are dropped; both simplifications are logged so the unsimplified
    lemma output stays recoverable.
    """
    p = data.presentation
    F = data.quotient
    pre_count = F.order * len(p.alphabet)

    eliminated = []
    kept: list[YLetter] = []
    for j in range(len(p.alphabet)):
        trivial = data.y_is_trivial(j)
        for f in range(F.order):
            yl = YLetter(f, j)
            if trivial:
                eliminated.append(y_letter_name(data, yl))
            else:
                kept.append(yl)

    # y-letters are conjugates of y_j = x_j lift(p(x_j))^-1; they are involutions
    # exactly when the base letter is one (and its lift is empty)
    names, invol = [], []
    generator = {yl: i for i, yl in enumerate(kept)}  # YLetter -> generator index
    for yl in kept:
        names.append(y_letter_name(data, yl))
        invol.append(
            p.alphabet.involutive[yl.base] and data.lifts[data.p_map[yl.base]].is_empty()
        )
    y_alphabet = Alphabet(tuple(names), tuple(invol))

    relators = []
    dropped = []
    for ri, rel in enumerate(p.relators):
        basic = basic_relation(rel, data)
        for x in range(F.order):
            conj = conjugate_relation(basic, x, data)
            if not conj:
                xname = str(F.element_names[x]).replace(" ", "") or "e"
                dropped.append(f"^{xname} T(relator {ri}) is empty")
                continue
            letters = tuple((generator[yl], 1) for yl in conj)
            relators.append(Word(y_alphabet, letters))

    induced = Presentation(y_alphabet, tuple(relators), (p.name or "G") + "_induced")
    return InducedPresentation(
        presentation=induced,
        data=data,
        pre_simplification_generator_count=pre_count,
        eliminated_generators=tuple(eliminated),
        dropped_relators=tuple(dropped),
    )


def hall_compose(
    p_kernel: Presentation,
    p_quotient: Presentation,
    lift_relation_words: tuple[Word, ...],
    conjugation_words: dict[tuple[int, int], Word],
) -> Presentation:
    """Hall's lemma: present G from K = <k_i | R_j> and F = <m_j | S_n>.

    Needs one word A_n over the k_i per relator S_n of F (the value of the
    lifted relator) and one word B_ji per pair (m_j, k_i) expressing
    m_j k_i m_j^-1 in the k_i.  Relators: R_j, S_n(m) A_n(k)^-1, and
    m_j k_i m_j^-1 B_ji(k)^-1.
    """
    if len(lift_relation_words) != len(p_quotient.relators):
        raise ArityMismatch(
            f"need {len(p_quotient.relators)} lift words, got {len(lift_relation_words)}"
        )
    nk, nm = len(p_kernel.alphabet), len(p_quotient.alphabet)
    for j in range(nm):
        for i in range(nk):
            if (j, i) not in conjugation_words:
                raise ArityMismatch(f"missing conjugation word B[{j},{i}]")

    clash = set(p_kernel.alphabet.letters) & set(p_quotient.alphabet.letters)
    if clash:
        raise ArityMismatch(f"generator names clash: {sorted(clash)}")
    combined = Alphabet(
        p_kernel.alphabet.letters + p_quotient.alphabet.letters,
        p_kernel.alphabet.involutive + p_quotient.alphabet.involutive,
    )

    relators = [rename_word(r, combined) for r in p_kernel.relators]
    for n, s_rel in enumerate(p_quotient.relators):
        a_word = lift_relation_words[n]
        if a_word.alphabet != p_kernel.alphabet:
            raise ArityMismatch("lift words must be over the kernel alphabet")
        relators.append(rename_word(s_rel, combined) * rename_word(a_word, combined).inverse())
    for j in range(nm):
        m = Word(combined, ((nk + j, 1),))
        for i in range(nk):
            b_word = conjugation_words[(j, i)]
            if b_word.alphabet != p_kernel.alphabet:
                raise ArityMismatch("conjugation words must be over the kernel alphabet")
            k = Word(combined, ((i, 1),))
            relators.append(m * k * m.inverse() * rename_word(b_word, combined).inverse())
    name = f"{p_kernel.name or 'K'}.{p_quotient.name or 'F'}"
    return Presentation(combined, tuple(relators), name)


def product_presentation(p1: Presentation, p2: Presentation) -> Presentation:
    """Direct-product presentation: disjoint subscripted generators, both
    relator families, and all cross commutators [g_1, h_2]."""
    sub1 = {n: n + "1" for n in p1.alphabet.letters}
    sub2 = {n: n + "2" for n in p2.alphabet.letters}
    combined = Alphabet(
        tuple(sub1.values()) + tuple(sub2.values()),
        p1.alphabet.involutive + p2.alphabet.involutive,
    )
    n1 = len(p1.alphabet)
    relators = [rename_word(r, combined, sub1) for r in p1.relators]
    relators += [rename_word(r, combined, sub2) for r in p2.relators]
    for i in range(n1):
        g = Word(combined, ((i, 1),))
        for j in range(len(p2.alphabet)):
            h = Word(combined, ((n1 + j, 1),))
            relators.append(g * h * g.inverse() * h.inverse())
    name = f"{p1.name or 'P1'}x{p2.name or 'P2'}"
    return Presentation(combined, tuple(relators), name)
