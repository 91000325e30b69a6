"""Group presentations and the four elementary Tietze moves.

Relators are stored verbatim (possibly unreduced); two presentations are
equal only if alphabets and relator letter sequences coincide exactly.
Tietze moves return a new presentation together with the move that undoes
them, so a finite trace of moves can be replayed and inverted.

A move costs what it changes.  T1 checks only its new letter's name and
appends the letter, so every old letter keeps its index and each relator
keeps its letter tuple (the same object); T2 deletes its letter from the
alphabet, and keeps the rest too when it cancels the last letter.  Neither
checks the old names again.  Only a T2 of an inner letter renumbers,
re-reading the relators.  T3 and T4 keep every relator they do not add or
remove, and read their certificate's letters into one list, free-reduced
once.  The presentation a move returns is built from checked parts by
``Presentation._of``, which checks nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DerivationDoesNotReduce, InvalidMove, LimitExceeded
from .words import (
    LETTER_CAP,
    Alphabet,
    Word,
    _named,
    free_reduce,
    frozen,
    is_letter_name,
    rename_word,
    rotations_and_inverses,
)


@frozen
class Presentation:
    """< alphabet | relators >, relators kept verbatim: equal presentations agree letter for letter."""

    alphabet: Alphabet
    relators: tuple[Word, ...]
    name: str = ""

    def __post_init__(self):
        for rel in self.relators:
            if rel.alphabet is not self.alphabet and rel.alphabet != self.alphabet:
                raise ValueError("relator over a different alphabet")

    @staticmethod
    def _of(alphabet: Alphabet, relators: tuple[Word, ...], name: str) -> "Presentation":
        """The presentation unchecked: `relators` are words over `alphabet`."""
        presentation = object.__new__(Presentation)
        fields = presentation.__dict__
        fields["alphabet"] = alphabet
        fields["relators"] = relators
        fields["name"] = name
        return presentation

    @staticmethod
    def make(gens: str, relator_texts: list[str] | tuple[str, ...] = (), name: str = "") -> "Presentation":
        """Convenience:  Presentation.make("a!, d!", ["a a", "(a d)^4"])."""
        alphabet = Alphabet.make(*[g.strip() for g in gens.split(",")])
        rels = tuple(Word.from_str(alphabet, t) for t in relator_texts)
        return Presentation(alphabet, rels, name)

    @cached_property
    def cell_moves(self) -> tuple[tuple[tuple, tuple, str, str], ...]:
        """The slides of a loop across a 2-cell: an occurrence of u may become
        v^-1 whenever uv is a rotation of a relator or of its inverse.  One
        (remove, insert, coded remove, coded free-reduced insert) tuple per
        distinct (u, v^-1), relator by relator, variant by variant, cut by
        cut, coded by `Alphabet.code`.  Freely trivial relators give none.
        Before a relator's rotations are built, LimitExceeded refuses a table
        of more than LETTER_CAP letters of u and v^-1: each distinct rotation
        of an n-letter relator or of its inverse gives n + 1 moves of n
        letters, and the relator has as many as its period, its inverse the
        same ones, if it is one of them, or as many others."""
        code = self.alphabet.code
        moves = []
        seen = set()
        letters = 0  # at most the table's, once this relator's moves are in
        for rel in self.relators:
            if free_reduce(rel).is_empty():
                continue
            c, n = code(rel.letters), len(rel)
            period = (c + c).find(c, 1)
            letters += (period if code(rel.inverse().letters) in c + c else 2 * period) * n * (n + 1)
            if letters > LETTER_CAP:
                raise LimitExceeded(f"relator {_named(rel)} takes the cell-move table past {LETTER_CAP:,} letters")
            for variant in rotations_and_inverses(rel):  # each n letters long
                backwards = variant.inverse().letters
                for cut in range(n + 1):
                    u = variant.letters[:cut]
                    ins = backwards[: n - cut]  # the inverse of variant[cut:]
                    if (u, ins) not in seen:
                        seen.add((u, ins))
                        red = free_reduce(Word._of(self.alphabet, ins)).letters
                        moves.append((u, ins, code(u), code(red)))
        return tuple(moves)

    def __str__(self):
        gens = ", ".join(self.alphabet.spec(i) for i in range(len(self.alphabet)))
        rels = ", ".join(str(r) or "e" for r in self.relators)
        return f"< {gens} | {rels} >"


# --- Tietze moves -------------------------------------------------------------
#
# A derivation certificate is a product of conjugates of existing relators:
# a tuple of (conjugator word, relator index, exponent) triples.  It is
# verified by free reduction only; no search is performed.

Certificate = tuple[tuple[Word, int, int], ...]


@frozen
class T1:
    """Introduce generator `new_letter` defined by `defining_word` (adds relator y s^-1)."""

    new_letter: str
    defining_word: Word
    involutive: bool = False


@frozen
class T2:
    """Cancel a generator; requires a unique defining relator y s^-1."""

    letter: str


@frozen
class T3:
    """Introduce `relator`, justified by a derivation certificate."""

    relator: Word
    derivation: Certificate


@frozen
class T4:
    """Cancel the relator at `index`; the certificate re-derives it from the others
    (indices refer to the relator list with the removed one excluded)."""

    index: int
    derivation: Certificate


TietzeMove = T1 | T2 | T3 | T4


def _evaluate_certificate(alphabet: Alphabet, relators: tuple[Word, ...], cert: Certificate) -> Word:
    letters = []
    for conj, idx, exp in cert:
        if not 0 <= idx < len(relators):
            raise InvalidMove(f"certificate references relator {idx}, have {len(relators)}")
        if exp not in (1, -1):
            raise InvalidMove(f"certificate exponent must be 1 or -1, got {exp}")
        if conj.alphabet != alphabet:
            raise InvalidMove("certificate conjugator over another alphabet")
        base = relators[idx] if exp == 1 else relators[idx].inverse()
        letters += conj.letters
        letters += base.letters
        letters += conj.inverse().letters
    return free_reduce(Word._of(alphabet, tuple(letters)))


def _check_derivation(alphabet, relators, cert, target: Word, what: str):
    derived = _evaluate_certificate(alphabet, relators, cert)
    if derived.letters != free_reduce(target).letters:
        raise DerivationDoesNotReduce(
            f"{what}: certificate reduces to '{derived}', not to '{free_reduce(target)}'"
        )


def apply_move(p: Presentation, move: TietzeMove) -> tuple[Presentation, TietzeMove]:
    """Apply one Tietze move; returns (new presentation, inverse move).

    Applying the inverse move to the result restores `p` verbatim whenever the
    forward move appended material (T1/T3 always append at the end).
    """
    if isinstance(move, T1):
        if move.new_letter in p.alphabet.letters:
            raise InvalidMove(f"generator {move.new_letter!r} already present")
        if move.defining_word.alphabet != p.alphabet:
            raise InvalidMove("defining word must be over the old alphabet")
        if not is_letter_name(move.new_letter):
            raise InvalidMove(f"bad letter name {move.new_letter!r}")
        new_alpha = Alphabet._of(p.alphabet.letters + (move.new_letter,), p.alphabet.involutive + (move.involutive,))
        # the new letter is appended, so every old letter keeps its index
        defining = Word._of(new_alpha, ((len(p.alphabet), 1),) + move.defining_word.inverse().letters)
        new_rels = tuple(Word._of(new_alpha, r.letters) for r in p.relators) + (defining,)
        return Presentation._of(new_alpha, new_rels, p.name), T2(move.new_letter)

    if isinstance(move, T2):
        try:
            li = p.alphabet.index(move.letter)
        except KeyError:
            raise InvalidMove(f"no generator {move.letter!r}") from None
        y, y_inv = (li, 1), (li, -1)
        hits = [ri for ri, rel in enumerate(p.relators) if y in rel.letters or y_inv in rel.letters]
        if len(hits) != 1:
            raise InvalidMove(
                f"generator {move.letter!r} occurs in {len(hits)} relators; need exactly one"
            )
        ri = hits[0]
        rel = p.relators[ri]
        # The defining relator must be literally  y s^-1  with s free of y.
        if not rel.letters or rel.letters[0] != y:
            raise InvalidMove(f"relator '{rel}' does not start with {move.letter}")
        s_inv = rel.letters[1:]
        if y in s_inv or y_inv in s_inv:
            raise InvalidMove(f"{move.letter!r} reoccurs inside its defining relator")
        defining_word = Word._of(p.alphabet, s_inv).inverse()
        new_alpha = Alphabet._of(
            p.alphabet.letters[:li] + p.alphabet.letters[li + 1 :],
            p.alphabet.involutive[:li] + p.alphabet.involutive[li + 1 :],
        )
        if li == len(new_alpha):  # the last letter: no other letter is renumbered
            rehome = lambda w: Word._of(new_alpha, w.letters)
        else:
            rehome = lambda w: rename_word(w, new_alpha)
        new_rels = tuple(map(rehome, p.relators[:ri] + p.relators[ri + 1 :]))
        inverse = T1(move.letter, rehome(defining_word), p.alphabet.involutive[li])
        return Presentation._of(new_alpha, new_rels, p.name), inverse

    if isinstance(move, T3):
        if move.relator.alphabet != p.alphabet:
            raise InvalidMove("new relator must be over the presentation's alphabet")
        _check_derivation(p.alphabet, p.relators, move.derivation, move.relator, "T3")
        new_rels = p.relators + (move.relator,)
        return Presentation._of(p.alphabet, new_rels, p.name), T4(len(p.relators), move.derivation)

    if isinstance(move, T4):
        if not 0 <= move.index < len(p.relators):
            raise InvalidMove(f"no relator at index {move.index}")
        remaining = p.relators[: move.index] + p.relators[move.index + 1 :]
        _check_derivation(p.alphabet, remaining, move.derivation, p.relators[move.index], "T4")
        inverse = T3(p.relators[move.index], move.derivation)
        return Presentation._of(p.alphabet, remaining, p.name), inverse

    raise InvalidMove(f"unknown move {move!r}")


def tietze(p: Presentation, move: TietzeMove) -> Presentation:
    """Apply a move, discarding the inverse record."""
    return apply_move(p, move)[0]


@dataclass
class FiniteEquivalenceTrace:
    """A replayable, invertible sequence of Tietze moves from a start presentation."""

    start: Presentation
    steps: list[tuple[TietzeMove, TietzeMove]] = field(default_factory=list)
    current: Presentation = field(init=False, repr=False)  # the last move's result

    def __post_init__(self):
        self.current = self.replay()

    def apply(self, move: TietzeMove) -> Presentation:
        self.current, inverse = apply_move(self.current, move)
        self.steps.append((move, inverse))
        return self.current

    def replay(self) -> Presentation:
        """Re-apply every move from `start`."""
        p = self.start
        for move, _ in self.steps:
            p = apply_move(p, move)[0]
        return p

    def invert(self) -> Presentation:
        """Undo every move; returns (and checks) the start presentation."""
        p = self.current
        for _, inverse in reversed(self.steps):
            p = apply_move(p, inverse)[0]
        if p != self.start:
            raise InvalidMove("trace inversion did not restore the start presentation")
        return p
