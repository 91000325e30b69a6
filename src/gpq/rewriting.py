"""String rewriting with traces, critical pairs, and confluence certificates.

A rewriting system replaces subwords according to finitely many rules
lhs -> rhs.  Reduction rewrites the leftmost match first, the lowest rule
index winning a tie.  It works on a word coded as a str by `Alphabet.code`,
one character per letter, and finds each match with one regex scan of all
left-hand sides (`RewritingSystem._scan`); the moves it makes are replayed
into a full trace only for the words a caller keeps (`normal_form` replays
none).
Geodesic systems never increase length, which is what lets a reduction
sequence of an identity word double as a null-homotopy staying inside a
metric ball (see `ball_null_homotopy_witness`).
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from itertools import product

from .errors import GpqError, LimitExceeded, OracleMismatch
from .presentations import Presentation
from .words import Alphabet, Word, free_reduce, frozen, rotations_and_inverses


@frozen
class RewritingSystem:
    """Rewriting rules lhs -> rhs over one alphabet, each lhs nonempty."""

    alphabet: Alphabet
    rules: tuple[tuple[Word, Word], ...]

    def __post_init__(self):
        for lhs, rhs in self.rules:
            if lhs.alphabet != self.alphabet or rhs.alphabet != self.alphabet:
                raise ValueError("rule over a different alphabet")
            if lhs.is_empty():
                raise ValueError("rule left-hand sides must be nonempty")

    @staticmethod
    def make(gens: str, rules: list[tuple[str, str]]) -> "RewritingSystem":
        alphabet = Alphabet.make(*[g.strip() for g in gens.split(",")])
        built = tuple(
            (Word.from_str(alphabet, l), Word.from_str(alphabet, r)) for l, r in rules
        )
        return RewritingSystem(alphabet, built)

    @cached_property
    def _scan(self) -> tuple[re.Pattern, tuple[str, ...]]:
        """The coded left-hand sides as one regex alternation, group i + 1
        matching rule i, and the coded right-hand sides.  A search stops at
        the leftmost position where some lhs matches, and the alternation
        takes the lowest rule index there."""
        pattern = "|".join(f"({re.escape(self.alphabet.code(lhs.letters))})" for lhs, _ in self.rules)
        return re.compile(pattern), tuple(self.alphabet.code(rhs.letters) for _, rhs in self.rules)

    @cached_property
    def _reach(self) -> int:
        """The longest lhs less one: a step at pos changes no letter before
        pos, and no window starting before pos matched, so only windows that
        start at most this far before pos can match after it."""
        return max((len(lhs) for lhs, _ in self.rules), default=1) - 1

    @cached_property
    def _sides(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """Each rule's lhs length and rhs letters: what a traced step reads."""
        return tuple((len(lhs), rhs.letters) for lhs, rhs in self.rules)


@frozen
class ReductionStep:
    """One rewriting step: rule `rule` replaced its lhs at `position` of `before`, giving `after`."""

    before: Word
    rule: int
    position: int
    after: Word


@frozen
class ReductionTrace:
    """The steps of a reduction, each replayable against the rewriting system by `verify`."""

    steps: tuple[ReductionStep, ...]

    def verify(self, rs: RewritingSystem) -> bool:
        """Each step names a rule of `rs` and replaces its lhs at a position
        inside the word; steps chain."""
        for i, step in enumerate(self.steps):
            if not 0 <= step.rule < len(rs.rules):
                return False
            lhs, rhs = rs.rules[step.rule]
            p = step.position
            if not 0 <= p <= len(step.before) - len(lhs):
                return False
            if step.before.letters[p : p + len(lhs)] != lhs.letters:
                return False
            if step.after.letters != step.before.splice(p, len(lhs), rhs.letters).letters:
                return False
            if i + 1 < len(self.steps) and self.steps[i + 1].before != step.after:
                return False
        return True

    def to_json(self) -> str:
        return json.dumps(
            {
                "steps": [
                    {
                        "before": str(s.before),
                        "rule": s.rule,
                        "pos": s.position,
                        "after": str(s.after),
                    }
                    for s in self.steps
                ]
            },
            sort_keys=True,
        )


def _rewrite(rs: RewritingSystem, code: str, step_limit: int) -> tuple[str, list[tuple[int, int]], bool]:
    """Rewrite the coded word leftmost match first for at most `step_limit`
    steps: the coded result, the (rule, position) moves, and whether it
    stopped irreducible.  After a step at pos the scan resumes `rs._reach`
    letters before pos."""
    if step_limit <= 0:
        raise ValueError("step_limit must be positive")
    pattern, rhs = rs._scan
    search = pattern.search
    reach = rs._reach
    moves = []
    hit = search(code)
    while hit is not None:
        if len(moves) >= step_limit:
            return code, moves, False
        pos, end = hit.span()
        ri = hit.lastindex - 1
        code = code[:pos] + rhs[ri] + code[end:]
        moves.append((ri, pos))
        hit = search(code, pos - reach if pos > reach else 0)
    return code, moves, True


def _traced(rs: RewritingSystem, word: Word, moves, irreducible: bool, step_limit: int):
    """The word that `moves` take `word` to, with their trace; LimitExceeded
    with both when the moves stopped at the step limit.  Each step's fields
    are stored as `Word._of` stores a word's, past the frozen __init__."""
    alphabet, sides, of, new = rs.alphabet, rs._sides, Word._of, object.__new__
    steps = []
    current, letters = word, word.letters
    for ri, pos in moves:
        width, rhs = sides[ri]
        letters = letters[:pos] + rhs + letters[pos + width :]
        after = of(alphabet, letters)
        step = new(ReductionStep)
        fields = step.__dict__
        fields["before"] = current
        fields["rule"] = ri
        fields["position"] = pos
        fields["after"] = after
        steps.append(step)
        current = after
    trace = ReductionTrace(tuple(steps))
    if not irreducible:
        raise LimitExceeded(f"no irreducible word within {step_limit} steps", word=current, trace=trace)
    return current, trace


def reduce(rs: RewritingSystem, word: Word, step_limit: int = 10_000) -> tuple[Word, ReductionTrace]:
    """Reduce to an irreducible word by rewriting the leftmost match first,
    returning it with the full trace.

    Raises LimitExceeded (with partial trace) if the limit is hit; completeness
    of a system is never assumed, only evidenced.
    """
    if word.alphabet != rs.alphabet:
        raise ValueError("word over a different alphabet")
    _, moves, irreducible = _rewrite(rs, rs.alphabet.code(word.letters), step_limit)
    return _traced(rs, word, moves, irreducible, step_limit)


def normal_form(rs: RewritingSystem, word: Word, step_limit: int = 10_000) -> tuple[Word, int]:
    """The word `reduce` returns, with its number of steps but no trace, so
    memory stays at one word whatever the step count.  Raises `reduce`'s
    LimitExceeded message, carrying the word reached and no trace."""
    if word.alphabet != rs.alphabet:
        raise ValueError("word over a different alphabet")
    code, moves, irreducible = _rewrite(rs, rs.alphabet.code(word.letters), step_limit)
    dirs = rs.alphabet.directions
    nf = Word._of(rs.alphabet, tuple(dirs[ord(c)] for c in code))
    if not irreducible:
        raise LimitExceeded(f"no irreducible word within {step_limit} steps", word=nf)
    return nf, len(moves)


def is_geodesic(rs: RewritingSystem) -> bool:
    """True iff no rule increases length."""
    return all(len(lhs) >= len(rhs) for lhs, rhs in rs.rules)


@frozen
class CriticalPair:
    """An overlap or containment of two rules' left-hand sides: the `peak` word and what each rule makes of it."""

    peak: Word
    left: Word
    right: Word
    rule_left: int
    rule_right: int


def critical_pairs(rs: RewritingSystem) -> list[CriticalPair]:
    """All overlap and containment ambiguities between rule left-hand sides."""
    pairs = []
    for i, (l1, r1) in enumerate(rs.rules):
        for j, (l2, r2) in enumerate(rs.rules):
            # overlap: proper suffix of l1 equals proper prefix of l2
            for k in range(1, min(len(l1), len(l2))):
                if l1.letters[len(l1) - k :] == l2.letters[:k]:
                    peak = Word(rs.alphabet, l1.letters + l2.letters[k:])
                    left = Word(rs.alphabet, r1.letters + l2.letters[k:])
                    right = Word(rs.alphabet, l1.letters[: len(l1) - k] + r2.letters)
                    pairs.append(CriticalPair(peak, left, right, i, j))
            # containment: l2 occurs inside l1 (proper, or equal lhs of distinct rules)
            if i == j:
                continue
            for p in range(len(l1) - len(l2) + 1):
                if l1.letters[p : p + len(l2)] != l2.letters:
                    continue
                if len(l2) == len(l1) and j < i:
                    continue  # equal lhs pair already emitted for (j, i)
                right = l1.splice(p, len(l2), r2.letters)
                pairs.append(CriticalPair(l1, r1, right, i, j))
    return pairs


@frozen
class Certified:
    """Local confluence proved: every one of the `pairs_checked` critical pairs joins."""

    pairs_checked: int


@frozen
class Counterexample:
    """Local confluence refuted: a critical pair whose sides reduce to distinct normal forms."""

    peak: Word
    left: Word
    right: Word


@frozen
class Inconclusive:
    """Local confluence undecided within the step limit, and why."""

    reason: str


def certify_local_confluence(rs: RewritingSystem, step_limit: int = 1_000):
    """Join every critical pair within the step limit.

    Returns Certified, Counterexample, or Inconclusive (when some reduction
    does not terminate within the limit; e.g. an expanding rule).  Certified
    plus termination evidence yields confluence by Newman's lemma; termination
    is probed here by reducing every rule side.
    """

    def normal_form(word: Word) -> str | None:
        """The coded normal form of `word`, None past the step limit."""
        code, _, irreducible = _rewrite(rs, rs.alphabet.code(word.letters), step_limit)
        return code if irreducible else None

    if any(normal_form(side) is None for rule in rs.rules for side in rule):
        return Inconclusive("a rule side does not reduce within the step limit")
    pairs = critical_pairs(rs)
    for pair in pairs:
        left, right = normal_form(pair.left), normal_form(pair.right)
        if left is None or right is None:
            return Inconclusive(f"peak '{pair.peak}' does not join within the step limit")
        if left != right:
            nf_left, nf_right = reduce(rs, pair.left, step_limit)[0], reduce(rs, pair.right, step_limit)[0]
            return Counterexample(pair.peak, nf_left, nf_right)
    return Certified(len(pairs))


class NotGeodesic(GpqError):
    pass


def _rule_matches_presentation(rs: RewritingSystem, p: Presentation, rule) -> bool:
    """The relation lhs = rhs must appear among the relators up to rotation/inversion.

    Inverses follow the involutive convention, but involutive squares like a^2
    are not cancelled away before matching; rules expressing free cancellations
    (lhs rhs^-1 trivially reduced) need no 2-cell and always match.
    """
    lhs, rhs = rule
    # with every involutive flag cleared, only explicit x x^-1 pairs cancel
    plain = Alphabet(rs.alphabet.letters, (False,) * len(rs.alphabet))
    target = free_reduce(Word(plain, (lhs * rhs.inverse()).letters)).letters
    if not target:
        return True
    for rel in p.relators:
        base = Word(rs.alphabet, free_reduce(Word(plain, rel.letters)).letters)
        # the inverse of a reduced word is reduced
        if any(variant.letters == target for variant in rotations_and_inverses(base)):
            return True
    return False


@frozen
class NullHomotopyCertificate:
    """Each identity word of length <= 2r+1 reduces in B(r): a (word, trace) witness per such word."""

    radius: int
    words_checked: int
    witnesses: tuple[tuple[Word, ReductionTrace], ...]


def ball_null_homotopy_witness(
    rs: RewritingSystem,
    p: Presentation,
    r: int,
    step_limit: int = 10_000,
    word_cap: int = 200_000,
) -> NullHomotopyCertificate:
    """Certify that identity words of length <= 2r+1 reduce inside the ball B(r).

    For a geodesic system whose rules all correspond to relators of p, every
    reduction sequence w -> w1 -> ... -> e is a null-homotopy whose stages all
    have length <= 2r+1 (no rule lengthens a word), hence stay within B(r).
    The candidates are enumerated as `Alphabet.code` strs, shortest first
    and in column order within a length; a candidate becomes a `Word`, with
    a trace, only when it rewrites to the empty word.
    Returns a certificate with one (word, trace) witness per identity word.
    Raises ValueError for a negative radius, LimitExceeded before reducing
    any word if there are more than `word_cap` candidates, and, naming the
    word, if a candidate's reduction hits `step_limit`.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    if not is_geodesic(rs):
        raise NotGeodesic("witness construction requires a geodesic system")
    for rule in rs.rules:
        if not _rule_matches_presentation(rs, p, rule):
            raise OracleMismatch(
                f"rule '{rule[0]} -> {rule[1]}' has no associated relator in {p}"
            )
    bound = 2 * r + 1
    count = layer = 1  # the words of length <= bound, counted up to the first past the cap
    for _ in range(bound):
        if count > word_cap:
            break
        layer *= len(rs.alphabet.directions)
        count += layer
    if count > word_cap:
        raise LimitExceeded(f"more than {word_cap} candidate words at radius {r}")
    dirs = rs.alphabet.directions
    codes = rs.alphabet.code(dirs)
    witnesses = []
    for n in range(bound + 1):
        for chars in product(codes, repeat=n):
            code, moves, irreducible = _rewrite(rs, "".join(chars), step_limit)
            if code and irreducible:
                continue  # not an identity word: no Word or trace is built
            w = Word._of(rs.alphabet, tuple([dirs[ord(c)] for c in chars]))
            try:
                witnesses.append((w, _traced(rs, w, moves, irreducible, step_limit)[1]))
            except LimitExceeded as exc:
                raise LimitExceeded(f"candidate word '{w}': {exc}", exc.word, exc.trace) from None
    return NullHomotopyCertificate(r, count, tuple(witnesses))


# --- ready-made systems ----------------------------------------------------------


def free_reduction_system(alphabet: Alphabet) -> RewritingSystem:
    """Rules cancelling x x^-1 / x^-1 x (x x for involutive letters)."""
    rules = []
    eps = Word.identity(alphabet)
    for i in range(len(alphabet)):
        if alphabet.involutive[i]:
            rules.append((Word(alphabet, ((i, 1), (i, 1))), eps))
        else:
            rules.append((Word(alphabet, ((i, 1), (i, -1))), eps))
            rules.append((Word(alphabet, ((i, -1), (i, 1))), eps))
    return RewritingSystem(alphabet, tuple(rules))


def dihedral_rewriting_system(order: int, names: tuple[str, str] = ("a", "d")) -> RewritingSystem:
    """Geodesic confluent system for the dihedral group of order 2m (m even).

    Irreducible words are the canonical alternating normal forms; the rule
    (yx)^(m/2) -> (xy)^(m/2) orients the single length-m collision.
    """
    m = order // 2
    if order < 4 or order % 2 != 0 or m % 2 != 0:
        raise ValueError("needs order = 2m with m even")
    x, y = names
    alphabet = Alphabet.make(x + "!", y + "!")
    eps = Word.identity(alphabet)
    half = m // 2
    lhs = Word.from_str(alphabet, f"({y} {x})^{half}")
    rhs = Word.from_str(alphabet, f"({x} {y})^{half}")
    rules = (
        (Word.from_str(alphabet, f"{x} {x}"), eps),
        (Word.from_str(alphabet, f"{y} {y}"), eps),
        (lhs, rhs),
    )
    return RewritingSystem(alphabet, rules)


def abelian_plane_system() -> RewritingSystem:
    """Geodesic confluent system for Z^2 with normal forms a^p b^q."""
    alphabet = Alphabet.make("a", "b")
    W = lambda t: Word.from_str(alphabet, t)  # noqa: E731
    eps = Word.identity(alphabet)
    rules = [
        (W("a a'"), eps),
        (W("a' a"), eps),
        (W("b b'"), eps),
        (W("b' b"), eps),
        (W("b a"), W("a b")),
        (W("b a'"), W("a' b")),
        (W("b' a"), W("a b'")),
        (W("b' a'"), W("a' b'")),
    ]
    return RewritingSystem(alphabet, tuple(rules))
