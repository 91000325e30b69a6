"""Endomorphic presentations, their HNN extensions, and pinch reduction.

An endomorphic presentation < S | Q | Phi | R > presents the quotient of F(S)
by Q together with every image of R under the monoid generated by Phi.  Adding
one stable letter per member of Phi, with conjugacy relations t s t^-1 =
phi(s), yields a finitely presented generalized HNN extension.  Killing the
original generators leaves the free group L on the stable letters; its
positive monoid orders the extension's "horizontal" levels.

The expansion builds each image by concatenating letter images computed once
per composition sequence, so its cost follows the letters it builds, which it
caps at LETTER_CAP before building any.
"""

from __future__ import annotations

from .errors import BrittonStuck, LimitExceeded, NegativeExponent, NotInImage
from .presentations import Presentation
from .words import (
    LETTER_CAP, Alphabet, Substitution, Word, apply_substitution, free_reduce, frozen, image_letter_counts, rename_word
)


@frozen
class EndomorphicPresentation:
    """< S | Q | Phi | R >: base relators Q, iterated relators R, substitutions Phi.

    Each substitution is assumed to induce an injective endomorphism of the
    presented group; that hypothesis is recorded, not decided.  Ascending
    means Q is empty.
    """

    alphabet: Alphabet
    q_relators: tuple[Word, ...]
    substitutions: tuple[Substitution, ...]
    r_relators: tuple[Word, ...]
    stable_names: tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self):
        for w in self.q_relators + self.r_relators:
            if w.alphabet != self.alphabet:
                raise ValueError("relator over a different alphabet")
        for sub in self.substitutions:
            if sub.alphabet != self.alphabet:
                raise ValueError("substitution over a different alphabet")
        if not self.stable_names:
            names = []
            for i, sub in enumerate(self.substitutions):
                names.append(sub.name or f"t{i}")
            # stable letters must avoid the base alphabet
            fixed = []
            for n in names:
                candidate = n if n not in self.alphabet.letters else n + "_t"
                while candidate in self.alphabet.letters or candidate in fixed:
                    candidate += "_"
                fixed.append(candidate)
            object.__setattr__(self, "stable_names", tuple(fixed))
        if len(self.stable_names) != len(self.substitutions):
            raise ValueError("one stable name per substitution required")

    def combined_alphabet(self) -> Alphabet:
        return Alphabet(
            self.alphabet.letters + self.stable_names,
            self.alphabet.involutive + (False,) * len(self.stable_names),
        )


def expand_relators_annotated(
    ep: EndomorphicPresentation, depth: int
) -> list[tuple[tuple[int, ...], int, Word]]:
    """Like expand_relators, with (composition sequence, relator index) provenance.

    Q entries carry the sentinel provenance ((), -1-q_index).  The images
    under seq = (i1, ..., ik) are read off one letter table per sequence:
    table[x] holds the letters of phi_{i1}(...phi_{ik}(x)), the concatenation
    of the tables of seq[:-1] over the letters of phi_{ik}(x).  A table holds
    only the letters that R reaches within the levels left, so each entry is
    a factor of an image the expansion builds.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    out = []
    kept = {}  # the images of each length: a lone one as it is, more in a set, hashed once

    def emit(seq, ri, letters, word=None):
        same_length = kept.get(len(letters))
        if same_length is None:
            kept[len(letters)] = letters
        elif type(same_length) is tuple:
            if same_length == letters:
                return
            kept[len(letters)] = {same_length, letters}
        else:
            size = len(same_length)
            same_length.add(letters)
            if len(same_length) == size:
                return
        out.append((seq, ri, Word._of(ep.alphabet, letters) if word is None else word))

    for qi, q in enumerate(ep.q_relators):
        emit((), -1 - qi, q.letters, q)
    for ri, r in enumerate(ep.r_relators):
        emit((), ri, r.letters, r)
    subs = ep.substitutions
    if not (depth and subs and ep.r_relators):
        return out
    for r in ep.r_relators:
        if not r.is_positive():
            apply_substitution(subs[0], r)  # raises NegativeExponent, as the first image would
    sources = [[x for x, _ in r.letters] for r in ep.r_relators]
    # the letters of every image under every sequence, before de-duplication,
    # an image of an empty relator counted as one: subs map no letter to ()
    counts = [sum(source.count(x) for source in sources) for x in range(len(ep.alphabet))]
    empty, built = sum(not source for source in sources), 0
    for k in range(1, depth + 1):
        counts = image_letter_counts(subs, counts)
        built += sum(counts) + empty * len(subs) ** k
        if built > LETTER_CAP:
            raise LimitExceeded(f"relator expansion to depth {depth} builds more than {LETTER_CAP:,} letters")
    images = [[[y for y, _ in img.letters] for img in sub.images] for sub in subs]
    # reach[k]: the letters R reaches in at most depth - k substitutions
    reach = [{x for source in sources for x in source}]
    for _ in range(depth):
        reach.append(reach[-1] | {y for img in images for x in reach[-1] for y in img[x]})
    reach.reverse()
    tables = {(): [((x, 1),) for x in range(len(ep.alphabet))]}
    for k in range(1, depth + 1):
        level = {}
        for seq, table in tables.items():  # seq in lexicographic order, then j: so is seq + (j,)
            for j, img in enumerate(images):
                new = level[seq + (j,)] = [None] * len(ep.alphabet)
                for x in reach[k]:
                    new[x] = _concat(table, img[x])
                for ri, source in enumerate(sources):
                    emit(seq + (j,), ri, _concat(new, source))
        tables = level
    return out


def _concat(table: list, letters: list[int]) -> tuple[tuple[int, int], ...]:
    """The concatenation of the table entries of `letters`."""
    buf = []
    for x in letters:
        buf += table[x]
    return tuple(buf)


def expand_relators(ep: EndomorphicPresentation, depth: int) -> list[Word]:
    """Q together with every composite phi_{i1}(...phi_{ik}(r)) for k <= depth.

    Images are unreduced words, deduplicated by exact letter sequence, in
    deterministic order: Q first, then by (k, composition sequence, relator
    index).  Raises LimitExceeded, before building any image, if the images
    would hold more than LETTER_CAP letters in all, counted before
    de-duplication and an image of an empty relator as one letter; the count
    is predicted level by level from letter counts by image_letter_counts.
    """
    return [w for _, _, w in expand_relators_annotated(ep, depth)]


def hnn_presentation(ep: EndomorphicPresentation) -> Presentation:
    """The finitely presented HNN extension over S plus the stable letters.

    Relators: Q, R, and one conjugacy relator  t s t^-1 phi(s)^-1  per stable
    letter t and base letter s (orientation t s t^-1 = phi(s)).
    """
    combined = ep.combined_alphabet()
    relators = [rename_word(w, combined) for w in ep.q_relators + ep.r_relators]
    for ti, sub in enumerate(ep.substitutions):
        t = Word.letter(combined, ep.stable_names[ti])
        for si in range(len(ep.alphabet)):
            s = Word(combined, ((si, 1),))
            image = rename_word(sub.images[si], combined)
            relators.append(t * s * t.inverse() * image.inverse())
    name = ep.name + "_hnn" if ep.name else "hnn"
    return Presentation(combined, tuple(relators), name)


def stable_projection(ep: EndomorphicPresentation, word: Word) -> Word:
    """Project to the free group on the stable letters: delete base letters, reduce."""
    combined = ep.combined_alphabet()
    if word.alphabet != combined:
        raise ValueError("word must be over the combined alphabet")
    base = len(ep.alphabet)
    stable_alpha = Alphabet(ep.stable_names, (False,) * len(ep.stable_names))
    kept = tuple((idx - base, exp) for idx, exp in word.letters if idx >= base)
    return free_reduce(Word(stable_alpha, kept))


def is_positive(word: Word) -> bool:
    """Positive elements of L: nonempty products of stable letters, no inverses."""
    return not word.is_empty() and word.is_positive()


def order_less(y: Word, x: Word) -> bool:
    """y < x iff y^-1 x is positive.  A strict partial order on reduced words."""
    return is_positive(free_reduce(y.inverse() * x))


# --- decoding substitution images --------------------------------------------------


@frozen
class DecodeResult:
    """A decoded source word, and whether the decoded word has two or more parses into images."""

    source: Word
    ambiguous: bool


def sigma_decode(sub: Substitution, word: Word, with_flags: bool = False):
    """Invert the free-monoid map: find v with sub(v) letter-identical to word.

    When no image is a prefix (or no image a suffix) of another, a word has at
    most one parse, and one regex scan of the coded word reads it (see
    `Substitution.image_scan`); such a parse is never ambiguous.  Otherwise a
    dynamic programme over suffix positions finds every parse, and among
    several the shortlex-least source is returned.  `with_flags=True` also
    reports ambiguity.  Raises NotInImage when no parse exists.
    """
    if not word.is_positive():
        raise NegativeExponent("decoding applies to positive words only")
    scan = sub.image_scan
    if scan is not None:
        pattern, from_right, source_letter = scan
        code = sub.alphabet.code(word.letters)
        tokens = pattern.findall(code[::-1] if from_right else code)
        if sum(map(len, tokens)) != len(code):  # a gap the images do not cover
            raise _not_in_image(sub, word)
        parse = [source_letter[token] for token in tokens]
        if from_right:
            parse.reverse()
        ambiguous = False
    else:
        parse, ambiguous = _decode_by_suffixes(sub, word)
    source = Word._of(sub.alphabet, tuple(parse))
    if apply_substitution(sub, source).letters != word.letters:
        raise RuntimeError(f"decoded source '{source}' does not map back to '{word}'")
    if with_flags:
        return DecodeResult(source, ambiguous)
    return source


def _not_in_image(sub: Substitution, word: Word) -> NotInImage:
    return NotInImage(f"'{word}' is not a product of images of {sub.name or 'the substitution'}")


def _decode_by_suffixes(sub: Substitution, word: Word) -> tuple[list[tuple[int, int]], bool]:
    """The shortlex-least parse of a positive word into images, and whether
    it has two or more parses; NotInImage when it has none."""
    n = len(word)
    letters = word.letters
    images = [img.letters for img in sub.images]
    # Over word[pos:]: counts[pos] parses (capped at 2), the least source
    # length, and the first letter of the shortlex-least source, whose tail
    # is the shortlex-least source from there on.  Each image has its own
    # source letter, so the least length wins, then the least first letter.
    counts = [0] * (n + 1)
    length = [0] * (n + 1)
    first = [0] * (n + 1)
    counts[n] = 1
    for pos in range(n - 1, -1, -1):
        total = 0
        for li, img in enumerate(images):
            end = pos + len(img)
            if end <= n and counts[end] and letters[pos:end] == img:
                if not total or length[end] + 1 < length[pos]:
                    length[pos] = length[end] + 1
                    first[pos] = li
                total += counts[end]
        counts[pos] = min(total, 2)
    if not counts[0]:
        raise _not_in_image(sub, word)
    parse = []
    pos = 0
    while pos < n:
        parse.append((first[pos], 1))
        pos += len(images[first[pos]])
    return parse, counts[0] > 1


# --- Britton pinch reduction ---------------------------------------------------------


@frozen
class PinchStep:
    """One pinch of a Britton reduction: the `length` letters at `position` of `before` become `replacement`."""

    before: Word
    position: int
    length: int
    replacement: Word
    kind: str  # "expand" (t u t^-1 -> phi(u)) or "decode" (t^-1 u t -> sigma^-1(u))
    substitution: Substitution  # phi, whose stable letter t follows the base letters


def britton_pinch_reduce(
    ep: EndomorphicPresentation, word: Word, step_cap: int = 10_000
) -> tuple[Word, tuple[PinchStep, ...]]:
    """Remove innermost stable-letter pinches until none is left.

    t u t^-1 with u over S becomes the substitution image of u; t^-1 u t
    becomes the decoded source when u is letter-identical decodable (after
    free reduction), else the reduction is Stuck: membership of u in the image
    subgroup is only tested up to free-monoid decoding, so the operation is
    sound but not complete.  Each step strictly decreases the number of
    stable letters.
    """
    if len(ep.substitutions) != 1:
        raise ValueError("pinch reduction implemented for a single stable letter")
    combined = ep.combined_alphabet()
    if word.alphabet != combined:
        raise ValueError("word must be over the combined alphabet")
    sub = ep.substitutions[0]
    t_idx = len(ep.alphabet)
    steps: list[PinchStep] = []
    current = word

    def find_pinch(letters):
        # innermost: a t^e ... t^-e pair with only base letters between
        last_t = None
        for k, (idx, exp) in enumerate(letters):
            if idx != t_idx:
                continue
            if last_t is not None:
                k0, e0 = last_t
                if e0 == -exp:
                    return k0, k, e0
            last_t = (k, exp)
        return None

    while True:
        pinch = find_pinch(current.letters)
        if pinch is None:
            return current, tuple(steps)
        if len(steps) >= step_cap:
            raise BrittonStuck("step cap reached", word=current, trace=tuple(steps))
        k0, k1, e0 = pinch
        middle = Word._of(ep.alphabet, current.letters[k0 + 1 : k1])
        if e0 == 1:
            # t u t^-1 = phi(u); extend phi to inverses via phi(s^-1) = phi(s)^-1
            replacement = _apply_to_signed(sub, middle)
            kind = "expand"
        else:
            reduced = free_reduce(middle)
            if not reduced.is_positive():
                raise BrittonStuck(
                    f"pinch middle '{middle}' is not positive after reduction",
                    word=current,
                    trace=tuple(steps),
                )
            try:
                replacement = sigma_decode(sub, reduced)
            except NotInImage:
                raise BrittonStuck(
                    f"pinch middle '{reduced}' is not letter-identical decodable",
                    word=current,
                    trace=tuple(steps),
                ) from None
            kind = "decode"
        lifted = Word._of(combined, replacement.letters)
        steps.append(PinchStep(current, k0, k1 - k0 + 1, lifted, kind, sub))
        current = current.splice(k0, k1 - k0 + 1, lifted.letters)


def _apply_to_signed(sub: Substitution, word: Word) -> Word:
    out: list[tuple[int, int]] = []
    for idx, exp in word.letters:
        img = sub.images[idx]
        out.extend((img if exp == 1 else img.inverse()).letters)
    return Word._of(sub.alphabet, tuple(out))


def replay_pinch_trace(word: Word, steps: tuple[PinchStep, ...]) -> Word | None:
    """Re-apply every step from `word`: the word the trace ends at, or None
    as soon as a step does not start from the current word or is not a pinch."""
    current = word
    for st in steps:
        if current != st.before or not _is_pinch(st):
            return None
        current = current.splice(st.position, st.length, st.replacement.letters)
    return current


def _is_pinch(st: PinchStep) -> bool:
    """True iff the step replaces an innermost t^e u t^-e of its `before`, u
    over the base letters, by phi(u) (expand, e = 1) or by a positive v whose
    image is letter-identical to u freely reduced (decode, e = -1)."""
    sub = st.substitution
    t = len(sub.alphabet)
    seg = st.before.letters[st.position : st.position + st.length]
    if st.position < 0 or st.length < 2 or len(seg) != st.length:
        return False
    (first, e), (last, f) = seg[0], seg[-1]
    middle, repl = seg[1:-1], st.replacement.letters
    if first != t or last != t or e != -f or any(i >= t for i, _ in middle + repl):
        return False
    u = Word._of(sub.alphabet, middle)
    if st.kind == "expand" and e == 1:
        return repl == _apply_to_signed(sub, u).letters
    if st.kind == "decode" and e == -1 and all(x == 1 for _, x in repl):
        return apply_substitution(sub, Word._of(sub.alphabet, repl)).letters == free_reduce(u).letters
    return False
