"""Words over signed alphabets with involutive letters, and substitutions.

A word is a sequence of (letter index, exponent) pairs with exponent +1 or -1.
Letters flagged involutive satisfy g^2 = 1, so g and g^-1 are identified and
such letters are always stored with exponent +1.  Words are kept verbatim
(possibly unreduced); ``free_reduce`` computes the unique reduced form in the
free product of the letter groups (Z for ordinary letters, Z/2 for involutive
ones).  The text format's tokenizer, one regex scan, and its word grammar,
one loop over a stack of open groups, live here too, so ``Word.from_str`` and
the ``parsing`` module read words the same way; ``is_letter_name`` states
which names it reads back as one letter.  A word's text may expand to
at most ``LETTER_CAP`` letters: a longer one is refused, with LimitExceeded,
before it is built.

A word's letters are checked once, where they enter the program: ``Word(...)``
checks them, and so does ``Word.splice`` for the letters it inserts.  A word
made only from the stored letters of words over the same alphabet (products,
powers, inverses, reductions, rotations, substitution images, renamings onto
an alphabet's own indices) is built by ``Word._of`` and not checked again.
Likewise an alphabet's names are checked once: one derived from a checked
alphabet by appending a checked name or deleting one is built by
``Alphabet._of``.

Every immutable value class of gpq is declared with ``frozen``, defined here
because every other module imports this one.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from functools import cached_property
from inspect import Parameter, Signature
from itertools import product
from operator import attrgetter
from reprlib import recursive_repr
from typing import Iterable, Iterator, NamedTuple

from .errors import LimitExceeded, NegativeExponent, ParseError


def frozen(cls):
    """A frozen dataclass without per-class generated code.

    ``dataclass`` only records the fields, so ``dataclasses.fields``,
    ``replace`` and ``__match_args__`` work as for any dataclass.  The
    methods are closures over the field names, one code object each for
    every class, where ``dataclass`` with ``frozen=True`` writes them out as
    source and compiles them per class at each import.  They behave as the
    generated ones do: equality, hash and repr over the fields that
    ``compare`` and ``repr`` keep, defaults, ``self.__post_init__()``, the
    same TypeError and FrozenInstanceError messages, and
    ``inspect.signature``; a method the class body defines is kept.  A field
    takes a plain default at most (no ``default_factory``, ``init=False`` or
    ``kw_only``), and ``__dataclass_params__`` records the bookkeeping call,
    not frozen=True.
    """
    own = cls.__dict__
    documented = bool(own.get("__doc__"))
    body_hash = own.get("__hash__", MISSING)
    explicit_hash = body_hash is not MISSING and not (body_hash is None and "__eq__" in own)
    dataclass(init=False, repr=False, eq=False)(cls)
    fs = fields(cls)
    for f in fs:
        if not f.init or f.kw_only or f.default_factory is not MISSING:
            raise TypeError(f"{cls.__qualname__}.{f.name}: a frozen field takes a plain default at most")
    names = tuple(f.name for f in fs)
    defaults = {f.name: f.default for f in fs if f.default is not MISSING}
    n = len(names)
    late = [name for name in names[n - len(defaults) :] if name not in defaults]
    if late:
        raise TypeError(f"non-default argument {late[0]!r} follows default argument")
    qualname = f"{cls.__qualname__}.__init__"
    positions = tuple(enumerate(names))
    post_init = hasattr(cls, "__post_init__")
    compared = _getter(f.name for f in fs if f.compare)
    hashed = _getter(f.name for f in fs if (f.compare if f.hash is None else f.hash))
    shown = tuple(f.name for f in fs if f.repr)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bound(qualname, names, defaults, args, kwargs)
        # object.__setattr__ keeps the attributes inline in the instance, where
        # writing self.__dict__ would build a dict and slow every later read
        for i, name in positions:
            _set(self, name, args[i])
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(hashed(self))

    @recursive_repr()
    def __repr__(self):
        values = ", ".join([f"{name}={getattr(self, name)!r}" for name in shown])
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    kind, empty = Parameter.POSITIONAL_OR_KEYWORD, Parameter.empty
    params = [Parameter(f.name, kind, default=defaults.get(f.name, empty), annotation=f.type) for f in fs]
    __init__.__signature__ = Signature([Parameter("self", kind)] + params, return_annotation=None)
    for method in (__init__, __repr__, __eq__, __setattr__, __delattr__):
        name = method.__name__
        if name in own:
            if name in ("__setattr__", "__delattr__"):
                raise TypeError(f"Cannot overwrite attribute {name} in class {cls.__name__}")
            continue
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    if not explicit_hash:
        __hash__.__qualname__ = f"{cls.__qualname__}.__hash__"
        cls.__hash__ = __hash__
    if not documented:
        cls.__doc__ = cls.__name__ + str(Signature(params))
    return cls


_set = object.__setattr__


def _getter(names):
    """The function of an object that gives the tuple of its attributes `names`."""
    names = tuple(names)
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _bound(qualname, names, defaults, args, kwargs) -> list:
    """One value per name: `args`, then for each later name its value in
    `kwargs` or else in `defaults`."""
    if not args and len(kwargs) == len(names):  # every field by keyword, as `replace` and the grid pass them
        try:
            return list(map(kwargs.__getitem__, names))
        except KeyError:
            pass
    values = list(args)
    taken = 0
    for name in names[len(args) :]:
        if name in kwargs:
            values.append(kwargs[name])
            taken += 1
        elif name in defaults:
            values.append(defaults[name])
        else:
            break
    if len(values) == len(names) and taken == len(kwargs):
        return values
    raise _call_error(qualname, names, defaults, args, kwargs)


def _call_error(qualname, names, defaults, args, kwargs) -> TypeError:
    """The TypeError of calling a function `qualname`, with parameters self
    and `names`, the last ones defaulting, with `args` and `kwargs`."""
    for name in kwargs:
        if name not in names:
            return TypeError(f"{qualname}() got an unexpected keyword argument '{name}'")
        if name in names[: len(args)]:
            return TypeError(f"{qualname}() got multiple values for argument '{name}'")
    if len(args) > len(names):
        most = len(names) + 1  # counting self
        takes = f"from {most - len(defaults)} to {most}" if defaults else most
        plural = "s" if defaults or most != 1 else ""
        return TypeError(f"{qualname}() takes {takes} positional argument{plural} but {len(args) + 1} were given")
    missing = [repr(name) for name in names[len(args) :] if name not in kwargs and name not in defaults]
    listed = " and ".join(missing) if len(missing) < 3 else ", ".join(missing[:-1]) + ", and " + missing[-1]
    plural = "s" if len(missing) > 1 else ""
    return TypeError(f"{qualname}() missing {len(missing)} required positional argument{plural}: {listed}")


@frozen
class Alphabet:
    """Letter names and involutive flags; a letter is its index, an involutive one its own inverse."""

    letters: tuple[str, ...]
    involutive: tuple[bool, ...]

    def __post_init__(self):
        if len(self.letters) != len(self.involutive):
            raise ValueError("letters and involutive flags differ in length")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"duplicate letter names in {self.letters}")
        for name in self.letters:
            if not is_letter_name(name):
                raise ValueError(f"bad letter name {name!r}")

    @staticmethod
    def _of(letters: tuple[str, ...], involutive: tuple[bool, ...]) -> "Alphabet":
        """The alphabet of `letters` and `involutive` unchecked: the names and
        flags of a checked alphabet, with a checked name appended or one
        name deleted."""
        alphabet = object.__new__(Alphabet)
        fields = alphabet.__dict__
        fields["letters"] = letters
        fields["involutive"] = involutive
        return alphabet

    @staticmethod
    def make(*specs: str) -> "Alphabet":
        """Build from specs like  Alphabet.make("a!", "c!", "d", "t").

        A trailing ``!`` marks the letter involutive.
        """
        letters, invol = [], []
        for spec in specs:
            if spec.endswith("!"):
                letters.append(spec[:-1])
                invol.append(True)
            else:
                letters.append(spec)
                invol.append(False)
        return Alphabet(tuple(letters), tuple(invol))

    def __len__(self):
        return len(self.letters)

    @cached_property
    def _positions(self) -> dict[str, int]:
        """Each letter name's index."""
        return {name: i for i, name in enumerate(self.letters)}

    @cached_property
    def directions(self) -> tuple[tuple[int, int], ...]:
        """The signed letters in column order: (i, 1), and (i, -1) unless
        letter i is involutive.  A ball's rows hold its neighbour in
        direction k at column k, and `code` writes that letter as chr(k)."""
        return tuple((i, e) for i, invol in enumerate(self.involutive) for e in ((1,) if invol else (1, -1)))

    @cached_property
    def columns(self) -> dict[tuple[int, int], int]:
        """Each signed letter's column: its index in `directions`."""
        return {d: k for k, d in enumerate(self.directions)}

    @cached_property
    def inverse_columns(self) -> tuple[int, ...]:
        """Each column's inverse column."""
        column, invol = self.columns, self.involutive
        return tuple(column[(i, e if invol[i] else -e)] for i, e in self.directions)

    @cached_property
    def inverse_codes(self) -> dict[str, str]:
        """Each letter's code to its inverse's code."""
        return {chr(k): chr(j) for k, j in enumerate(self.inverse_columns)}

    @cached_property
    def _chars(self) -> tuple:
        """The code of letter (i, e) at [e][i]; an involutive letter's both ways."""
        plus = [self.columns[(i, 1)] for i in range(len(self))]
        return None, tuple(map(chr, plus)), tuple(chr(self.inverse_columns[k]) for k in plus)

    def code(self, letters) -> str:
        """`letters` as a str, one chr(column) per signed letter."""
        chars = self._chars
        return "".join([chars[e][i] for i, e in letters])

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"letter {name!r} not in alphabet {self.letters}") from None

    def spec(self, i: int) -> str:
        return self.letters[i] + ("!" if self.involutive[i] else "")


@frozen
class Word:
    """A (possibly unreduced) word; letters are (index, exponent) pairs."""

    alphabet: Alphabet
    letters: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        letters = _checked(self.alphabet, self.letters)
        if letters is not self.letters:
            object.__setattr__(self, "letters", letters)

    @staticmethod
    def _of(alphabet: Alphabet, letters: tuple[tuple[int, int], ...]) -> "Word":
        """The word of `letters` unchecked: a tuple of letters already stored
        in words over `alphabet`."""
        word = object.__new__(Word)
        fields = word.__dict__
        fields["alphabet"] = alphabet
        fields["letters"] = letters
        return word

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_str(alphabet: Alphabet, text: str) -> "Word":
        """Parse space-separated letters; ``x'`` is the inverse of x and
        ``( ... )^k`` repeats a factor k times.

        Reads through the file-format tokenizer: malformed text raises
        ParseError, an unknown letter KeyError, and a text of more than
        LETTER_CAP letters LimitExceeded.
        """
        if "#" in text:  # a comment in a file, but no part of a word
            raise ParseError(f"unexpected character '#' in word {text!r}")
        try:
            tokens = [t.text for t in _tokenize(text)]
        except ParseError as exc:
            raise ParseError(f"{exc.reason} in word {text!r}") from None
        return Word(alphabet, _word_letters(alphabet, tokens))

    @staticmethod
    def identity(alphabet: Alphabet) -> "Word":
        return Word(alphabet, ())

    @staticmethod
    def letter(alphabet: Alphabet, name: str, exp: int = 1) -> "Word":
        return Word(alphabet, ((alphabet.index(name), exp),))

    # -- monoid structure (verbatim concatenation, no reduction) --------------

    def __mul__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word._of(self.alphabet, self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word._of(self.alphabet, self.letters * n)

    def inverse(self) -> "Word":
        invol = self.alphabet.involutive  # an involutive letter is its own inverse
        return Word._of(
            self.alphabet,
            tuple((idx, exp if invol[idx] else -exp) for idx, exp in reversed(self.letters)),
        )

    def splice(self, position: int, length: int, letters: tuple[tuple[int, int], ...]) -> "Word":
        """The word with its `length` letters from `position` replaced by
        `letters`, which are checked."""
        inserted = _checked(self.alphabet, letters)
        return Word._of(self.alphabet, self.letters[:position] + inserted + self.letters[position + length :])

    # -- queries ---------------------------------------------------------------

    def __len__(self):
        return len(self.letters)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.letters)

    def is_positive(self) -> bool:
        return all(exp == 1 for _, exp in self.letters)

    def is_empty(self) -> bool:
        return not self.letters

    def __str__(self):
        parts = []
        for idx, exp in self.letters:
            name = self.alphabet.letters[idx]
            parts.append(name if exp == 1 else name + "'")
        return " ".join(parts)

    def __repr__(self):
        return f"Word({str(self) or 'e'})"


def _checked(alphabet: Alphabet, letters: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """`letters` as a tuple, each an (index, +1 or -1) letter of `alphabet`,
    with involutive letters stored as exponent +1; ValueError otherwise."""
    letters = tuple(letters)
    n = len(alphabet)
    invol = alphabet.involutive
    clean = True
    for idx, exp in letters:
        if not 0 <= idx < n:
            raise ValueError(f"letter index {idx} out of range")
        if exp == -1:
            if invol[idx]:
                clean = False
        elif exp != 1:
            raise ValueError(f"exponent must be +1 or -1, got {exp}")
    if clean:
        return letters
    return tuple((idx, 1 if invol[idx] else exp) for idx, exp in letters)


# --- word text: the tokenizer and word grammar of the file format ------------
# One pattern reads the tokens; one loop over a stack of open groups, the letters.

LETTER_CAP = 1 << 18  # the most letters of a word read from text, or of a relator family word


class _Tok(NamedTuple):
    text: str
    line: int
    col: int


_PUNCT = {";", ",", ":", "(", ")", "^", "'", "!"}
# a token, a '#' comment, a line break, or any other non-space character, an
# error; \d is str.isdecimal(), \w str.isalnum() or '_', \S not str.isspace()
_TOKEN = re.compile(r"->|[;,:()^'!]|\d+|\w+|#.*|\n|(?P<other>\S)")
_WORD = re.compile(r"\w+")


def is_letter_name(name: str) -> bool:
    """True iff the text format reads `name` back as one letter: a single
    \\w+ token whose first character is a letter or '_'."""
    return _WORD.fullmatch(name) is not None and (name[0].isalpha() or name[0] == "_")


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, start = 1, 0  # the line, and the offset of its first character
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "\n":
            line, start = line + 1, m.end()
        elif m.lastgroup:
            raise ParseError(f"unexpected character {tok!r}", line, m.start() - start + 1)
        elif tok[0] != "#":
            toks.append(_Tok(tok, line, m.start() - start + 1))
    return toks


def _word_letters(alphabet: Alphabet, tokens: list[str]) -> tuple[tuple[int, int], ...]:
    """The (index, exponent) letters of a word's tokens; ParseError on
    malformed text, KeyError on an unknown letter, and LimitExceeded on a word
    of more than LETTER_CAP letters, before a `)^k` builds it."""
    groups: list[list[tuple[int, int]]] = [[]]  # the letters of each open group, outermost first
    outside = 0  # the letters of every open group but the innermost
    i, n = 0, len(tokens)
    while i < n:
        tok = tokens[i]
        i += 1
        if tok == "(":
            outside += len(groups[-1])
            groups.append([])
        elif tok == ")":
            if len(groups) == 1:
                raise ParseError("unbalanced ')' in word")
            inner = groups.pop()
            k = 1
            if i < n and tokens[i] == "^":
                if i + 1 == n or not tokens[i + 1].isdecimal():  # the digits int() reads; not '²'
                    raise ParseError("expected integer after '^'")
                try:
                    k = int(tokens[i + 1])
                except ValueError:  # more digits than int() converts (4,300 by default): past the cap
                    k = LETTER_CAP + 1
                i += 2
            if outside + k * len(inner) > LETTER_CAP:
                raise LimitExceeded(f"a word's text expands to more than {LETTER_CAP:,} letters")
            outside -= len(groups[-1])
            groups[-1] += inner * k
        elif tok in _PUNCT or tok == "->":
            raise ParseError(f"unexpected {tok!r} in word")
        else:
            exp = 1
            if i < n and tokens[i] == "'":
                exp, i = -1, i + 1
            groups[-1].append((alphabet.index(tok), exp))
    if len(groups) > 1:
        raise ParseError("unbalanced '(' in word")
    if len(groups[0]) > LETTER_CAP:
        raise LimitExceeded(f"a word's text expands to more than {LETTER_CAP:,} letters")
    return tuple(groups[0])


def free_reduce(word: Word) -> Word:
    """Unique reduced form in the free product of the letter groups.

    Cancels x x^-1 / x^-1 x for ordinary letters and x x for involutive ones.
    Idempotent and length-non-increasing.
    """
    stack: list[tuple[int, int]] = []
    invol = word.alphabet.involutive
    for letter in word.letters:
        if stack:
            idx, exp = letter
            pidx, pexp = stack[-1]
            if pidx == idx and (invol[idx] or pexp == -exp):
                stack.pop()
                continue
        stack.append(letter)
    return Word._of(word.alphabet, tuple(stack))


def rotations_and_inverses(word: Word) -> list[Word]:
    """All cyclic rotations of the word and of its inverse, deduplicated."""
    seen = {}
    for base in (word, word.inverse()):
        n = len(base)
        for k in range(max(n, 1)):
            rot = Word._of(word.alphabet, base.letters[k:] + base.letters[:k])
            seen.setdefault(rot.letters, rot)
    return list(seen.values())


def rename_word(word: Word, target: Alphabet, name_map: dict[str, str] | None = None) -> Word:
    """Re-read a word over another alphabet, optionally renaming letters.

    A letter of the word that `target` lacks raises KeyError.  A letter
    involutive in `target` gets exponent +1, as a checked word stores it.
    """
    index = target._positions
    invol = target.involutive
    names = word.alphabet.letters
    if name_map:
        names = tuple(name_map.get(name, name) for name in names)
    letters = []
    try:
        for idx, exp in word.letters:
            j = index[names[idx]]
            letters.append((j, 1 if invol[j] else exp))
    except KeyError as exc:
        raise KeyError(f"letter {exc.args[0]!r} not in alphabet {target.letters}") from None
    return Word._of(target, tuple(letters))


@frozen
class Substitution:
    """A monoid endomorphism of the positive words over an alphabet."""

    alphabet: Alphabet
    images: tuple[Word, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.images) != len(self.alphabet):
            raise ValueError("substitution must define an image for every letter")
        for img in self.images:
            if img.alphabet != self.alphabet:
                raise ValueError("image over a different alphabet")
            if img.is_empty():
                raise ValueError("substitution images must be nonempty")
            if not img.is_positive():
                raise ValueError("substitution images must be positive words")

    @staticmethod
    def from_rules(alphabet: Alphabet, rules: dict[str, str], name: str = "") -> "Substitution":
        images = []
        for letter in alphabet.letters:
            if letter not in rules:
                raise ValueError(f"no image for letter {letter!r}")
            images.append(Word.from_str(alphabet, rules[letter]))
        return Substitution(alphabet, tuple(images), name)

    @cached_property
    def image_scan(self) -> tuple[re.Pattern, bool, dict[str, tuple[int, int]]] | None:
        """How a positive word is parsed into images by one regex scan, or
        None when no scan parses every word.

        A word is coded as a str by `Alphabet.code`.  When no
        image's code is a prefix of another's, a word has at most one parse
        and it is read left to right: the pattern is the alternation of the
        image codes, the flag is False.  Otherwise, when no code is a suffix
        of another's, the same holds right to left on reversed codes, and the
        flag is True.  The dict maps each (reversed) code to its source
        letter.  Two letters with equal images make every parse ambiguous
        and give None, as do images that prefix each other both ways.
        """
        codes = [self.alphabet.code(img.letters) for img in self.images]
        for from_right in (False, True):
            keys = [code[::-1] for code in codes] if from_right else codes
            if not any(i != j and b.startswith(a) for i, a in enumerate(keys) for j, b in enumerate(keys)):
                pattern = re.compile("|".join(map(re.escape, keys)))
                return pattern, from_right, {key: (i, 1) for i, key in enumerate(keys)}
        return None


def apply_substitution(sub: Substitution, word: Word) -> Word:
    """Concatenation of letter images; unreduced. Requires a positive word."""
    if word.alphabet != sub.alphabet:
        raise ValueError("word over a different alphabet")
    out: list[tuple[int, int]] = []
    for idx, exp in word.letters:
        if exp != 1:
            raise NegativeExponent(
                f"substitution applied to inverse letter {word.alphabet.letters[idx]}'"
            )
        out.extend(sub.images[idx].letters)
    return Word._of(sub.alphabet, tuple(out))


def iterate_substitution(sub: Substitution, word: Word, n: int) -> Word:
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    for _ in range(n):
        word = apply_substitution(sub, word)
    return word


def words_of_length(alphabet: Alphabet, length: int) -> Iterable[Word]:
    """All words of exactly the given length, in lexicographic order of
    `alphabet.directions`, whose letters are already checked."""
    for letters in product(alphabet.directions, repeat=length):
        yield Word._of(alphabet, letters)


def words_up_to_length(alphabet: Alphabet, max_length: int) -> Iterable[Word]:
    for n in range(max_length + 1):
        yield from words_of_length(alphabet, n)
