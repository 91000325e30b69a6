"""Text format for presentations, substitutions and rewriting rules.

Grammar (statements end with ';', '#' starts a line comment):

    name N;
    gens a!, c!, d;              '!' marks an involutive generator
    rel (a d)^4;                 one relator per statement
    sub sigma: a -> a c a; c -> c d; d -> c;
    rule a a -> ;                rewriting rule, rhs may be empty
    endo gens a!, c!, d!;        opens an endomorphic presentation
    Q;                           base relators (comma-separated words)
    R a a, (a d)^4;              iterated relators
    phi sigma: a -> a c a; c -> c d; d -> c;

Words are space-separated letters, x' for the inverse of x, ( ... )^k for
repetition.  A `sub`/`phi` statement opens a substitution; bare `letter ->
word` statements extend the most recently opened one.  The printer emits a
canonical form that re-parses to an identical document.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .endo import EndomorphicPresentation
from .errors import ParseError
from .presentations import Presentation
from .words import Alphabet, Substitution, Word, _Tok, _tokenize, _word_letters, is_letter_name


@dataclass
class Document:
    """Faithful result of parsing one file."""

    name: str = ""
    alphabet: Alphabet | None = None
    relators: list[Word] = field(default_factory=list)
    substitutions: dict[str, Substitution] = field(default_factory=dict)
    rules: list[tuple[Word, Word]] = field(default_factory=list)
    endomorphic: bool = False
    q_relators: list[Word] = field(default_factory=list)
    r_relators: list[Word] = field(default_factory=list)

    def presentation(self) -> Presentation:
        if self.alphabet is None:
            raise ParseError("document declares no generators")
        if self.endomorphic:
            raise ParseError("endomorphic document: Q and R are not a finite presentation")
        return Presentation(self.alphabet, tuple(self.relators), self.name)

    def endomorphic_presentation(self) -> EndomorphicPresentation:
        if self.alphabet is None:
            raise ParseError("document declares no generators")
        return EndomorphicPresentation(
            alphabet=self.alphabet,
            q_relators=tuple(self.q_relators),
            substitutions=tuple(self.substitutions.values()),
            r_relators=tuple(self.r_relators),
            name=self.name,
        )

    def main(self):
        return self.endomorphic_presentation() if self.endomorphic else self.presentation()


# --- statements ----------------------------------------------------------------


def _split_statements(toks: list[_Tok]) -> list[list[_Tok]]:
    stmts, cur = [], []
    for t in toks:
        if t.text == ";":
            stmts.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        raise ParseError("missing ';' after final statement", cur[0].line, cur[0].col)
    return stmts


def _parse_word(alphabet: Alphabet, toks: list[_Tok]) -> Word:
    if alphabet is None:
        raise ParseError("word before any 'gens' declaration",
                         toks[0].line if toks else None, toks[0].col if toks else None)
    try:
        letters = _word_letters(alphabet, [t.text for t in toks])
    except (ParseError, KeyError) as exc:
        line = toks[0].line if toks else None
        col = toks[0].col if toks else None
        raise ParseError(exc.args[0], line, col) from None
    return Word(alphabet, letters)


def _split_on_commas(toks: list[_Tok]) -> list[list[_Tok]]:
    groups, cur, depth = [], [], 0
    for t in toks:
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
        if t.text == "," and depth == 0:
            groups.append(cur)
            cur = []
        else:
            cur.append(t)
    groups.append(cur)
    return groups


def _parse_genlist(head: _Tok, toks: list[_Tok]) -> Alphabet:
    letters, invol = [], []
    for group in _split_on_commas(toks):
        if not group:
            raise ParseError("empty generator entry", head.line, head.col)
        name = group[0].text
        if not is_letter_name(name):
            raise ParseError(f"bad generator name {name!r}", group[0].line, group[0].col)
        flag = False
        if len(group) == 2 and group[1].text == "!":
            flag = True
        elif len(group) > 1:
            raise ParseError("malformed generator entry", group[1].line, group[1].col)
        letters.append(name)
        invol.append(flag)
    try:
        return Alphabet(tuple(letters), tuple(invol))
    except ValueError as exc:
        raise ParseError(str(exc), head.line, head.col) from None


def parse_document(text: str) -> Document:
    doc = Document()
    open_sub: list | None = None  # [name, {letter: Word}, first_tok]

    def close_sub():
        nonlocal open_sub
        if open_sub is None:
            return
        name, rules, tok = open_sub
        missing = [l for l in doc.alphabet.letters if l not in rules]
        if missing:
            raise ParseError(
                f"substitution {name!r} missing images for {missing}", tok.line, tok.col
            )
        images = tuple(rules[l] for l in doc.alphabet.letters)
        try:
            doc.substitutions[name] = Substitution(doc.alphabet, images, name)
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None
        open_sub = None

    def add_image(tok: _Tok, word_toks: list[_Tok]):
        letter = tok.text
        if doc.alphabet is None or letter not in doc.alphabet.letters:
            raise ParseError(f"unknown letter {letter!r}", tok.line, tok.col)
        if letter in open_sub[1]:
            raise ParseError(f"second image of {letter!r} in {open_sub[0]!r}", tok.line, tok.col)
        open_sub[1][letter] = _parse_word(doc.alphabet, word_toks)

    for stmt in _split_statements(_tokenize(text)):
        if not stmt:
            continue
        head = stmt[0]
        rest = stmt[1:]

        # continuation of an open substitution:  letter -> word
        if open_sub is not None and len(stmt) >= 2 and stmt[1].text == "->":
            add_image(head, stmt[2:])
            continue
        close_sub()

        if head.text == "name":
            if len(rest) != 1:
                raise ParseError("name takes one identifier", head.line, head.col)
            doc.name = rest[0].text
        elif head.text == "gens":
            if doc.alphabet is not None:
                raise ParseError("duplicate gens declaration", head.line, head.col)
            doc.alphabet = _parse_genlist(head, rest)
        elif head.text == "endo":
            if not rest or rest[0].text != "gens":
                raise ParseError("expected 'endo gens ...'", head.line, head.col)
            if doc.alphabet is not None:
                raise ParseError("duplicate gens declaration", head.line, head.col)
            doc.endomorphic = True
            doc.alphabet = _parse_genlist(head, rest[1:])
        elif head.text == "rel":
            doc.relators.append(_parse_word(doc.alphabet, rest))
        elif head.text == "Q" or head.text == "R":
            if not doc.endomorphic:
                raise ParseError(f"'{head.text}' outside an endo presentation", head.line, head.col)
            target = doc.q_relators if head.text == "Q" else doc.r_relators
            if rest:
                for group in _split_on_commas(rest):
                    target.append(_parse_word(doc.alphabet, group))
        elif head.text in ("sub", "phi"):
            if len(rest) < 2 or rest[1].text != ":":
                raise ParseError(f"expected '{head.text} name: ...'", head.line, head.col)
            sub_name = rest[0].text
            if sub_name in doc.substitutions:
                raise ParseError(f"duplicate substitution {sub_name!r}", head.line, head.col)
            open_sub = [sub_name, {}, head]
            body = rest[2:]
            if len(body) < 2 or body[1].text != "->":
                raise ParseError("expected 'letter -> word'", head.line, head.col)
            add_image(body[0], body[2:])
        elif head.text == "rule":
            arrow = next((k for k, t in enumerate(rest) if t.text == "->"), None)
            if arrow is None:
                raise ParseError("rule needs '->'", head.line, head.col)
            lhs = _parse_word(doc.alphabet, rest[:arrow])
            rhs = _parse_word(doc.alphabet, rest[arrow + 1 :])
            if lhs.is_empty():
                raise ParseError("rule left-hand side must be nonempty", head.line, head.col)
            doc.rules.append((lhs, rhs))
        else:
            raise ParseError(f"unknown statement {head.text!r}", head.line, head.col)
    close_sub()
    return doc


def parse_presentation(text: str):
    """Parse a document and return its presentation (plain or endomorphic)."""
    return parse_document(text).main()


# --- printer -------------------------------------------------------------------


def print_document(doc: Document) -> str:
    lines = []
    if doc.name:
        lines.append(f"name {doc.name};")
    gens = ", ".join(doc.alphabet.spec(i) for i in range(len(doc.alphabet)))
    if doc.endomorphic:
        lines.append(f"endo gens {gens};")
        q = ", ".join(str(w) for w in doc.q_relators)
        lines.append(f"Q {q};".replace(" ;", ";") if q else "Q;")
        r = ", ".join(str(w) for w in doc.r_relators)
        lines.append(f"R {r};" if r else "R;")
    else:
        lines.append(f"gens {gens};")
        for rel in doc.relators:
            lines.append(f"rel {rel};")
    keyword = "phi" if doc.endomorphic else "sub"
    for name, sub in doc.substitutions.items():
        parts = [
            f"{letter} -> {sub.images[i]}"
            for i, letter in enumerate(sub.alphabet.letters)
        ]
        lines.append(f"{keyword} {name}: " + "; ".join(parts) + ";")
    for lhs, rhs in doc.rules:
        lines.append(f"rule {lhs} -> {rhs};" if len(rhs) else f"rule {lhs} -> ;")
    return "\n".join(lines) + "\n"


def document_of(presentation, substitutions=(), rules=()) -> Document:
    """Wrap library objects back into a printable document."""
    doc = Document()

    def add(name, sub):  # a repeated or generated name gets '_' until new, as stable letters do
        while name in doc.substitutions:
            name += "_"
        doc.substitutions[name] = sub

    if isinstance(presentation, EndomorphicPresentation):
        doc.endomorphic = True
        doc.alphabet = presentation.alphabet
        doc.q_relators = list(presentation.q_relators)
        doc.r_relators = list(presentation.r_relators)
        doc.name = presentation.name
        for sub in presentation.substitutions:
            add(sub.name or f"phi{len(doc.substitutions)}", sub)
    else:
        doc.alphabet = presentation.alphabet
        doc.relators = list(presentation.relators)
        doc.name = presentation.name
    for sub in substitutions:
        add(sub.name or f"sub{len(doc.substitutions)}", sub)
    doc.rules = list(rules)
    return doc
