"""Surface syntax for describing models in files.

A document declares one space: its generators (name, degree, optional
origin tag) and differential clauses.  Whitespace is insignificant,
`*` separates factors, `^` takes powers, coefficients are optional
rationals like 3 or -1/2:

    space CP2 {
        generator x2 : 2;
        generator x5 : 5;
        d x5 = x2^3;
    }

A generator without a d-clause has zero differential.  Terms that square
an odd generator normalize away; the document records a note for each so
nothing disappears silently.

Certificates and the command line read numbers and words through
`read_scalar`, `read_int` and `read_word`: one field, no whitespace, by
the sign, number and factor-list rules of a d-clause term, so the text
means what it means in a model file; `read_list` and `read_pairs` read lists.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .algebra import Element, GeneratorSpec, SullivanModel, _Record, format_word

KEYWORDS = ("space", "generator", "d", "base", "fiber")

_SYMBOLS = "{}:;=^*+-/"


class ParseError(ValueError):
    """Syntax or semantic failure, pinned to a source location."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        where = f"line {line}, col {col}: {message}"
        if expected:
            where += " (expected " + " or ".join(expected) + ")"
        super().__init__(where)


class Token(_Record):
    __slots__ = ("kind", "text", "line", "col")  # kind: "ident", "int", "sym", "end"


def _tokenize(text: str) -> Iterator[Token]:
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if not word.isidentifier():
                raise ParseError(f"{word!r} is not an identifier", line, col)
            yield Token("ident", word, line, col)
            col += i - start
            continue
        if "0" <= ch <= "9":  # ASCII: str.isdigit admits "²", which int() rejects
            start = i
            while i < len(text) and "0" <= text[i] <= "9":
                i += 1
            yield Token("int", text[start:i], line, col)
            col += i - start
            continue
        if ch in _SYMBOLS:
            yield Token("sym", ch, line, col)
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    yield Token("end", "", line, col)


class ModelDocument(_Record):
    __slots__ = ("name", "model", "notes")


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    @property
    def here(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.here
        if tok.kind != "end":
            self.pos += 1
        return tok

    def fail(self, message: str, expected: tuple[str, ...] = ()):
        tok = self.here
        raise ParseError(message, tok.line, tok.col, expected)

    def expect(self, text: str) -> Token:
        """The next token, a symbol or keyword that must read text."""
        tok = self.here
        if tok.text != text:
            self.fail(f"found {tok.text!r}" if tok.text else "unexpected end of input", (repr(text),))
        return self.advance()

    def expect_name(self) -> Token:
        tok = self.here
        if tok.kind != "ident":
            self.fail("expected a name", ("identifier",))
        if tok.text in KEYWORDS:
            self.fail(f"{tok.text!r} is a keyword", ("identifier",))
        return self.advance()

    def expect_int(self) -> tuple[int, Token]:
        tok = self.here
        if tok.kind != "int":
            self.fail("expected an integer", ("integer",))
        self.advance()
        return int(tok.text), tok

    def signed_int(self) -> int:
        return self.sign() * self.expect_int()[0]

    def expect_end(self) -> None:
        if self.here.kind != "end":
            self.fail(f"trailing input {self.here.text!r}", ("end of input",))

    # -- document --------------------------------------------------------

    def document(self) -> ModelDocument:
        self.expect("space")
        name = self.expect_name().text
        self.expect("{")
        gens: list[GeneratorSpec] = []
        declared: dict[str, Token] = {}
        clauses: list[tuple[Token, list]] = []
        while True:
            tok = self.here
            if tok.kind == "sym" and tok.text == "}":
                self.advance()
                break
            if tok.kind == "ident" and tok.text == "generator":
                self.advance()
                gname = self.expect_name()
                if gname.text in declared:
                    raise ParseError(
                        f"duplicate generator {gname.text!r}", gname.line, gname.col
                    )
                self.expect(":")
                degree, dtok = self.expect_int()
                if degree < 1:
                    raise ParseError("degree must be >= 1", dtok.line, dtok.col)
                origin = "plain"
                if self.here.kind == "ident" and self.here.text in ("base", "fiber"):
                    origin = self.advance().text
                self.expect(";")
                declared[gname.text] = gname
                gens.append(GeneratorSpec(gname.text, degree, origin))
            elif tok.kind == "ident" and tok.text == "d":
                self.advance()
                target = self.expect_name()
                self.expect("=")
                terms = self.expression()
                self.expect(";")
                clauses.append((target, terms))
            elif tok.kind == "end":
                self.fail("unterminated block", ("'}'", "'generator'", "'d'"))
            else:
                self.fail(f"found {tok.text!r}", ("'generator'", "'d'", "'}'"))
        self.expect_end()
        return self.build(name, gens, clauses)

    # -- expressions -----------------------------------------------------

    def expression(self) -> list[tuple[Fraction, list[tuple[str, int, Token]], Token]]:
        """Sum of terms: (coefficient, factors, position of term start)."""
        terms = [self.term()]
        while self.here.kind == "sym" and self.here.text in "+-":
            terms.append(self.term())
        return terms

    def term(self):
        start = self.here
        coeff = Fraction(self.sign())
        if self.here.kind == "int":
            coeff *= self.number()
            # a coefficient may be glued to its monomial with * or a space
            if self.here.kind == "sym" and self.here.text == "*":
                self.advance()
        return (coeff, self.factors(), start)

    def sign(self) -> int:
        sign = 1
        while self.here.kind == "sym" and self.here.text in "+-":
            if self.advance().text == "-":
                sign = -sign
        return sign

    def number(self) -> Fraction:
        num, _ = self.expect_int()
        if self.here.kind == "sym" and self.here.text == "/":
            self.advance()
            den, dtok = self.expect_int()
            if den == 0:
                raise ParseError("zero denominator", dtok.line, dtok.col)
            return Fraction(num, den)
        return Fraction(num)

    def factors(self) -> list[tuple[str, int, Token]]:
        factors = [self.factor()]
        while self.here.kind == "sym" and self.here.text == "*":
            self.advance()
            factors.append(self.factor())
        return factors

    def factor(self) -> tuple[str, int, Token]:
        name = self.expect_name()
        power = 1
        if self.here.kind == "sym" and self.here.text == "^":
            self.advance()
            power, ptok = self.expect_int()
            if power < 1:
                raise ParseError("power must be >= 1", ptok.line, ptok.col)
        return (name.text, power, name)

    # -- semantics -------------------------------------------------------

    def build(self, name, gens, clauses) -> ModelDocument:
        free = SullivanModel.free(gens)
        notes: list[str] = []
        assignments: dict[str, Element] = {}
        seen_clause: dict[str, Token] = {}
        for target, terms in clauses:
            if target.text not in free.generator_index:
                raise ParseError(
                    f"differential for undeclared generator {target.text!r}",
                    target.line,
                    target.col,
                )
            if target.text in seen_clause:
                raise ParseError(
                    f"second differential clause for {target.text!r}",
                    target.line,
                    target.col,
                )
            seen_clause[target.text] = target
            want = free.degree_of(target.text) + 1
            total = free.zero()
            for coeff, factors, start in terms:
                degree = 0
                for fname, power, ftok in factors:
                    if fname not in free.generator_index:
                        raise ParseError(
                            f"unknown generator {fname!r}", ftok.line, ftok.col
                        )
                    degree += free.degree_of(fname) * power
                if degree != want:
                    raise ParseError(
                        f"d({target.text}) needs degree {want}, term has degree {degree}",
                        start.line,
                        start.col,
                    )
                word = [(n, p) for n, p, _ in factors]
                product = free.word(word)
                if product.is_zero():
                    notes.append(
                        f"line {start.line}: term {format_word(word)} in d({target.text}) "
                        "normalizes to zero (odd generator squared)"
                    )
                    continue
                total = total + coeff * product
            assignments[target.text] = total
        model = free.with_differentials(assignments)
        return ModelDocument(name=name, model=model, notes=tuple(notes))


def _read_field(text: str, rule):
    """rule's value on a parser over text, which must be one word that
    rule reads to its end."""
    if text.split() != [text]:
        raise ParseError(f"{text!r} is not one word", 1, 1)
    parser = _Parser(text)
    value = rule(parser)
    parser.expect_end()
    return value


def read_scalar(text: str) -> Fraction:
    """A signed number, as a d-clause coefficient: 3, -1/2, +2."""
    return _read_field(text, lambda p: p.sign() * p.number())


def read_int(text: str) -> int:
    """A signed integer, as the model file's integers with a sign."""
    return _read_field(text, _Parser.signed_int)


def read_word(text: str) -> list[tuple[str, int]]:
    """The (name, power) factors of a word such as b5*a3^2, as a d-clause
    term writes them, in that order; "1" has none."""
    if text == "1":
        return []
    return [(name, power) for name, power, _ in _read_field(text, _Parser.factors)]


def read_list(text: str, read) -> list:
    """read's value on each comma-separated field of text, stripped at its
    ends; blank text has no fields, and an empty field is an error.  An
    error in a field is placed at its column in text."""
    if not text.strip():
        return []
    values, start = [], 0
    for n, field in enumerate(text.split(","), 1):
        stripped = field.strip()
        col = start + len(field) - len(field.lstrip()) + 1  # where stripped begins
        start += len(field) + 1
        if not stripped:
            raise ParseError(f"empty field {n}", 1, col)
        try:
            values.append(read(stripped))
        except ParseError as exc:
            raise ParseError(exc.message, 1, col + exc.col - 1, exc.expected) from None
    return values


def read_pairs(text: str, sep: str) -> dict[int, int]:
    """{key: value} from the `read_list` fields key sep value, each side
    read as `read_int` reads it; a repeated key is an error."""
    pairs: dict[int, int] = {}

    def pair(p: _Parser) -> None:
        key = p.signed_int()
        if key in pairs:
            raise ParseError(f"repeated key {key}", 1, 1)
        p.expect(sep)
        pairs[key] = p.signed_int()

    read_list(text, lambda field: _read_field(field, pair))
    return pairs


def parse_document(text: str) -> ModelDocument:
    return _Parser(text).document()


def parse_model(text: str) -> SullivanModel:
    return parse_document(text).model


def format_model(model: SullivanModel, name: str = "M") -> str:
    """Render a model as a document that parses back to it."""
    lines = [f"space {name} {{"]
    for g in model.generators:
        tag = f" {g.origin}" if g.origin != "plain" else ""
        lines.append(f"    generator {g.name} : {g.degree}{tag};")
    for g in model.generators:
        dx = model.d_of_generator(g.name)
        if dx.is_zero():
            continue
        lines.append(f"    d {g.name} = {dx};")
    lines.append("}")
    return "\n".join(lines) + "\n"
