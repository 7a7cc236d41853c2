"""Text format for graded modules, maps, and deformation data (.dgm files).

Grammar (line breaks are insignificant, ``#`` starts a comment, entries end
with ``;``):

    field Q | field GF <p>
    module <id> { basis <id> : <int> (, <id> : <int>)* ; }
    map <id> degree <int> { (<src> -> <term> ((+|-) <term>)* ;)* }
        term := [-] [<scalar> '*'] <dst>      scalar := [-] <int> [/ <int>]
    deformation { order <k> : <mapname> ; ... }

A module block declares at most ``MAX_GENERATORS`` (20,000) generators,
which bounds what a file can make the parser build.  Scalars in GF(p) files
are reduced mod p on parse.  The printer emits the
canonical rendering (basis in declaration order, columns sorted by source
index, terms by target index, coefficient 1 omitted and -1 as a leading
minus), and parse(render(doc)) reproduces the document exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .cochain import Complex
from .errors import (
    DenominatorDivisibleByP,
    MissingDifferential,
    NonPrimeModulus,
    ParseError,
    UnknownBasisName,
    UnknownName,
    ZeroDenominator,
)
from .field import FieldSpec, Scalar
from .gmap import GradedMap
from .family import MAX_TRUNCATION
from .graded import GradedModule, _render_sum

#: the most generators a module block may declare: the module of
#: ``paper-family`` at the truncation cap, so every family file reads back
MAX_GENERATORS = 2 * MAX_TRUNCATION


@dataclass
class Document:
    """A parsed .dgm file: one field, one module, named maps, and an optional
    deformation block listing the lift for each order 1..m."""

    field: FieldSpec
    module: GradedModule
    maps: dict[str, GradedMap] = dc_field(default_factory=dict)
    deformation: list[str] = dc_field(default_factory=list)

    def __eq__(self, other):
        return (
            isinstance(other, Document)
            and self.field == other.field
            and self.module == other.module
            and list(self.maps.items()) == list(other.maps.items())
            and self.deformation == other.deformation
        )


# -- tokenizer -----------------------------------------------------------------

_SYMBOLS = {"{", "}", ";", ":", ",", "+", "-", "*", "/"}


@dataclass
class _Token:
    kind: str  # IDENT, INT, ARROW, a symbol, or EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit() also accepts '²'
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


def _int(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:  # past the interpreter's int digit limit
        raise ParseError(
            f"integer literal of {len(tok.text)} digits is too long", tok.line, tok.col
        ) from None


# -- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what or kind}, found {tok.text!r}", tok.line, tok.col
            )
        return tok

    def expect_keyword(self, word: str) -> _Token:
        tok = self.next()
        if tok.kind != "IDENT" or tok.text != word:
            raise ParseError(f"expected {word!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def signed_int(self) -> int:
        tok = self.next()
        neg = False
        if tok.kind == "-":
            neg = True
            tok = self.expect("INT", "an integer")
        elif tok.kind != "INT":
            raise ParseError(f"expected an integer, found {tok.text!r}", tok.line, tok.col)
        value = _int(tok)
        return -value if neg else value

    def document(self) -> Document:
        field = self.field_decl()
        module = self.module_decl(field)
        maps: dict[str, GradedMap] = {}
        deformation: list[str] = []
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text == "map":
                name, gmap, where = self.map_decl(module)
                if name in maps:
                    raise ParseError(f"duplicate map name {name!r}", where.line, where.col)
                maps[name] = gmap
            elif tok.kind == "IDENT" and tok.text == "deformation":
                if deformation:
                    raise ParseError("duplicate deformation block", tok.line, tok.col)
                deformation = self.deformation_block(maps)
            else:
                raise ParseError(
                    f"expected 'map' or 'deformation', found {tok.text!r}", tok.line, tok.col
                )
        return Document(field, module, maps, deformation)

    def field_decl(self) -> FieldSpec:
        self.expect_keyword("field")
        tok = self.expect("IDENT", "'Q' or 'GF'")
        if tok.text == "Q":
            return FieldSpec()
        if tok.text == "GF":
            ptok = self.expect("INT", "a prime modulus")
            try:
                return FieldSpec(_int(ptok))
            except NonPrimeModulus as exc:
                raise type(exc)(f"line {ptok.line}, col {ptok.col}: {exc}") from None
        raise ParseError(f"unknown field {tok.text!r}", tok.line, tok.col)

    def module_decl(self, field: FieldSpec) -> GradedModule:
        self.expect_keyword("module")
        name = self.expect("IDENT", "a module name")
        self.expect("{")
        self.expect_keyword("basis")
        basis: list[tuple[str, int]] = []
        seen: set[str] = set()
        while True:
            btok = self.expect("IDENT", "a basis name")
            if len(basis) == MAX_GENERATORS:
                raise ParseError(
                    f"module {name.text} declares more than {MAX_GENERATORS} generators",
                    btok.line, btok.col,
                )
            if btok.text in seen:
                raise ParseError(f"duplicate basis name {btok.text!r}", btok.line, btok.col)
            seen.add(btok.text)
            self.expect(":")
            basis.append((btok.text, self.signed_int()))
            tok = self.next()
            if tok.kind == ";":
                break
            if tok.kind != ",":
                raise ParseError(f"expected ',' or ';', found {tok.text!r}", tok.line, tok.col)
        self.expect("}")
        return GradedModule(name.text, field, basis)

    def scalar_or_name(self, field: FieldSpec):
        """A term after its optional sign: either ``dst`` or ``num[/den] * dst``."""
        tok = self.next()
        if tok.kind == "IDENT":
            return field.one, tok
        if tok.kind != "INT":
            raise ParseError(
                f"expected a coefficient or basis name, found {tok.text!r}", tok.line, tok.col
            )
        num = _int(tok)
        den = 1
        if self.peek().kind == "/":
            self.next()
            den = _int(self.expect("INT", "a denominator"))
        self.expect("*")
        try:
            coeff = field.scalar(num, den)
        except (ZeroDenominator, DenominatorDivisibleByP) as exc:
            raise type(exc)(f"line {tok.line}, col {tok.col}: {exc}") from None
        return coeff, self.expect("IDENT", "a basis name")

    def map_decl(self, module: GradedModule):
        self.expect_keyword("map")
        name = self.expect("IDENT", "a map name")
        self.expect_keyword("degree")
        degree = self.signed_int()
        self.expect("{")
        # repeated terms are summed by from_entries
        entries: list[tuple[str, str, Scalar]] = []
        seen: set[str] = set()
        while self.peek().kind != "}":
            src = self.expect("IDENT", "a source basis name")
            if src.text in seen:
                raise ParseError(f"duplicate column for {src.text!r}", src.line, src.col)
            seen.add(src.text)
            want = module.degree_of(self._resolve(module, src)) + degree
            self.expect("ARROW", "'->'")
            sign = 1
            while True:
                if self.peek().kind == "-":
                    self.next()
                    sign = -sign
                coeff, dst = self.scalar_or_name(module.field)
                if module.degree_of(self._resolve(module, dst)) != want:
                    raise ParseError(
                        f"entry {src.text} -> {dst.text} violates degree {degree}",
                        dst.line, dst.col,
                    )
                entries.append((src.text, dst.text, coeff if sign > 0 else -coeff))
                tok = self.next()
                if tok.kind == ";":
                    break
                if tok.kind == "+":
                    sign = 1
                elif tok.kind == "-":
                    sign = -1
                else:
                    raise ParseError(
                        f"expected '+', '-' or ';', found {tok.text!r}", tok.line, tok.col
                    )
        self.expect("}")
        return name.text, GradedMap.from_entries(module, degree, entries), name

    def _resolve(self, module: GradedModule, tok: _Token) -> int:
        try:
            return module.index_of(tok.text)
        except UnknownBasisName:
            raise UnknownBasisName(
                f"line {tok.line}, col {tok.col}: no basis element {tok.text!r}"
            ) from None

    def deformation_block(self, maps: dict[str, GradedMap]) -> list[str]:
        self.expect_keyword("deformation")
        self.expect("{")
        orders: dict[int, str] = {}
        while self.peek().kind != "}":
            otok = self.expect_keyword("order")
            ktok = self.expect("INT", "an order")
            k = _int(ktok)
            if k < 1:
                raise ParseError("orders start at 1", ktok.line, ktok.col)
            if k in orders:
                raise ParseError(f"duplicate order {k}", ktok.line, ktok.col)
            self.expect(":")
            mtok = self.expect("IDENT", "a map name")
            if mtok.text not in maps:
                raise UnknownName(
                    f"line {mtok.line}, col {mtok.col}: deformation references "
                    f"undefined map {mtok.text!r}"
                )
            self.expect(";")
            orders[k] = mtok.text
        close = self.expect("}")
        if orders and sorted(orders) != list(range(1, len(orders) + 1)):
            raise ParseError(
                f"deformation orders must be exactly 1..{len(orders)}", close.line, close.col
            )
        return [orders[k] for k in sorted(orders)]


def parse(text: str) -> Document:
    """Parse a .dgm document, applying every semantic check."""
    parser = _Parser(text)
    return parser.document()


# -- printer ------------------------------------------------------------------------


def render(doc: Document) -> str:
    """Canonical text for a document; parse(render(doc)) == doc."""
    out = []
    if doc.field.modulus is None:
        out.append("field Q")
    else:
        out.append(f"field GF {doc.field.modulus}")
    basis = ", ".join(f"{n} : {d}" for n, d in doc.module.basis)
    out.append(f"module {doc.module.name} {{")
    out.append(f"  basis {basis};")
    out.append("}")
    for name, gmap in doc.maps.items():
        if not gmap.columns:
            out.append(f"map {name} degree {gmap.degree} {{ }}")
            continue
        out.append(f"map {name} degree {gmap.degree} {{")
        for j in sorted(gmap.columns):
            col = gmap.columns[j]
            terms = _render_sum((col[i], doc.module.name_of(i)) for i in sorted(col))
            out.append(f"  {doc.module.name_of(j)} -> {terms};")
        out.append("}")
    if doc.deformation:
        out.append("deformation {")
        for k, name in enumerate(doc.deformation, start=1):
            out.append(f"  order {k} : {name};")
        out.append("}")
    return "\n".join(out) + "\n"


def load_complex(doc: Document):
    """Validated objects from a document: the complex (differential named
    ``d``), all named maps, and the deformation lift list."""
    if "d" not in doc.maps:
        raise MissingDifferential("document has no map named 'd'")
    cx = Complex(doc.module, doc.maps["d"])
    lifts = [doc.maps[name] for name in doc.deformation]
    return cx, dict(doc.maps), lifts
