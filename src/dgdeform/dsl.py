"""Text format for graded modules, maps, and deformation data (.dgm files).

Grammar (line breaks are insignificant, ``#`` starts a comment that runs to
the end of its line, entries end with ``;``):

    field Q | field GF <p>
    module <id> { basis <id> : <int> (, <id> : <int>)* ; }
    map <id> degree <int> { (<src> -> <term> ((+|-) <term>)* ;)* }
        term := [-] [<scalar> '*'] <dst>      scalar := <int> [/ <int>]
    deformation { order <k> : <mapname> ; ... }

An <id> starts with a letter (``str.isalpha``) or ``_`` and goes on with
letters, digits and ``_``; an <int> is ASCII digits.  A module, basis or map
name is an ASCII <id>, checked at its token.  One regular expression scans
the whole text into (kind, text, offset) tokens before the parse, so an
unexpected character is reported ahead of any syntax error.  EOF sits at
the end of the text, or at the start of a final comment with no newline.
An error's 1-based line and character column (a tab is one column) are
computed from its offset when it is raised.

A module declares at most ``MAX_GENERATORS`` (20,000) generators, which
bounds what a file can make the parser build, and a file has at most one
deformation block.  Map blocks are read straight into normal-form columns:
GF(p) scalars reduced mod p, repeated terms summed, zeros dropped.  The
printer emits the canonical rendering (basis in declaration order, columns
sorted by source index, terms by target index, coefficient 1 omitted, -1 as
a leading minus), and parse(render(doc)) reproduces the document exactly.
"""

from __future__ import annotations

import re
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
from .field import FieldSpec
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


# -- scanner and parser ----------------------------------------------------------

#: one token per match after any space; only single characters repeat, so
#: no input grows the matcher's stack
_SCANNER = re.compile(r"""[ \t\r\n]* (?:
    (?P<INT>[0-9]+) | (?P<IDENT>\w+) | (?P<PUNCT>->|[{};:,+\-*/])
  | (?P<COMMENT>\#[^\n]*\n) | (?P<EOF>(?:\#[^\n]*)?\Z) | (?P<BAD>.)
)""", re.VERBOSE | re.DOTALL)


class _Parser:
    def __init__(self, text: str):
        """Scan ``text`` into (kind, text, offset) tokens, the last one EOF.
        The kind is INT, IDENT, EOF, or the punctuation itself."""
        self.text = text
        self.pos = 0
        self.tokens = tokens = []
        for m in _SCANNER.finditer(text):
            kind = m.lastgroup
            word, at = m[kind], m.start(kind)
            if kind == "PUNCT":
                kind = word
            elif kind == "COMMENT":
                continue
            elif kind == "EOF":
                tokens.append(("EOF", "", at))
                break
            elif kind == "BAD" or (kind == "IDENT" and not (word[0].isalpha() or word[0] == "_")):
                # \w also matches digits that are not ASCII, such as '²'
                raise self.error(at, f"unexpected character {word[0]!r}")
            tokens.append((kind, word, at))

    def error(self, at: int, message: str, kind=ParseError):
        """A ``kind`` error at offset ``at`` of the text, positioned by its
        1-based line and character column."""
        line = self.text.count("\n", 0, at) + 1
        col = at - self.text.rfind("\n", 0, at)
        if kind is ParseError:
            return ParseError(message, line, col)
        return kind(f"line {line}, col {col}: {message}")

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of ``kind``."""
        if self.tokens[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str, what: str | None = None):
        tok = self.next()
        if tok[0] != kind:
            raise self.error(tok[2], f"expected {what or kind}, found {tok[1]!r}")
        return tok

    def expect_keyword(self, word: str) -> None:
        tok = self.next()
        if tok[1] != word:  # no INT or punctuation token spells a keyword
            raise self.error(tok[2], f"expected {word!r}, found {tok[1]!r}")

    def name(self, what: str):
        """The next token as a module, basis or map name: an IDENT that is
        also ASCII, which for an IDENT is what ``graded._IDENT`` accepts."""
        tok = self.expect("IDENT", f"a {what}")
        if not tok[1].isascii():
            raise self.error(tok[2], f"{tok[1]!r} is not a valid {what}")
        return tok

    def int(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # past the interpreter's int digit limit
            message = f"integer literal of {len(tok[1])} digits is too long"
            raise self.error(tok[2], message) from None

    def signed_int(self) -> int:
        neg = self.accept("-")
        value = self.int(self.expect("INT", "an integer"))
        return -value if neg else value

    def document(self) -> Document:
        field = self.field_decl()
        module = self.module_decl(field)
        maps: dict[str, GradedMap] = {}
        deformation: list[str] | None = None
        while self.peek() != "EOF":
            tok = self.tokens[self.pos]
            if tok[1] == "map":
                self.map_decl(module, maps)
            elif tok[1] == "deformation":
                if deformation is not None:
                    raise self.error(tok[2], "duplicate deformation block")
                deformation = self.deformation_block(maps)
            else:
                raise self.error(tok[2], f"expected 'map' or 'deformation', found {tok[1]!r}")
        return Document(field, module, maps, deformation or [])

    def field_decl(self) -> FieldSpec:
        self.expect_keyword("field")
        tok = self.expect("IDENT", "'Q' or 'GF'")
        if tok[1] == "Q":
            return FieldSpec()
        if tok[1] == "GF":
            ptok = self.expect("INT", "a prime modulus")
            try:
                return FieldSpec(self.int(ptok))
            except NonPrimeModulus as exc:
                raise self.error(ptok[2], str(exc), type(exc)) from None
        raise self.error(tok[2], f"unknown field {tok[1]!r}")

    def module_decl(self, field: FieldSpec) -> GradedModule:
        self.expect_keyword("module")
        name = self.name("module name")
        self.expect("{")
        self.expect_keyword("basis")
        basis: dict[str, int] = {}
        while True:
            btok = self.name("basis name")
            if len(basis) == MAX_GENERATORS:
                message = f"module {name[1]} declares more than {MAX_GENERATORS} generators"
                raise self.error(btok[2], message)
            if btok[1] in basis:
                raise self.error(btok[2], f"duplicate basis name {btok[1]!r}")
            self.expect(":")
            basis[btok[1]] = self.signed_int()
            tok = self.next()
            if tok[0] == ";":
                break
            if tok[0] != ",":
                raise self.error(tok[2], f"expected ',' or ';', found {tok[1]!r}")
        self.expect("}")
        return GradedModule(name[1], field, basis.items())

    def term(self, field: FieldSpec):
        """A term after its optional sign, ``dst`` or ``num[/den] * dst``: the
        raw coefficient and the basis name token."""
        tok = self.next()
        if tok[0] == "IDENT":
            return field.one.value, tok
        if tok[0] != "INT":
            raise self.error(tok[2], f"expected a coefficient or basis name, found {tok[1]!r}")
        num = self.int(tok)
        den = self.int(self.expect("INT", "a denominator")) if self.accept("/") else 1
        self.expect("*")
        if den == 1:
            return field._raw(num), self.expect("IDENT", "a basis name")
        try:
            coeff = field.scalar(num, den).value
        except (ZeroDenominator, DenominatorDivisibleByP) as exc:
            raise self.error(tok[2], str(exc), type(exc)) from None
        return coeff, self.expect("IDENT", "a basis name")

    def map_decl(self, module: GradedModule, maps: dict[str, GradedMap]) -> None:
        """Read a map block into ``maps``, in normal-form columns, checking
        the degree of every term."""
        self.expect_keyword("map")
        name = self.name("map name")
        self.expect_keyword("degree")
        degree = self.signed_int()
        self.expect("{")
        norm = module.field.norm
        columns: dict[int, dict] = {}  # a column that cancels stays as {} until the end
        while self.peek() != "}":
            src = self.expect("IDENT", "a source basis name")
            j = self.resolve(module, src)
            if j in columns:
                raise self.error(src[2], f"duplicate column for {src[1]!r}")
            want = module.degree_of(j) + degree
            self.expect("->", "'->'")
            col = {}
            sign = 1
            while True:
                if self.accept("-"):
                    sign = -sign
                coeff, dst = self.term(module.field)
                i = self.resolve(module, dst)
                if module.degree_of(i) != want:
                    message = f"entry {src[1]} -> {dst[1]} violates degree {degree}"
                    raise self.error(dst[2], message)
                if sign < 0:
                    coeff = norm(-coeff)
                col[i] = norm(col[i] + coeff) if i in col else coeff
                tok = self.next()
                if tok[0] == ";":
                    break
                if tok[0] != "+" and tok[0] != "-":
                    raise self.error(tok[2], f"expected '+', '-' or ';', found {tok[1]!r}")
                sign = 1 if tok[0] == "+" else -1
            columns[j] = {i: c for i, c in col.items() if c}
        self.expect("}")
        if name[1] in maps:
            raise self.error(name[2], f"duplicate map name {name[1]!r}")
        columns = {j: col for j, col in columns.items() if col}
        maps[name[1]] = GradedMap._of(module, module, degree, columns)

    def resolve(self, module: GradedModule, tok) -> int:
        try:
            return module.index_of(tok[1])
        except UnknownBasisName:
            raise self.error(tok[2], f"no basis element {tok[1]!r}", UnknownBasisName) from None

    def deformation_block(self, maps: dict[str, GradedMap]) -> list[str]:
        self.expect_keyword("deformation")
        self.expect("{")
        orders: dict[int, str] = {}
        while self.peek() != "}":
            self.expect_keyword("order")
            ktok = self.expect("INT", "an order")
            k = self.int(ktok)
            if k < 1:
                raise self.error(ktok[2], "orders start at 1")
            if k in orders:
                raise self.error(ktok[2], f"duplicate order {k}")
            self.expect(":")
            mtok = self.expect("IDENT", "a map name")
            if mtok[1] not in maps:
                message = f"deformation references undefined map {mtok[1]!r}"
                raise self.error(mtok[2], message, UnknownName)
            self.expect(";")
            orders[k] = mtok[1]
        close = self.expect("}")
        if orders and sorted(orders) != list(range(1, len(orders) + 1)):
            raise self.error(close[2], f"deformation orders must be exactly 1..{len(orders)}")
        return [orders[k] for k in sorted(orders)]


def parse(text: str) -> Document:
    """Parse a .dgm document, applying every semantic check."""
    return _Parser(text).document()


# -- printer ------------------------------------------------------------------------


def render(doc: Document) -> str:
    """Canonical text for a document; parse(render(doc)) == doc."""
    out = ["field Q" if doc.field.modulus is None else f"field GF {doc.field.modulus}"]
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
