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
name is an ASCII <id>, checked at its token.

``parse`` has two readers.  The entry reader (``_read``) drops comments
with one substitution, then matches one compiled pattern per production at
its offset: the header up to ``basis``, a basis item, a map header, a map
entry with its first term, each further term, a deformation item.  So
Python code runs once per entry and per term, not once per token.  It
returns None (declines) on non-ASCII text outside comments, on any
mismatch, and on any check that fails, and then the token parser
(``_Parser``) reads the text as if the entry reader did not exist.  The
token parser is thus the one source of errors.  One regular expression
scans the whole text into (kind, text, offset) tokens before the parse, so
an unexpected character is reported ahead of any syntax error.  EOF sits
at the end of the text, or at the start of a final comment with no
newline.  An error's 1-based line and character column (a tab is one
column) are computed from its offset when it is raised.

A module declares at most ``MAX_GENERATORS`` (20,000) generators, which
bounds what a file can make the parser build, and a file has at most one
deformation block.  Map blocks are read straight into normal-form columns,
by value rules that both readers share (``_term_value``, ``_column``,
``_graded_map``): GF(p) scalars reduced mod p, repeated terms summed, zeros
dropped, and no ``Scalar`` made for a term without a fraction.  The
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


# -- terms to columns: the value rules of both readers --------------------------------


def _term_value(field: FieldSpec, negative: bool, num: int | None, den: int):
    """The raw value of a term ``[-] [num[/den] *] dst`` (``num`` None when
    the term has no coefficient).  Only a fraction makes a ``Scalar``, apart
    from the field's cached one; raises ZeroDenominator or
    DenominatorDivisibleByP for a bad denominator."""
    if num is None:
        if not negative:
            return field.one.value
        num = 1
    if negative:
        num = -num
    return field._raw(num) if den == 1 else field.scalar(num, den).value


def _column(terms: list, norm) -> dict:
    """The normal-form column of an entry's (target index, raw value) terms:
    repeated targets summed, zeros dropped, ``{}`` when they all cancel."""
    col: dict = {}
    for i, c in terms:
        col[i] = norm(col[i] + c) if i in col else c
    return {i: c for i, c in col.items() if c}


def _graded_map(module: GradedModule, degree: int, columns: dict) -> GradedMap:
    """The map of ``degree`` on ``module`` with these normal-form columns,
    the empty ones left out."""
    return GradedMap._of(module, module, degree, {j: col for j, col in columns.items() if col})


# -- the entry reader ----------------------------------------------------------------
#
# Each pattern starts at a token and ends with the whitespace after its last
# token, so a whitespace run meets exactly one _S and a failed match backs
# off each run once: a match costs time linear in what it scans.  No pattern
# repeats a group, so none grows the matcher's stack with its input.  Each
# keyword, ``Q``, and a name followed by a keyword end at \b, so no match
# splits an identifier that the scanner reads whole.

_S = r"[ \t\r\n]*"
_NAME = r"([A-Za-z_][A-Za-z0-9_]*)"
_INT = r"([0-9]+)"
_MINUS = rf"(?:(-){_S})?"
_SIGNED = rf"{_MINUS}{_INT}{_S}"
#: num, den, dst, then ``None`` after ``;``, or the joining sign and an
#: optional minus of the next term
_TERM_TAIL = rf"(?:{_INT}{_S}(?:/{_S}{_INT}{_S})?\*{_S})?{_NAME}{_S}(?:;{_S}|([+-]){_S}{_MINUS})"

_COMMENT = re.compile(r"#[^\n]*")
_HEADER = re.compile(rf"{_S}field\b{_S}(?:(Q)\b|GF\b{_S}{_INT}){_S}module\b{_S}{_NAME}{_S}"
                     rf"\{{{_S}basis\b{_S}")
_BASIS_ITEM = re.compile(rf"{_NAME}{_S}:{_S}{_SIGNED}(?:(,)|;{_S}\}}){_S}")
_MAP = re.compile(rf"map\b{_S}{_NAME}\b{_S}degree\b{_S}{_SIGNED}\{{{_S}")
_ENTRY = re.compile(rf"{_NAME}{_S}->{_S}{_MINUS}{_TERM_TAIL}")
_TERM = re.compile(_TERM_TAIL)
_DEFORMATION = re.compile(rf"deformation\b{_S}\{{{_S}")
_ORDER = re.compile(rf"order\b{_S}{_INT}{_S}:{_S}{_NAME}{_S};{_S}")
_CLOSE = re.compile(rf"\}}{_S}")


def _read(text: str) -> Document | None:
    """The document of ``text``, read one entry at a time with one pattern
    match per entry and per further term; None when ``text`` has non-ASCII
    characters outside comments, does not match, or fails any check that
    ``_Parser`` makes."""
    try:
        return _read_entries(_COMMENT.sub("", text))
    except (ValueError, NonPrimeModulus, ZeroDenominator, DenominatorDivisibleByP):
        # a literal past int()'s digit limit, or a modulus or denominator
        # that the field refuses
        return None


def _read_entries(text: str) -> Document | None:
    if not text.isascii():
        return None
    m = _HEADER.match(text)
    if m is None:
        return None
    q, p, module_name = m.groups()
    field = FieldSpec() if q else FieldSpec(int(p))
    pos = m.end()
    basis: dict[str, int] = {}
    while True:
        m = _BASIS_ITEM.match(text, pos)
        if m is None or len(basis) == MAX_GENERATORS:
            return None
        name, neg, deg, more = m.groups()
        if name in basis:
            return None
        basis[name] = -int(deg) if neg else int(deg)
        pos = m.end()
        if more is None:
            break
    module = GradedModule(module_name, field, basis.items())
    index, degrees = module._index, list(basis.values())
    norm = field.norm
    maps: dict[str, GradedMap] = {}
    deformation: list[str] | None = None
    end = len(text)
    while pos < end:
        m = _MAP.match(text, pos)
        if m is None:
            m = _DEFORMATION.match(text, pos)
            if m is None or deformation is not None:
                return None
            block = _read_orders(text, m.end(), maps)
            if block is None:
                return None
            pos, deformation = block
            continue
        name, neg, deg = m.groups()
        if name in maps:
            return None
        degree = -int(deg) if neg else int(deg)
        pos = m.end()
        columns: dict[int, dict] = {}
        while (m := _ENTRY.match(text, pos)) is not None:
            src, neg, num, den, dst, sep, flip = m.groups()
            j = index.get(src)
            if j is None or j in columns:
                return None
            want = degrees[j] + degree
            negative = neg is not None
            terms = []
            while True:
                i = index.get(dst)
                if i is None or degrees[i] != want:
                    return None
                num = None if num is None else int(num)
                den = 1 if den is None else int(den)
                terms.append((i, _term_value(field, negative, num, den)))
                pos = m.end()
                if sep is None:
                    break
                m = _TERM.match(text, pos)
                if m is None:
                    return None
                negative = (sep == "-") != (flip is not None)
                num, den, dst, sep, flip = m.groups()
            columns[j] = _column(terms, norm)
        m = _CLOSE.match(text, pos)
        if m is None:
            return None
        pos = m.end()
        maps[name] = _graded_map(module, degree, columns)
    return Document(field, module, maps, deformation or [])


def _read_orders(text: str, pos: int, maps: dict) -> tuple[int, list[str]] | None:
    """The end of the deformation block whose items start at ``pos``, and
    its map names by order; None unless the block is valid."""
    orders: dict[int, str] = {}
    while (m := _ORDER.match(text, pos)) is not None:
        k, name = m.groups()
        k = int(k)
        if k in orders or name not in maps:
            return None
        orders[k] = name
        pos = m.end()
    m = _CLOSE.match(text, pos)
    if m is None or sorted(orders) != list(range(1, len(orders) + 1)):
        return None
    return m.end(), [orders[k] for k in sorted(orders)]


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
        also ASCII, which for an IDENT is what ``GradedModule`` accepts: an
        ASCII identifier."""
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

    def term(self, field: FieldSpec, negative: bool):
        """A term after its optional sign, ``dst`` or ``num[/den] * dst``: its
        signed raw value and the basis name token."""
        tok = self.next()
        if tok[0] == "IDENT":
            return _term_value(field, negative, None, 1), tok
        if tok[0] != "INT":
            raise self.error(tok[2], f"expected a coefficient or basis name, found {tok[1]!r}")
        num = self.int(tok)
        den = self.int(self.expect("INT", "a denominator")) if self.accept("/") else 1
        self.expect("*")
        try:
            value = _term_value(field, negative, num, den)
        except (ZeroDenominator, DenominatorDivisibleByP) as exc:
            raise self.error(tok[2], str(exc), type(exc)) from None
        return value, self.expect("IDENT", "a basis name")

    def map_decl(self, module: GradedModule, maps: dict[str, GradedMap]) -> None:
        """Read a map block into ``maps``, in normal-form columns, checking
        the degree of every term."""
        self.expect_keyword("map")
        name = self.name("map name")
        self.expect_keyword("degree")
        degree = self.signed_int()
        self.expect("{")
        columns: dict[int, dict] = {}  # a column that cancels stays as {} until the end
        while self.peek() != "}":
            src = self.expect("IDENT", "a source basis name")
            j = self.resolve(module, src)
            if j in columns:
                raise self.error(src[2], f"duplicate column for {src[1]!r}")
            want = module.degree_of(j) + degree
            self.expect("->", "'->'")
            terms = []
            negative = False
            while True:
                if self.accept("-"):
                    negative = not negative
                value, dst = self.term(module.field, negative)
                i = self.resolve(module, dst)
                if module.degree_of(i) != want:
                    message = f"entry {src[1]} -> {dst[1]} violates degree {degree}"
                    raise self.error(dst[2], message)
                terms.append((i, value))
                tok = self.next()
                if tok[0] == ";":
                    break
                if tok[0] != "+" and tok[0] != "-":
                    raise self.error(tok[2], f"expected '+', '-' or ';', found {tok[1]!r}")
                negative = tok[0] == "-"
            columns[j] = _column(terms, module.field.norm)
        self.expect("}")
        if name[1] in maps:
            raise self.error(name[2], f"duplicate map name {name[1]!r}")
        maps[name[1]] = _graded_map(module, degree, columns)

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
    """Parse a .dgm document, applying every semantic check: by the entry
    reader when it reads the text, else by the token parser, which also
    reports every error."""
    doc = _read(text)
    return doc if doc is not None else _Parser(text).document()


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
