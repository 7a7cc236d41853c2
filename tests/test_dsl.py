"""Text format: parsing, semantic checks, canonical printing, round trips."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dgdeform import (
    GF, QQ, Document, FamilySpec, GradedMap, GradedModule, Scalar, base_complex,
    family_lifts,
)
from dgdeform.dsl import MAX_GENERATORS, _Parser, load_complex, parse, render
from dgdeform.errors import (
    DegreeMismatch,
    MissingDifferential,
    NonPrimeModulus,
    NotADifferential,
    ParseError,
    UnknownBasisName,
    UnknownName,
)
from conftest import compose, elementary

MINIMAL = """\
field Q
module V {
  basis x1 : 1, x3 : 2;
}
map d degree -1 {
  x3 -> x1;
}
"""


def test_parse_minimal_document():
    doc = parse(MINIMAL)
    assert doc.field == QQ
    assert doc.module.basis == (("x1", 1), ("x3", 2))
    assert doc.maps["d"] == elementary(doc.module, "x1", "x3")


def test_parse_degree_mismatch_positioned():
    text = MINIMAL.replace("x3 -> x1;", "x3 -> x3;")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "degree" in str(err.value)
    assert err.value.line == 6


def test_parse_non_prime_modulus():
    with pytest.raises(NonPrimeModulus) as err:
        parse(MINIMAL.replace("field Q", "field GF 6"))
    assert "line 1" in str(err.value)


def test_parse_large_prime_modulus():
    start = time.perf_counter()
    doc = parse(MINIMAL.replace("field Q", "field GF 2305843009213693951"))
    assert doc.field.modulus == 2**61 - 1
    assert time.perf_counter() - start < 0.5


def test_parse_modulus_beyond_exact_range():
    with pytest.raises(NonPrimeModulus) as err:
        parse(MINIMAL.replace("field Q", "field GF 3317044064679887385961981"))
    assert "line 1" in str(err.value)


HUGE = "7" * 5000  # past the interpreter's 4300-digit int conversion limit


@pytest.mark.parametrize("text, line", [
    (MINIMAL.replace("x3 -> x1;", f"x3 -> {HUGE}*x1;"), 6),
    (MINIMAL.replace("x3 -> x1;", f"x3 -> 2/{HUGE}*x1;"), 6),
    (MINIMAL.replace("x3 : 2", f"x3 : {HUGE}"), 3),
    (MINIMAL.replace("degree -1", f"degree -{HUGE}"), 5),
    (MINIMAL.replace("field Q", f"field GF {HUGE}"), 1),
    (MINIMAL + f"deformation {{ order {HUGE} : d; }}\n", 8),
], ids=["coefficient", "denominator", "basis-degree", "map-degree", "modulus", "order"])
def test_parse_overlong_integer_is_a_parse_error(text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert "5000 digits" in str(err.value)


def test_parse_non_ascii_digit_is_an_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse(MINIMAL.replace("field Q", "field GF ²"))
    assert (err.value.line, err.value.col) == (1, 10)
    assert "unexpected character" in str(err.value)


@pytest.mark.parametrize("text, where, message", [
    ("field Q # c", (1, 9), "expected 'module', found ''"),  # EOF at the final comment
    ("field Q\t\r  ", (1, 12), "expected 'module', found ''"),  # tab and CR: a column each
    ("field X ²", (1, 9), "unexpected character '²'"),  # ahead of the unknown field
    ("²x", (1, 1), "unexpected character '²'"),
    ("fie²ld", (1, 1), "expected 'field', found 'fie²ld'"),  # one identifier
], ids=["final-comment", "tab-cr", "bad-before-syntax", "digit-start", "digit-inside"])
def test_scanner_edge_cases(text, where, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == where
    assert str(err.value).endswith(f": {message}")


@pytest.mark.parametrize("old, new, where, message", [
    ("module V", "module Vé", (2, 8), "'Vé' is not a valid module name"),
    ("x3 : 2", "x1é : 2", (3, 17), "'x1é' is not a valid basis name"),
    ("map d ", "map dé ", (5, 5), "'dé' is not a valid map name"),
    ("x1 : 1", "fie²ld : 1", (3, 9), "'fie²ld' is not a valid basis name"),  # one identifier
], ids=["module", "basis", "map", "digit-inside"])
def test_non_ascii_names_are_parse_errors_at_their_tokens(old, new, where, message):
    # the scanner reads any letter-led word as one identifier; a name must
    # also be ASCII, as GradedModule requires
    with pytest.raises(ParseError) as err:
        parse(MINIMAL.replace(old, new))
    assert (err.value.line, err.value.col) == where
    assert str(err.value).endswith(f": {message}")


@given(st.text(st.sampled_from("aZ_09\u00e9\u00b2\u0663\u03a9x"), min_size=1, max_size=6))
def test_an_identifier_is_a_valid_name_exactly_when_it_is_ascii(word):
    # the parser checks names with str.isascii; for a word the scanner reads
    # as one identifier, that is the rule GradedModule applies to a name
    try:
        kind, text, _ = _Parser(word).tokens[0]
    except ParseError:
        return
    if kind == "IDENT" and text == word:
        try:
            GradedModule(word, QQ, [(word, 0)])
        except (UnknownName, UnknownBasisName):
            assert not word.isascii()
        else:
            assert word.isascii()


@pytest.mark.parametrize("blocks", [
    "deformation { }\ndeformation { order 1 : d; }",
    "deformation { }\ndeformation { }",
    "deformation { order 1 : d; }\ndeformation { }",
])
def test_second_deformation_block_rejected(blocks):
    with pytest.raises(ParseError) as err:
        parse(MINIMAL + blocks)
    assert (err.value.line, err.value.col) == (9, 1)
    assert "duplicate deformation block" in str(err.value)


def test_parse_unknown_basis_name():
    with pytest.raises(UnknownBasisName) as err:
        parse(MINIMAL.replace("x3 -> x1;", "x9 -> x1;"))
    assert "line" in str(err.value)


def test_parse_unknown_map_in_deformation():
    text = MINIMAL + "deformation {\n  order 1 : nope;\n}\n"
    with pytest.raises(UnknownName):
        parse(text)


def test_parse_sparse_orders_rejected():
    text = MINIMAL + "map e degree -1 { }\ndeformation {\n  order 2 : e;\n}\n"
    with pytest.raises(ParseError):
        parse(text)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("field Q\nmodule V {\n  basis x1 : ;\n}\n")
    assert err.value.line == 3 and err.value.col > 0


def test_spec_grammar_plus_negative_coefficient_accepted():
    text = MINIMAL.replace("x3 -> x1;", "x3 -> 2*x1 + -1*x1;")
    doc = parse(text)
    assert doc.maps["d"] == elementary(doc.module, "x1", "x3")


def test_repeated_terms_are_summed():
    doc = parse(MINIMAL.replace("x3 -> x1;", "x3 -> x1 + 2*x1;"))
    assert doc.maps["d"] == elementary(doc.module, "x1", "x3", 3)
    assert "x3 -> 3*x1;" in render(doc)


def test_cancelling_terms_leave_no_column():
    doc = parse(MINIMAL.replace("x3 -> x1;", "x3 -> x1 - x1;"))
    assert doc.maps["d"].columns == {}
    assert "map d degree -1 { }" in render(doc)
    gf2 = MINIMAL.replace("field Q", "field GF 2").replace("x3 -> x1;", "x3 -> x1 + x1;")
    assert parse(gf2).maps["d"].columns == {}


def test_parse_reads_terms_into_columns_itself(monkeypatch):
    # no checking GradedMap constructor, and no Scalar per term with an
    # integer or no coefficient: at most the field's cached one
    basis = ", ".join(f"e{i} : {i % 2}" for i in range(40))
    terms = " + ".join(f"{k}*e{k}" for k in range(0, 40, 2))
    text = (f"field GF 7\nmodule V {{ basis {basis}; }}\n"
            f"map f degree -1 {{ e1 -> {terms} - e0; e3 -> 3*e2 - e4 + e4; }}\n")

    def refuse(*args, **kwargs):
        pytest.fail("parse called a checking GradedMap constructor")

    scalars = []
    post_init = Scalar.__post_init__
    monkeypatch.setattr(GradedMap, "from_entries", refuse)
    monkeypatch.setattr(GradedMap, "__init__", refuse)
    monkeypatch.setattr(Scalar, "__post_init__", lambda self: scalars.append(self) or post_init(self))
    doc = parse(text)
    assert len(scalars) <= 1
    monkeypatch.undo()
    entries = [("e1", f"e{k}", k) for k in range(2, 40, 2)] + [("e1", "e0", -1), ("e3", "e2", 3)]
    assert doc.maps["f"] == GradedMap.from_entries(doc.module, -1, entries)


@pytest.mark.parametrize("first", ["x3 -> x1;", "x3 -> x1 - x1;"])
def test_duplicate_source_column_positioned(first):
    with pytest.raises(ParseError) as err:
        parse(MINIMAL.replace("x3 -> x1;", first + "\n  x3 -> x1;"))
    assert (err.value.line, err.value.col) == (7, 3)
    assert "duplicate column for 'x3'" in str(err.value)


def test_minus_join_and_bare_negation_accepted():
    base = """\
field Q
module V {
  basis a : 1, b : 1, c : 2;
}
map f degree -1 {
  c -> -a - 1/2*b;
}
"""
    doc = parse(base)
    assert doc.maps["f"] == GradedMap.from_entries(
        doc.module, -1, [("c", "a", -1), ("c", "b", QQ.scalar(-1, 2))]
    )


def test_render_never_prints_plus_minus():
    doc = parse(MINIMAL.replace("x3 -> x1;", "x3 -> -1*x1;"))
    text = render(doc)
    assert "x3 -> -x1;" in text
    assert "+ -" not in text


def test_empty_map_block_round_trips():
    text = MINIMAL + "map z degree -1 { }\n"
    doc = parse(text)
    assert doc.maps["z"].is_zero()
    assert "map z degree -1 { }" in render(doc)
    assert parse(render(doc)) == doc


def test_comments_and_whitespace_insensitive():
    text = "# header\nfield   Q\nmodule V { basis x1:1, x3:2; }  # trailing\nmap d degree -1 { x3->x1; }"
    assert parse(text).maps["d"] == parse(MINIMAL).maps["d"]


def _family_document(spec):
    cx = base_complex(spec.truncation, spec.field)
    maps = {"d": cx.d}
    names = []
    for k, m in enumerate(family_lifts(spec), start=1):
        maps[f"d{k}"] = m
        names.append(f"d{k}")
    return Document(spec.field, cx.module, maps, names)


@pytest.mark.parametrize("variant,n", [("polynomial", 3), ("obstructed", 2),
                                       ("linear", 1), ("infinite", 3)])
@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_generator_documents_round_trip(variant, n, field):
    doc = _family_document(FamilySpec(n, variant, field=field))
    text = render(doc)
    doc2 = parse(text)
    assert doc2 == doc
    assert render(doc2) == text


def test_load_complex_from_generated_file():
    doc = _family_document(FamilySpec(2, "polynomial"))
    cx, maps, lifts = load_complex(doc)
    assert compose(cx.d, cx.d).is_zero()
    assert len(lifts) == 2
    assert lifts == [maps["d1"], maps["d2"]]


def _module_text(count: int) -> str:
    basis = ", ".join(f"e{i} : {i % 3}" for i in range(count))
    return f"field Q\nmodule V {{\n  basis {basis};\n}}\n"


def test_module_size_cap():
    # twice the truncation cap: the largest module paper-family writes
    assert MAX_GENERATORS == 20_000
    assert parse(_module_text(MAX_GENERATORS)).module.dim == MAX_GENERATORS
    text = _module_text(MAX_GENERATORS + 1)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert f"declares more than {MAX_GENERATORS} generators" in str(err.value)
    # positioned at the first generator past the cap
    assert (err.value.line, err.value.col) == (3, text.splitlines()[2].index("e20000") + 1)


def test_load_complex_requires_d():
    doc = parse("field Q\nmodule V { basis x1 : 1; }\nmap f degree 0 { x1 -> x1; }\n")
    with pytest.raises(MissingDifferential):
        load_complex(doc)


def test_load_complex_rejects_non_differential():
    text = """\
field Q
module V {
  basis x4 : 2, x6 : 3, x8 : 4;
}
map d degree -1 {
  x6 -> x4;
  x8 -> x6;
}
"""
    with pytest.raises(NotADifferential):
        load_complex(parse(text))


# -- randomized round trips ---------------------------------------------------------

from conftest import random_document  # noqa: E402


@pytest.mark.parametrize("seed", range(4))
def test_random_documents_round_trip(seed):
    rng = random.Random(seed)
    for _ in range(25):
        doc = random_document(rng)
        text = render(doc)
        assert parse(text) == doc


@st.composite
def hypothesis_documents(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_document(rng)


@settings(max_examples=60, deadline=None)
@given(hypothesis_documents())
def test_round_trip_property(doc):
    text = render(doc)
    doc2 = parse(text)
    assert doc2 == doc
    assert render(doc2) == text


# -- the entry reader against the token parser ----------------------------------------

from pathlib import Path  # noqa: E402

from dgdeform.dsl import _read  # noqa: E402
from dgdeform.errors import DgmError  # noqa: E402
from test_golden import _mutated, _random_dgm, parse_inputs  # noqa: E402

GOLDEN_FILES = sorted((Path(__file__).parent / "golden").glob("*.dgm"))


@pytest.fixture(scope="module")
def corpus():
    """The (label, text) pairs of ``tests/golden/parse.txt``."""
    return list(parse_inputs())


def _exact(doc: Document):
    """A document down to the type of every value and the order of every
    dict, which ``Document.__eq__`` does not see."""
    return (
        doc.field, doc.module.name, doc.module.basis,
        [(name, m.degree, [(j, [(i, type(c), c) for i, c in col.items()])
                           for j, col in m.columns.items()])
         for name, m in doc.maps.items()],
        doc.deformation,
    )


def _check_reader(text: str) -> Document | None:
    """The entry reader's document for ``text``, after checking that it
    declines where the token parser raises and otherwise agrees with it
    exactly."""
    doc = _read(text)
    try:
        want = _Parser(text).document()
    except DgmError:
        assert doc is None
        return None
    assert doc is None or _exact(doc) == _exact(want)
    return doc


def test_reader_agrees_with_token_parser_on_parse_corpus(corpus):
    accepted = [label for label, text in corpus if _check_reader(text) is not None]
    assert len(corpus) == 1974
    # it reads every text that parses: the 237 `ok` lines of parse.txt
    assert len(accepted) == 237


def test_reader_accepts_every_unmutated_corpus_text(corpus):
    bases = [(label, text) for label, text in corpus if "mutation" not in label]
    assert len(bases) == 94
    assert [label for label, text in bases if _read(text) is None] == []


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.name)
def test_reader_accepts_golden_files(path):
    # each opens with comment lines
    text = path.read_text()
    assert text.startswith("#")
    assert _check_reader(text) is not None


@settings(max_examples=60, deadline=None)
@given(hypothesis_documents(), st.integers(0, 2**32 - 1))
def test_reader_accepts_renderings_and_declines_or_agrees_on_mutants(doc, seed):
    text = render(doc)
    assert _check_reader(text) is not None
    rng = random.Random(seed)
    free = _random_dgm(rng, doc.field)
    assert _check_reader(free) is not None
    for base in (text, free):
        for _ in range(5):
            _check_reader(_mutated(rng, base))


@pytest.mark.parametrize("old, new", [
    ("x1 : 1", "x1é : 1"),                      # non-ASCII outside a comment
    ("x3 -> x1;", "x3 -> x9;"),                 # unknown name
    ("x3 : 2", "x1 : 2"),                       # duplicate basis name
    ("x3 -> x1;", "x3 -> x3;"),                 # degree violation
    ("x3 -> x1;", "x3 -> 1/0*x1;"),             # zero denominator
    ("x3 -> x1;", f"x3 -> 1/{HUGE}*x1;"),       # overlong denominator
    ("field Q", "field GF 6"),                  # non-prime modulus
    ("x3 -> x1;", "x3 -> x1; x3 -> x1;"),       # duplicate column
    ("x3 -> x1;\n}", "x3 -> x1;\n}\nmap d degree 0 { }"),  # duplicate map name
    ("x3 -> x1;\n}", "x3 -> x1;\n}\ndeformation { order 2 : d; }"),  # orders not 1..m
    ("x3 -> x1;\n}", "x3 -> x1;\n}\ndeformation { order 1 : d; order 1 : d; }"),  # again
    ("x3 -> x1;\n}", "x3 -> x1;\n}\ndeformation { }\ndeformation { }"),  # second block
    # a keyword, Q, or a name before a keyword that runs into the next word
    # is one identifier to the scanner
    ("field Q", "fieldQ"),
    ("field Q\nmodule", "field Qmodule"),
    ("field Q", "field GF5"),
    ("module V", "moduleV"),
    ("basis x1", "basisx1"),
    ("map d degree", "mapd degree"),
    ("map d degree", "map ddegree"),
    ("x3 -> x1;\n}", "x3 -> x1;\n}\nmap e degree0 { }"),
    ("x3 -> x1;\n}", "x3 -> x1;\n}\ndeformation { order1 : d; }"),
], ids=["non-ascii", "unknown", "duplicate-basis", "degree", "zero-den", "overlong-den",
        "non-prime", "duplicate-column", "duplicate-map", "orders", "duplicate-order",
        "second-block", "field", "Q", "GF", "module", "basis", "map", "map-name", "degree-kw",
        "order"])
def test_reader_declines_what_the_token_parser_rejects(old, new):
    text = MINIMAL.replace(old, new)
    assert text != MINIMAL
    assert _read(text) is None
    with pytest.raises(DgmError):
        parse(text)


def test_reader_declines_a_p_divisible_denominator():
    text = MINIMAL.replace("field Q", "field GF 5").replace("x3 -> x1;", "x3 -> 2/10*x1;")
    assert _read(text) is None
    with pytest.raises(DgmError):
        parse(text)


def test_reader_declines_past_the_module_size_cap():
    assert _read(_module_text(MAX_GENERATORS)) is not None
    assert _read(_module_text(MAX_GENERATORS + 1)) is None


def test_reader_takes_comments_with_non_ascii_text():
    text = "# é ²\n" + MINIMAL.replace("x3 -> x1;", "x3 -> x1; # ٣")
    assert _check_reader(text) is not None


# -- linear time: each input is about 1 MB ----------------------------------------------

RUN = 1 << 20


def _timed_parse_error(text: str) -> ParseError:
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse(text)
    assert time.perf_counter() - start < 2
    return err.value


def test_whitespace_run_before_an_unexpected_character_is_linear():
    entry = "  x3 -> x1" + " " * RUN + "@;"
    error = _timed_parse_error(MINIMAL.replace("  x3 -> x1;", entry))
    assert (error.line, error.col) == (6, entry.index("@") + 1)
    assert "unexpected character '@'" in str(error)


EVERY_PRODUCTION = """\
field GF 5
module V { basis x1 : 1, x3 : 2, y : -1; }
map d degree -1 { x3 -> 2/3*x1 - -4*x1 + x1; }
map e degree 0 { }
deformation { order 1 : d; }
"""


def test_whitespace_run_in_every_gap_is_linear():
    # a pattern that could match one run in two ways would take seconds on
    # a 16 KB run at the gap where it sits; each parse here takes milliseconds
    run = " \t\r\n" * (1 << 12)
    start = time.perf_counter()
    for k in range(len(EVERY_PRODUCTION) + 1):
        with pytest.raises(ParseError):
            parse(EVERY_PRODUCTION[:k] + run + "@" + EVERY_PRODUCTION[k:])
    assert time.perf_counter() - start < 2


def test_run_of_terms_is_linear():
    entry = "  x3 -> x1" + " + x1" * (RUN // 5) + " }"
    error = _timed_parse_error(MINIMAL.replace("  x3 -> x1;\n}", entry))
    assert (error.line, error.col) == (6, len(entry))
    assert "expected '+', '-' or ';', found '}'" in str(error)


def test_comment_on_every_line_is_linear():
    n = 10_000
    lines = ["field GF 7 # c", "module V { # c", "  basis # c"]
    lines += [f"  e{i} : {i % 2}, # c" for i in range(2 * n - 1)] + [f"  e{2 * n - 1} : 1; # c"]
    lines += ["} # c", "map d degree -1 { # c"]
    lines += [f"  e{2 * k + 1} -> 3*e{2 * k}; # c" for k in range(n)] + ["} # c"]
    text = "\n".join(lines) + "\n"
    assert len(text) > RUN / 2
    start = time.perf_counter()
    doc = parse(text)
    assert time.perf_counter() - start < 2
    assert _read(text) is not None
    assert doc.module.dim == 2 * n and len(doc.maps["d"].columns) == n
