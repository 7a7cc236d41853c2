"""Text format: parsing, semantic checks, canonical printing, round trips."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dgdeform import GF, QQ, Document, FamilySpec, GradedMap, base_complex, family_lifts
from dgdeform.dsl import MAX_GENERATORS, load_complex, parse, render
from dgdeform.errors import (
    DegreeMismatch,
    MissingDifferential,
    NonPrimeModulus,
    NotADifferential,
    ParseError,
    UnknownBasisName,
    UnknownName,
)

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
    assert doc.maps["d"] == GradedMap.elementary(doc.module, "x1", "x3")


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
    assert doc.maps["d"] == GradedMap.elementary(doc.module, "x1", "x3")


def test_repeated_terms_are_summed():
    doc = parse(MINIMAL.replace("x3 -> x1;", "x3 -> x1 + 2*x1;"))
    assert doc.maps["d"] == GradedMap.elementary(doc.module, "x1", "x3", 3)
    assert "x3 -> 3*x1;" in render(doc)


def test_cancelling_terms_leave_no_column():
    doc = parse(MINIMAL.replace("x3 -> x1;", "x3 -> x1 - x1;"))
    assert doc.maps["d"].columns == {}
    assert "map d degree -1 { }" in render(doc)
    gf2 = MINIMAL.replace("field Q", "field GF 2").replace("x3 -> x1;", "x3 -> x1 + x1;")
    assert parse(gf2).maps["d"].columns == {}


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
    assert cx.d.is_differential()
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
