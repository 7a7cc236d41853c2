"""Graded modules: names, degrees and the canonical sum text."""

import re

import pytest
from hypothesis import given, strategies as st

from dgdeform import GF, QQ, GradedMap, GradedModule, base_complex
from dgdeform.errors import (
    BadDegree,
    FieldMismatch,
    ModuleMismatch,
    UnknownBasisName,
    UnknownName,
)


def test_degree_components_of_base_complex():
    by_degree = base_complex(3, QQ).module._by_degree
    assert by_degree[1] == [0, 1]
    assert 0 not in by_degree
    assert by_degree[3] == [4, 5]


def test_module_mismatch_rejected():
    a = base_complex(3, QQ).module
    b = base_complex(4, QQ).module
    with pytest.raises(ModuleMismatch):
        GradedMap.identity(a) + GradedMap.identity(b)


def test_field_mismatch_in_coefficients():
    m = base_complex(2, QQ).module
    with pytest.raises(FieldMismatch):
        GradedMap(m, m, 0, {0: {0: GF(5).scalar(1)}})


def test_unknown_and_duplicate_basis_names():
    m = base_complex(2, QQ).module
    with pytest.raises(UnknownBasisName):
        m.index_of("x99")
    with pytest.raises(UnknownBasisName, match="^duplicate basis names in module M$"):
        GradedModule("M", QQ, [("a", 1), ("a", 2)])
    with pytest.raises(UnknownBasisName, match="^'2bad' is not a valid basis name$"):
        GradedModule("M", QQ, [("2bad", 1)])
    # the first offending name is named, and before a bad module name
    with pytest.raises(UnknownBasisName, match="^'b-1' is not a valid basis name$"):
        GradedModule("M-", QQ, [("a", 0), ("b-1", 1), ("2bad", 2), ("a", 3)])
    with pytest.raises(UnknownName, match="^'M-' is not a valid module name$"):
        GradedModule("M-", QQ, [("a", 0), ("a", 1)])
    # a name is an ASCII identifier, keywords included
    for bad in ("\u00e9", "x\u00b2", "x\n", "", "1", "a b"):
        with pytest.raises(UnknownBasisName, match="is not a valid basis name$"):
            GradedModule("M", QQ, [(bad, 0)])
        with pytest.raises(UnknownName, match="is not a valid module name$"):
            GradedModule(bad, QQ, [])
    assert GradedModule("if", QQ, [("if", 0), ("_", 1), ("a1", 2)]).basis[0] == ("if", 0)


def test_names_are_the_ascii_identifiers():
    # the language of [A-Za-z_][A-Za-z0-9_]*, over every ASCII string of
    # length at most 2
    ident = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
    chars = [chr(c) for c in range(128)]
    for word in chars + [a + b for a in chars for b in chars]:
        try:
            GradedModule(word, QQ, [])
        except UnknownName:
            assert not ident.match(word), word
        else:
            assert ident.match(word), word


@pytest.mark.parametrize("degree", [1.5, "2", -0.0, None, True], ids=repr)
def test_a_degree_that_is_not_an_int_raises_bad_degree(degree):
    # nothing is coerced: 1.5 does not become 1, nor "2" become 2
    with pytest.raises(BadDegree, match=r"^the degree of b is .*, not an int$"):
        GradedModule("M", QQ, [("a", 0), ("b", degree)])


def test_module_input_is_validated_not_coerced():
    for name in (5, None, b"M"):
        with pytest.raises(UnknownName, match="is not a valid module name$"):
            GradedModule(name, QQ, [("a", 0)])
    for item in (("a",), ("a", 0, 1), ["a", 0], "a0", None):
        with pytest.raises(UnknownBasisName, match=r"is not a \(name, degree\) pair$"):
            GradedModule("M", QQ, [("x", 0), item])
    for name in (5, None, b"a"):
        with pytest.raises(UnknownBasisName, match="is not a valid basis name$"):
            GradedModule("M", QQ, [(name, 0)])
    # the given pairs are kept as they are
    pairs = [("a", 0), ("b", -1)]
    m = GradedModule("M", QQ, iter(pairs))
    assert m.basis == tuple(pairs) and all(x is y for x, y in zip(m.basis, pairs))


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=12))
def test_degree_components_partition_the_basis(degrees):
    m = GradedModule("M", QQ, [(f"e{i}", d) for i, d in enumerate(degrees)])
    seen = []
    for p in sorted(m.degrees()):
        comp = m._by_degree[p]
        assert comp == sorted(comp)
        assert all(m.degree_of(i) == p for i in comp)
        seen.extend(comp)
    assert sorted(seen) == list(range(m.dim))


def test_render_sum_tests_each_sign_once(monkeypatch):
    # one Fraction comparison per term: the sign picks both the magnitude
    # and the joining minus
    from fractions import Fraction

    from dgdeform.graded import _render_sum

    terms = [(Fraction(-1), "a"), (Fraction(3, 2), "b"), (Fraction(1), "c"), (Fraction(-2, 5), "d")]
    calls = []
    less = Fraction.__lt__

    def counting(self, other):
        calls.append(self)
        return less(self, other)

    monkeypatch.setattr(Fraction, "__lt__", counting)
    text = _render_sum(terms)
    monkeypatch.undo()
    assert text == "-a + 3/2*b + c - 2/5*d"
    assert len(calls) == len(terms)
