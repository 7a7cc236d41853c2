"""Graded modules, degree components, and sparse vectors."""

import random

import pytest
from hypothesis import given, strategies as st

from dgdeform import GF, MIXED, QQ, GradedModule, base_complex
from dgdeform.errors import (
    FieldMismatch,
    ModuleMismatch,
    UnknownBasisName,
    UnknownName,
    ZeroVectorHasNoDegree,
)


def test_degree_components_of_base_complex():
    cx = base_complex(3, QQ)
    assert cx.module.degree_component(1) == ["x1", "x2"]
    assert cx.module.degree_component(0) == []
    assert cx.module.degree_component(3) == ["x5", "x6"]


def test_vector_degree():
    cx = base_complex(3, QQ)
    v = cx.module.vector({"x5": 3})
    assert v.degree() == 3
    mixed = cx.module.vector({"x1": 1, "x3": 1})
    assert mixed.degree() is MIXED
    with pytest.raises(ZeroVectorHasNoDegree):
        cx.module.zero_vector().degree()


def test_vector_arithmetic_normal_form():
    cx = base_complex(3, QQ)
    x4 = cx.module.basis_vector("x4")
    assert (x4 + x4.scale(-1)).is_zero()
    v = cx.module.vector({"x1": 1, "x2": 1}).scale(2)
    assert v == cx.module.vector({"x1": 2, "x2": 2})
    assert all(c for c in v.terms.values())


def test_module_mismatch_rejected():
    a = base_complex(3, QQ).module
    b = base_complex(4, QQ).module
    with pytest.raises(ModuleMismatch):
        a.basis_vector("x1") + b.basis_vector("x1")


def test_field_mismatch_in_coefficients():
    m = base_complex(2, QQ).module
    with pytest.raises(FieldMismatch):
        m.vector({"x1": GF(5).scalar(1)})


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


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=12))
def test_degree_components_partition_the_basis(degrees):
    m = GradedModule("M", QQ, [(f"e{i}", d) for i, d in enumerate(degrees)])
    seen = []
    for p in sorted(m.degrees()):
        comp = m.degree_component(p)
        assert all(m.degree_of_name(n) == p for n in comp)
        seen.extend(comp)
    assert sorted(seen) == sorted(m.basis_names)
    assert len(seen) == m.dim


def test_vector_equality_is_structural():
    rng = random.Random(7)
    m = GradedModule("M", GF(5), [(f"e{i}", i % 3) for i in range(6)])
    coeffs = {f"e{i}": rng.randint(0, 4) for i in range(6)}
    assert m.vector(coeffs) == m.vector(dict(coeffs))
    assert m.vector({"e0": 5}) == m.zero_vector()  # 5 = 0 mod 5


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
