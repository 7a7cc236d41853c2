"""Exact scalar arithmetic: construction, canonical forms, field axioms."""

import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dgdeform import GF, QQ, FieldSpec, Scalar
from dgdeform.errors import (
    DenominatorDivisibleByP,
    DivisionByZero,
    FieldMismatch,
    ModulusTooLarge,
    NonPrimeModulus,
    ZeroDenominator,
)
from dgdeform.field import MAX_MODULUS, _is_prime


def test_make_reduces_fractions():
    assert QQ.scalar(2, 4) == QQ.scalar(1, 2)
    assert QQ.scalar(2, 4).value == Fraction(1, 2)
    assert QQ.scalar(3, -6).value == Fraction(-1, 2)


def test_make_inverts_denominator_mod_p():
    assert GF(5).scalar(1, 2).value == 3  # 2 * 3 = 1 mod 5


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        QQ.scalar(1, 0)


def test_denominator_divisible_by_p_rejected():
    with pytest.raises(DenominatorDivisibleByP):
        GF(5).scalar(1, 10)


def test_non_prime_modulus_rejected():
    with pytest.raises(NonPrimeModulus):
        GF(6)
    with pytest.raises(NonPrimeModulus):
        GF(1)


def test_primality_matches_trial_division_below_5000():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if trial(n)]


def test_large_prime_moduli_are_fast():
    start = time.perf_counter()
    for q in (2**31 - 1, 10**9 + 7, 2**61 - 1, 2**64 - 59):
        assert GF(q).modulus == q
    with pytest.raises(NonPrimeModulus):
        GF(2**61 + 1)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161,  # Carmichael numbers
    3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,  # strong pseudoprime to the prime bases up to 23
    318665857834031151167461,  # strong pseudoprime to the prime bases up to 37
])
def test_carmichael_and_strong_pseudoprimes_rejected(n):
    start = time.perf_counter()
    with pytest.raises(NonPrimeModulus):
        GF(n)
    assert time.perf_counter() - start < 0.5


def test_moduli_beyond_the_exact_range_rejected():
    for n in (MAX_MODULUS, MAX_MODULUS + 2, 2**127 - 1, 2**20000 + 1):
        with pytest.raises(ModulusTooLarge) as err:
            GF(n)
        assert isinstance(err.value, NonPrimeModulus)
        assert "\n" not in str(err.value)


def test_add_rationals():
    assert QQ.scalar(1, 2) + QQ.scalar(1, 3) == QQ.scalar(5, 6)


def test_inverse_mod_p():
    assert GF(7).scalar(3).inv() == GF(7).scalar(5)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_inverse_of_every_unit(p):
    F = GF(p)
    for x in range(1, p):
        assert x * F.inv(x) % p == 1
        assert F.scalar(x).inv() == F.scalar(1, x)
        assert F.scalar(x).inv() * F.scalar(x) == F.one
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)


def test_field_pickles_after_cached_operations():
    F = GF(5)
    assert (F.norm(7), F.inv(2)) == (2, 3)
    G = pickle.loads(pickle.dumps(F))
    assert G == F
    assert (G.norm(7), G.inv(2)) == (2, 3)


def test_inverse_of_zero_rejected():
    with pytest.raises(DivisionByZero):
        QQ.scalar(0).inv()
    with pytest.raises(DivisionByZero):
        GF(5).scalar(5).inv()  # 5 reduces to 0


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        QQ.scalar(1) + GF(5).scalar(1)
    with pytest.raises(FieldMismatch):
        GF(5).scalar(1) * GF(7).scalar(1)


def test_is_zero_via_reduction():
    assert not GF(5).scalar(5)
    assert not QQ.scalar(0, 3)
    assert QQ.scalar(1, 2)


def test_text_form():
    assert str(QQ.scalar(-3, 4)) == "-3/4"
    assert str(QQ.scalar(2)) == "2"
    assert str(GF(5).scalar(-1)) == "4"
    assert QQ.from_string("-3/4") == QQ.scalar(-3, 4)
    assert GF(5).from_string("7") == GF(5).scalar(2)


_FIELDS = [QQ, GF(2), GF(5), GF(101)]


@st.composite
def scalars3(draw):
    field = draw(st.sampled_from(_FIELDS))
    if field.modulus is None:
        nums = st.integers(-30, 30)
        dens = st.integers(1, 12)
        vals = [field.scalar(draw(nums), draw(dens)) for _ in range(3)]
    else:
        vals = [field.scalar(draw(st.integers(0, field.modulus - 1))) for _ in range(3)]
    return vals


@given(scalars3())
def test_field_axioms(vals):
    a, b, c = vals
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == a.field.zero
    if a:
        assert a * a.inv() == a.field.one


@given(scalars3())
def test_canonical_form_is_unique(vals):
    a, b, _ = vals
    # equal values have identical stored representations
    if a == b:
        assert a.value == b.value and type(a.value) is type(b.value)
    if a.field.modulus is None:
        assert a.value.denominator > 0
    else:
        assert 0 <= a.value < a.field.modulus
