"""Exact scalar arithmetic over the rationals or a prime field GF(p).

Scalars are stored in canonical form (reduced fraction with positive
denominator, or residue in [0, p)), so two scalars are equal exactly when
their stored representations coincide.  There is no floating point anywhere.

Inside the library, vectors, maps and matrices hold these canonical values
raw, without the ``Scalar`` wrapper: a ``Fraction`` over the rationals, an
``int`` in [0, p) over GF(p).  ``FieldSpec._raw`` is the one rule that turns
a number into such a value, and ``FieldSpec.norm`` brings a raw sum or
product back to canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import truediv

from .errors import (
    DenominatorDivisibleByP,
    DivisionByZero,
    FieldMismatch,
    ModulusTooLarge,
    NonPrimeModulus,
    ZeroDenominator,
)

#: the first 13 primes, used as Miller-Rabin bases
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: below this bound Miller-Rabin with _MR_BASES decides primality exactly
#: (Sorenson and Webster, 2015)
MAX_MODULUS = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < MAX_MODULUS."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _identity(x):
    return x


@dataclass(frozen=True)
class FieldSpec:
    """The ground field: the rationals when ``modulus`` is None, else GF(p)."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is None:
            return
        if self.modulus >= MAX_MODULUS:
            raise ModulusTooLarge(f"moduli must be below {MAX_MODULUS}")
        if not _is_prime(self.modulus):
            raise NonPrimeModulus(f"modulus {self.modulus} is not prime")

    def scalar(self, num: int, den: int = 1) -> "Scalar":
        """The canonical representative of num/den in this field; the
        denominator is checked as given, so 5/5 over GF(5) raises."""
        if den == 0:
            raise ZeroDenominator(f"denominator of {num}/{den} is zero")
        p = self.modulus
        if p is None:
            return Scalar(self, Fraction(num, den))
        if den % p == 0:
            raise DenominatorDivisibleByP(f"denominator {den} is divisible by the modulus {p}")
        return Scalar(self, num * self.inv(den))

    @cached_property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @cached_property
    def one(self) -> "Scalar":
        return self.scalar(1)

    @cached_property
    def norm(self):
        """Canonical form of a raw sum or product: identity over Q, x % p over GF(p)."""
        return _identity if self.modulus is None else self.modulus.__rmod__

    @cached_property
    def inv(self):
        """Inverse of a nonzero raw value: 1/x over Q, x^-1 mod p over GF(p)."""
        p = self.modulus
        return partial(truediv, 1) if p is None else partial(pow, exp=-1, mod=p)

    def _raw(self, c: "Scalar | Fraction | int") -> Fraction | int:
        """The raw value of a number given as an int, a Fraction or a Scalar
        of this field: the library's one rule for turning a number into a
        value.  Anything else, a float or a str, raises FieldMismatch."""
        if isinstance(c, int):  # already canonical as a Fraction, or once reduced mod p
            return Fraction(c) if self.modulus is None else c % self.modulus
        if isinstance(c, Fraction):  # over GF(p), num * den^-1 mod p, not its integer part
            return c if self.modulus is None else self.scalar(c.numerator, c.denominator).value
        if isinstance(c, Scalar):
            if c.field is not self and c.field != self:
                raise FieldMismatch(f"coefficient field {c.field} != {self}")
            return c.value
        raise FieldMismatch(f"{c!r} is not an int, a Fraction or a Scalar of {self}")

    def __str__(self) -> str:
        return "Q" if self.modulus is None else f"GF({self.modulus})"


#: The field of rational numbers.
QQ = FieldSpec()


def GF(p: int) -> FieldSpec:
    """The prime field with p elements."""
    return FieldSpec(p)


@dataclass(frozen=True)
class Scalar:
    """An exact element of a :class:`FieldSpec`."""

    field: FieldSpec
    value: Fraction | int

    def __post_init__(self):
        object.__setattr__(self, "value", self.field._raw(self.value))

    def _coerce(self, other):
        """The raw value of an int or a Scalar of this field, else NotImplemented."""
        return self.field._raw(other) if isinstance(other, (Scalar, int)) else NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.value + other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.value - other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.value * other)

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.field, -self.value)

    def inv(self) -> "Scalar":
        if not self:
            raise DivisionByZero("inverse of zero")
        return Scalar(self.field, self.field.inv(self.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * Scalar(self.field, other).inv()

    def __bool__(self) -> bool:
        return self.value != 0

    @property
    def is_negative(self) -> bool:
        # GF(p) residues are canonical non-negative integers, never negative.
        return self.field.modulus is None and self.value < 0

    def __abs__(self) -> "Scalar":
        return -self if self.is_negative else self

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.value} over {self.field})"
