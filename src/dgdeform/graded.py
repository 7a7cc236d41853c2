"""Finite graded modules with a named, ordered, degree-tagged basis.

A module is a truncation of a locally finite graded module; the declaration
order of the basis is the canonical order used by every deterministic output.

A vector's ``terms`` map basis indices to raw, nonzero field values (see
:mod:`field`); ``Vector.coefficient`` returns a ``Scalar``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    ModuleMismatch,
    UnknownBasisName,
    UnknownName,
    ZeroVectorHasNoDegree,
)
from .field import FieldSpec, Scalar

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class _MixedDegree:
    """Marker returned by ``Vector.degree()`` for inhomogeneous vectors."""

    def __repr__(self):
        return "Mixed"


MIXED = _MixedDegree()


def _render_sum(terms) -> str:
    """Canonical text of a sum of (raw coefficient, body) terms: coefficient 1
    omitted, -1 as a minus sign, "0" when there are no terms."""
    out = ""
    for c, body in terms:
        # GF(p) values lie in [0, p), so only rationals are ever negative
        mag = -c if c < 0 else c
        if mag != 1:
            body = f"{mag}*{body}"
        if out:
            out += f" - {body}" if c < 0 else f" + {body}"
        else:
            out = f"-{body}" if c < 0 else body
    return out or "0"


@dataclass(frozen=True)
class GradedModule:
    """An ordered basis of named, integer-graded generators over a field."""

    name: str
    field: FieldSpec
    basis: tuple[tuple[str, int], ...]

    def __init__(self, name, field, basis):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "basis", tuple((str(n), int(d)) for n, d in basis))
        for n, _ in self.basis:
            if not _IDENT.match(n):
                raise UnknownBasisName(f"{n!r} is not a valid basis name")
        if not _IDENT.match(self.name):
            raise UnknownName(f"{self.name!r} is not a valid module name")
        if len({n for n, _ in self.basis}) != len(self.basis):
            raise UnknownBasisName(f"duplicate basis names in module {self.name}")

    def __eq__(self, other) -> bool:
        # maps and vectors compare their modules on every operation, and the
        # two sides are nearly always the same object
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.field, self.basis) == (other.name, other.field, other.basis)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {n: i for i, (n, _) in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def basis_names(self) -> list[str]:
        return [n for n, _ in self.basis]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownBasisName(f"no basis element {name!r} in module {self.name}") from None

    def name_of(self, index: int) -> str:
        return self.basis[index][0]

    def degree_of(self, index: int) -> int:
        return self.basis[index][1]

    def degree_of_name(self, name: str) -> int:
        return self.basis[self.index_of(name)][1]

    def degrees(self) -> set[int]:
        return {d for _, d in self.basis}

    def degree_component(self, p: int) -> list[str]:
        """All basis names of degree exactly p, in declaration order."""
        return [n for n, d in self.basis if d == p]

    def vector(self, coeffs: dict[str, Scalar | int]) -> "Vector":
        """Build a vector from a name -> coefficient mapping."""
        return Vector(self, {self.index_of(name): c for name, c in coeffs.items()})

    def basis_vector(self, name: str) -> "Vector":
        return Vector._of(self, {self.index_of(name): self.field.one.value})

    def zero_vector(self) -> "Vector":
        return Vector._of(self, {})


class Vector:
    """A sparse element of a graded module.  The constructor takes Scalars of
    the module's field or ints; ``terms`` maps basis index -> raw field value,
    and zero coefficients are never stored."""

    __slots__ = ("module", "terms")

    def __init__(self, module: GradedModule, terms: dict[int, Scalar | int]):
        raw = module.field._raw
        self.module = module
        self.terms = {i: v for i, c in terms.items() if (v := raw(c))}

    @classmethod
    def _of(cls, module: GradedModule, terms: dict) -> "Vector":
        """The vector with raw values ``terms``, zeros dropped."""
        v = object.__new__(cls)
        v.module = module
        v.terms = {i: c for i, c in terms.items() if c}
        return v

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, name: str) -> Scalar:
        c = self.terms.get(self.module.index_of(name))
        return self.module.field.zero if c is None else Scalar(self.module.field, c)

    def degree(self):
        """The common degree of the terms, MIXED if inhomogeneous."""
        if not self.terms:
            raise ZeroVectorHasNoDegree("the zero vector has no degree")
        degs = {self.module.degree_of(i) for i in self.terms}
        return degs.pop() if len(degs) == 1 else MIXED

    def _check(self, other: "Vector"):
        if not isinstance(other, Vector) or other.module != self.module:
            raise ModuleMismatch("vectors live in different modules")

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        terms = dict(self.terms)
        norm = self.module.field.norm
        for i, c in other.terms.items():
            terms[i] = norm(terms[i] + c) if i in terms else c
        return Vector._of(self.module, terms)

    def __neg__(self) -> "Vector":
        norm = self.module.field.norm
        return Vector._of(self.module, {i: norm(-c) for i, c in self.terms.items()})

    def __sub__(self, other: "Vector") -> "Vector":
        return self + (-other)

    def _scaled(self, c) -> "Vector":
        norm = self.module.field.norm
        return Vector._of(self.module, {i: norm(c * v) for i, v in self.terms.items()})

    def scale(self, c: Scalar | int) -> "Vector":
        return self._scaled(self.module.field._raw(c))

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vector)
            and self.module == other.module
            and self.terms == other.terms
        )

    __hash__ = None

    def render(self) -> str:
        return _render_sum((self.terms[i], self.module.name_of(i)) for i in sorted(self.terms))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Vector({self.render()} in {self.module.name})"
