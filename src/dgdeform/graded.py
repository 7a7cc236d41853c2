"""Finite graded modules with a named, ordered, degree-tagged basis.

A module is a truncation of a locally finite graded module; the declaration
order of the basis is the canonical order used by every deterministic output.

A ``GradedMap`` column maps basis indices to raw, nonzero field values (see
:mod:`field`); ``_add_terms`` and ``_scale_terms`` are the one sum and scale
of such dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BadDegree, UnknownBasisName, UnknownName
from .field import FieldSpec


def _render_sum(terms) -> str:
    """Canonical text of a sum of (raw coefficient, body) terms: coefficient 1
    omitted, -1 as a minus sign, "0" when there are no terms."""
    out = ""
    for c, body in terms:
        # GF(p) values lie in [0, p), so only rationals are ever negative
        if negative := c < 0:
            c = -c
        if c != 1:
            body = f"{c}*{body}"
        if out:
            out += f" - {body}" if negative else f" + {body}"
        else:
            out = f"-{body}" if negative else body
    return out or "0"


def _add_terms(a: dict, b: dict, norm) -> dict:
    """Raw terms of a + b, with entries that cancel dropped."""
    out = dict(a)
    for i, c in b.items():
        s = norm(out[i] + c) if i in out else c
        if s:
            out[i] = s
        else:
            del out[i]
    return out


def _scale_terms(terms: dict, c, norm) -> dict:
    """Raw terms of c * terms for a raw value or int c, zeros dropped."""
    return {i: v for i, x in terms.items() if (v := norm(c * x))}


@dataclass(frozen=True)
class GradedModule:
    """An ordered basis of named, integer-graded generators over a field."""

    name: str
    field: FieldSpec
    basis: tuple[tuple[str, int], ...]

    def __init__(self, name, field, basis):
        # one pass checks the given (str, int) pairs, which are kept as they are
        basis = tuple(basis)
        for item in basis:
            if not (isinstance(item, tuple) and len(item) == 2):
                raise UnknownBasisName(f"{item!r} is not a (name, degree) pair")
            n, d = item
            if not (isinstance(n, str) and n.isascii() and n.isidentifier()):
                raise UnknownBasisName(f"{n!r} is not a valid basis name")
            if type(d) is not int:
                raise BadDegree(f"the degree of {n} is {d!r}, not an int")
        if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
            raise UnknownName(f"{name!r} is not a valid module name")
        if len({n for n, _ in basis}) != len(basis):
            raise UnknownBasisName(f"duplicate basis names in module {name}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "basis", basis)

    def __eq__(self, other) -> bool:
        # maps and cochains compare their modules on every operation, and the
        # two sides are nearly always the same object
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.field, self.basis) == (other.name, other.field, other.basis)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {n: i for i, (n, _) in enumerate(self.basis)}

    @cached_property
    def _by_degree(self) -> dict[int, list[int]]:
        """{degree q: the indices of degree q, in declaration order}; read it,
        do not change it."""
        by_degree: dict[int, list[int]] = {}
        for i, (_, q) in enumerate(self.basis):
            by_degree.setdefault(q, []).append(i)
        return by_degree

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownBasisName(f"no basis element {name!r} in module {self.name}") from None

    def name_of(self, index: int) -> str:
        return self.basis[index][0]

    def degree_of(self, index: int) -> int:
        return self.basis[index][1]

    def degrees(self) -> set[int]:
        return {d for _, d in self.basis}
