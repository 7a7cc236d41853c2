"""Degree-homogeneous linear maps between graded modules.

Maps are stored column-wise in elementary-operator coordinates: the column at
a source basis element x_j is its image vector in the target module.  Every
stored column is homogeneous of degree |x_j| + map degree, and zero columns
are never stored, so equality of maps is equality of normal forms.

Columns hold raw field values (see :mod:`field`); the arithmetic binds the
field's ``norm`` once per call, and ``compose`` multiplies column by column
without building intermediate vectors.  ``entries`` yields ``Scalar``s.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (
    BadDegree,
    CompositionMismatch,
    DegreeMismatch,
    ModuleMismatch,
    NotEndomorphism,
    ZeroCoefficient,
)
from .field import Scalar
from .graded import GradedModule, Vector, _render_sum


class GradedMap:
    """A k-linear map of homogeneous degree between graded modules."""

    __slots__ = ("source", "target", "degree", "columns")

    def __init__(
        self,
        source: GradedModule,
        target: GradedModule,
        degree: int,
        columns: dict[int, Vector],
    ):
        if source.field != target.field:
            raise ModuleMismatch("source and target modules have different fields")
        self.source = source
        self.target = target
        self.degree = degree
        self.columns = {}
        basis = target.basis
        for j, v in columns.items():
            if v.module is not target and v.module != target:
                raise ModuleMismatch(f"column {source.name_of(j)} lies outside the target module")
            if v.is_zero():
                continue
            want = source.degree_of(j) + degree
            for i in v.terms:
                if basis[i][1] != want:
                    raise DegreeMismatch(
                        f"column {source.name_of(j)} must be homogeneous of degree {want}"
                    )
            self.columns[j] = v

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, source: GradedModule, target: GradedModule | None = None, degree: int = 0):
        return cls(source, target if target is not None else source, degree, {})

    @classmethod
    def identity(cls, module: GradedModule) -> "GradedMap":
        one = module.field.one.value
        cols = {i: Vector._of(module, {i: one}) for i in range(module.dim)}
        return cls(module, module, 0, cols)

    @classmethod
    def elementary(
        cls,
        module: GradedModule,
        i: str,
        j: str,
        coeff: Scalar | int = 1,
        target: GradedModule | None = None,
    ) -> "GradedMap":
        """The map sending x_j to coeff * x_i and every other generator to 0."""
        target = target if target is not None else module
        coeff = module.field._raw(coeff)
        if not coeff:
            raise ZeroCoefficient("elementary operator needs a nonzero coefficient")
        ti = target.index_of(i)
        sj = module.index_of(j)
        degree = target.degree_of(ti) - module.degree_of(sj)
        return cls(module, target, degree, {sj: Vector._of(target, {ti: coeff})})

    @classmethod
    def from_entries(
        cls,
        source: GradedModule,
        degree: int,
        entries: Iterable[tuple[str, str, Scalar | int]],
        target: GradedModule | None = None,
    ) -> "GradedMap":
        """Build a map from (source name, target name, coefficient) triples."""
        target = target if target is not None else source
        raw, norm = source.field._raw, source.field.norm
        cols: dict[int, dict] = {}
        for src, tgt, c in entries:
            j = source.index_of(src)
            i = target.index_of(tgt)
            col = cols.setdefault(j, {})
            col[i] = norm(col[i] + raw(c)) if i in col else raw(c)
        return cls(source, target, degree, {j: Vector._of(target, t) for j, t in cols.items()})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.columns

    def __bool__(self) -> bool:
        return bool(self.columns)

    def entries(self) -> Iterator[tuple[int, int, Scalar]]:
        """Nonzero entries as (source index, target index, coefficient),
        sorted by (source declaration index, target declaration index)."""
        field = self.target.field
        for j in sorted(self.columns):
            col = self.columns[j]
            for i in sorted(col.terms):
                yield j, i, Scalar(field, col.terms[i])

    def column(self, name: str) -> Vector:
        return self.columns.get(self.source.index_of(name), self.target.zero_vector())

    def block_support(self) -> set[int]:
        """Source degrees p for which some column from V_p is nonzero."""
        return {self.source.degree_of(j) for j in self.columns}

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        if self.columns != other.columns:
            return False
        # the zero map is degree-agnostic
        return not self.columns or self.degree == other.degree

    __hash__ = None

    # -- algebra ----------------------------------------------------------------

    def _image(self, terms: dict, norm) -> dict:
        """Raw terms of the image of the source vector with raw ``terms``."""
        acc: dict = {}
        columns = self.columns
        for j, c in terms.items():
            col = columns.get(j)
            if col is not None:
                for i, a in col.terms.items():
                    s = acc.get(i)
                    acc[i] = c * a if s is None else s + c * a
        return dict(zip(acc, map(norm, acc.values())))

    def apply(self, v: Vector) -> Vector:
        if v.module != self.source:
            raise ModuleMismatch("vector does not live in the source module")
        return Vector._of(self.target, self._image(v.terms, self.target.field.norm))

    def __call__(self, v: Vector) -> Vector:
        return self.apply(v)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        if not isinstance(other, GradedMap):
            raise CompositionMismatch("can only compose graded maps")
        if other.target != self.source:
            raise CompositionMismatch(
                f"cannot compose: inner map lands in {other.target.name}, "
                f"outer map starts at {self.source.name}"
            )
        norm = self.target.field.norm
        cols = {
            j: Vector._of(self.target, self._image(v.terms, norm)) for j, v in other.columns.items()
        }
        return GradedMap(other.source, self.target, self.degree + other.degree, cols)

    def __matmul__(self, other):
        return self.compose(other)

    def _merged_degree(self, other: "GradedMap") -> int:
        if self.is_zero():
            return other.degree
        if other.is_zero():
            return self.degree
        if self.degree != other.degree:
            raise DegreeMismatch(f"cannot add maps of degrees {self.degree} and {other.degree}")
        return self.degree

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if not isinstance(other, GradedMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            raise ModuleMismatch("cannot add maps between different modules")
        degree = self._merged_degree(other)
        cols = dict(self.columns)
        for j, v in other.columns.items():
            w = cols[j] + v if j in cols else v
            if w:
                cols[j] = w
            else:
                cols.pop(j, None)
        return GradedMap(self.source, self.target, degree, cols)

    def __neg__(self) -> "GradedMap":
        return GradedMap(
            self.source, self.target, self.degree, {j: -v for j, v in self.columns.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Scalar | int) -> "GradedMap":
        c = self.source.field._raw(c)
        return GradedMap(
            self.source, self.target, self.degree, {j: v._scaled(c) for j, v in self.columns.items()}
        )

    def __rmul__(self, c):
        return self.scale(c)

    # -- predicates -----------------------------------------------------------

    def is_differential(self) -> bool:
        """True when the map is a square-zero endomorphism of degree +-1."""
        if self.source != self.target:
            raise NotEndomorphism("a differential must be an endomorphism")
        if self.is_zero():
            return True
        if self.degree not in (1, -1):
            raise BadDegree(f"a differential has degree +1 or -1, not {self.degree}")
        return self.compose(self).is_zero()

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms ``c*x_i d/d x_j`` sorted by (source, target)
        declaration index; coefficient 1 omitted, -1 as a leading minus."""
        return _render_sum(
            (col.terms[i], f"{self.target.name_of(i)} d/d {self.source.name_of(j)}")
            for j, col in sorted(self.columns.items()) for i in sorted(col.terms)
        )

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"GradedMap({self.render()})"
