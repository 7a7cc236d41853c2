"""Degree-homogeneous linear maps between graded modules.

Maps are stored column-wise in elementary-operator coordinates: the column at
a source basis element x_j is a plain dict {target index i: raw value} of its
image in the target module.  Every stored column is homogeneous of degree
|x_j| + map degree, and empty columns and zero values are never stored, so
equality of maps is equality of normal forms.

Column values are raw field values (see :mod:`field`); the arithmetic binds
the field's ``norm`` once per call and reads and writes the dicts directly.
Only ``entries`` yields ``Scalar``s.

Every product of maps in the library goes through one sparse kernel,
``_Products``: ``compose`` (so ``@``), and the ladder, the series algebra
and the gauge step of :mod:`deform`.  It multiplies only entries that meet.
``_combine`` is the one vector-times-columns loop: ``apply``, and in
:mod:`cochain` the d^2 check of a ``Complex``, the d_M f half of delta, the
class coordinates and the witness checks.

The public constructor brings any column dict to that normal form, each
value through ``FieldSpec._raw``, and checks degrees; ``from_entries`` sums
its raw values and hands them to it.  The family generator writes its index
columns in normal form and passes them to ``_check``.
The arithmetic, ``identity``, ``zero``, the cochain solver and the .dgm parser
(which checks each term's degree as it reads it) build their results in
normal form already and go through the unchecked ``GradedMap._of``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import CompositionMismatch, DegreeMismatch, ModuleMismatch
from .field import Scalar
from .graded import GradedModule, _add_terms, _render_sum, _scale_terms


def _check(source: GradedModule, target: GradedModule, degree: int, columns: dict) -> None:
    """Raise unless source and target share a field and every column of
    ``columns`` is homogeneous of degree |x_j| + ``degree``."""
    if source.field != target.field:
        raise ModuleMismatch("source and target modules have different fields")
    basis = target.basis
    for j, col in columns.items():
        want = source.degree_of(j) + degree
        for i in col:
            if basis[i][1] != want:
                raise DegreeMismatch(
                    f"column {source.name_of(j)} must be homogeneous of degree {want}"
                )


def _combine(vec: dict, vectors: dict) -> dict:
    """sum_j vec[j] * vectors[j] for sparse vectors, raw and with zeros
    kept: a map's image of a vector from its columns, d d x, d_M f and d z
    from the columns of d, lambda o d from its rows, g(z) from g's columns."""
    out: dict = {}
    for j, c in vec.items():
        for k, e in vectors.get(j, {}).items():
            out[k] = out[k] + c * e if k in out else c * e
    return out


class _Products:
    """Sums, by order, of products of graded maps: the sparse product kernel
    of ``GradedMap.compose``, the ladder, the series algebra and the gauge
    step.

    An operand is a map's columns {source: {target: raw value}}, held at an
    order as a left or as a right operand.  ``left(i, a)`` adds a o b into
    order i + j for every right operand b held at order j, and ``right(j, b)``
    adds a o b into order i + j for every left operand a held at order i, up
    to ``limit``.  As in Gustavson's row-wise product (ACM TOMS 4, 1978), the
    held maps are indexed by basis index, the columns of left operands by
    source and the entries of right operands by target, so only entries that
    meet are multiplied and the cost is proportional to the nonzero products.
    The sums stay raw, and each is normalized once, when it is read.
    """

    __slots__ = ("limit", "columns", "entries", "sums")

    def __init__(self, limit: float = math.inf):
        self.limit = limit
        self.columns: dict[int, list] = {}  # m -> [(i, column m of a left operand a)]
        self.entries: dict[int, list] = {}  # m -> [(j, s, v)]: v = b[m, s] of a right operand b
        self.sums = defaultdict(lambda: defaultdict(dict))  # order -> {s: {l: raw}}

    # operands of either side are held in increasing order

    def hold_left(self, i: int, a: dict) -> None:
        for s, col in a.items():
            self.columns.setdefault(s, []).append((i, col))

    def hold_right(self, j: int, b: dict) -> None:
        for s, col in b.items():
            for t, v in col.items():
                self.entries.setdefault(t, []).append((j, s, v))

    def add(self, k: int, m: dict) -> None:
        """Add m itself into order k."""
        sums = self.sums[k]
        for s, col in m.items():
            out = sums[s]
            for l, w in col.items():
                out[l] = out[l] + w if l in out else w

    def left(self, i: int, a: dict) -> None:
        limit, sums, entries = self.limit, self.sums, self.entries
        for m, col in a.items():
            for j, s, v in entries.get(m, ()):
                if i + j > limit:
                    break
                out = sums[i + j][s]
                for l, w in col.items():
                    out[l] = out[l] + w * v if l in out else w * v

    def right(self, j: int, b: dict) -> None:
        limit, sums, columns = self.limit, self.sums, self.columns
        for s, col in b.items():
            for m, v in col.items():
                for i, a_col in columns.get(m, ()):
                    if i + j > limit:
                        break
                    out = sums[i + j][s]
                    for l, w in a_col.items():
                        out[l] = out[l] + w * v if l in out else w * v

    def read(self, k: int, module: GradedModule, degree: int,
             target: GradedModule | None = None) -> "GradedMap":
        """The sum of order k, as a map of ``degree`` from ``module`` to
        ``target`` (``module`` itself by default)."""
        norm = module.field.norm
        cols = {s: kept for s, col in self.sums.get(k, {}).items()
                if (kept := {l: w for l, v in col.items() if (w := norm(v))})}
        return GradedMap._of(module, module if target is None else target, degree, cols)


class GradedMap:
    """A k-linear map of homogeneous degree between graded modules."""

    __slots__ = ("source", "target", "degree", "columns")

    def __init__(
        self,
        source: GradedModule,
        target: GradedModule,
        degree: int,
        columns: dict[int, dict[int, Fraction | int]],
    ):
        """Build a map from column dicts {source index: {target index: value}}.

        Values may be ints, Fractions or ``Scalar``s of the field; each is
        normalized through the field, zeros and empty columns are dropped, and
        every column is checked to be homogeneous of the right degree."""
        raw = source.field._raw
        cols = {}
        for j, col in columns.items():
            col = {i: v for i, c in col.items() if (v := raw(c))}
            if col:
                cols[j] = col
        _check(source, target, degree, cols)
        self.source = source
        self.target = target
        self.degree = degree
        self.columns = cols

    @classmethod
    def _of(cls, source: GradedModule, target: GradedModule, degree: int, columns: dict):
        """The internal constructor, which checks nothing: ``columns`` must
        already be in normal form (canonical nonzero raw values, no empty
        column, every column homogeneous of its degree).  The map arithmetic,
        ``identity`` and ``zero`` produce only such dicts."""
        m = cls.__new__(cls)
        m.source = source
        m.target = target
        m.degree = degree
        m.columns = columns
        return m

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, source: GradedModule, target: GradedModule | None = None, degree: int = 0):
        return cls._of(source, target if target is not None else source, degree, {})

    @classmethod
    def identity(cls, module: GradedModule) -> "GradedMap":
        one = module.field.one.value
        return cls._of(module, module, 0, {i: {i: one} for i in range(module.dim)})

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
        raw = source.field._raw
        cols: dict[int, dict] = {}
        for src, tgt, c in entries:
            col = cols.setdefault(source.index_of(src), {})
            i = target.index_of(tgt)
            col[i] = col[i] + raw(c) if i in col else raw(c)
        return cls(source, target, degree, cols)

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
            for i in sorted(col):
                yield j, i, Scalar(field, col[i])

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

    def apply(self, terms: dict) -> dict:
        """The image of the raw terms {source index: value}, as raw terms
        {target index: value}, normalized and with zeros dropped."""
        norm = self.target.field.norm
        return {i: r for i, s in _combine(terms, self.columns).items() if (r := norm(s))}

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        if not isinstance(other, GradedMap):
            raise CompositionMismatch("can only compose graded maps")
        if other.target != self.source:
            raise CompositionMismatch(
                f"cannot compose: inner map lands in {other.target.name}, "
                f"outer map starts at {self.source.name}"
            )
        products = _Products()
        products.hold_left(0, self.columns)
        products.right(0, other.columns)
        return products.read(0, other.source, self.degree + other.degree, self.target)

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
        norm = self.target.field.norm
        cols = dict(self.columns)
        for j, col in other.columns.items():
            if j not in cols:
                cols[j] = col
            elif s := _add_terms(cols[j], col, norm):
                cols[j] = s
            else:
                del cols[j]
        return GradedMap._of(self.source, self.target, degree, cols)

    def _scaled(self, c, norm) -> "GradedMap":
        cols = {j: t for j, col in self.columns.items() if (t := _scale_terms(col, c, norm))}
        return GradedMap._of(self.source, self.target, self.degree, cols)

    def __neg__(self) -> "GradedMap":
        return self._scaled(-1, self.target.field.norm)

    def __sub__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Scalar | int) -> "GradedMap":
        field = self.source.field
        return self._scaled(field._raw(c), field.norm)

    def __rmul__(self, c):
        return self.scale(c)

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms ``c*x_i d/d x_j`` sorted by (source, target)
        declaration index; coefficient 1 omitted, -1 as a leading minus."""
        return _render_sum(
            (col[i], f"{self.target.name_of(i)} d/d {self.source.name_of(j)}")
            for j, col in sorted(self.columns.items()) for i in sorted(col)
        )

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"GradedMap({self.render()})"
