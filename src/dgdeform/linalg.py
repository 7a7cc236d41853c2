"""Sparse exact Gaussian elimination over a FieldSpec, on raw field values.

Rows are dicts column-index -> nonzero raw value: a ``Fraction`` over the
rationals, an ``int`` in [0, p) over GF(p), never a ``Scalar``.  Input rows
must hold such canonical values, and every row, kernel vector, solution and
witness this module returns holds them too, as do the library's vectors and
maps; ``Scalar`` appears only at the public boundary (map entries, vector
coefficients, witnesses).  The field's normalization and inverse are bound
once per system.

Elimination processes columns in increasing order and always picks the first
remaining row with a nonzero entry as the pivot, so every result is
deterministic for a fixed equation order.  An index from each column to the
rows holding it finds that pivot and the rows to clear without scanning the
others.  Full reduced row echelon form is computed (pivots normalized to 1
and cleared above and below), which makes the particular solution with free
variables set to zero canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import FieldSpec

Row = dict[int, "Fraction | int"]


def _axpy(dst: Row, c, src: Row, norm) -> None:
    """dst += c * src, dropping entries that cancel to zero."""
    for k, v in src.items():
        s = dst.get(k)
        s = norm(c * v if s is None else s + c * v)
        if s:
            dst[k] = s
        else:
            dst.pop(k, None)


class _System:
    """Elimination state for one sparse matrix.

    With ``trace`` the row transform T is kept: after ``reduce``, reduced
    row r is sum_i T[r][i] * (original row i).  Applying T to a right side
    gives the right side the elimination would have carried along, so one
    reduction serves any number of right sides.
    """

    def __init__(self, rows: list[Row], ncols: int, field: FieldSpec, trace: bool = False):
        p = field.modulus
        self.one, self.norm = field.one.value, field.norm
        self.inv = (lambda x: 1 / x) if p is None else (lambda x: pow(x, -1, p))
        self.ncols = ncols
        self.rows = [dict(r) for r in rows]
        self.trace = [{i: self.one} for i in range(len(rows))] if trace else None
        self.pivots: list[tuple[int, int]] = []  # (column, row position)

    def reduce(self, echelon: bool = False) -> None:
        """Reduce to RREF; with ``echelon`` rows above a pivot are left
        uncleared, which gives the same pivots in fewer operations."""
        rows, trace, norm = self.rows, self.trace, self.norm
        where: dict[int, set[int]] = {}  # column -> positions of the rows holding it
        for r, row in enumerate(rows):
            for k in row:
                where.setdefault(k, set()).add(r)
        # fill-in lands only on columns the pivot row holds, so no column joins later
        for col in sorted(where):
            npiv = len(self.pivots)
            holders = where[col]
            pivot = min((r for r in holders if r >= npiv), default=None)
            if pivot is None:
                continue
            if pivot != npiv:
                for k in rows[npiv].keys() ^ rows[pivot].keys():  # held by one of the two
                    where[k] ^= {npiv, pivot}
                rows[npiv], rows[pivot] = rows[pivot], rows[npiv]
                if trace is not None:
                    trace[npiv], trace[pivot] = trace[pivot], trace[npiv]
            prow = rows[npiv]
            inv = self.inv(prow[col])
            for k in prow:
                prow[k] = norm(prow[k] * inv)
            if trace is not None:
                t = trace[npiv]
                for k in t:
                    t[k] = norm(t[k] * inv)
            for r in [r for r in holders if r > npiv or (r < npiv and not echelon)]:
                row = rows[r]
                c = -row[col]
                for k, v in prow.items():
                    s = row.get(k)
                    if s is None:
                        row[k] = norm(c * v)  # a product of nonzeros is nonzero
                        where[k].add(r)
                        continue
                    s = norm(s + c * v)
                    if s:
                        row[k] = s
                    else:
                        del row[k]
                        where[k].discard(r)
                if trace is not None:
                    _axpy(trace[r], c, trace[npiv], norm)
            self.pivots.append((col, npiv))

    def nullspace(self) -> list[Row]:
        """A canonical basis of the kernel, one vector per free column, in
        increasing free-column order; each vector is {f: 1, then the pivot
        columns in pivot order}.  Needs a full (not echelon) ``reduce``."""
        pivcols = {c for c, _ in self.pivots}
        basis = {f: {f: self.one} for f in range(self.ncols) if f not in pivcols}
        for col, r in self.pivots:
            for f, c in self.rows[r].items():
                if f in basis:
                    basis[f][col] = self.norm(-c)
        return list(basis.values())

    def solve(self, rhs: Row) -> LinearSolution | LinearInfeasibility:
        """Solve against the sparse right side ``rhs`` (equation -> value)
        after a traced ``reduce``: the reduced right side is T * rhs."""
        reduced = []
        for t in self.trace:
            s = 0
            for i, b in rhs.items():
                c = t.get(i)
                if c is not None:
                    s += c * b
            reduced.append(self.norm(s))
        bad = [r for r in range(len(self.pivots), len(self.rows)) if reduced[r]]
        if bad:
            # canonical witness: the inconsistent row combining the earliest equations
            r = min(bad, key=lambda r: sorted(self.trace[r]))
            return LinearInfeasibility(dict(self.trace[r]), reduced[r])
        return LinearSolution({col: reduced[r] for col, r in self.pivots if reduced[r]})


@dataclass
class LinearSolution:
    """A particular solution; free variables are zero.  Raw values."""

    values: dict[int, Fraction | int]


@dataclass
class LinearInfeasibility:
    """A row combination proving inconsistency: the functional given by
    ``combination`` annihilates every equation's left side but evaluates to
    the nonzero ``residual`` on the right side.  Raw values."""

    combination: dict[int, Fraction | int]
    residual: Fraction | int


def solve_sparse(rows: list[Row], rhs: list, ncols: int,
                 field: FieldSpec) -> LinearSolution | LinearInfeasibility:
    """Solve the sparse system rows * x = rhs exactly; raw values in and out."""
    sys = _System(rows, ncols, field, trace=True)
    sys.reduce()
    return sys.solve({i: b for i, b in enumerate(rhs) if b})


def rank_sparse(rows: list[Row], ncols: int, field: FieldSpec) -> int:
    """The rank of the sparse matrix ``rows`` of raw values."""
    sys = _System(rows, ncols, field)
    sys.reduce()
    return len(sys.pivots)


def nullspace_sparse(rows: list[Row], ncols: int, field: FieldSpec) -> list[Row]:
    """A canonical basis of the kernel, one vector per free column, in
    increasing free-column order; raw values in and out."""
    sys = _System(rows, ncols, field)
    sys.reduce()
    return sys.nullspace()
