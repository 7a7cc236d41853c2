"""Sparse exact Gaussian elimination over a FieldSpec.

Rows are dicts column-index -> nonzero Scalar.  Elimination processes columns
in increasing order and always picks the first remaining row with a nonzero
entry as the pivot, so every result is deterministic for a fixed equation
order.  Full reduced row echelon form is computed (pivots normalized to 1 and
cleared above and below), which makes the particular solution with free
variables set to zero canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldSpec, Scalar

Row = dict[int, Scalar]


def _axpy(dst: Row, c: Scalar, src: Row) -> None:
    """dst += c * src, dropping entries that cancel to zero."""
    for k, v in src.items():
        s = dst.get(k)
        s = c * v if s is None else s + c * v
        if s:
            dst[k] = s
        else:
            dst.pop(k, None)


def _scale_row(row: Row, c: Scalar) -> None:
    for k in row:
        row[k] = row[k] * c


class _System:
    """Elimination state for one sparse matrix.

    With ``trace`` the row transform T is kept: after ``reduce``, reduced
    row r is sum_i T[r][i] * (original row i).  Applying T to a right side
    gives the right side the elimination would have carried along, so one
    reduction serves any number of right sides.
    """

    def __init__(self, rows: list[Row], ncols: int, field: FieldSpec, trace: bool = False):
        self.field = field
        self.ncols = ncols
        self.rows = [dict(r) for r in rows]
        self.trace = [{i: field.one} for i in range(len(rows))] if trace else None
        self.pivots: list[tuple[int, int]] = []  # (column, row position)

    def _combine(self, dst: int, c: Scalar, src: int) -> None:
        _axpy(self.rows[dst], c, self.rows[src])
        if self.trace is not None:
            _axpy(self.trace[dst], c, self.trace[src])

    def _swap(self, a: int, b: int) -> None:
        if a == b:
            return
        self.rows[a], self.rows[b] = self.rows[b], self.rows[a]
        if self.trace is not None:
            self.trace[a], self.trace[b] = self.trace[b], self.trace[a]

    def reduce(self) -> None:
        nrows = len(self.rows)
        for col in range(self.ncols):
            npiv = len(self.pivots)
            pivot = next((r for r in range(npiv, nrows) if col in self.rows[r]), None)
            if pivot is None:
                continue
            self._swap(npiv, pivot)
            inv = self.rows[npiv][col].inv()
            _scale_row(self.rows[npiv], inv)
            if self.trace is not None:
                _scale_row(self.trace[npiv], inv)
            for r in range(nrows):
                if r != npiv and col in self.rows[r]:
                    self._combine(r, -self.rows[r][col], npiv)
            self.pivots.append((col, npiv))

    def nullspace(self) -> list[Row]:
        """A canonical basis of the kernel, one vector per free column, in
        increasing free-column order."""
        one = self.field.one
        pivcols = {c for c, _ in self.pivots}
        basis = []
        for f in (c for c in range(self.ncols) if c not in pivcols):
            vec: Row = {f: one}
            for col, r in self.pivots:
                c = self.rows[r].get(f)
                if c:
                    vec[col] = -c
            basis.append(vec)
        return basis

    def solve(self, rhs: Row) -> LinearSolution | LinearInfeasibility:
        """Solve against the sparse right side ``rhs`` (equation -> value)
        after a traced ``reduce``: the reduced right side is T * rhs."""
        zero = self.field.zero
        reduced = []
        for t in self.trace:
            s = zero
            for i, b in rhs.items():
                c = t.get(i)
                if c is not None:
                    s = s + c * b
            reduced.append(s)
        bad = [r for r in range(len(self.pivots), len(self.rows)) if reduced[r]]
        if bad:
            # canonical witness: the inconsistent row combining the earliest equations
            r = min(bad, key=lambda r: sorted(self.trace[r]))
            return LinearInfeasibility(dict(self.trace[r]), reduced[r])
        return LinearSolution({col: reduced[r] for col, r in self.pivots if reduced[r]})


@dataclass
class LinearSolution:
    """A particular solution; free variables are zero."""

    values: dict[int, Scalar]


@dataclass
class LinearInfeasibility:
    """A row combination proving inconsistency: the functional given by
    ``combination`` annihilates every equation's left side but evaluates to
    the nonzero ``residual`` on the right side."""

    combination: dict[int, Scalar]
    residual: Scalar


def solve_sparse(rows: list[Row], rhs: list[Scalar], ncols: int,
                 field: FieldSpec) -> LinearSolution | LinearInfeasibility:
    """Solve the sparse system rows * x = rhs exactly."""
    sys = _System(rows, ncols, field, trace=True)
    sys.reduce()
    return sys.solve({i: b for i, b in enumerate(rhs) if b})


def rank_sparse(rows: list[Row], ncols: int, field: FieldSpec) -> int:
    sys = _System(rows, ncols, field)
    sys.reduce()
    return len(sys.pivots)


def nullspace_sparse(rows: list[Row], ncols: int, field: FieldSpec) -> list[Row]:
    """A canonical basis of the kernel, one vector per free column, in
    increasing free-column order."""
    sys = _System(rows, ncols, field)
    sys.reduce()
    return sys.nullspace()
