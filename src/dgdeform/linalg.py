"""Sparse exact Gaussian elimination over a FieldSpec, on raw field values.

Rows come in and go out as dicts column-index -> nonzero raw value: a
``Fraction`` over the rationals, an ``int`` in [0, p) over GF(p), never a
``Scalar``.  Input rows must hold such canonical values, and every row, kernel
vector, solution and witness this module returns holds them too, as do the
library's vectors and maps; ``Scalar`` appears only at the public boundary
(map entries, vector coefficients, witnesses).  Field arithmetic is written
inline: ``% p`` after every sum and product over GF(p), nothing over Q.

Elimination processes columns in increasing order and always picks the first
remaining row with a nonzero entry as the pivot, so every result is
deterministic for a fixed equation order.  Rows keep their ids while
``reduce`` runs: a row swap only exchanges two entries of a permutation
between row ids and positions, and the rows, their denominators and T are
put into position order when ``reduce`` returns.  An index from each column
to the ids of the rows holding it finds the pivot (the holder with the least
remaining position) and the rows to clear without scanning the others.
Full reduced row echelon form is computed (pivots normalized to 1 and
cleared above and below), which makes the particular solution with free
variables set to zero canonical.

Inside ``reduce`` no ``Fraction`` arithmetic runs.  Row r is held as integers
``n_r`` over one positive row denominator ``D_r``, at first the lcm of its
denominators (``_integral``), and its trace row as integers ``t_r`` over the
same ``D_r``.  A pivot row is normalized by taking its pivot value ``a`` as
its denominator.  Clearing an entry ``b`` of row r against it is a
cross-multiplication: with ``g = gcd(a, b)``,
``n_r <- (a/g)*n_r - (b/g)*n_p`` and the same for ``t_r``, with
``D_r <- (a/g)*D_r``; then the content ``gcd(D_r, n_r, t_r)`` is divided
out.  When ``reduce`` returns, each stored entry becomes one
``Fraction(v, D_r)``, and T stays integer rows over ``D_r``.  ``solve`` scales a
right side to integers by the lcm L of its denominators, sums T times it in
integers and builds one ``Fraction(s, D_r * L)`` per nonzero reduced entry;
only the witness row of T becomes ``Fraction``s.  Over GF(p) the pivot row is
scaled to 1, so ``a`` is 1, every ``D_r`` stays 1 and the same loop is plain
modular elimination.  The row operations and their order do not depend on
the representation, so the results are exactly those of elimination in
``Fraction`` arithmetic.  Over Q an ``int`` entry is read as the integral
rational it is.

This is the library's one elimination loop.  The pivot columns of an
echelon ``reduce`` are the columns independent of all earlier ones, the
greedy basis of the column span; ``cochain`` chooses homology classes and
cohomology representatives that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .field import FieldSpec

Row = dict[int, "Fraction | int"]
_ONE = Fraction(1)


def _integral(row: Row) -> tuple[int, dict[int, int]]:
    """(L, L * row) for a row over Q, with L the lcm of its denominators."""
    scale = lcm(*[v.denominator for v in row.values()])
    return scale, {k: v.numerator * (scale // v.denominator) for k, v in row.items()}


def _fractions(row: dict[int, int], d: int) -> Row:
    """The integer row ``row`` over the denominator ``d`` as Fractions; the
    many entries 1 (rows of T an elimination never touched) share one."""
    if d == 1:
        return {k: _ONE if v == 1 else Fraction(v) for k, v in row.items()}
    return {k: Fraction(v, d) for k, v in row.items()}


class _System:
    """Elimination state for one sparse matrix.

    With ``trace`` the row transform T is kept: after ``reduce``, reduced
    row r is sum_i T[r][i] * (original row i), with T[r][i] held as the
    integer ``trace[r][i]`` over ``dens[r]`` over Q (``transform`` gives the
    row as raw values).  Applying T to a right side
    gives the right side the elimination would have carried along, so one
    reduction serves any number of right sides.
    """

    def __init__(self, rows: list[Row], ncols: int, field: FieldSpec, trace: bool = False):
        self.one, self.modulus = field.one.value, field.modulus
        self.ncols = ncols
        self.rows = [dict(r) for r in rows]
        self.trace = [{i: 1} for i in range(len(rows))] if trace else None
        self.pivots: list[tuple[int, int]] = []  # (column, row position)
        self._tcols: dict[int, list[tuple[int, Fraction | int]]] | None = None

    def reduce(self, echelon: bool = False) -> None:
        """Reduce to RREF; with ``echelon`` rows above a pivot are left
        uncleared, which gives the same pivots in fewer operations."""
        rows, trace, p = self.rows, self.trace, self.modulus
        dens = [1] * len(rows)  # row r is rows[r] / dens[r], its trace trace[r] / dens[r]
        if p is None:
            for r, row in enumerate(rows):
                if row:
                    dens[r], rows[r] = _integral(row)
                    if trace is not None:
                        trace[r][r] = dens[r]
        # rows keep their ids; a swap of positions only updates pos and at
        nrows = len(rows)
        pos = list(range(nrows))  # row id -> position
        at = list(range(nrows))  # position -> row id
        where: dict[int, set[int]] = {}  # column -> ids of the rows holding it
        for r, row in enumerate(rows):
            for k in row:
                where.setdefault(k, set()).add(r)
        # fill-in lands only on columns the pivot row holds, so no column joins later
        for col in sorted(where):
            npiv = len(self.pivots)
            holders = where[col]
            q = nrows  # the least position >= npiv among the holders
            for r in holders:
                x = pos[r]
                if npiv <= x < q:
                    q = x
            if q == nrows:
                continue
            piv = at[q]
            if q != npiv:  # the row at position npiv moves to q
                at[q] = other = at[npiv]
                pos[other] = q
                at[npiv], pos[piv] = piv, npiv
            prow = rows[piv]
            ptrace = trace[piv] if trace is not None else None
            a = prow[col]
            if p is not None:  # scale the pivot to 1
                inv = pow(a, -1, p)
                prow = rows[piv] = {k: v * inv % p for k, v in prow.items()}
                if ptrace is not None:
                    ptrace = trace[piv] = {k: v * inv % p for k, v in ptrace.items()}
                a = 1
            else:  # the pivot value, content divided out, is the row denominator
                g = gcd(*prow.values(), *(ptrace.values() if ptrace is not None else ()))
                if a < 0:
                    g = -g
                if g != 1:
                    prow = rows[piv] = {k: v // g for k, v in prow.items()}
                    if ptrace is not None:
                        ptrace = trace[piv] = {k: v // g for k, v in ptrace.items()}
                a = dens[piv] = prow[col]
            for r in [r for r in holders if r != piv and (pos[r] > npiv or not echelon)]:
                row = rows[r]
                c = -row[col]
                m = 1
                if a != 1:  # cross-multiply, with the common factor of a and b taken out
                    g = gcd(a, c)
                    m, c = a // g, c // g
                    if m != 1:
                        row = rows[r] = {k: m * v for k, v in row.items()}
                        dens[r] *= m
                for k, v in prow.items():
                    s = row.get(k)
                    if s is None:  # a product of nonzeros is nonzero
                        row[k] = c * v if p is None else c * v % p
                        where[k].add(r)
                        continue
                    s = s + c * v if p is None else (s + c * v) % p
                    if s:
                        row[k] = s
                    else:
                        del row[k]
                        where[k].discard(r)
                if ptrace is not None:
                    t = trace[r]
                    if m != 1:
                        t = trace[r] = {k: m * v for k, v in t.items()}
                    for k, v in ptrace.items():
                        s = t.get(k)
                        if s is None:
                            t[k] = c * v if p is None else c * v % p
                            continue
                        s = s + c * v if p is None else (s + c * v) % p
                        if s:
                            t[k] = s
                        else:
                            del t[k]
                d = dens[r]
                if d != 1:  # divide the content out
                    g = gcd(d, *row.values(), *(t.values() if ptrace is not None else ()))
                    if g != 1:
                        dens[r] = d // g
                        rows[r] = {k: v // g for k, v in row.items()}
                        if ptrace is not None:
                            trace[r] = {k: v // g for k, v in t.items()}
            self.pivots.append((col, npiv))
        if p is None:
            rows = [_fractions(row, d) for row, d in zip(rows, dens)]
        self.rows = [rows[r] for r in at]
        self.dens = [dens[r] for r in at]  # T stays integer rows: T[r][i] / dens[r]
        if trace is not None:
            self.trace = [trace[r] for r in at]

    def nullspace(self) -> list[Row]:
        """A canonical basis of the kernel, one vector per free column, in
        increasing free-column order; each vector is {f: 1, then the pivot
        columns in pivot order}.  Needs a full (not echelon) ``reduce``."""
        pivcols = {c for c, _ in self.pivots}
        basis = {f: {f: self.one} for f in range(self.ncols) if f not in pivcols}
        p = self.modulus
        for col, r in self.pivots:
            for f, c in self.rows[r].items():
                if f in basis:
                    basis[f][col] = -c if p is None else p - c
        return list(basis.values())

    def transform(self, r: int) -> Row:
        """Row r of T after ``reduce``, as canonical raw values."""
        t = self.trace[r]
        return _fractions(t, self.dens[r]) if self.modulus is None else dict(t)

    def solve(self, rhs: Row) -> LinearSolution | LinearInfeasibility:
        """Solve against the sparse right side ``rhs`` (equation -> value)
        after a traced ``reduce``: the reduced right side is T * rhs.

        The first call indexes T by column (equation -> [(row, T[row][eq])]),
        so each right-side entry touches only the rows of T that hold it.
        Over Q the right side is scaled to integers by the lcm L of its
        denominators and summed in integers; a nonzero reduced entry s of
        row r is the one ``Fraction(s, D_r * L)``."""
        if self._tcols is None:
            self._tcols = {}
            for r, t in enumerate(self.trace):
                for i, c in t.items():
                    self._tcols.setdefault(i, []).append((r, c))
        p = self.modulus
        if p is None:
            scale, rhs = _integral(rhs)
        sums: dict[int, int] = {}
        for i, b in rhs.items():
            for r, c in self._tcols.get(i, ()):
                s = sums.get(r)
                sums[r] = c * b if s is None else s + c * b
        if p is None:
            dens = self.dens
            reduced = {r: Fraction(s, dens[r] * scale) for r, s in sums.items() if s}
        else:
            reduced = {r: v for r, s in sums.items() if (v := s % p)}
        bad = sorted(r for r in reduced if r >= len(self.pivots))
        if bad:
            # canonical witness: the inconsistent row combining the earliest equations
            r = min(bad, key=lambda r: sorted(self.trace[r]))
            return LinearInfeasibility(self.transform(r), reduced[r])
        return LinearSolution({col: reduced[r] for col, r in self.pivots if r in reduced})


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
