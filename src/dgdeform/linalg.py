"""Sparse exact Gaussian elimination over a FieldSpec, in integers.

A matrix comes in as integer rows over one matrix denominator ``den``: dicts
column-index -> nonzero ``int``, any integer over Q, a residue in [0, p)
over GF(p), where ``den`` is 1.  Callers that hold raw field values (a
``Fraction`` over Q) scale them with ``_integral`` first.  Reduced rows stay
integers over their row denominators, kernel vectors come out as integers
over one denominator each, so does a generalized inverse, and a right side
goes into ``solve`` as integers over its own denominator.  A ``Fraction`` is
built only for what leaves the module as raw values: reduced right sides
and the solution values read off them, and the rows of ``transform`` and of
the raw-value wrappers ``solve_sparse``, ``rank_sparse`` and
``nullspace_sparse``.  Field arithmetic
is written inline: ``% p`` after every sum and product over GF(p), nothing
over Q.

Elimination processes columns in increasing order and always picks the first
remaining row with a nonzero entry as the pivot, so every result is
deterministic for a fixed equation order.  Rows keep their ids while
``reduce`` runs: a row swap only exchanges two entries of a permutation
between row ids and positions, and the rows and their denominators are put
into position order when ``reduce`` returns.  An index from each column of A
to the ids of the rows holding it finds the pivot (the holder with the least
remaining position) and the rows to clear without scanning the others.
Full reduced row echelon form is computed (pivots normalized to 1 and
cleared above and below), which makes the particular solution with free
variables set to zero canonical.

The row transform T, when kept, is the textbook one: the system is
[A | I], row i carrying the one extra entry ``ncols + i: 1``, and the row
operations that reduce A turn I into T.  T's columns are never pivot
candidates and stay out of the column index, so they ride along in the
same row dicts, and one loop does every row operation on A and T at once.
The rows of T up to the rank, put at the pivot columns, are a generalized
inverse X of A, with A X A = A (``inverse``): ``cochain`` builds the
homotopy of a differential from it, one degree block at a time.

Row r is held as integers ``n_r`` over one positive row denominator
``D_r``, at first the input row over 1.  A pivot row is normalized by
taking its pivot value ``a`` as its denominator.  Clearing an entry ``b``
of row r against it is a cross-multiplication: with ``g = gcd(a, b)``,
``n_r <- (a/g)*n_r - (b/g)*n_p`` and ``D_r <- (a/g)*D_r``; then the content
``gcd(D_r, n_r)`` is divided out.  The reduction runs on the integer rows
N = den * A as given, so the matrix denominator enters only when T is read:
each row not normalized stays den times that row of the elimination of A,
and each normalized row equals it, so T[r][i] is ``n_r[ncols + i] / D_r``,
times den for a pivot row.  Over GF(p) the pivot row is scaled to 1, so
``a`` is 1, every ``D_r`` stays 1 and the same loop is plain modular
elimination.  The row operations and their order do not depend on the
representation, so the results are exactly those of elimination of
[A | I] in ``Fraction`` arithmetic.

This is the library's one elimination loop.  The pivot columns of an
echelon ``reduce`` are the columns independent of all earlier ones, the
greedy basis of the column span; ``cochain`` chooses homology classes that
way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .field import FieldSpec

Row = dict[int, "Fraction | int"]


def _integral(rows: list[Row]) -> tuple[int, list[dict[int, int]]]:
    """(L, L * rows) for rows over Q, with L the lcm of all their denominators."""
    scale = lcm(*[v.denominator for row in rows for v in row.values()])
    return scale, [{k: v.numerator * (scale // v.denominator) for k, v in row.items()}
                   for row in rows]


class _System:
    """Elimination state for one sparse matrix, given as integer rows over
    one denominator ``den`` (over GF(p) residues, and ``den`` is 1).

    With ``trace`` the system is [A | I]: row i starts with the one extra
    entry ``ncols + i: 1``, and the row operations that reduce A carry the
    identity block along to T, so after ``reduce`` reduced row r is
    sum_i T[r][i] * (original row i), with T[r][i] held as the integer
    ``rows[r][ncols + i]`` over ``dens[r]`` (``transform`` gives the row as
    raw values).  T's columns never pivot and stay out of the column index.
    ``inverse`` reads a generalized inverse of A off T, and ``solve`` the
    reduced right side T * b.
    """

    def __init__(self, rows: list[dict[int, int]], ncols: int, field: FieldSpec,
                 den: int = 1, trace: bool = False):
        self.modulus = field.modulus
        self.ncols = ncols
        self.den = den
        self.rows = ([{**r, ncols + i: 1} for i, r in enumerate(rows)] if trace
                     else [dict(r) for r in rows])
        self.pivots: list[tuple[int, int]] = []  # (column, row position)

    def reduce(self, echelon: bool = False) -> None:
        """Reduce to RREF; with ``echelon`` rows above a pivot are left
        uncleared, which gives the same pivots in fewer operations."""
        rows, ncols, p = self.rows, self.ncols, self.modulus
        # row r is rows[r] / dens[r] against the integer rows as given;
        # ``den`` enters only on read-out
        dens = [1] * len(rows)
        # rows keep their ids; a swap of positions only updates pos and at
        nrows = len(rows)
        pos = list(range(nrows))  # row id -> position
        at = list(range(nrows))  # position -> row id
        where: dict[int, set[int]] = {}  # column of A -> ids of the rows holding it
        for r, row in enumerate(rows):
            for k in row:
                if k < ncols:
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
            a = prow[col]
            if p is not None:  # scale the pivot to 1
                inv = pow(a, -1, p)
                prow = rows[piv] = {k: v * inv % p for k, v in prow.items()}
                a = 1
            else:  # the pivot value, content divided out, is the row denominator
                g = gcd(*prow.values())
                if a < 0:
                    g = -g
                if g != 1:
                    prow = rows[piv] = {k: v // g for k, v in prow.items()}
                a = dens[piv] = prow[col]
            for r in [r for r in holders if r != piv and (pos[r] > npiv or not echelon)]:
                row = rows[r]
                c = -row[col]
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
                        if k < ncols:
                            where[k].add(r)
                        continue
                    s = s + c * v if p is None else (s + c * v) % p
                    if s:
                        row[k] = s
                    else:
                        del row[k]
                        if k < ncols:
                            where[k].discard(r)
                d = dens[r]
                if d != 1:  # divide the content out
                    g = gcd(d, *row.values())
                    if g != 1:
                        dens[r] = d // g
                        rows[r] = {k: v // g for k, v in row.items()}
            self.pivots.append((col, npiv))
        self.rows = [rows[r] for r in at]
        self.dens = [dens[r] for r in at]

    def nullspace(self) -> list[tuple[int, dict[int, int]]]:
        """A canonical basis of the kernel, one vector per free column, in
        increasing free-column order; each is (L, vector) with the integer
        vector over L holding {f: 1, then the pivot columns in pivot order},
        L the lcm of the denominators of the rows that hold f (1 over
        GF(p)).  Needs a full (not echelon) ``reduce``."""
        pivcols = {c for c, _ in self.pivots}
        free = [f for f in range(self.ncols) if f not in pivcols]
        p, rows, dens = self.modulus, self.rows, self.dens
        scale = dict.fromkeys(free, 1)
        if p is None:  # row r holds its pivot and free columns only, over dens[r]
            for _, r in self.pivots:
                d = dens[r]
                if d != 1:
                    for f in rows[r]:
                        if f in scale and scale[f] % d:
                            scale[f] = lcm(scale[f], d)
        basis = {f: {f: scale[f]} for f in free}
        for col, r in self.pivots:
            d = dens[r]
            for f, c in rows[r].items():
                if f in basis:
                    basis[f][col] = -c * (scale[f] // d) if p is None else p - c
        return [(scale[f], basis[f]) for f in free]

    def inverse(self) -> tuple[int, dict[int, dict[int, int]]]:
        """A generalized inverse X of A, with A X A = A, after a traced full
        ``reduce``: X = E T_{<rank}, where E puts row r < rank of T at the
        pivot column c_r of row r.  The reduced rows R = T A have unit
        vectors at their pivot columns, so R_{<rank} E = 1 and
        A X A = T^-1 R E R_{<rank} = T^-1 R = A.  As integer rows over one
        denominator: (L, {c_r: {equation i: n}}) with X[c_r, i] = n / L, the
        content of the rows and L divided out (L is 1 over GF(p))."""
        n, rows = self.ncols, self.rows
        if self.modulus is not None:
            return 1, {c: {k - n: v for k, v in rows[r].items() if k >= n} for c, r in self.pivots}
        dens = self.dens
        scale = lcm(*(dens[r] for _, r in self.pivots))
        out = {c: {k - n: v * self.den * (scale // dens[r]) for k, v in rows[r].items() if k >= n}
               for c, r in self.pivots}
        g = gcd(scale, *(v for row in out.values() for v in row.values()))
        if g != 1:
            scale //= g
            out = {c: {i: v // g for i, v in row.items()} for c, row in out.items()}
        return scale, out

    def transform(self, r: int) -> Row:
        """Row r of T after ``reduce``, as canonical raw values."""
        n = self.ncols
        t = {k - n: v for k, v in self.rows[r].items() if k >= n}
        if self.modulus is not None:
            return t
        num, d = self._scale(r), self.dens[r]
        return {i: Fraction(v * num, d) for i, v in t.items()}

    def _scale(self, r: int) -> int:
        """The factor from row r of the integer transform to T: elimination of
        the integer rows N = den * A keeps every row it has not normalized at
        den times that row of A, and a normalized (pivot) row equal to it."""
        return self.den if r < len(self.pivots) else 1

    def solve(self, rhs: dict[int, int], den: int = 1) -> LinearSolution | LinearInfeasibility:
        """Solve against the sparse right side ``rhs`` / ``den`` (equation ->
        integer value) after a traced ``reduce``.  T * rhs / den is the right
        side the elimination would have carried along: the canonical
        solution (free variables zero) is read off it, pivot r sitting in
        row r, and a right side nonzero on a row past the rank gets the row
        of T that proves it inconsistent.  The sums run in integers; over Q
        the integer sum s of row r is ``Fraction(s * c, D_r * den)``, with c
        from ``_scale``."""
        n, p, dens = self.ncols, self.modulus, self.dens
        reduced = {}
        for r, row in enumerate(self.rows):
            s = sum(c * rhs[k - n] for k, c in row.items() if k >= n and k - n in rhs)
            if v := (Fraction(s * self._scale(r), dens[r] * den) if p is None else s % p):
                reduced[r] = v
        bad = sorted(r for r in reduced if r >= len(self.pivots))
        if bad:
            # canonical witness: the inconsistent row combining the earliest
            # equations; a row past the rank holds T's columns only
            r = min(bad, key=lambda r: sorted(self.rows[r]))
            return LinearInfeasibility(self.transform(r), reduced[r])
        return LinearSolution({self.pivots[r][0]: reduced[r] for r in sorted(reduced)})


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


def _matrix(rows: list[Row], field: FieldSpec) -> tuple[int, list[dict[int, int]]]:
    """Rows of raw values as (denominator, integer rows), the input of ``_System``."""
    return (1, rows) if field.modulus is not None else _integral(rows)


def solve_sparse(rows: list[Row], rhs: list, ncols: int,
                 field: FieldSpec) -> LinearSolution | LinearInfeasibility:
    """Solve the sparse system rows * x = rhs exactly; raw values in and out."""
    den, ints = _matrix(rows, field)
    sys = _System(ints, ncols, field, den, trace=True)
    sys.reduce()
    rhs_den, (b,) = _matrix([{i: b for i, b in enumerate(rhs) if b}], field)
    return sys.solve(b, rhs_den)


def rank_sparse(rows: list[Row], ncols: int, field: FieldSpec) -> int:
    """The rank of the sparse matrix ``rows`` of raw values."""
    sys = _System(_matrix(rows, field)[1], ncols, field)
    sys.reduce()
    return len(sys.pivots)


def nullspace_sparse(rows: list[Row], ncols: int, field: FieldSpec) -> list[Row]:
    """A canonical basis of the kernel, one vector per free column, in
    increasing free-column order; raw values in and out."""
    sys = _System(_matrix(rows, field)[1], ncols, field)
    sys.reduce()
    if field.modulus is not None:
        return [vec for _, vec in sys.nullspace()]
    return [{k: Fraction(v, d) for k, v in vec.items()} for d, vec in sys.nullspace()]
