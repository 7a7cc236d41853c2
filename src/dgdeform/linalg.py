"""Sparse exact Gaussian elimination over a FieldSpec, in integers.

A matrix comes in as integer rows over one matrix denominator ``den``: dicts
column-index -> nonzero ``int``, any integer over Q, a residue in [0, p)
over GF(p), where ``den`` is 1.  Reduced rows stay integers over their
row denominators, and kernel vectors and a generalized inverse come out as
integers over one denominator each.  The field enters and leaves in two
helpers: ``_integral`` reads raw values in as integers over one
denominator, and ``_rational`` reads an integer result back out as raw
values.  Field arithmetic is written inline: ``% p`` after every sum and
product over GF(p), nothing over Q.

Elimination processes columns in increasing order and always picks the first
remaining row with a nonzero entry as the pivot, so every result is
deterministic for a fixed equation order.  Rows keep their ids while
``reduce`` runs: a row swap only exchanges two entries of a permutation
between row ids and positions, and the rows and their denominators are put
into position order when ``reduce`` returns.  An index from each column of A
to the ids of the rows holding it finds the pivot (the holder with the least
remaining position) and the rows to clear without scanning the others; kept
after ``reduce``, it lets ``nullspace`` visit only the rows holding the
columns it is asked for.
Full reduced row echelon form is computed (pivots normalized to 1 and
cleared above and below), which makes the particular solution with free
variables set to zero canonical.

The row transform T, when kept, is the textbook one: the system is
[A | I], row i carrying the one extra entry ``ncols + i: 1``, and the row
operations that reduce A turn I into T.  T's columns are never pivot
candidates and stay out of the column index, so they ride along in the
same row dicts, and one loop does every row operation on A and T at once.
T has one reader, ``inverse``: its rows up to the rank, put at the pivot
columns, are a generalized inverse X of A, with A X A = A.  ``cochain``
reduces the rows of each differential once, traced, and reads both its
kernel vectors and its homotopy from that one system; ``solve_sparse``
reads its solution X b off it.

Row r is held as integers ``n_r`` over one positive row denominator
``D_r``, at first the input row over 1.  A pivot row is normalized by
taking its pivot value ``a`` as its denominator.  Clearing an entry ``b``
of row r against it is a cross-multiplication: with ``g = gcd(a, b)``,
``n_r <- (a/g)*n_r - (b/g)*n_p`` and ``D_r <- (a/g)*D_r``; then the content
``gcd(D_r, n_r)`` is divided out.  The reduction runs on the integer rows
N = den * A as given, so the matrix denominator enters only when T is read:
each normalized (pivot) row equals that row of the elimination of A, and
its T part is den times T's, so for r below the rank T[r][i] is
``den * n_r[ncols + i] / D_r``.  Over GF(p) the pivot row is scaled to 1, so
``a`` is 1, every ``D_r`` stays 1 and the same loop is plain modular
elimination.  The row operations and their order do not depend on the
representation, so the results are exactly those of elimination of
[A | I] in ``Fraction`` arithmetic.

This is the library's one elimination loop.  The pivot columns of an
echelon ``reduce`` are the columns independent of all earlier ones, the
greedy basis of the column span; ``cochain`` chooses homology classes that
way.

Nothing in the library calls ``solve_sparse``, ``rank_sparse`` or
``nullspace_sparse``.  They stay only because
the benchmark's tracer resolves the three by name, and they go once the
tracer reads counters instead (ROADMAP item 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .field import FieldSpec

Row = dict[int, "Fraction | int"]


def _integral(vectors: dict[int, Row], field: FieldSpec) -> tuple[int, dict[int, dict[int, int]]]:
    """Sparse vectors of raw values as (L, L * vectors): L is the lcm of
    their denominators over Q, and 1 over GF(p), where they are returned."""
    if field.modulus is not None:
        return 1, vectors
    scale = lcm(*[v.denominator for vec in vectors.values() for v in vec.values()])
    return scale, {j: {k: v.numerator * (scale // v.denominator) for k, v in vec.items()}
                   for j, vec in vectors.items()}


def _rational(vectors: dict[int, dict[int, int]], den: int, field: FieldSpec) -> dict[int, Row]:
    """The raw values of integer vectors over ``den``: n / den over Q.  Over
    GF(p) every integer result is over 1 (``_integral``,
    ``_integer_coboundary``, ``_System.inverse`` and ``nullspace`` give 1,
    and a ``cohomology`` representative's lead is 1), so the vectors are
    already residues and are returned as they are."""
    if field.modulus is not None:
        return vectors
    return {j: {k: Fraction(n, den) for k, n in vec.items()} for j, vec in vectors.items()}


class _System:
    """Elimination state for one sparse matrix, given as integer rows over
    one denominator ``den`` (over GF(p) residues, and ``den`` is 1).

    With ``trace`` the system is [A | I]: row i starts with the one extra
    entry ``ncols + i: 1``, and the row operations that reduce A carry the
    identity block along to T, so after ``reduce`` reduced row r is
    sum_i T[r][i] * (original row i), with T[r][i] held in the integer
    ``rows[r][ncols + i]`` over ``dens[r]``.  T's columns never pivot and
    stay out of the column index, and ``inverse`` is their one reader.
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
        # for ``nullspace``: the ids of the rows holding each column of A,
        # their positions, and the pivot columns
        self.where, self.pos = where, pos
        self.pivot_columns = {c for c, _ in self.pivots}

    def nullspace(self, columns) -> list[tuple[int, dict[int, int]]]:
        """The canonical kernel vectors of the free columns among
        ``columns``, one per free column, in the order of ``columns``; each
        is (L, vector) with the integer vector over L holding {f: 1, then
        the pivot columns in pivot order}, L the lcm of the denominators of
        the rows that hold f (1 over GF(p)).  ``range(ncols)`` gives a basis
        of the kernel.  Needs a full (not echelon) ``reduce``."""
        p, rows, dens, pivots, pos = self.modulus, self.rows, self.dens, self.pivots, self.pos
        out = []
        for f in columns:
            if f in self.pivot_columns:
                continue
            # the pivot rows holding the free column f, in pivot order
            held = sorted(pos[r] for r in self.where.get(f, ()))
            scale = 1 if p is not None else lcm(*(dens[r] for r in held))
            vec = {f: scale}
            for r in held:
                c = rows[r][f]
                vec[pivots[r][0]] = -c * (scale // dens[r]) if p is None else p - c
            out.append((scale, vec))
        return out

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


def solve_sparse(rows: list[Row], rhs: list, ncols: int,
                 field: FieldSpec) -> dict[int, Fraction | int] | None:
    """Solve the sparse system rows * x = rhs exactly, raw values in and
    out: x = X rhs, for the generalized inverse X of ``_System.inverse``,
    which is the canonical solution (free variables zero), or None when
    A x != rhs, that is when the system is inconsistent."""
    den, ints = _integral(dict(enumerate(rows)), field)
    sys = _System(ints.values(), ncols, field, den, trace=True)
    sys.reduce()
    scale, inverse = sys.inverse()
    norm = field.norm
    x = _rational({0: {c: v for c, row in inverse.items()
                       if (v := norm(sum(n * rhs[i] for i, n in row.items())))}}, scale, field)[0]
    if any(norm(sum(v * x[k] for k, v in row.items() if k in x) - b)
           for row, b in zip(rows, rhs)):
        return None
    return x


def rank_sparse(rows: list[Row], ncols: int, field: FieldSpec) -> int:
    """The rank of the sparse matrix ``rows`` of raw values."""
    sys = _System(_integral(dict(enumerate(rows)), field)[1].values(), ncols, field)
    sys.reduce()
    return len(sys.pivots)


def nullspace_sparse(rows: list[Row], ncols: int, field: FieldSpec) -> list[Row]:
    """A canonical basis of the kernel, one vector per free column, in
    increasing free-column order; raw values in and out."""
    sys = _System(_integral(dict(enumerate(rows)), field)[1].values(), ncols, field)
    sys.reduce()
    return [_rational({0: vec}, den, field)[0] for den, vec in sys.nullspace(range(ncols))]
