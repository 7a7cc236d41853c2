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

The row transform T, with T A the reduced rows, is never carried along.
``reduce`` works on A alone and appends one record per row operation, in
the order it does them: the rescaling of a pivot row, and each clear of an
entry against a pivot row, each as a field multiplier (over Q an integer
pair).  T has one reader, ``inverse``: its rows up to the rank, put at the
pivot columns, are a generalized inverse X of A, with A X A = A, and it
forms them by replaying the records onto identity rows (the product form of
the inverse, Dantzig and Orchard-Hays 1954).  A row that never pivots
never clears another, so only the pivot rows are replayed.  ``cochain``
reduces the rows of each differential once and reads its kernel vectors
from that system; only the homotopy replays it.  ``solve_sparse`` reads
its solution X b off it.

Row r is held as integers ``n_r`` over one positive row denominator
``D_r``, at first the input row over 1.  A pivot row is normalized by
taking its pivot value ``a`` as its denominator, which scales the row by
``D_r / n_r[col]``.  Clearing an entry ``b`` of row r against it is a
cross-multiplication: with ``g = gcd(a, b)``, ``n_r <- (a/g)*n_r -
(b/g)*n_p`` and ``D_r <- (a/g)*D_r``, which adds ``-(b/g)*a / D_r`` times
the pivot row (``D_r`` the new denominator); then the content
``gcd(D_r, n_r)`` is divided out.  The reduction runs on the integer rows
N = den * A as given, so the matrix denominator enters only when T is read:
the records replayed give T against N, and T against A is den times that.
The replay holds each row of T as integers over one denominator of its
own, and divides its content out after each operation.  Over GF(p) the
pivot row is scaled to 1, so ``a`` is 1, every ``D_r`` stays 1 and the
same loop is plain modular elimination.  The row operations and their
order do not depend on the representation, so the results are exactly
those of elimination of [A | I] in ``Fraction`` arithmetic.

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

    ``reduce`` records each row operation it does in ``ops``, by row id:
    ``(r, None, u, v)`` scales row r by u / v, and ``(r, s, u, v)`` adds
    u / v times row s to row r (v is 1 over GF(p)), both against the
    integer rows as given.  ``inverse`` is the records' one reader: it
    replays them onto identity rows to form the row transform T.
    """

    def __init__(self, rows: list[dict[int, int]], field: FieldSpec, den: int = 1):
        self.modulus = field.modulus
        self.den = den
        self.rows = [dict(r) for r in rows]
        self.pivots: list[tuple[int, int]] = []  # (column, row position)

    def reduce(self, echelon: bool = False) -> None:
        """Reduce to RREF; with ``echelon`` rows above a pivot are left
        uncleared, which gives the same pivots in fewer operations."""
        rows, p = self.rows, self.modulus
        # row r is rows[r] / dens[r] against the integer rows as given;
        # ``den`` enters only on read-out
        dens = [1] * len(rows)
        ops = self.ops = []
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
            if len(holders) == 1:  # the one holder pivots, unless it already has
                (piv,) = holders
                q = pos[piv]
                if q < npiv:
                    continue
                clear = ()
            else:
                q = nrows  # the least position >= npiv among the holders
                for r in holders:
                    x = pos[r]
                    if npiv <= x < q:
                        q = x
                if q == nrows:
                    continue
                piv = at[q]
                clear = [r for r in holders if r != piv and (pos[r] > npiv or not echelon)]
            if q != npiv:  # the row at position npiv moves to q
                at[q] = other = at[npiv]
                pos[other] = q
                at[npiv], pos[piv] = piv, npiv
            prow = rows[piv]
            b = prow[col]
            if p is not None:  # scale the pivot to 1
                if b != 1:
                    inv = pow(b, -1, p)
                    prow = rows[piv] = {k: v * inv % p for k, v in prow.items()}
                    ops.append((piv, None, inv, 1))
                a = 1
            else:  # the pivot value, content divided out, is the row denominator
                if len(prow) == 1:
                    prow = rows[piv] = {col: 1}
                    a = 1
                else:
                    g = gcd(*prow.values())
                    if b < 0:
                        g = -g
                    if g != 1:
                        prow = rows[piv] = {k: v // g for k, v in prow.items()}
                    a = prow[col]
                if dens[piv] != b:  # the row is scaled by D / b
                    ops.append((piv, None, dens[piv], b))
                dens[piv] = a
            for r in clear:
                row = rows[r]
                c = -row[col]
                if a != 1:  # cross-multiply, with the common factor of a and b taken out
                    g = gcd(a, c)
                    m, c = a // g, c // g
                    if m != 1:
                        row = rows[r] = {k: m * v for k, v in row.items()}
                        dens[r] *= m
                # row r gains c a / D_r times the pivot row, whose denominator is a
                ops.append((r, piv, c * a, dens[r]))
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
                d = dens[r]
                if d != 1:  # divide the content out
                    g = gcd(d, *row.values())
                    if g != 1:
                        dens[r] = d // g
                        rows[r] = {k: v // g for k, v in row.items()}
            self.pivots.append((col, npiv))
        self.rows = [rows[r] for r in at]
        self.dens = [dens[r] for r in at]
        # for ``nullspace``: the ids of the rows holding each column, their
        # positions, and the pivot columns
        self.where, self.pos = where, pos
        self.pivot_columns = {c for c, _ in self.pivots}

    def nullspace(self, columns) -> list[tuple[int, dict[int, int]]]:
        """The canonical kernel vectors of the free columns among
        ``columns``, one per free column, in the order of ``columns``; each
        is (L, vector) with the integer vector over L holding {f: 1, then
        the pivot columns in pivot order}, L the lcm of the denominators of
        the rows that hold f (1 over GF(p)).  ``range(n)``, for the n
        columns of the matrix, gives a basis of the kernel.  Needs a full (not echelon) ``reduce``."""
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

    def _transform(self) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
        """The rows of T of the pivot rows, by row id, as integer rows over
        their own denominators: the records of ``reduce`` replayed onto
        identity rows.  A row that never pivots never clears another, so
        the other rows and the records that change them are skipped."""
        rank, p = len(self.pivots), self.modulus
        t = {i: {i: 1} for i, x in enumerate(self.pos) if x < rank}
        e = dict.fromkeys(t, 1)
        for r, s, u, v in self.ops:
            row = t.get(r)
            if row is None:
                continue
            if p is not None:
                if s is None:
                    t[r] = {k: x * u % p for k, x in row.items()}
                    continue
                for k, x in t[s].items():
                    y = row.get(k)
                    if y is None:  # a product of nonzeros is nonzero
                        row[k] = u * x % p
                    elif y := (y + u * x) % p:
                        row[k] = y
                    else:
                        del row[k]
                continue
            if v < 0:
                u, v = -u, -v
            g = gcd(u, v)
            if g != 1:
                u, v = u // g, v // g
            d = e[r]
            if s is None:  # row / d becomes u row / (v d)
                row = {k: x * u for k, x in row.items()}
                d *= v
            else:  # row / d + u/v * t[s] / e[s], over lcm(d, v e[s])
                w = v * e[s]
                g = gcd(d, w)
                m, c = w // g, u * (d // g)
                if m != 1:
                    row = {k: x * m for k, x in row.items()}
                    d *= m
                for k, x in t[s].items():
                    y = row.get(k)
                    if y is None:
                        row[k] = c * x
                    elif y := y + c * x:
                        row[k] = y
                    else:
                        del row[k]
            if d != 1:  # divide the content out
                g = gcd(d, *row.values())
                if g != 1:
                    d //= g
                    row = {k: x // g for k, x in row.items()}
            t[r], e[r] = row, d
        return t, e

    def inverse(self) -> tuple[int, dict[int, dict[int, int]]]:
        """A generalized inverse X of A, with A X A = A, after a full
        ``reduce``: X = E T_{<rank}, where E puts row r < rank of T at the
        pivot column c_r of row r.  The reduced rows R = T A have unit
        vectors at their pivot columns, so R_{<rank} E = 1 and
        A X A = T^-1 R E R_{<rank} = T^-1 R = A.  As integer rows over one
        denominator: (L, {c_r: {equation i: n}}) with X[c_r, i] = n / L, the
        content of the rows and L divided out (L is 1 over GF(p))."""
        t, e = self._transform()
        at = {x: i for i, x in enumerate(self.pos)}
        if self.modulus is not None:
            return 1, {c: t[at[r]] for c, r in self.pivots}
        # T's rows are against the integer rows N = den * A, so X is den times them
        scale = lcm(*e.values())
        out = {c: {k: v * self.den * (scale // e[i]) for k, v in t[i].items()}
               for c, i in ((c, at[r]) for c, r in self.pivots)}
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
    sys = _System(ints.values(), field, den)
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
    sys = _System(_integral(dict(enumerate(rows)), field)[1].values(), field)
    sys.reduce()
    return len(sys.pivots)


def nullspace_sparse(rows: list[Row], ncols: int, field: FieldSpec) -> list[Row]:
    """A canonical basis of the kernel, one vector per free column, in
    increasing free-column order; raw values in and out."""
    sys = _System(_integral(dict(enumerate(rows)), field)[1].values(), field)
    sys.reduce()
    return [_rational({0: vec}, den, field)[0] for den, vec in sys.nullspace(range(ncols))]
