"""The elimination engine ``linalg._System`` against a dense RREF oracle.

The oracle is a plain dense Gauss-Jordan elimination written here, over
Fractions or residues mod p.  A reduced row echelon form is unique, so the
pivot columns, the reduced rows, the canonical kernel basis and the
particular solution with free variables zero must all agree exactly.

``_System`` takes integer rows over one denominator D and returns integer
rows and kernel vectors over their own denominators; the oracle runs on
rows / D, with D in {1, 2, 6, 35} over Q and 1 over GF(p).  The oracle
reduces [A | I], the textbook way to the row transform T; ``_System`` never
holds T in its rows, but records its row operations, and ``inverse`` replays
them: the generalized inverse must be the oracle's rows of T up to the rank,
put at the pivot columns, with A X A = A.  ``solve_sparse`` must give the
oracle's particular solution, or None for an inconsistent system.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from dgdeform import GF, QQ
from dgdeform.linalg import _System, nullspace_sparse, rank_sparse, solve_sparse
from conftest import count_fraction_arithmetic

FIELDS = {"Q": QQ, "GF(2)": GF(2), "GF(5)": GF(5)}
DENOMINATORS = (1, 2, 6, 35)


def _canon(x, p):
    return Fraction(x) if p is None else x % p


def dense_rref(mat, p, pivot_cols=None):
    """(reduced rows, pivot columns) by dense Gauss-Jordan elimination, with
    pivots sought only in the first ``pivot_cols`` columns (default all)."""
    mat = [[_canon(x, p) for x in row] for row in mat]
    pivcols = []
    for col in range(len(mat[0]) if pivot_cols is None else pivot_cols):
        r0 = len(pivcols)
        piv = next((r for r in range(r0, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[r0], mat[piv] = mat[piv], mat[r0]
        inv = 1 / mat[r0][col] if p is None else pow(mat[r0][col], -1, p)
        mat[r0] = [_canon(x * inv, p) for x in mat[r0]]
        for r in range(len(mat)):
            if r != r0 and mat[r][col]:
                f = mat[r][col]
                mat[r] = [_canon(a - f * b, p) for a, b in zip(mat[r], mat[r0])]
        pivcols.append(col)
    return mat, pivcols


def _sparse(row):
    return {k: v for k, v in enumerate(row) if v}


def _integer_rows(field, mat, den=1):
    """(rows, matrix): the sparse rows ``_System`` takes for ``mat`` and the
    dense matrix they stand for.  Over Q the rows are the integers L * mat,
    for L the lcm of mat's denominators, and stand for L * mat / den; over
    GF(p) they are mat itself, and den is 1."""
    if field.modulus is not None:
        assert den == 1
        return [_sparse(row) for row in mat], mat
    scale = lcm(*[Fraction(x).denominator for row in mat for x in row])
    ints = [[int(x * scale) for x in row] for row in mat]
    return [_sparse(row) for row in ints], [[Fraction(n, den) for n in row] for row in ints]


def _over(vec, d, p):
    """The integer vector ``vec`` over ``d`` as raw values."""
    assert all(type(v) is int for v in vec.values()) and type(d) is int and d > 0
    if p is not None:
        assert d == 1
        return dict(vec)
    return {k: Fraction(v, d) for k, v in vec.items()}


def _reduced(sys):
    """Each reduced row of ``sys`` as raw values."""
    return [_over(row, d, sys.modulus) for row, d in zip(sys.rows, sys.dens)]


@st.composite
def systems(draw, fields=tuple(FIELDS), size=7, num=3, den=3):
    """(field, matrix, right sides, D, columns) with at most ``size`` rows
    and columns; rationals have numerators in [-num, num] and denominators
    in [1, den], the integer rows of the matrix come over D (1 over GF(p)),
    and ``columns`` is a subset of the columns in a drawn order."""
    name = draw(st.sampled_from(sorted(fields)))
    p = FIELDS[name].modulus
    nrows = draw(st.integers(1, size))
    ncols = draw(st.integers(1, size))
    density = draw(st.sampled_from([0.15, 0.4, 1.0]))
    value = (
        st.builds(Fraction, st.integers(-num, num), st.integers(1, den)) if p is None
        else st.integers(0, p - 1)
    )
    mat = [
        [draw(value) if draw(st.floats(0, 1)) < density else _canon(0, p) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if draw(st.booleans()):
        # add multiples of earlier rows to later ones: dense fill-in, rank kept
        for r in range(1, nrows):
            for s in range(r):
                c = draw(value)
                mat[r] = [_canon(a + c * b, p) for a, b in zip(mat[r], mat[s])]
    rhs = [[draw(value) for _ in range(nrows)] for _ in range(2)]
    x = [draw(value) for _ in range(ncols)]
    rhs.append([_canon(sum(a * b for a, b in zip(row, x)), p) for row in mat])  # feasible
    den = draw(st.sampled_from(DENOMINATORS)) if p is None else 1
    columns = draw(st.lists(st.integers(0, ncols - 1), unique=True))
    # the system stands for a multiple of mat, against which rhs[2] is feasible still
    return FIELDS[name], mat, rhs, den, columns


def _assert_canonical(values, p):
    for v in values:
        if p is None:
            assert type(v) is Fraction and v != 0
        else:
            assert type(v) is int and 0 < v < p


@settings(max_examples=300, deadline=None)
@given(systems())
def test_system_matches_dense_rref(case):
    _check_against_oracle(*case)


def _check_against_oracle(field, mat, rhs_list, den=1, columns=None):
    """Every result of ``_System`` on the integer rows of ``mat`` over
    ``den`` (see ``_integer_rows``) equals the dense oracle's on the matrix
    they stand for; the kernel is also read at ``columns`` (by default every
    other column, from the last down)."""
    p = field.modulus
    ncols = len(mat[0])
    rows, mat = _integer_rows(field, mat, den)
    given = [dict(r) for r in rows]
    sys, ref, pivcols = _check_inverse(field, rows, mat, ncols, den)
    rank = len(pivcols)

    assert sys.pivots == [(c, r) for r, c in enumerate(pivcols)]
    # the reduced rows stay integers, over their row denominators
    assert _reduced(sys) == [_sparse(row[:ncols]) for row in ref]
    assert rows == given  # the input is not modified

    # kernel: {f: 1, then -ref[i][f] at each pivot column, in pivot order}
    canonical = {}
    for f in (c for c in range(ncols) if c not in pivcols):
        vec = {f: _canon(1, p)}
        for i, c in enumerate(pivcols):
            if ref[i][f]:
                vec[c] = _canon(-ref[i][f], p)
        canonical[f] = list(vec.items())
    want = list(canonical.values())
    kernel = [_over(vec, d, p) for d, vec in sys.nullspace(range(ncols))]
    assert [list(v.items()) for v in kernel] == want
    # read at some columns: the canonical vectors of their free ones, in their order
    columns = range(ncols - 1, -1, -2) if columns is None else columns
    assert [list(_over(vec, d, p).items()) for d, vec in sys.nullspace(columns)] == \
        [canonical[f] for f in columns if f in canonical]

    echelon = _System(rows, field)
    echelon.reduce(echelon=True)
    assert echelon.pivots == sys.pivots

    # solve_sparse on the raw values the integer rows stand for
    raw = [_sparse(row) for row in mat]
    for rhs in rhs_list:
        aug, augpiv = dense_rref([row + [b] for row, b in zip(mat, rhs)], p)
        out = solve_sparse(raw, rhs, ncols, field)
        if augpiv and augpiv[-1] == ncols:  # a pivot in the right side: inconsistent
            assert out is None
        else:
            _assert_canonical(out.values(), p)
            want = [(c, aug[i][ncols]) for i, c in enumerate(augpiv) if aug[i][ncols]]
            assert list(out.items()) == want
            assert rank == len(augpiv)


def _check_inverse(field, rows, mat, ncols, den=1):
    """(system, reference, pivot columns): ``_System`` reduced on the integer
    ``rows`` standing for ``mat``, and the oracle's reduction of [A | I],
    whose T part up to the rank, put at the pivot columns, must be the
    replayed generalized inverse, in integers over one denominator, with
    A X A = A.  The system's rows never hold T."""
    p = field.modulus
    sys = _System(rows, field, den)
    sys.reduce()
    assert all(0 <= k < ncols for row in sys.rows for k in row)
    eye = [[int(i == r) for i in range(len(mat))] for r in range(len(mat))]
    ref, pivcols = dense_rref([row + e for row, e in zip(mat, eye)], p, ncols)
    scale, inverse = sys.inverse()
    assert type(scale) is int and scale > 0 and (p is None or scale == 1)
    assert all(type(v) is int and v for row in inverse.values() for v in row.values())
    x = {c: {i: _canon(Fraction(v, scale), p) for i, v in row.items()} for c, row in inverse.items()}
    assert x == {c: _sparse(ref[r][ncols:]) for r, c in enumerate(pivcols)}
    for k in range(ncols):
        a_col = [row[k] for row in mat]
        x_a = {c: sum(v * a_col[i] for i, v in row.items()) for c, row in x.items()}
        assert [_canon(sum(row[c] * v for c, v in x_a.items()), p) for row in mat] == \
            [_canon(v, p) for v in a_col]
    return sys, ref, pivcols


@settings(max_examples=200, deadline=None)
@given(systems(), st.lists(st.integers(0, 7), max_size=3))
def test_replayed_inverse_is_the_textbook_transform(case, zeros):
    # the drawn system, two zero rows, no rows at all, and the drawn system
    # with zero rows put in at drawn places
    field, mat, _, den, _ = case
    ncols = len(mat[0])
    for system in (mat, [], [[_canon(0, field.modulus)] * ncols] * 2):
        _check_inverse(field, *_integer_rows(field, system, den), ncols, den)
    for at in zeros:
        mat.insert(min(at, len(mat)), [_canon(0, field.modulus)] * ncols)
    _check_inverse(field, *_integer_rows(field, mat, den), ncols, den)


@settings(max_examples=60, deadline=None)
@given(systems(fields=("Q", "GF(5)"), size=16))
def test_larger_systems_match_dense_rref(case):
    # up to 16 rows: pivots found far down move many rows, so the positions
    # of the rows left below them are reordered again and again
    _check_against_oracle(*case)


@settings(max_examples=60, deadline=None)
@given(systems())
def test_raw_value_wrappers_match_the_system(case):
    # rank_sparse and nullspace_sparse take and return raw values, scaling
    # them to integers on the way in (``_check_against_oracle`` checks
    # solve_sparse, the third)
    field, mat, _, _, _ = case
    p = field.modulus
    ncols = len(mat[0])
    raw = [_sparse(row) for row in mat]
    den = 1 if p is not None else lcm(*[x.denominator for row in mat for x in row])
    rows, exact = _integer_rows(field, mat, den)
    assert exact == mat  # the integer rows over den stand for mat itself
    sys = _System(rows, field, den)
    sys.reduce()
    assert rank_sparse(raw, ncols, field) == len(sys.pivots)
    assert nullspace_sparse(raw, ncols, field) == [_over(vec, d, p)
                                                   for d, vec in sys.nullspace(range(ncols))]


# -- integer rows over the rationals ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(systems(fields=("Q",), size=10, num=20, den=9))
def test_rational_systems_with_larger_entries_match_dense_rref(case):
    _check_against_oracle(*case)


def test_hilbert_matrix():
    # entries 1/(i+j+1) with denominators up to 15, and an integer inverse
    # with entries above 4e9: row denominators and contents grow and shrink
    n = 8
    hilbert = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    dependent = [sum(c * row[j] for c, row in zip(range(1, n + 1), hilbert)) for j in range(n)]
    _check_against_oracle(QQ, hilbert, [[Fraction(1)] * n, [Fraction(i) for i in range(n)]])
    _check_against_oracle(QQ, hilbert + [dependent],
                          [[Fraction(1)] * n + [Fraction(36)],  # 36 = 1 + ... + 8: feasible
                           [Fraction(1)] * (n + 1), [Fraction(0)] * n + [Fraction(1, 7)]])
    rows, _ = _integer_rows(QQ, hilbert)
    sys = _System(rows, QQ, lcm(*range(1, 2 * n)))
    sys.reduce()
    assert _reduced(sys) == [{i: Fraction(1)} for i in range(n)]
    # X is the inverse of the Hilbert matrix, which has integer entries
    scale, inverse = sys.inverse()
    assert scale == 1
    assert max(abs(v) for row in inverse.values() for v in row.values()) > 4 * 10**9


@settings(max_examples=200, deadline=None)
@given(systems(num=4, den=1))
def test_echelon_pivots_are_the_greedy_basis(case):
    # the vectors are the columns, as ints, the way cohomology passes class
    # coordinates over Q; column i is a pivot when it raises the dense rank
    # of the vectors up to i
    field, mat, _, _, _ = case
    p = field.modulus
    mat = [[int(x) for x in row] for row in mat]
    ranks = [len(dense_rref(mat[:i + 1], p)[1]) for i in range(len(mat))]
    want = [i for i, r in enumerate(ranks) if r > (ranks[i - 1] if i else 0)]
    rows = [{i: vec[k] for i, vec in enumerate(mat) if vec[k]} for k in range(len(mat[0]))]
    system = _System(rows, field)
    system.reduce(echelon=True)
    assert [c for c, _ in system.pivots] == want


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_empty_and_zero_rows(name):
    field = FIELDS[name]
    p = field.modulus
    one, two = _canon(1, p), _canon(2, p)
    zero = _canon(0, p)
    mat = [[zero] * 4, [zero, one, zero, two], [zero] * 4, [zero, two, zero, one], [zero] * 4]
    _check_against_oracle(field, mat, [[zero, one, zero, two, zero], [one] * 5])
    _check_against_oracle(field, [[zero] * 3] * 3, [[zero] * 3, [zero, one, zero]])

    none = _System([], field)
    none.reduce()
    assert none.pivots == [] and none.rows == []
    assert none.nullspace(range(3)) == [(1, {f: 1}) for f in range(3)]
    assert none.nullspace([2, 0]) == [(1, {2: 1}), (1, {0: 1})]
    assert none.inverse() == (1, {})
    assert solve_sparse([], [], 3, field) == {}


@settings(max_examples=100, deadline=None)
@given(systems())
def test_one_reduction_serves_many_right_sides(case):
    # reading the inverse, which serves every right side, leaves the
    # reduction and its records as they were
    field, mat, _, den, _ = case
    ncols = len(mat[0])
    rows, _ = _integer_rows(field, mat, den)
    shared = _System(rows, field, den)
    shared.reduce()
    reduced, ops = [dict(row) for row in shared.rows], list(shared.ops)
    for _ in range(3):
        fresh = _System(rows, field, den)
        fresh.reduce()
        assert shared.inverse() == fresh.inverse()
        assert shared.rows == reduced and shared.ops == ops


@pytest.mark.parametrize("deficient", [False, True])
@pytest.mark.parametrize("echelon", [False, True])
def test_rational_reduce_does_no_fraction_arithmetic(monkeypatch, deficient, echelon):
    # nor does the replay of its records in ``inverse``, after a full reduce;
    # ``deficient`` makes the last three rows combinations of the others, so
    # the replay skips the records of rows that never pivot
    rng = random.Random(12)
    mat = [[Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(12)]
           for _ in range(12)]
    if deficient:
        for r in range(9, 12):
            coeffs = [rng.randint(-3, 3) for _ in range(9)]
            mat[r] = [sum(c * row[k] for c, row in zip(coeffs, mat)) for k in range(12)]
    rank = 9 if deficient else 12
    rows, _ = _integer_rows(QQ, mat, 35)
    sys = _System(rows, QQ, 35)
    calls = count_fraction_arithmetic(monkeypatch)
    sys.reduce(echelon=echelon)
    scale, inverse = (1, {}) if echelon else sys.inverse()
    monkeypatch.undo()
    assert calls == []
    assert len(sys.pivots) == rank
    # rows and the inverse come out as integers over their denominators,
    # not as Fractions
    assert all(type(v) is int for row in sys.rows for v in row.values())
    assert type(scale) is int and all(type(v) is int for row in inverse.values()
                                      for v in row.values())
    assert sys.rows[rank:] == [{}] * (12 - rank)
    if not echelon:
        assert len(inverse) == rank and scale > 1
        if not deficient:
            assert _reduced(sys) == [{i: 1} for i in range(12)]


def test_rational_solve_does_no_fraction_arithmetic(monkeypatch):
    # a solve reads T through the generalized inverse alone, in integers;
    # rank 9 of 12 rows: the last three rows are combinations of the first
    rng = random.Random(13)
    mat = [[Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(10)]
           for _ in range(9)]
    for _ in range(3):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(9)]
        mat.append([sum(c * row[k] for c, row in zip(coeffs, mat)) for k in range(10)])
    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(10)]
    feasible = [sum(a * b for a, b in zip(row, x)) for row in mat]
    infeasible = feasible[:-1] + [feasible[-1] + Fraction(1, 11)]
    assert len({b.denominator for b in feasible}) > 2  # mixed denominators
    rows, exact = _integer_rows(QQ, mat, 6)
    sys = _System(rows, QQ, 6)
    sys.reduce()
    calls = count_fraction_arithmetic(monkeypatch)
    scale, inverse = sys.inverse()
    monkeypatch.undo()
    assert calls == []
    assert len(inverse) == 9
    assert all(type(v) is int for row in inverse.values() for v in row.values())
    # exact, by the dense oracle on the matrix the rows stand for
    _check_against_oracle(QQ, exact, [feasible, infeasible])
    raw = [_sparse(row) for row in mat]
    assert solve_sparse(raw, feasible, 10, QQ) is not None
    assert solve_sparse(raw, infeasible, 10, QQ) is None
