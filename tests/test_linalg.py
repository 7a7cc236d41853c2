"""The elimination engine ``linalg._System`` against a dense RREF oracle.

The oracle is a plain dense Gauss-Jordan elimination written here, over
Fractions or residues mod p.  A reduced row echelon form is unique, so the
pivot columns, the reduced rows, the canonical kernel basis and the
particular solution with free variables zero must all agree exactly.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dgdeform import GF, QQ
from dgdeform.linalg import LinearInfeasibility, LinearSolution, _System

FIELDS = {"Q": QQ, "GF(2)": GF(2), "GF(5)": GF(5)}


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


@st.composite
def systems(draw):
    name = draw(st.sampled_from(sorted(FIELDS)))
    p = FIELDS[name].modulus
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 7))
    density = draw(st.sampled_from([0.15, 0.4, 1.0]))
    value = (
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)) if p is None
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
    return FIELDS[name], mat, rhs


def _assert_canonical(values, p):
    for v in values:
        if p is None:
            assert type(v) is Fraction and v != 0
        else:
            assert type(v) is int and 0 < v < p


@settings(max_examples=300, deadline=None)
@given(systems())
def test_system_matches_dense_rref(case):
    field, mat, rhs_list = case
    p = field.modulus
    ncols = len(mat[0])
    rows = [_sparse(row) for row in mat]
    sys = _System(rows, ncols, field, trace=True)
    sys.reduce()
    # [A | I] reduced with the same row operations gives [RREF | T]
    eye = [[int(i == r) for i in range(len(mat))] for r in range(len(mat))]
    ref, pivcols = dense_rref([row + e for row, e in zip(mat, eye)], p, ncols)
    rank = len(pivcols)

    assert sys.pivots == [(c, r) for r, c in enumerate(pivcols)]
    assert sys.rows == [_sparse(row[:ncols]) for row in ref]
    assert sys.trace == [_sparse(row[ncols:]) for row in ref]
    assert rows == [_sparse(row) for row in mat]  # the input is not modified
    for row in sys.rows + sys.trace:
        _assert_canonical(row.values(), p)

    # kernel: {f: 1, then -ref[i][f] at each pivot column, in pivot order}
    want = []
    for f in (c for c in range(ncols) if c not in pivcols):
        vec = {f: _canon(1, p)}
        for i, c in enumerate(pivcols):
            if ref[i][f]:
                vec[c] = _canon(-ref[i][f], p)
        want.append(list(vec.items()))
    kernel = sys.nullspace()
    assert [list(v.items()) for v in kernel] == want
    for vec in kernel:
        _assert_canonical(vec.values(), p)

    echelon = _System(rows, ncols, field)
    echelon.reduce(echelon=True)
    assert echelon.pivots == sys.pivots

    for rhs in rhs_list:
        aug, augpiv = dense_rref([row + [b] for row, b in zip(mat, rhs)], p)
        out = sys.solve(_sparse(rhs))
        if augpiv and augpiv[-1] == ncols:  # a pivot in the right side: inconsistent
            assert isinstance(out, LinearInfeasibility)
            _assert_canonical(list(out.combination.values()) + [out.residual], p)
            for k in range(ncols):
                assert not _canon(sum(c * mat[i][k] for i, c in out.combination.items()), p)
            assert _canon(sum(c * rhs[i] for i, c in out.combination.items()), p) == out.residual
        else:
            assert isinstance(out, LinearSolution)
            _assert_canonical(out.values.values(), p)
            want = [(c, aug[i][ncols]) for i, c in enumerate(augpiv) if aug[i][ncols]]
            assert list(out.values.items()) == want
            assert rank == len(augpiv)
