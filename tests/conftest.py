"""Shared fixtures and independent oracles.

The dense-matrix oracle here deliberately avoids the library's sparse solver
and map-composition code paths: coboundary matrices are assembled entrywise
from the differential's raw coefficients, and ranks come from a plain dense
Gaussian elimination over raw Fractions / residues.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import lcm

import pytest

from dgdeform import GF, QQ, Cochain, Complex, FieldSpec, GradedMap, GradedModule, linalg
from dgdeform.cochain import cochain_basis


@pytest.fixture
def base5():
    from dgdeform import base_complex

    return base_complex(5, QQ)


# -- dense brute-force oracle --------------------------------------------------


def raw_d_coefficients(cx: Complex) -> dict[tuple[int, int], object]:
    """(target index, source index) -> raw coefficient of the differential."""
    return {(i, j): c.value for j, i, c in cx.d.entries()}


def dense_delta_matrix(cx: Complex, p: int, target: Complex | None = None):
    """Dense matrix of delta^p on C^p(cx; target), target cx by default:
    rows C^{p+1} pairs, columns C^p pairs.

    Built directly from delta(E_{ij}) = sum_k d_M[k,i] E_{kj}
    - (-1)^p sum_l d_V[j,l] E_{il}, with no graded-map composition involved.
    """
    target = target if target is not None else cx
    v, m = cx.module, target.module
    d_v, d_m = raw_d_coefficients(cx), raw_d_coefficients(target)
    zero = Fraction(0) if cx.field.modulus is None else 0
    pairs_p = [(j, i) for j in range(v.dim) for i in range(m.dim)
               if m.degree_of(i) == v.degree_of(j) - p]
    pairs_q = [(j, i) for j in range(v.dim) for i in range(m.dim)
               if m.degree_of(i) == v.degree_of(j) - p - 1]
    row_of = {pair: r for r, pair in enumerate(pairs_q)}
    sign = 1 if p % 2 else -1  # coefficient of the f d term
    mat = [[zero] * len(pairs_p) for _ in pairs_q]
    for c, (j, i) in enumerate(pairs_p):
        for (k, ii), val in d_m.items():
            if ii == i:  # d o E_{ij} contributes E_{kj}
                mat[row_of[(j, k)]][c] += val
        for (ii, l), val in d_v.items():
            if ii == j:  # E_{ij} o d contributes E_{il}
                mat[row_of[(l, i)]][c] += sign * val
    if cx.field.modulus is not None:
        q = cx.field.modulus
        mat = [[x % q for x in row] for row in mat]
    return pairs_p, pairs_q, mat


def _delta_matrix(source: Complex, target: Complex, p: int):
    """Sparse rows of the matrix of delta^p in the canonical cochain bases,
    for the elimination oracles: (domain basis of C^p, codomain index,
    rows, den), the index sending each pair of the codomain basis of
    C^{p+1} to its row, in basis order, and rows[r][c] / den the
    coefficient of codomain pair r in delta of domain pair c, an integer (a
    residue over GF(p), where den is 1).  The entries come from the
    differentials' integer columns: with E_ij sending x_j to y_i,

        delta(E_ij) = sum_k d_M[k,i] E_kj - (-1)^p sum_l d_V[j,l] E_il.

    The two sums never meet on one pair, since d has no diagonal entries.
    """
    dom = cochain_basis(source.module, target.module, p)
    cod = cochain_basis(source.module, target.module, p + 1)
    cod_index = {pair: r for r, pair in enumerate(cod)}
    (d_v, _), (d_m, n_m) = source._integer_d, target._integer_d
    den = lcm(d_v, d_m)
    a, b, mod = den // d_m, den // d_v * (1 if p % 2 else -1), source.field.modulus
    rows: list[dict[int, int]] = [{} for _ in cod]
    for c, (j, i) in enumerate(dom):
        for k, coeff in n_m.get(i, {}).items():
            rows[cod_index[j, k]][c] = a * coeff if mod is None else a * coeff % mod
        for l, coeff in source._integer_rows.get(j, {}).items():
            rows[cod_index[l, i]][c] = b * coeff if mod is None else b * coeff % mod
    return dom, cod_index, rows, den


def _cochain_from_coords(p: int, basis: list[tuple[int, int]], coords: dict,
                         source: Complex, target: Complex) -> Cochain:
    """The p-cochain with canonical nonzero raw coordinates ``coords`` in ``basis``."""
    cols: dict[int, dict] = {}
    for c, value in coords.items():
        j, i = basis[c]
        cols.setdefault(j, {})[i] = value
    return Cochain(p, GradedMap._of(source.module, target.module, -p, cols), source, target)


def dense_witness_defect(source: Complex, target: Complex, p: int, g: GradedMap, witness):
    """(y A, y g) for the witness row y of an infeasible delta^p(f) = g
    against the dense matrix A: a valid witness has y A = 0 everywhere and
    y g equal to its nonzero residual."""
    pairs_p, pairs_q, mat = dense_delta_matrix(source, p, target)
    v, m, field = source.module, target.module, source.field
    y = {(v.index_of(s), m.index_of(t)): c.value for s, t, c in witness.combination}
    rows = [(mat[r], y[pair]) for r, pair in enumerate(pairs_q) if pair in y]
    assert len(rows) == len(y)  # every weighted equation is a row of delta^p
    y_a = [field.norm(sum(w * row[c] for row, w in rows)) for c in range(len(pairs_p))]
    y_g = field.norm(sum(w * g.columns.get(j, {}).get(i, 0) for (j, i), w in y.items()))
    return y_a, y_g


def dense_rank(mat, modulus=None) -> int:
    """Rank by plain dense Gaussian elimination over Q or GF(modulus)."""
    mat = [row[:] for row in mat]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            v = mat[r][col] % modulus if modulus else mat[r][col]
            if v:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for r in range(nrows):
            if r == rank:
                continue
            v = mat[r][col] % modulus if modulus else mat[r][col]
            if not v:
                continue
            if modulus:
                factor = v * pow(pv, modulus - 2, modulus) % modulus
                mat[r] = [(a - factor * b) % modulus for a, b in zip(mat[r], mat[rank])]
            else:
                factor = Fraction(v, pv)
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def oracle_nullity(cx: Complex) -> int:
    """dim ker d, which is dim ker d^T, from the dense oracle."""
    n = cx.module.dim
    mat = [[0] * n for _ in range(n)]
    for (i, j), v in raw_d_coefficients(cx).items():
        mat[i][j] = v
    return n - dense_rank(mat, cx.field.modulus)


def oracle_cohomology_dims(cx: Complex, p: int) -> tuple[int, int, int]:
    """(dim cocycles, dim coboundaries, dim H) from the dense oracle."""
    pairs_p, _, mat_p = dense_delta_matrix(cx, p)
    _, _, mat_prev = dense_delta_matrix(cx, p - 1)
    q = cx.field.modulus
    cocycles = len(pairs_p) - dense_rank(mat_p, q)
    coboundaries = dense_rank(mat_prev, q)
    return cocycles, coboundaries, cocycles - coboundaries


def oracle_cohomology_representatives(source: Complex, target: Complex, p: int) -> list[GradedMap]:
    """The representatives of H^p(V;M) by elimination in C^p: the canonical
    kernel basis of delta^p, then a reduction of [delta^{p-1} | kernel
    basis], whose pivot columns right of delta^{p-1} are the kernel vectors
    independent modulo the image, in canonical order."""
    field = source.field
    dom_p, _, rows_p, _ = _delta_matrix(source, target, p)
    dom_prev, _, rows_prev, _ = _delta_matrix(source, target, p - 1)
    delta_p = linalg._System(rows_p, len(dom_p), field)
    delta_p.reduce()
    kernel = delta_p.nullspace(range(len(dom_p)))
    offset = len(dom_prev)
    # a column scaled by a nonzero integer keeps the pivots
    for k, (_, vec) in enumerate(kernel):
        for r, coeff in vec.items():
            rows_prev[r][offset + k] = coeff
    image = linalg._System(rows_prev, offset + len(kernel), field)
    image.reduce()
    reps = []
    for c, _ in image.pivots:
        if c >= offset:
            den, vec = kernel[c - offset]
            coords = vec if field.modulus is not None else {
                r: Fraction(v, den) for r, v in vec.items()}
            reps.append(_cochain_from_coords(p, dom_p, coords, source, target).mapping)
    return reps


def oracle_homology_classes(cx: Complex, dual: bool = False, degrees=None):
    """``cochain._homology_classes`` the long way: a canonical kernel
    vector for every free column, and an echelon pass over every nonzero
    boundary in free coordinates, whose pivots are the kernel vectors that
    are boundaries modulo the earlier ones."""
    module, by_degree = cx.module, cx.module._by_degree
    degrees = by_degree.keys() if degrees is None else degrees
    d_rows, d_cols = cx._integer_rows, cx._integer_d[1]
    if dual:
        kernel_system = linalg._System([d_cols[j] for q in degrees for j in by_degree.get(q + 1, ())
                                        if j in d_cols], module.dim, cx.field)
        kernel_system.reduce()
        boundaries = [d_rows[k] for q in degrees for k in by_degree.get(q - 1, ()) if k in d_rows]
    else:
        kernel_system = cx._elimination
        boundaries = [d_cols[j] for q in degrees for j in by_degree.get(q + 1, ()) if j in d_cols]
    columns = sorted(j for q in degrees for j in by_degree.get(q, ()))
    kernel = [vec for _, vec in kernel_system.nullspace(columns)]
    free = [f for f in columns if f not in kernel_system.pivot_columns]
    order = {f: s for s, f in enumerate(reversed(free))}
    image = linalg._System([{order[c]: v for c, v in b.items() if c in order} for b in boundaries],
                           len(free), cx.field)
    image.reduce(echelon=True)
    leads = {free[-1 - s] for s, _ in image.pivots}
    h = {q: 0 for q in degrees if q in by_degree}
    for f in free:
        h[module.degree_of(f)] += f not in leads
    return [vec for f, vec in zip(free, kernel) if f not in leads], h


def count_class_reads(monkeypatch) -> tuple[list[int], list[int]]:
    """Record, from now on, the number of columns every
    ``_System.nullspace`` is asked for, and the number of rows every echelon
    ``_System.reduce`` holds: the pass of ``_homology_classes`` over the
    boundaries, the library's one echelon reduce."""
    asked, held = [], []
    nullspace, reduce = linalg._System.nullspace, linalg._System.reduce

    def counting_nullspace(self, columns):
        columns = list(columns)
        asked.append(len(columns))
        return nullspace(self, columns)

    def counting_reduce(self, echelon=False):
        if echelon:
            held.append(len(self.rows))
        reduce(self, echelon)

    monkeypatch.setattr(linalg._System, "nullspace", counting_nullspace)
    monkeypatch.setattr(linalg._System, "reduce", counting_reduce)
    return asked, held


def count_reductions(monkeypatch) -> list[int]:
    """Record the width of every ``_System.reduce`` from now on: the number
    of distinct matrix columns (below ``ncols``) that its rows hold.  The
    eliminations of d run in the module's own indices, so ``ncols`` is the
    module's dim whatever part of d a system holds."""
    calls = []
    reduce = linalg._System.reduce

    def counting(self, *args, **kwargs):
        calls.append(len({k for row in self.rows for k in row if k < self.ncols}))
        reduce(self, *args, **kwargs)

    monkeypatch.setattr(linalg._System, "reduce", counting)
    return calls


def count_eliminations(monkeypatch) -> list[int]:
    """Record the id of the complex for every traced elimination of the rows
    of d (``Complex._elimination``) built from now on; one read from the
    cache is not recorded."""
    from functools import cached_property

    from dgdeform import cochain

    built = []
    build = cochain.Complex._elimination.func

    def counting(cx):
        built.append(id(cx))
        return build(cx)

    prop = cached_property(counting)
    prop.__set_name__(cochain.Complex, "_elimination")
    monkeypatch.setattr(cochain.Complex, "_elimination", prop)
    return built


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__")


def count_fraction_arithmetic(monkeypatch) -> list[str]:
    """Record the name of every arithmetic operator called on a Fraction."""
    calls = []

    def counting(name, op):
        def wrapper(*args):
            calls.append(name)
            return op(*args)
        return wrapper

    for name in _ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
    assert -(Fraction(1, 2) * 3) and calls == ["__mul__", "__neg__"]  # the counters count
    calls.clear()
    return calls


# -- quadratic product oracles -----------------------------------------------------


def compose(a: GradedMap, b: GradedMap) -> GradedMap:
    """a o b by the plain loop: each column of b times the columns of a it
    names, through the public constructor, with no index in between; it
    shares no code with the library's product kernel."""
    norm = a.target.field.norm
    cols = {}
    for j, col in b.columns.items():
        acc = {}
        for m, c in col.items():
            for i, e in a.columns.get(m, {}).items():
                acc[i] = acc[i] + c * e if i in acc else c * e
        cols[j] = {i: v for i, s in acc.items() if (v := norm(s))}
    return GradedMap(b.source, a.target, a.degree + b.degree, cols)


def oracle_obstruction(cx: Complex, lifts) -> GradedMap:
    """O_n = -sum_{i=1}^{n} d_i o d_{n-i+1}, summed afresh over every index
    pair, with no ledger, cache or nonzero index in between."""
    n = len(lifts)
    acc = GradedMap.zero(cx.module, degree=-2)
    for i in range(1, n + 1):
        a, b = lifts[i - 1], lifts[n - i]
        if a and b:
            acc = acc + compose(a, b)
    return -acc


def oracle_relations(cx: Complex, lifts) -> list[bool]:
    """delta(d_{k+1}) = d d_{k+1} + d_{k+1} d = O_k for each k, every O_k
    from its own full sum."""
    return [
        compose(cx.d, m) + compose(m, cx.d) == oracle_obstruction(cx, lifts[:k])
        for k, m in enumerate(lifts)
    ]


def oracle_series_mul(a, b):
    """The truncated product of two series: coefficient k is
    sum_{i=0}^{k} a_i o b_{k-i}, every pair composed afresh with the plain
    ``compose``, with no index or cache in between."""
    from dgdeform import MapSeries

    degree = a.degree + b.degree
    out = []
    for k in range(a.order + 1):
        acc = GradedMap.zero(a.module, degree=degree)
        for i in range(k + 1):
            acc = acc + compose(a.coeffs[i], b.coeffs[k - i])
        out.append(acc)
    return MapSeries(out)


def elementary(module: GradedModule, i: str, j: str, c=1, target=None) -> GradedMap:
    """The map sending x_j to c * y_i, y_i in ``target`` (``module`` by
    default), and every other generator to 0."""
    target = module if target is None else target
    degree = target.degree_of(target.index_of(i)) - module.degree_of(module.index_of(j))
    return GradedMap.from_entries(module, degree, [(j, i, c)], target)


def gauge_factor(phi: GradedMap, stage: int, order: int):
    """The automorphism Id - t^stage phi (stage >= 1) as a series,
    truncated at ``order``."""
    from dgdeform import MapSeries

    series = [GradedMap.identity(phi.source)] + [GradedMap.zero(phi.source)] * order
    if stage <= order:
        series[stage] = -phi
    return MapSeries(series)


def count_products(monkeypatch) -> list[int]:
    """Record, for every ``_Products.left`` and ``.right`` call from now on,
    the number of entry products it forms: an entry of the new operand times
    an entry of a held map that it meets, within the order limit."""
    from dgdeform.gmap import _Products

    counts = []
    left, right = _Products.left, _Products.right

    def counting_left(self, i, a):
        counts.append(sum(len(col) for m, col in a.items()
                          for j, _, _ in self.entries.get(m, ()) if i + j <= self.limit))
        left(self, i, a)

    def counting_right(self, j, b):
        counts.append(sum(len(a_col) for col in b.values() for m in col
                          for i, a_col in self.columns.get(m, ()) if i + j <= self.limit))
        right(self, j, b)

    monkeypatch.setattr(_Products, "left", counting_left)
    monkeypatch.setattr(_Products, "right", counting_right)
    return counts


def compose_callers(monkeypatch, functions) -> list[str]:
    """Record the name of each of ``functions`` on the call stack of every
    ``GradedMap.compose`` call from now on."""
    watched = {f.__code__: f.__qualname__ for f in functions}
    callers = []
    compose = GradedMap.compose

    def recording(self, other):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in watched:
                callers.append(watched[frame.f_code])
            frame = frame.f_back
        return compose(self, other)

    monkeypatch.setattr(GradedMap, "compose", recording)
    return callers


# -- random instances -----------------------------------------------------------


def random_scalar(rng: random.Random, field: FieldSpec, nonzero=False):
    if field.modulus is None:
        num = rng.randint(-4, 4)
        if nonzero and num == 0:
            num = 1
        return field.scalar(num, rng.randint(1, 3))
    v = rng.randint(1 if nonzero else 0, field.modulus - 1)
    return field.scalar(v)


def random_complex(
    rng: random.Random,
    field: FieldSpec,
    total_dim: int,
    acyclic: bool = False,
    singleton_degrees=None,
    name: str = "R",
    top: int = 4,
) -> Complex:
    """A random direct sum of two-term exact pairs and zero-differential
    singletons; d^2 = 0 holds by construction.  A pair spans degrees q and
    q - 1 with q in [-2, top]; a singleton's degree is in [-2, top]."""
    basis: list[tuple[str, int]] = []
    entries = []
    count = 0
    while count < total_dim:
        if count + 1 < total_dim and (acyclic or rng.random() < 0.6):
            deg = rng.randint(-2, top)
            a, b = f"e{count}", f"e{count + 1}"
            basis.append((a, deg))
            basis.append((b, deg - 1))
            entries.append((a, b, random_scalar(rng, field, nonzero=True)))
            count += 2
        else:
            pool = singleton_degrees if singleton_degrees is not None else range(-2, top + 1)
            basis.append((f"e{count}", rng.choice(list(pool))))
            count += 1
    module = GradedModule(name, field, basis)
    return Complex(module, GradedMap.from_entries(module, -1, entries))


def conjugated(rng: random.Random, cx: Complex) -> Complex:
    """cx with d replaced by g d g^{-1}, for g a product of 2 dim random
    transvections Id + c E_ab between distinct basis elements of one degree:
    an isomorphic complex whose differential and cycles fill in."""
    module, d = cx.module, cx.d
    for _ in range(2 * module.dim):
        q = rng.choice(sorted(module.degrees()))
        names = [n for n, p in module.basis if p == q]
        if len(names) < 2:
            continue
        a, b = rng.sample(names, 2)
        e = elementary(module, a, b, random_scalar(rng, cx.field, nonzero=True))
        one = GradedMap.identity(module)
        d = compose(compose(one + e, d), one - e)
    return Complex(module, d)


def shuffled(rng: random.Random, cx: Complex) -> Complex:
    """cx with its generators declared in a random order, as
    ``perfbench.gen.pair_complex`` declares them: ``random_complex`` puts
    each pair's two generators next to each other."""
    module = cx.module
    basis = list(module.basis)
    rng.shuffle(basis)
    out = GradedModule(module.name, cx.field, basis)
    entries = [(module.name_of(j), module.name_of(i), c) for j, i, c in cx.d.entries()]
    return Complex(out, GradedMap.from_entries(out, -1, entries))


def random_cochain(rng: random.Random, cx: Complex, p: int, density: float = 0.5,
                   target: Complex | None = None):
    """A random p-cochain (possibly zero) on the complex, or on the pair
    (cx, target)."""
    target = target if target is not None else cx
    pairs = cochain_basis(cx.module, target.module, p)
    entries = []
    for j, i in pairs:
        if rng.random() < density:
            c = random_scalar(rng, cx.field)
            if c:
                entries.append((cx.module.name_of(j), target.module.name_of(i), c))
    return GradedMap.from_entries(cx.module, -p, entries, target=target.module)


def random_cocycle(rng: random.Random, cx: Complex, p: int = 1, target: Complex | None = None):
    """A random combination of the canonical cocycle basis in C^p, on the
    complex or on the pair (cx, target)."""
    target = target if target is not None else cx
    dom, _, rows, _ = _delta_matrix(cx, target, p)
    kernel = linalg._System(rows, len(dom), cx.field)
    kernel.reduce()
    entries = []
    for den, vec in kernel.nullspace(range(len(dom))):
        c = random_scalar(rng, cx.field)
        if not c:
            continue
        for col, v in vec.items():
            j, i = dom[col]
            entries.append((cx.module.name_of(j), target.module.name_of(i),
                            c * cx.field.scalar(v, den)))
    return GradedMap.from_entries(cx.module, -p, entries, target=target.module)


def random_gauged(rng: random.Random, d_t, stages):
    """d_t conjugated by Id - t^r phi_r for each r in ``stages``, in order,
    through the public ``gauge_transform``; each random phi_r of degree 0 has
    delta(phi_r) != 0, or is the last of 20 draws."""
    from dgdeform import gauge_transform

    cx = Complex(d_t.module, d_t.coeffs[0])
    for r in stages:
        for _ in range(20):
            phi = random_cochain(rng, cx, 0, 0.6)
            if Cochain(0, phi, cx).coboundary().mapping:
                break
        d_t = gauge_transform(d_t, gauge_factor(phi, r, d_t.order))
    return d_t


def random_document(rng: random.Random):
    """A random well-formed .dgm document (no deformation block)."""
    from dgdeform import Document

    field = rng.choice([QQ, GF(2), GF(5), GF(7)])
    dim = rng.randint(1, 8)
    module = GradedModule(
        rng.choice(["V", "M", "W"]), field,
        [(f"e{i}", rng.randint(-3, 3)) for i in range(dim)],
    )
    maps = {}
    for m_idx in range(rng.randint(0, 3)):
        degree = rng.randint(-2, 2)
        entries = []
        for j in range(dim):
            for i in range(dim):
                if module.degree_of(i) != module.degree_of(j) + degree:
                    continue
                if rng.random() < 0.4:
                    c = random_scalar(rng, field)
                    if c:
                        entries.append((module.name_of(j), module.name_of(i), c))
        maps[f"m{m_idx}"] = GradedMap.from_entries(module, degree, entries)
    return Document(field, module, maps, [])
