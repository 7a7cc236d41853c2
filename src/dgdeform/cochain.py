"""The cochain complex C*(V;M), its cohomology, and coboundary solving.

A p-cochain is a map V -> M of degree -p.  The coboundary is

    delta(f) = d_M f - (-1)^p f d_V,

so delta has degree +1 on cochains and delta^2 = 0.  Every cobounding
question reduces to an exact sparse linear solve in the canonical cochain
basis of elementary operators, ordered lexicographically by
(source declaration index, target declaration index).

``cohomology`` reduces delta^p once.  Over a field H^p(V;M) is
sum_q Hom(H_q V, H_{q-p} M), so its dimension is the Kunneth sum of the
homology dims, read from the ranks of d_V and d_M, and a cocycle's class is
given by its coordinates lambda_t(f(z_s)) against cycles z_s of V and
functionals lambda_t of M (``_homology_classes``); no elimination of
delta^{p-1} is needed.

Over Q the work runs in integers, from each complex's differential, kept
once as integer columns over one denominator (``Complex._integer_d``),
through delta's rows, the elimination and the class coordinates, to the
solver's two delta checks, which recompute delta from those columns.  A
``Fraction`` is built only for what is returned: the dim_h representatives
of ``cohomology``, the values of a solution, the witness row and its
residual, and the ``Scalar``s of a witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import (
    BadDegree,
    DegreeMismatch,
    MalformedCochain,
    ModuleMismatch,
    NotACocycle,
    NotADifferential,
    PostconditionFailed,
)
from .field import Scalar
from .gmap import GradedMap
from .graded import GradedModule
from .linalg import LinearSolution, _fractions, _integral, _System


@dataclass(frozen=True)
class Complex:
    """A graded module together with a differential on it."""

    module: GradedModule
    d: GradedMap

    def __post_init__(self):
        if self.d.source != self.module or self.d.target != self.module:
            raise NotADifferential("the differential must be an endomorphism of the module")
        try:
            ok = self.d.is_differential()
        except BadDegree as exc:
            raise NotADifferential(str(exc)) from None
        if not ok:
            raise NotADifferential("d squared is not zero")

    # the dataclass would add a hash of the fields, and GradedMap has none
    __hash__ = None

    @property
    def field(self):
        return self.module.field

    @cached_property
    def _integer_d(self) -> tuple[int, dict[int, dict[int, int]]]:
        """d as integer columns over one denominator: (D, {j: {k: n}}) with
        d[k, j] = n / D; over GF(p) D is 1 and the columns are d's own."""
        return _integer_columns(self.d)

    @cached_property
    def _integer_rows(self) -> dict[int, list[tuple[int, int]]]:
        """The rows of ``_integer_d``: {j: [(l, n)]} with d[j, l] = n / D."""
        rows: dict[int, list[tuple[int, int]]] = {}
        for l, col in self._integer_d[1].items():
            for j, coeff in col.items():
                rows.setdefault(j, []).append((l, coeff))
        return rows

    # H(V) and H(M)* serve every p, so each complex computes them once
    @cached_property
    def _cycles(self):
        return _homology_classes(self)

    @cached_property
    def _functionals(self):
        return _homology_classes(self, dual=True)


class Cochain:
    """A degree-p cochain on a pair of complexes (map degree -p)."""

    __slots__ = ("p", "mapping", "source", "target")

    def __init__(self, p: int, mapping: GradedMap, source: Complex, target: Complex | None = None):
        target = target if target is not None else source
        if mapping.source != source.module or mapping.target != target.module:
            raise MalformedCochain("underlying map does not match the complexes")
        if mapping and mapping.degree != -p:
            raise MalformedCochain(
                f"a {p}-cochain must have map degree {-p}, got {mapping.degree}"
            )
        self.p = p
        self.mapping = mapping
        self.source = source
        self.target = target

    def coboundary(self) -> "Cochain":
        """delta(f) = d_M f - (-1)^p f d_V, a (p+1)-cochain."""
        _check_differentials(self.source, self.target)
        df = self.target.d.compose(self.mapping)
        fd = self.mapping.compose(self.source.d)
        m = df + fd if self.p % 2 else df - fd
        return Cochain(self.p + 1, m, self.source, self.target)

    def is_cocycle(self) -> bool:
        return self.coboundary().mapping.is_zero()

    def is_zero(self) -> bool:
        return self.mapping.is_zero()

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.source != other.source or self.target != other.target or self.p != other.p:
            raise MalformedCochain("cannot add cochains of different degrees or complexes")
        return Cochain(self.p, self.mapping + other.mapping, self.source, self.target)

    def __neg__(self) -> "Cochain":
        return Cochain(self.p, -self.mapping, self.source, self.target)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.p == other.p
            and self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    __hash__ = None

    def render(self) -> str:
        return self.mapping.render()

    def __repr__(self):
        return f"Cochain(p={self.p}, {self.mapping.render()})"


def _check_differentials(source: Complex, target: Complex) -> None:
    # raising the cochain degree by 1 pins both differentials to degree -1
    for d in (source.d, target.d):
        if d and d.degree != -1:
            raise BadDegree(
                "the coboundary operator needs degree -1 differentials; "
                f"got degree {d.degree}"
            )


def _integer_columns(m: GradedMap) -> tuple[int, dict[int, dict[int, int]]]:
    """The columns of ``m`` as integers over one denominator (1 over GF(p))."""
    if m.source.field.modulus is not None:
        return 1, m.columns
    den, cols = _integral(list(m.columns.values()))
    return den, dict(zip(m.columns, cols))


def _delta_terms(source: Complex, target: Complex, p: int):
    """(D, a, N_M, b, N_V) with D delta^p(f) = a N_M f + b f N_V, for
    delta^p(f) = d_M f - (-1)^p f d_V: N_M = D_M d_M as integer columns and
    N_V = D_V d_V as integer rows (``Complex._integer_rows``), D = lcm(D_V,
    D_M), a = D / D_M and b = -(-1)^p D / D_V."""
    (d_v, _), (d_m, n_m) = source._integer_d, target._integer_d
    den = lcm(d_v, d_m)
    b = den // d_v
    return den, den // d_m, n_m, (b if p % 2 else -b), source._integer_rows


def _integer_coboundary(source: Complex, target: Complex, p: int,
                        cols: dict[int, dict[int, int]], den: int):
    """delta(f) = d_M f - (-1)^p f d_V for the p-cochain f = cols / den,
    as (integer columns, denominator), in integers from the differentials'
    integer columns and rows; only f's columns and the entries of d_V in
    their rows are visited, and zeros are not stored."""
    _check_differentials(source, target)
    mod = source.field.modulus
    scale, a, n_m, b, n_v = _delta_terms(source, target, p)
    out: dict[int, dict[int, int]] = {}
    for j, col in cols.items():
        acc = out.setdefault(j, {})  # column j of d_M f: sum_i f[i, j] * (column i of d_M)
        for i, c in col.items():
            c *= a
            for k, e in n_m.get(i, {}).items():
                acc[k] = acc.get(k, 0) + c * e
        for l, e in n_v.get(j, ()):  # column l of f d_V gets d_V[j, l] * (column j of f)
            e *= b
            acc = out.setdefault(l, {})
            for i, c in col.items():
                acc[i] = acc.get(i, 0) + e * c
    if mod is None:
        out = {j: kept for j, col in out.items() if (kept := {k: v for k, v in col.items() if v})}
    else:
        out = {j: kept for j, col in out.items()
               if (kept := {k: w for k, v in col.items() if (w := v % mod)})}
    return out, den * scale


def _same_columns(a: dict[int, dict[int, int]], da: int,
                  b: dict[int, dict[int, int]], db: int) -> bool:
    """a / da == b / db for integer columns without stored zeros."""
    if a.keys() != b.keys():
        return False
    for j, col in a.items():
        other = b[j]
        if col.keys() != other.keys() or any(v * db != other[k] * da for k, v in col.items()):
            return False
    return True


def _check_pair(source: Complex, target: Complex) -> None:
    if source.field != target.field:
        raise ModuleMismatch("source and target complexes have different fields")
    _check_differentials(source, target)


def coboundary(f: Cochain) -> Cochain:
    return f.coboundary()


def is_cocycle(f: Cochain) -> bool:
    return f.is_cocycle()


def cochain_basis(v: GradedModule, m: GradedModule, p: int) -> list[tuple[int, int]]:
    """Canonical basis of C^p(V;M): pairs (source index j, target index i)
    with |x_i| = |x_j| - p, lexicographic in (j, i)."""
    by_degree: dict[int, list[int]] = {}
    for i, (_, q) in enumerate(m.basis):
        by_degree.setdefault(q, []).append(i)
    return [(j, i) for j, (_, q) in enumerate(v.basis) for i in by_degree.get(q - p, ())]


def _cochain_from_coords(
    p: int, basis: list[tuple[int, int]], coords: dict[int, Fraction | int],
    source: Complex, target: Complex,
) -> Cochain:
    """The p-cochain with raw coordinates ``coords`` in ``basis``; the
    solver's coordinates are canonical and nonzero, and every basis pair is
    homogeneous of degree -p, so the map is in normal form as built."""
    cols: dict[int, dict[int, Fraction | int]] = {}
    for c, value in coords.items():
        j, i = basis[c]
        cols.setdefault(j, {})[i] = value
    return Cochain(p, GradedMap._of(source.module, target.module, -p, cols), source, target)


def _delta_matrix(source: Complex, target: Complex, p: int):
    """Rows of the matrix of delta^p in the canonical cochain bases.

    Returns (domain basis of C^p, codomain index, rows, den): the index maps
    each pair of the codomain basis of C^{p+1} to its row, in basis order,
    and rows[r][c] / den is the coefficient of codomain pair r in delta of
    domain pair c, with rows[r][c] an integer (a residue over GF(p), where
    den is 1).  The entries come straight from the differentials' integer
    columns: with E_ij sending x_j to y_i,

        delta(E_ij) = sum_k d_M[k,i] E_kj - (-1)^p sum_l d_V[j,l] E_il.

    The two sums never meet on one pair, since d has no diagonal entries.
    """
    dom = cochain_basis(source.module, target.module, p)
    cod = cochain_basis(source.module, target.module, p + 1)
    if dom:
        _check_pair(source, target)
    cod_index = {pair: r for r, pair in enumerate(cod)}
    den, a, n_m, b, n_v = _delta_terms(source, target, p)
    mod = source.field.modulus
    d_vt = {j: [(l, b * coeff if mod is None else b * coeff % mod) for l, coeff in row]
            for j, row in n_v.items()}  # j -> [(l, -(-1)^p d_V[j,l] * den)]
    if a != 1:
        n_m = {i: {k: a * coeff for k, coeff in col.items()} for i, col in n_m.items()}
    rows: list[dict[int, int]] = [{} for _ in cod]
    for c, (j, i) in enumerate(dom):
        for k, coeff in n_m[i].items() if i in n_m else ():
            rows[cod_index[j, k]][c] = coeff
        for l, coeff in d_vt.get(j, ()):
            rows[cod_index[l, i]][c] = coeff
    return dom, cod_index, rows, den


def _homology_classes(cx: Complex, dual: bool = False):
    """Cycles z_s of d (of d^T when ``dual``) whose classes are a basis of
    its homology, as integer vectors (each a nonzero multiple of a cycle),
    with the homology dims {degree q: h_q}.

    With ``dual`` the cycles are functionals lambda_t on the module with
    lambda_t o d = 0, a basis of H(cx)*.  Two eliminations over the whole
    of d: its kernel, then an echelon pass over [columns of d | kernel
    vectors], whose pivots right of d are the kernel vectors independent
    modulo the image; a nonzero multiple of a column keeps both.
    h_q = dim_q - rank d_q - rank d_{q+1} is read from the pivots of the
    first, not from a kernel basis.
    """
    module, n = cx.module, cx.module.dim
    _, cols = cx._integer_d
    if dual:  # row j of d^T is column j of d
        rows = [dict(cols.get(j, ())) for j in range(n)]
    else:
        rows = [{} for _ in range(n)]
        for j, col in cols.items():
            for k, coeff in col.items():
                rows[k][j] = coeff
    kernel_system = _System(rows, n, cx.field)
    kernel_system.reduce()
    kernel = [vec for _, vec in kernel_system.nullspace()]
    # a column of degree q lands in degree q + shift
    shift = 1 if dual else -1
    rank = Counter(module.degree_of(c) for c, _ in kernel_system.pivots)
    h = {q: dim - rank[q] - rank[q - shift]
         for q, dim in Counter(q for _, q in module.basis).items()}
    for s, vec in enumerate(kernel):
        for k, coeff in vec.items():
            rows[k][n + s] = coeff
    classes = _System(rows, n + len(kernel), cx.field)
    classes.reduce(echelon=True)
    return [kernel[c - n] for c, _ in classes.pivots if c >= n], h


@dataclass
class CohomologyResult:
    """Dimensions and representatives of H^p(V;M)."""

    p: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_h: int
    representatives: list[Cochain]


def cohomology(source: Complex, target: Complex | None = None, p: int = 0) -> CohomologyResult:
    """H^p = ker(delta^p) / im(delta^{p-1}), with deterministic representatives.

    delta^p is reduced once, for its canonical kernel basis v_f (one per
    free column f, integers over a denominator L_f).  Over a field,
    Z^p -> sum_q Hom(H_q V, H_{q-p} M) is onto with kernel B^p, so dim_h is
    the Kunneth sum of h_q(V) * h_{q-p}(M), with each h_q from the ranks of
    d, and dim_coboundaries = dim_cocycles - dim_h.  A cocycle's class has
    the coordinates lambda_t(f(z_s)), for the cycles z_s and the functionals
    lambda_t of ``_homology_classes``.  The class-coordinate matrix has a row
    per class slot (s, t) and a column per v_f; the representatives are the
    v_f at the pivot columns of its echelon form: the v_f, in increasing f,
    whose coordinates are independent of those of every earlier v_f, which
    are the v_f independent modulo the image.  Independence does not change
    when a vector is scaled, so the coordinates are taken in integers on
    L_f v_f, z_s and lambda_t as they are, and only the dim_h
    representatives become Fractions.
    """
    target = target if target is not None else source
    if not target.module.degrees().isdisjoint(q - p + 1 for q in source.module.degrees()):
        _check_pair(source, target)  # H^p reads C^{p-1} too, and it is nonempty
    dom_p, _, rows_p, _ = _delta_matrix(source, target, p)
    field = source.field
    delta = _System(rows_p, len(dom_p), field)  # the kernel does not see the denominator
    delta.reduce()
    kernel = delta.nullspace()
    dim_cocycles = len(kernel)

    cycles, h_v = source._cycles
    functionals, h_m = target._functionals
    dim_h = sum(h * h_m.get(q - p, 0) for q, h in h_v.items())

    def by_index(vectors):  # index -> [(s, entry of vector s)]
        at: dict[int, list[tuple[int, int]]] = {}
        for s, vec in enumerate(vectors):
            for k, coeff in vec.items():
                at.setdefault(k, []).append((s, coeff))
        return at

    z_at, lam_at = by_index(cycles), by_index(functionals)
    coords: dict[tuple[int, int], dict[int, int]] = {}  # (s, t) -> {f: lambda_t(v_f(z_s))}
    for f, (_, vec) in enumerate(kernel):
        for c, a in vec.items():
            j, i = dom_p[c]
            lams = lam_at.get(i)
            if lams is None:
                continue
            for s, z in z_at.get(j, ()):
                az = a * z
                for t, lam in lams:
                    row = coords.setdefault((s, t), {})
                    row[f] = row.get(f, 0) + az * lam
    norm = field.norm
    rows = [{f: w for f, v in row.items() if (w := norm(v))} for row in coords.values()]
    classes = _System(rows, dim_cocycles, field)
    classes.reduce(echelon=True)
    representatives = []
    for f, _ in classes.pivots:
        den, vec = kernel[f]
        coords = vec if field.modulus is not None else _fractions(vec, den)
        representatives.append(_cochain_from_coords(p, dom_p, coords, source, target))
    if len(representatives) != dim_h:
        raise PostconditionFailed(
            f"found {len(representatives)} representatives for a {dim_h}-dimensional H^{p}"
        )
    return CohomologyResult(p, dim_cocycles, dim_cocycles - dim_h, dim_h, representatives)


@dataclass
class InfeasibilityWitness:
    """An exact certificate that delta(f) = g has no solution.

    ``combination`` lists block equations, labelled by (source name, target
    name), whose weighted sum has zero left side but the nonzero ``residual``
    on the right side.
    """

    combination: list[tuple[str, str, Scalar]]
    residual: Scalar

    @property
    def source_names(self) -> set[str]:
        return {src for src, _, _ in self.combination}

    def render(self) -> str:
        terms = " + ".join(
            (f"({src} -> {tgt})" if c == c.field.one else f"{c}*({src} -> {tgt})")
            for src, tgt, c in self.combination
        )
        return f"{terms} reduces to 0 = {self.residual}"


@dataclass
class Solved:
    cochain: Cochain


@dataclass
class Infeasible:
    witness: InfeasibilityWitness


class CoboundarySolver:
    """Solves delta(f) = g for p-cochains f on one pair of complexes.

    delta^p is assembled and reduced once, keeping the row transform T; each
    ``solve`` is then T applied to g plus a read-off, so a ladder of solves
    on one complex pays for a single elimination.  Pivots depend only on
    delta^p, so every solution and witness equals the one-shot result.
    """

    def __init__(self, source: Complex, target: Complex, p: int):
        self.source = source
        self.target = target
        self.p = p
        self.dom, self._cod_index, rows, den = _delta_matrix(source, target, p)
        self._system = _System(rows, len(self.dom), source.field, den, trace=True)
        self._system.reduce()

    def solve(self, g: Cochain) -> Solved | Infeasible:
        """Find f with delta(f) = g exactly, or certify that none exists.

        The solution is the canonical reduced-row-echelon particular solution
        (free variables zero) in the canonical cochain basis.  g must be a
        cocycle; non-cocycles are rejected outright.  Both checks, delta(g) = 0
        on the way in and delta(f) = g on the way out, recompute delta in
        integers from the differentials' integer columns, not from the rows
        of delta^p.
        """
        if g.p != self.p + 1 or g.source != self.source or g.target != self.target:
            raise MalformedCochain(
                f"this solver takes {self.p + 1}-cochains on its own complexes"
            )
        source, target = self.source, self.target
        den, cols = _integer_columns(g.mapping)
        if _integer_coboundary(source, target, g.p, cols, den)[0]:
            raise NotACocycle("right-hand side is not a cocycle")
        rhs = {self._cod_index[j, i]: coeff for j, col in cols.items() for i, coeff in col.items()}
        outcome = self._system.solve(rhs, den)
        if isinstance(outcome, LinearSolution):
            f = _cochain_from_coords(self.p, self.dom, outcome.values, source, target)
            f_den, f_cols = _integer_columns(f.mapping)
            delta, delta_den = _integer_coboundary(source, target, self.p, f_cols, f_den)
            if not _same_columns(delta, delta_den, cols, den):
                raise PostconditionFailed("the solver's answer f does not satisfy delta(f) = g")
            return Solved(f)
        field = source.field
        cod = list(self._cod_index)
        combo = []
        for r in sorted(outcome.combination):
            j, i = cod[r]
            combo.append(
                (source.module.name_of(j), target.module.name_of(i),
                 Scalar(field, outcome.combination[r]))
            )
        return Infeasible(InfeasibilityWitness(combo, Scalar(field, outcome.residual)))


def solve_coboundary(g: Cochain) -> Solved | Infeasible:
    """Find f with delta(f) = g exactly, or certify that none exists; see
    :meth:`CoboundarySolver.solve`."""
    return CoboundarySolver(g.source, g.target, g.p - 1).solve(g)


def noncobounding_certificate(d: GradedMap, g: Cochain | GradedMap) -> bool:
    """Truncation-independent sufficient test that a 2-cochain cannot cobound.

    For any 1-cochain f, the block of delta(f) = d f + f d on sources of
    degree p is fed only through d's blocks V_p -> V_{p-1} and
    V_{p-1} -> V_{p-2}.  If both vanish while g has a nonzero block at p,
    no f can satisfy delta(f) = g, on this truncation or any larger one.
    """
    g_map = g.mapping if isinstance(g, Cochain) else g
    if d.degree != -1 and not d.is_zero():
        raise BadDegree("certificate requires a degree -1 differential")
    if not g_map.is_zero() and g_map.degree != -2:
        raise DegreeMismatch("certificate applies to 2-cochains (map degree -2)")
    return _certificate_degree(d, g_map) is not None


def _certificate_degree(d: GradedMap, g_map: GradedMap) -> int | None:
    d_support = d.block_support()
    for p in sorted(g_map.block_support()):
        if p not in d_support and (p - 1) not in d_support:
            return p
    return None
