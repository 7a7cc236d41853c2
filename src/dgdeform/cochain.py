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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
from .linalg import LinearSolution, _integral, _System, nullspace_sparse


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
    for i in range(m.dim):
        by_degree.setdefault(m.degree_of(i), []).append(i)
    return [(j, i) for j in range(v.dim) for i in by_degree.get(v.degree_of(j) - p, ())]


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

    Returns (domain basis of C^p, codomain index, rows): the index maps each
    pair of the codomain basis of C^{p+1} to its row, in basis order, and
    rows[r][c] is the raw coefficient (see :mod:`linalg`) of codomain pair r
    in delta of domain pair c.
    The entries come straight from the differentials: with E_ij sending x_j
    to y_i,

        delta(E_ij) = sum_k d_M[k,i] E_kj - (-1)^p sum_l d_V[j,l] E_il.

    The two sums never meet on one pair, since d has no diagonal entries.
    """
    dom = cochain_basis(source.module, target.module, p)
    cod = cochain_basis(source.module, target.module, p + 1)
    if dom:
        _check_pair(source, target)
    cod_index = {pair: r for r, pair in enumerate(cod)}
    d_m = target.d.columns  # i -> column {k: d_M[k,i]}
    norm = source.field.norm
    d_v: dict[int, list[tuple[int, Fraction | int]]] = {}  # j -> [(l, -(-1)^p d_V[j,l])]
    for l, col in source.d.columns.items():
        for j, coeff in col.items():
            d_v.setdefault(j, []).append((l, coeff if p % 2 else norm(-coeff)))
    rows: list[dict[int, Fraction | int]] = [{} for _ in cod]
    for c, (j, i) in enumerate(dom):
        for k, coeff in d_m[i].items() if i in d_m else ():
            rows[cod_index[j, k]][c] = coeff
        for l, coeff in d_v.get(j, ()):
            rows[cod_index[l, i]][c] = coeff
    return dom, cod_index, rows


def _homology_classes(cx: Complex, dual: bool = False):
    """Cycles z_s of d (of d^T when ``dual``) whose classes are a basis of
    its homology, with the homology dims {degree q: h_q}.

    With ``dual`` the cycles are functionals lambda_t on the module with
    lambda_t o d = 0, a basis of H(cx)*.  Two eliminations over the whole
    of d: its kernel, then an echelon pass over [columns of d | kernel
    vectors], whose pivots right of d are the kernel vectors independent
    modulo the image.  h_q = dim_q - rank d_q - rank d_{q+1} is read from
    the pivots of the first, not from a kernel basis.
    """
    module, n = cx.module, cx.module.dim
    if dual:  # row j of d^T is column j of d
        rows = [dict(cx.d.columns.get(j, ())) for j in range(n)]
    else:
        rows = [{} for _ in range(n)]
        for j, col in cx.d.columns.items():
            for k, coeff in col.items():
                rows[k][j] = coeff
    kernel_system = _System(rows, n, cx.field)
    kernel_system.reduce()
    kernel = kernel_system.nullspace()
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
    free column f, ``nullspace_sparse``).  Over a field, Z^p -> sum_q
    Hom(H_q V, H_{q-p} M) is onto with kernel B^p, so dim_h is the Kunneth
    sum of h_q(V) * h_{q-p}(M), with each h_q from the ranks of d, and
    dim_coboundaries = dim_cocycles - dim_h.  A cocycle's class has the
    coordinates lambda_t(f(z_s)), for the cycles z_s and the functionals
    lambda_t of ``_homology_classes``.  The class-coordinate matrix has a row
    per class slot (s, t) and a column per v_f; the representatives are the
    v_f at the pivot columns of its echelon form: the v_f, in increasing f,
    whose coordinates are independent of those of every earlier v_f, which
    are the v_f independent modulo the image.
    """
    target = target if target is not None else source
    if not target.module.degrees().isdisjoint(q - p + 1 for q in source.module.degrees()):
        _check_pair(source, target)  # H^p reads C^{p-1} too, and it is nonempty
    dom_p, _, rows_p = _delta_matrix(source, target, p)
    field = source.field
    kernel = nullspace_sparse(rows_p, len(dom_p), field)
    dim_cocycles = len(kernel)

    cycles, h_v = source._cycles
    functionals, h_m = target._functionals
    dim_h = sum(h * h_m.get(q - p, 0) for q, h in h_v.items())

    # over Q each vector is scaled to integers: a nonzero multiple keeps independence
    integral = (lambda vec: _integral(vec)[1]) if field.modulus is None else (lambda vec: vec)

    def by_index(vectors):  # index -> [(s, integer entry of vector s)]
        at: dict[int, list[tuple[int, int]]] = {}
        for s, vec in enumerate(vectors):
            for k, coeff in integral(vec).items():
                at.setdefault(k, []).append((s, coeff))
        return at

    z_at, lam_at = by_index(cycles), by_index(functionals)
    coords: dict[tuple[int, int], dict[int, int]] = {}  # (s, t) -> {f: lambda_t(v_f(z_s))}
    for f, vec in enumerate(kernel):
        for c, a in integral(vec).items():
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
    representatives = [
        _cochain_from_coords(p, dom_p, kernel[f], source, target) for f, _ in classes.pivots
    ]
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
        self.dom, self._cod_index, rows = _delta_matrix(source, target, p)
        self._system = _System(rows, len(self.dom), source.field, trace=True)
        self._system.reduce()

    def solve(self, g: Cochain) -> Solved | Infeasible:
        """Find f with delta(f) = g exactly, or certify that none exists.

        The solution is the canonical reduced-row-echelon particular solution
        (free variables zero) in the canonical cochain basis.  g must be a
        cocycle; non-cocycles are rejected outright.
        """
        if g.p != self.p + 1 or g.source != self.source or g.target != self.target:
            raise MalformedCochain(
                f"this solver takes {self.p + 1}-cochains on its own complexes"
            )
        if not g.is_cocycle():
            raise NotACocycle("right-hand side is not a cocycle")
        rhs = {
            self._cod_index[j, i]: coeff
            for j, col in g.mapping.columns.items() for i, coeff in col.items()
        }
        outcome = self._system.solve(rhs)
        if isinstance(outcome, LinearSolution):
            f = _cochain_from_coords(self.p, self.dom, outcome.values, self.source, self.target)
            if f.coboundary() != g:
                raise PostconditionFailed("the solver's answer f does not satisfy delta(f) = g")
            return Solved(f)
        field = self.source.field
        cod = list(self._cod_index)
        combo = []
        for r in sorted(outcome.combination):
            j, i = cod[r]
            combo.append(
                (self.source.module.name_of(j), self.target.module.name_of(i),
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
