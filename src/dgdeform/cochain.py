"""The cochain complex C*(V;M), its cohomology, and coboundary solving.

A p-cochain is a map V -> M of degree -p.  The coboundary is

    delta(f) = d_M f - (-1)^p f d_V,

so delta has degree +1 on cochains and delta^2 = 0.  Cochains are written
in the canonical basis of elementary operators, ordered lexicographically by
(source declaration index, target declaration index).

Nothing here builds delta^p.  Over a field H^p(V;M) is
sum_q Hom(H_q V, H_{q-p} M), so ``cohomology`` takes its representatives
from the functionals of H(V)* and the cycles of H(M)
(``_homology_classes``), and its dims from the homology dims and the ranks
of d_V and d_M.  The same splitting decides a solve: a cocycle g cobounds
exactly when its class coordinates lambda(g(z)), for the cycles z of H(V)
and the functionals lambda of H(M)*, are zero, and a nonzero one is the
witness z (x) lambda.  A cocycle with a zero class is solved by the
homotopies h of d_V and d_M (``Complex._homotopy``), with d h d = d.  Each
complex reduces the rows of d once, traced (``Complex._elimination``), and
its kernel vectors and its h both read that record.  ``solve_coboundary``
reads the class first: about half of its one-shot right sides do not
cobound, and those read no homotopy.  The ladder's
``_solve_homotopy_first`` tries the homotopy first, since its right sides
almost always cobound.  Both give the same answer, and each order is
slower on the other's traffic (the README has the numbers).

The work runs in integers over one denominator, from each complex's
differential, kept once as integer columns (``Complex._integer_d``),
through the d^2 check, the eliminations, the homotopy and the homology
vectors, to the class coordinates and the solutions.  Every elimination of
d runs in the module's own indices.  delta has two forms, each with its own
job: ``_integer_coboundary`` computes delta(f) from those columns for
``Cochain.coboundary`` and every step and check of a solve, and the ladder
of :mod:`deform` reads delta(d_k) from its own sums of products.  This
module never asks which field it runs over: ``linalg._integral`` reads
values in, ``linalg._rational`` reads a coboundary, a solution and the
representatives of ``cohomology`` back out, ``FieldSpec.norm`` is the zero
test on integers, and ``FieldSpec.scalar`` gives the values of a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .gmap import GradedMap, _combine
from .graded import GradedModule, _add_terms, _scale_terms
from .linalg import _integral, _rational, _System


@dataclass(frozen=True)
class Complex:
    """A graded module together with a differential on it."""

    module: GradedModule
    d: GradedMap

    def __post_init__(self):
        """d is an endomorphism of degree +1 or -1 with d^2 = 0, checked
        column by column from ``_integer_d`` (else NotADifferential)."""
        d, norm = self.d, self.field.norm
        if d.source != self.module or d.target != self.module:
            raise NotADifferential("the differential must be an endomorphism of the module")
        if d and d.degree not in (1, -1):
            raise NotADifferential(f"a differential has degree +1 or -1, not {d.degree}")
        cols = self._integer_d[1]
        for col in cols.values():
            if any(map(norm, _combine(col, cols).values())):
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
        return _integral(self.d.columns, self.field)

    @cached_property
    def _integer_rows(self) -> dict[int, dict[int, int]]:
        """The rows of ``_integer_d``: {j: {l: n}} with d[j, l] = n / D."""
        return _transpose(self._integer_d[1])

    # H(V)* and H(M) serve every p, so each complex computes them once
    @cached_property
    def _cycles(self):
        return _homology_classes(self)

    @cached_property
    def _functionals(self):
        return _homology_classes(self, dual=True)

    @cached_property
    def _elimination(self) -> _System:
        """The one traced elimination of d, built at first use: a full
        ``reduce`` of its nonzero rows, in increasing index order and the
        module's own indices.  The kernel vectors of ``_homology_classes``
        and the homotopy ``_homotopy`` both read it."""
        rows = self._integer_rows
        system = _System([rows[k] for k in sorted(rows)], self.module.dim, self.field,
                         self._integer_d[0], trace=True)
        system.reduce()
        return system

    @cached_property
    def _homotopy(self) -> tuple[int, dict[int, dict[int, int]], dict[int, dict[int, int]]]:
        """A homotopy h of d with d h d = d, read once from the generalized
        inverse of ``_elimination``: (L, rows, columns), integers over one
        denominator L, h[x, y] = rows[x][y] / L = columns[y][x] / L.  Its
        pivots are the first independent columns of d in declaration order;
        d is the sum of its degree blocks, so h is the sum of one per block."""
        targets = sorted(self._integer_rows)
        den, inverse = self._elimination.inverse()
        rows = {x: {targets[i]: v for i, v in row.items()} for x, row in inverse.items()}
        return den, rows, _transpose(rows)


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
        """delta(f) = d_M f - (-1)^p f d_V, a (p+1)-cochain, computed in
        integers by ``_integer_coboundary`` and read back once, at the end."""
        source, target, p, field = self.source, self.target, self.p, self.source.field
        den, cols = _integral(self.mapping.columns, field)
        cols, den = _integer_coboundary(source, target, p, cols, den)
        return Cochain(p + 1, GradedMap._of(source.module, target.module, -p - 1,
                                            _rational(cols, den, field)),
                       source, target)

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


def _transpose(vectors: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """{k: {j: v}} for the sparse vectors {j: {k: v}}: the rows of columns."""
    out: dict[int, dict[int, int]] = {}
    for j, vec in vectors.items():
        for k, v in vec.items():
            out.setdefault(k, {})[j] = v
    return out


def _integer_coboundary(source: Complex, target: Complex, p: int,
                        cols: dict[int, dict[int, int]], den: int):
    """delta(f) = d_M f - (-1)^p f d_V for the p-cochain f = cols / den,
    as (integer columns, denominator), in integers from the differentials'
    integer columns and rows; only f's columns and the entries of d_V in
    their rows are visited, and zeros are not stored."""
    _check_differentials(source, target)
    # scale * delta(f) = a N_M f + b f N_V, with N = D d the integer columns of d_M
    # and the integer rows of d_V, scale = lcm(D_V, D_M), a = scale / D_M and
    # b = -(-1)^p scale / D_V
    (d_v, _), (d_m, n_m) = source._integer_d, target._integer_d
    scale = lcm(d_v, d_m)
    a, b, n_v = scale // d_m, scale // d_v, source._integer_rows
    if p % 2 == 0:
        b = -b
    out = {j: _combine(col, n_m) for j, col in cols.items()}  # d_M f, column by column
    if a != 1:
        out = {j: {k: a * v for k, v in col.items()} for j, col in out.items()}
    for j, col in cols.items():
        for l, e in n_v.get(j, {}).items():  # column l of f d_V gets d_V[j, l] * (column j of f)
            e *= b
            acc = out.setdefault(l, {})
            for i, c in col.items():
                acc[i] = acc.get(i, 0) + e * c
    norm = source.field.norm
    out = {j: kept for j, col in out.items()
           if (kept := {k: w for k, v in col.items() if (w := norm(v))})}
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


def cochain_basis(v: GradedModule, m: GradedModule, p: int) -> list[tuple[int, int]]:
    """Canonical basis of C^p(V;M): pairs (source index j, target index i)
    with |x_i| = |x_j| - p, lexicographic in (j, i)."""
    by_degree = m._by_degree
    return [(j, i) for j, (_, q) in enumerate(v.basis) for i in by_degree.get(q - p, ())]


def _homology_classes(cx: Complex, dual: bool = False, degrees=None):
    """Cycles z_s of d (of d^T when ``dual``) whose classes are a basis of
    its homology in ``degrees`` (every degree by default), as integer
    vectors (each a nonzero multiple of a cycle), with the homology dims
    {degree q: h_q} there.

    With ``dual`` the cycles are functionals lambda_t on the module with
    lambda_t o d = 0, a basis of H(cx)*.  Degree q needs only d between
    degrees q - 1, q and q + 1.  The free columns f at the generators of
    ``degrees`` index the canonical kernel vectors v_f: of d from the
    complex's one elimination ``Complex._elimination``, which the
    homotopy shares, and of d^T from an elimination of the columns of d that
    meet ``degrees``, in the module's own indices.  Then an echelon pass
    runs over a basis of the boundaries in free coordinates: the columns of
    d at the pivot columns of its elimination, and the rows of d at the
    pivot columns of the d^T system, or every nonzero row into a degree that
    system does not hold.  v_f is a boundary modulo the earlier v_f' exactly
    when f is the largest free coordinate of some boundary, that is a pivot
    of the boundaries with the free coordinates ordered from the largest
    down; the others are kept, in order, the vectors an echelon pass over
    [columns of d | kernel vectors] would keep.  The pivot columns of an
    echelon form are an invariant of its row space, so a basis of the
    boundaries gives the pivots all of them would.  v_f is formed only for
    the kept f, and h_q is their number in degree q: dim_q - rank d_q -
    rank d_{q+1}.
    """
    module, by_degree = cx.module, cx.module._by_degree
    degrees = by_degree.keys() if degrees is None else degrees
    d_rows, d_cols = cx._integer_rows, cx._integer_d[1]
    if dual:  # row j of d^T is column j of d, and column k of d^T is row k of d
        kernel_system = _System([d_cols[j] for q in degrees for j in by_degree.get(q + 1, ())
                                 if j in d_cols], module.dim, cx.field)
        kernel_system.reduce()
        pivots = kernel_system.pivot_columns
        # with q - 1 asked for, the system holds the columns of d from
        # degree q, and its pivots pick a basis of the rows of d into q - 1
        boundaries = [d_rows[k] for q in degrees for k in by_degree.get(q - 1, ())
                      if (k in pivots if q - 1 in degrees else k in d_rows)]
    else:
        kernel_system = cx._elimination
        pivots = kernel_system.pivot_columns  # the greedy basis of the columns of d
        boundaries = [d_cols[j] for q in degrees for j in by_degree.get(q + 1, ()) if j in pivots]
    columns = sorted(j for q in degrees for j in by_degree.get(q, ()))
    free = [f for f in columns if f not in pivots]
    # a kernel vector is v_f's multiple times its free coordinate f, so a
    # boundary's free coordinates are its coordinates in the kernel basis
    order = {f: s for s, f in enumerate(reversed(free))}
    image = _System([{order[c]: v for c, v in b.items() if c in order} for b in boundaries],
                    len(free), cx.field)
    image.reduce(echelon=True)
    leads = {free[-1 - s] for s, _ in image.pivots}
    kept = [f for f in free if f not in leads]
    h = {q: 0 for q in degrees if q in by_degree}
    for f in kept:
        h[module.degree_of(f)] += 1
    return [vec for _, vec in kernel_system.nullspace(kept)], h


@dataclass
class CohomologyResult:
    """Dimensions and representatives of H^p(V;M)."""

    p: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_h: int
    representatives: list[Cochain]


def _ranks(cx: Complex, h: dict[int, int]) -> dict[int, int]:
    """The rank pi_q of d from degree q, solved from dim_q = h_q + pi_q +
    pi_{q+1} down the degrees.  It must be 0 from the lowest degree of each
    run of degrees (the run's Euler characteristic identity, which one h_q
    off by one breaks) and never negative, or PostconditionFailed is raised."""
    dims = cx.module._by_degree
    pi: dict[int, int] = {}
    for q in sorted(dims, reverse=True):
        pi[q] = rank = len(dims[q]) - h[q] - pi.get(q + 1, 0)
        if rank < 0 or (rank and q - 1 not in dims):
            raise PostconditionFailed(f"H({cx.module.name}) gives d rank {rank} from degree {q}")
    return pi


def cohomology(source: Complex, target: Complex | None = None, p: int = 0) -> CohomologyResult:
    """H^p = ker(delta^p) / im(delta^{p-1}), with deterministic representatives,
    from H(V)* and H(M) alone; the README has the argument.

    The representatives are w (x) mu, f[i, j] = w[i] mu[j], for the
    functionals mu of ``source._functionals`` and the cycles w of
    ``target._cycles`` with |w| = |mu| - p, scaled to 1 at their lex-largest
    pair (max supp mu, max supp w) and ordered by mu, then by w: the
    canonical kernel vectors of delta^p at those pairs.  V and M split into
    homology and pairs x -> dx, and Hom of a pair with anything is acyclic, so
    dim B^p = sum_q pi_q(V) dim M_{q-p} + h_q(V) pi_{q-p+1}(M), with the ranks
    pi_q of ``_ranks``.  Both postconditions are real checks: the ranks
    close, and there are dim_h representatives.
    """
    target = target if target is not None else source
    v_degrees, m_degrees = source.module.degrees(), target.module.degrees()
    empty = m_degrees.isdisjoint(q - p for q in v_degrees)  # C^p = 0
    if not empty or not m_degrees.isdisjoint(q - p + 1 for q in v_degrees):
        _check_pair(source, target)  # H^p reads C^p and C^{p-1}
    if empty:
        return CohomologyResult(p, 0, 0, 0, [])
    (functionals, h_v), (cycles, h_m) = source._functionals, target._cycles
    pi_v, pi_m = _ranks(source, h_v), _ranks(target, h_m)
    dim_m = target.module._by_degree
    dim_h = sum(h * h_m.get(q - p, 0) for q, h in h_v.items())
    dim_coboundaries = (sum(r * len(dim_m.get(q - p, ())) for q, r in pi_v.items())
                        + sum(h * pi_m.get(q - p + 1, 0) for q, h in h_v.items()))
    field, degree_of = source.field, target.module.degree_of
    norm = field.norm
    by_degree: dict[int, list[tuple[int, dict[int, int]]]] = {}
    for w in cycles:
        top = max(w)
        by_degree.setdefault(degree_of(top), []).append((w[top], w))
    representatives = []
    for mu in functionals:
        top = max(mu)
        for w_top, w in by_degree.get(source.module.degree_of(top) - p, ()):
            cols = _rational({j: _scale_terms(w, c, norm) for j, c in mu.items()},
                             mu[top] * w_top, field)
            representatives.append(Cochain(
                p, GradedMap._of(source.module, target.module, -p, cols), source, target))
    if len(representatives) != dim_h:
        raise PostconditionFailed(
            f"found {len(representatives)} representatives for a {dim_h}-dimensional H^{p}"
        )
    return CohomologyResult(p, dim_coboundaries + dim_h, dim_coboundaries, dim_h, representatives)


@dataclass
class InfeasibilityWitness:
    """An exact certificate that delta(f) = g has no solution.

    ``combination`` lists block equations, labelled by (source name, target
    name), whose weighted sum has zero left side but the nonzero ``residual``
    on the right side.  The solver's witnesses are z (x) lambda, for a cycle
    z of V and a functional lambda on M with lambda o d_M = 0: equation
    (x_j -> y_i) has weight z[j] * lambda[i], so the sum is the functional
    h -> lambda(h(z)), which is zero on every delta(f), and the residual is
    lambda(g(z)), a coordinate of the class of g.
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


def _cocycle_columns(g: Cochain) -> tuple[int, dict[int, dict[int, int]]]:
    """g as integer columns over one denominator, once delta(g) = 0 is checked
    in integers from the differentials (else NotACocycle)."""
    den, cols = _integral(g.mapping.columns, g.source.field)
    if _integer_coboundary(g.source, g.target, g.p, cols, den)[0]:
        raise NotACocycle("right-hand side is not a cocycle")
    return den, cols


def _class_witness(g: Cochain, cols: dict[int, dict[int, int]],
                   den: int) -> InfeasibilityWitness | None:
    """The witness z_s (x) lambda_t of the first nonzero class coordinate
    lambda_t(g(z_s)) of the cocycle g = cols / den, or None when its class
    is zero, that is when g cobounds.

    z_s runs over the cycles of V, then lambda_t over the functionals on M,
    in the order of ``_homology_classes``, which runs only on the degrees g
    reads from and writes to.  The weights are scaled to 1 at the
    lex-largest pair (max supp z, max supp lambda), which fixes the witness
    whatever multiples of z and lambda the helper returns.
    Before it is returned, z is checked to be a cycle and lambda o d_M to be
    zero, in integers from the differentials (else PostconditionFailed).
    """
    source, target, norm = g.source, g.target, g.source.field.norm
    v_degrees = {source.module.degree_of(j) for j in cols}
    functionals: dict[int, list[dict[int, int]]] = {}
    for lam in _homology_classes(target, True, {q - g.p for q in v_degrees})[0]:
        functionals.setdefault(target.module.degree_of(max(lam)), []).append(lam)
    for z in _homology_classes(source, False, v_degrees)[0]:
        shelf = functionals.get(source.module.degree_of(max(z)) - g.p)
        if not shelf:
            continue
        gz = _combine(z, cols)  # g(z) as integers over den
        for lam in shelf if gz else ():
            s = sum(c * lam[i] for i, c in gz.items() if i in lam)
            if norm(s):
                _check_classes(source, target, z, lam)
                lead = z[max(z)] * lam[max(lam)]
                field, name_of, target_name = source.field, source.module.name_of, target.module.name_of
                return InfeasibilityWitness(
                    [(name_of(j), target_name(i), field.scalar(a * b, lead))
                     for j, a in sorted(z.items()) for i, b in sorted(lam.items())],
                    field.scalar(s, den * lead))
    return None


def _check_classes(source: Complex, target: Complex,
                   z: dict[int, int], lam: dict[int, int]) -> None:
    """d_V z = 0 and lambda o d_M = 0, in integers from the differentials'
    integer columns and rows, or PostconditionFailed."""
    norm = source.field.norm
    for what, values in (("z is not a cycle of d_V", _combine(z, source._integer_d[1])),
                         ("lambda o d_M is not zero", _combine(lam, target._integer_rows))):
        if any(map(norm, values.values())):
            raise PostconditionFailed(f"the class witness is wrong: {what}")


def _homotopy_solution(g: Cochain, cols: dict[int, dict[int, int]], den: int) -> Solved | None:
    """f = h_M g + (-1)^{p+1} (g - delta(h_M g)) h_V for the (p+1)-cocycle
    g = cols / den, or None when delta(f) != g, which happens exactly when
    the class of g is not zero.

    h is ``Complex._homotopy`` on each complex.  With pi = 1 - d h - h d,
    delta(h_M g) = g - pi_M g, and r = pi_M g has d_M r = 0 and r d_V = 0,
    so delta((-1)^{p+1} r h_V) = r h_V d_V = r - r pi_V and delta(f) = g -
    pi_M g pi_V.  pi vanishes on boundaries and lands in cycles, and g sends
    cycles to boundaries when its class is zero, so then delta(f) = g.
    Every step runs in integers; delta(f) = g is recomputed by
    ``_integer_coboundary`` before f is returned.
    """
    source, target, p = g.source, g.target, g.p - 1
    norm = source.field.norm
    (m_den, _, h_m), (v_den, h_v, _) = target._homotopy, source._homotopy
    k = {j: _combine(col, h_m) for j, col in cols.items()}  # h_M g, over den * m_den
    delta, r_den = _integer_coboundary(source, target, p, k, den * m_den)
    # r = g - delta(k) = pi_M g, in the columns of g
    r = {j: diff for j, col in cols.items() if (diff := _add_terms(
        _scale_terms(col, r_den // den, norm), _scale_terms(delta.get(j, {}), -1, norm), norm))}
    # f = k + (-1)^{p+1} r h_V, over r_den * v_den: column y of r h_V gets
    # h_V[x, y] * (column x of r), from the row x of h_V
    f = {j: _scale_terms(col, r_den // (den * m_den) * v_den, norm) for j, col in k.items()}
    sign = 1 if p % 2 else -1
    for x, col in r.items():
        for y, c in h_v.get(x, {}).items():
            f[y] = _add_terms(f.get(y, {}), _scale_terms(col, sign * c, norm), norm)
    f, f_den = {j: col for j, col in f.items() if col}, r_den * v_den
    if not _same_columns(*_integer_coboundary(source, target, p, f, f_den), cols, den):
        return None
    f = _rational(f, f_den, source.field)
    return Solved(Cochain(p, GradedMap._of(source.module, target.module, -p, f), source, target))


_WRONG_ZERO_CLASS = "the solver's answer f does not satisfy delta(f) = g, yet g has a zero class"


def _solve_homotopy_first(g: Cochain) -> Solved | Infeasible:
    """:func:`solve_coboundary` in the ladder's order.  A ladder's right
    sides almost always cobound, so the homotopy is tried first, and the
    class coordinates are read only when delta(f) != g, for the same
    witness; both orders give the same answer."""
    den, cols = _cocycle_columns(g)
    solved = _homotopy_solution(g, cols, den)
    if solved is not None:
        return solved
    witness = _class_witness(g, cols, den)
    if witness is None:
        raise PostconditionFailed(_WRONG_ZERO_CLASS)
    return Infeasible(witness)


def solve_coboundary(g: Cochain) -> Solved | Infeasible:
    """Find f with delta(f) = g exactly, or certify that none exists.

    g must be a cocycle; non-cocycles are rejected outright.  Over a field g
    cobounds exactly when its class coordinates lambda_t(g(z_s)) are all
    zero, for the cycles z_s of H(V) and the functionals lambda_t of H(M)*
    in the degrees g touches.  A nonzero coordinate is answered at once
    with its witness (``_class_witness``), and no homotopy is built.  A zero
    class is solved by the homotopy (``_homotopy_solution``): the canonical
    solution.  Every check, delta(g) = 0 on the way in, delta(f) = g on the
    way out and the check of the witness, recomputes delta in integers from
    the differentials' integer columns; a zero class whose f fails delta(f)
    = g raises PostconditionFailed.
    """
    den, cols = _cocycle_columns(g)
    witness = _class_witness(g, cols, den)
    if witness is not None:
        return Infeasible(witness)
    solved = _homotopy_solution(g, cols, den)
    if solved is None:
        raise PostconditionFailed(_WRONG_ZERO_CLASS)
    return solved


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
