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
homotopies h of d_V and d_M (``_homotopy_block``), with d h d = d, one
elimination per degree block of d.

Over Q the work runs in integers, from each complex's differential, kept
once as integer columns over one denominator (``Complex._integer_d``),
through the eliminations, the homotopy blocks and the homology vectors, to
the class coordinates and the solutions.  delta has two forms, each with
its own job: ``_integer_coboundary`` computes delta(f) from those columns
for ``Cochain.coboundary``, ``is_cocycle`` and every step and check of a
solve, and the ladder of :mod:`deform` reads delta(d_k) from its own sums of
products.  A ``Fraction`` is built only for what is returned: the dim_h
representatives of ``cohomology``, the values of a coboundary or of a
solution, the weights and residual of a witness, and the ``Scalar``s of a
witness.
"""

from __future__ import annotations

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
from .gmap import GradedMap, _combine
from .graded import GradedModule, _add_terms, _scale_terms
from .linalg import _integral, _System


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
    def _integer_rows(self) -> dict[int, dict[int, int]]:
        """The rows of ``_integer_d``: {j: {l: n}} with d[j, l] = n / D."""
        rows: dict[int, dict[int, int]] = {}
        for l, col in self._integer_d[1].items():
            for j, coeff in col.items():
                rows.setdefault(j, {})[l] = coeff
        return rows

    # H(V)* and H(M) serve every p, so each complex computes them once
    @cached_property
    def _cycles(self):
        return _homology_classes(self)

    @cached_property
    def _functionals(self):
        return _homology_classes(self, dual=True)

    @cached_property
    def _homotopy(self) -> dict[int, tuple[int, dict, dict]]:
        """The blocks of ``_homotopy_block`` built so far, by degree."""
        return {}


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
        integers by ``_integer_coboundary``; over Q its values become
        ``Fraction``s once, at the end."""
        source, target, p = self.source, self.target, self.p
        den, cols = _integer_columns(self.mapping)
        cols, den = _integer_coboundary(source, target, p, cols, den)
        if source.field.modulus is None:
            cols = {j: {i: Fraction(v, den) for i, v in col.items()} for j, col in cols.items()}
        return Cochain(p + 1, GradedMap._of(source.module, target.module, -p - 1, cols),
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


def _integer_columns(m: GradedMap) -> tuple[int, dict[int, dict[int, int]]]:
    """The columns of ``m`` as integers over one denominator (1 over GF(p))."""
    if m.source.field.modulus is not None:
        return 1, m.columns
    den, cols = _integral(list(m.columns.values()))
    return den, dict(zip(m.columns, cols))


def _integer_coboundary(source: Complex, target: Complex, p: int,
                        cols: dict[int, dict[int, int]], den: int):
    """delta(f) = d_M f - (-1)^p f d_V for the p-cochain f = cols / den,
    as (integer columns, denominator), in integers from the differentials'
    integer columns and rows; only f's columns and the entries of d_V in
    their rows are visited, and zeros are not stored."""
    _check_differentials(source, target)
    mod = source.field.modulus
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
    by_degree = m._by_degree
    return [(j, i) for j, (_, q) in enumerate(v.basis) for i in by_degree.get(q - p, ())]


def _homology_classes(cx: Complex, dual: bool = False, degrees=None):
    """Cycles z_s of d (of d^T when ``dual``) whose classes are a basis of
    its homology in ``degrees`` (every degree by default), as integer
    vectors (each a nonzero multiple of a cycle), with the homology dims
    {degree q: h_q} there.

    With ``dual`` the cycles are functionals lambda_t on the module with
    lambda_t o d = 0, a basis of H(cx)*.  Degree q needs only d between
    degrees q - 1, q and q + 1, so the work is proportional to those.  Two
    eliminations, each at most as wide as the generators of ``degrees``:
    the kernel of d, with its canonical vectors v_f, one per free column f
    (the same vectors as on the whole module), then an echelon pass
    over the boundaries in free coordinates.  v_f is a boundary modulo the
    earlier v_f' exactly when f is the largest free coordinate of some
    boundary, that is a pivot of the boundaries with the free coordinates
    ordered from the largest down; the others are kept, in order, the
    vectors an echelon pass over [columns of d | kernel vectors] would keep.
    h_q is the number of free columns of degree q less the number of those
    pivots there: dim_q - rank d_q - rank d_{q+1}, read from the pivots,
    not from the kernel vectors.
    """
    module, by_degree = cx.module, cx.module._by_degree
    # the kernel rows are the rows of d (of d^T) that meet degree q, and the
    # boundaries the columns of that matrix: row j of d^T is column j of d,
    # and column k of d^T is row k of d
    d_rows, d_cols = cx._integer_rows, cx._integer_d[1]
    whole = degrees is None
    if whole:  # the columns are the module's own indices
        degrees, index = by_degree.keys(), range(module.dim)
        below, above = list(d_rows.values()), list(d_cols.values())
    else:  # local columns: the generators of those degrees, in declaration order
        index = sorted(j for q in degrees for j in by_degree.get(q, ()))
        local = {j: c for c, j in enumerate(index)}
        below = [d_rows[k] for q in degrees for k in by_degree.get(q - 1, ()) if k in d_rows]
        above = [d_cols[j] for q in degrees for j in by_degree.get(q + 1, ()) if j in d_cols]
    rows, boundaries = (above, below) if dual else (below, above)

    def localized(vec):
        return vec if whole else {local[j]: v for j, v in vec.items()}

    kernel_system = _System([localized(row) for row in rows], len(index), cx.field)
    kernel_system.reduce()
    kernel = [vec for _, vec in kernel_system.nullspace()]
    pivots = {c for c, _ in kernel_system.pivots}
    free = [f for f in range(len(index)) if f not in pivots]  # of each kernel vector, in order
    # a kernel vector is v_f's multiple times its free coordinate f, so a
    # boundary's free coordinates are its coordinates in the kernel basis
    order = {f: s for s, f in enumerate(reversed(free))}
    image = _System([{order[c]: v for c, v in localized(b).items() if c in order}
                     for b in boundaries], len(free), cx.field)
    image.reduce(echelon=True)
    leads = {free[-1 - s] for s, _ in image.pivots}
    h = {q: 0 for q in degrees if q in by_degree}
    for f in free:
        h[module.degree_of(index[f])] += f not in leads
    return [vec if whole else {index[c]: v for c, v in vec.items()}
            for f, vec in zip(free, kernel) if f not in leads], h


def _homotopy_block(cx: Complex, q: int) -> tuple[int, dict, dict]:
    """The block h_q: V_{q-1} -> V_q of a homotopy h with d h d = d, built
    at its first use and cached on ``cx``: (L, rows, columns), integers over
    one denominator L, h[x, y] = rows[x][y] / L = columns[y][x] / L.

    h_q is the generalized inverse ``_System.inverse`` of the block
    d_q: V_q -> V_{q-1}, from one traced elimination of its rows, so
    d_q h_q d_q = d_q; h is the sum of its blocks, and d h d = d holds on
    each degree.  Its pivots are the first independent columns of d_q in
    declaration order.
    """
    blocks = cx._homotopy
    if q not in blocks:
        by_degree = cx.module._by_degree
        sources, targets = by_degree.get(q, ()), by_degree.get(q - 1, ())
        local = {j: c for c, j in enumerate(sources)}
        d_rows = cx._integer_rows
        system = _System([{local[l]: v for l, v in d_rows.get(k, {}).items()} for k in targets],
                         len(sources), cx.field, cx._integer_d[0], trace=True)
        system.reduce()
        den, inverse = system.inverse()
        rows = {sources[c]: {targets[i]: v for i, v in row.items()} for c, row in inverse.items()}
        columns: dict[int, dict[int, int]] = {}
        for x, row in rows.items():
            for y, v in row.items():
                columns.setdefault(y, {})[x] = v
        blocks[q] = den, rows, columns
    return blocks[q]


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
    mod, degree_of = source.field.modulus, target.module.degree_of
    by_degree: dict[int, list[tuple[int, dict[int, int]]]] = {}
    for w in cycles:
        top = max(w)
        by_degree.setdefault(degree_of(top), []).append((w[top], w))
    representatives = []
    for mu in functionals:
        top = max(mu)
        for w_top, w in by_degree.get(source.module.degree_of(top) - p, ()):
            lead = mu[top] * w_top
            if mod is None:
                cols = {j: {i: Fraction(c * e, lead) for i, e in w.items()} for j, c in mu.items()}
            else:
                inv = pow(lead, -1, mod)
                cols = {j: {i: c * inv * e % mod for i, e in w.items()} for j, c in mu.items()}
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
    den, cols = _integer_columns(g.mapping)
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
    source, target, mod = g.source, g.target, g.source.field.modulus
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
            if s if mod is None else s % mod:
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
    mod = source.field.modulus
    for what, values in (("z is not a cycle of d_V", _combine(z, source._integer_d[1])),
                         ("lambda o d_M is not zero", _combine(lam, target._integer_rows))):
        if any(v % mod if mod is not None else v for v in values.values()):
            raise PostconditionFailed(f"the class witness is wrong: {what}")


def _homotopy_solution(g: Cochain, cols: dict[int, dict[int, int]], den: int) -> Solved | None:
    """f = h_M g + (-1)^{p+1} (g - delta(h_M g)) h_V for the (p+1)-cocycle
    g = cols / den, or None when delta(f) != g, which happens exactly when
    the class of g is not zero.

    h is ``_homotopy_block`` on each complex, built only for the degrees g
    touches: h_M from the degrees g writes to, h_V into the degrees it reads
    from.  With pi = 1 - d h - h d, delta(h_M g) = g - pi_M g, and r =
    pi_M g has d_M r = 0 and r d_V = 0, so delta((-1)^{p+1} r h_V) =
    r h_V d_V = r - r pi_V and delta(f) = g - pi_M g pi_V.  pi vanishes on
    boundaries and lands in cycles, and g sends cycles to boundaries when
    its class is zero, so then delta(f) = g.  Every step runs in integers;
    delta(f) = g is recomputed by ``_integer_coboundary`` before f is
    returned.
    """
    source, target, p = g.source, g.target, g.p - 1
    norm, degree = source.field.norm, source.module.degree_of
    # k = h_M g: column j of g lies in M_{|x_j| - p - 1}, which block |x_j| - p of h_M sends up
    m_blocks = {j: _homotopy_block(target, degree(j) - p) for j in cols}
    m_den = lcm(*(block[0] for block in m_blocks.values()))
    k = {j: _scale_terms(_combine(col, m_blocks[j][2]), m_den // m_blocks[j][0], norm)
         for j, col in cols.items()}
    delta, r_den = _integer_coboundary(source, target, p, k, den * m_den)
    # r = g - delta(k) = pi_M g, in the columns of g
    r = {j: diff for j, col in cols.items() if (diff := _add_terms(
        _scale_terms(col, r_den // den, norm), _scale_terms(delta.get(j, {}), -1, norm), norm))}
    # f = k + (-1)^{p+1} r h_V, over r_den * v_den: column y of r h_V gets
    # h_V[x, y] * (column x of r), from the row x of a block of h_V
    v_blocks = {x: _homotopy_block(source, degree(x)) for x in r}
    v_den = lcm(*(block[0] for block in v_blocks.values()))
    f = {j: _scale_terms(col, r_den // (den * m_den) * v_den, norm) for j, col in k.items()}
    sign = 1 if p % 2 else -1
    for x, col in r.items():
        block_den, rows, _ = v_blocks[x]
        for y, c in rows.get(x, {}).items():
            f[y] = _add_terms(f.get(y, {}), _scale_terms(col, sign * c * (v_den // block_den), norm),
                              norm)
    f, f_den = {j: col for j, col in f.items() if col}, r_den * v_den
    if not _same_columns(*_integer_coboundary(source, target, p, f, f_den), cols, den):
        return None
    if source.field.modulus is None:
        f = {j: {i: Fraction(v, f_den) for i, v in col.items()} for j, col in f.items()}
    return Solved(Cochain(p, GradedMap._of(source.module, target.module, -p, f), source, target))


_WRONG_ZERO_CLASS = "the solver's answer f does not satisfy delta(f) = g, yet g has a zero class"


class CoboundarySolver:
    """Solves delta(f) = g for p-cochains f on one pair of complexes, for
    many right sides: the ladder's solver.

    It holds no matrix: the homotopy blocks it solves with are cached on
    the complexes.  A ladder's right sides almost always cobound, so
    ``solve`` tries the homotopy first and reads the class coordinates only
    when delta(f) != g; a one-shot solve reads them first.  Both give the
    same answer.
    """

    def __init__(self, source: Complex, target: Complex, p: int):
        self.source = source
        self.target = target
        self.p = p

    def solve(self, g: Cochain) -> Solved | Infeasible:
        """Find f with delta(f) = g exactly, or certify that none exists; see
        :func:`solve_coboundary`."""
        if g.p != self.p + 1 or g.source != self.source or g.target != self.target:
            raise MalformedCochain(
                f"this solver takes {self.p + 1}-cochains on its own complexes"
            )
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
