"""The deformation engine: obstruction ladder, inductive extension,
truncated power-series algebra over maps, and gauge trivialization.

A deformation of (V, d) is a series d_t = d + t d_1 + t^2 d_2 + ... squaring
to zero; equating coefficients of d_t o d_t = 0 gives the ladder of relations
delta(d_{n+1}) = O_n with O_n = -sum_{i=1}^{n} d_i d_{n-i+1}.  Extension past
order n is possible exactly when O_n cobounds; trivialization repeatedly
gauges away the lowest nonzero coefficient by solving delta(phi) = -coeff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cochain import (
    Cochain,
    CoboundarySolver,
    Complex,
    Infeasible,
    InfeasibilityWitness,
    Solved,
    _certificate_degree,
    solve_coboundary,
)
from .errors import (
    ConstantTermNotIdentity,
    DegreeMismatch,
    InfinitesimalNotCocycle,
    ModuleMismatch,
    NotSquareZero,
    RelationsViolated,
    TruncationMismatch,
)
from .gmap import GradedMap

#: The largest order ``deform_to_order`` and ``MapSeries.deformation`` accept.
#: A ladder runs one rung, and a series stores one coefficient, per order, so
#: past it both raise ``TruncationMismatch`` before allocating anything and
#: ``--order`` cannot ask for unbounded time or memory.  Canonical
#: ``deform --order 100000`` on a family file takes seconds.
MAX_ORDER = 1_000_000


def _check_lift(cx: Complex, m: GradedMap, what: str = "lift") -> None:
    if m.source != cx.module or m.target != cx.module:
        raise ModuleMismatch(f"{what} is not an endomorphism of the complex's module")
    if m and m.degree != -1:
        raise DegreeMismatch(f"{what} must have map degree -1, got {m.degree}")


class MapSeries:
    """A truncated formal power series in t with graded-map coefficients.

    Index i holds the coefficient of t^i; the truncation order is the index
    of the last stored coefficient.  All coefficients are endomorphisms of
    one module, and the nonzero ones share a single map degree.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[GradedMap]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise TruncationMismatch("a series needs at least its order-0 coefficient")
        module = coeffs[0].source
        degrees = set()
        for m in coeffs:
            if m.source != module or m.target != module:
                raise ModuleMismatch("series coefficients must share one module")
            if m:
                degrees.add(m.degree)
        if len(degrees) > 1:
            raise DegreeMismatch(f"series coefficients mix map degrees {sorted(degrees)}")
        self.coeffs = coeffs

    @classmethod
    def deformation(cls, cx: Complex, lifts: Sequence[GradedMap], order: int | None = None):
        """d + t d_1 + ... padded with zero coefficients up to ``order``."""
        if order is not None and order < 0:
            raise TruncationMismatch(f"order must be >= 0, got {order}")
        if order is not None and order > MAX_ORDER:
            raise TruncationMismatch(f"order {order} exceeds the cap {MAX_ORDER}")
        for m in lifts:
            _check_lift(cx, m)
        coeffs = [cx.d, *lifts]
        n = order if order is not None else len(coeffs) - 1
        if n < len(coeffs) - 1:
            raise TruncationMismatch(f"order {n} is below the {len(coeffs) - 1} given lifts")
        zero = GradedMap.zero(cx.module, degree=-1)
        coeffs.extend([zero] * (n + 1 - len(coeffs)))
        return cls(coeffs)

    @classmethod
    def identity(cls, module, order: int) -> "MapSeries":
        zero = GradedMap.zero(module, degree=0)
        return cls([GradedMap.identity(module)] + [zero] * order)

    @classmethod
    def gauge_factor(cls, phi: GradedMap, stage: int, order: int) -> "MapSeries":
        """The automorphism Id - t^stage phi, truncated at ``order``."""
        if stage < 1:
            raise TruncationMismatch("gauge stages start at 1")
        series = [GradedMap.identity(phi.source)]
        zero = GradedMap.zero(phi.source, degree=0)
        series += [zero] * order
        if stage <= order:
            series[stage] = -phi
        return cls(series)

    @property
    def module(self):
        return self.coeffs[0].source

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> GradedMap:
        return self.coeffs[k]

    @property
    def degree(self) -> int:
        for m in self.coeffs:
            if m:
                return m.degree
        return self.coeffs[0].degree

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.coeffs)

    def is_square_zero(self) -> bool:
        return series_mul(self, self).is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, MapSeries) and list(self.coeffs) == list(other.coeffs)

    __hash__ = None

    def __repr__(self):
        inner = "; ".join(f"t^{k}: {m.render()}" for k, m in enumerate(self.coeffs))
        return f"MapSeries({inner})"


def series_mul(a: MapSeries, b: MapSeries) -> MapSeries:
    """Truncated Cauchy product: coefficient k is sum of a_i o b_{k-i}."""
    if a.module != b.module:
        raise ModuleMismatch("series live over different modules")
    if a.order != b.order:
        raise TruncationMismatch(f"truncation orders differ: {a.order} vs {b.order}")
    # only pairs of nonzero coefficients contribute; for each k they are
    # summed in increasing i, and one zero map stands for every empty sum
    out = [GradedMap.zero(a.module, degree=a.degree + b.degree)] * (a.order + 1)
    nonzero_b = [(j, bj) for j, bj in enumerate(b.coeffs) if bj]
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j, bj in nonzero_b:
                if i + j > a.order:
                    break
                out[i + j] = out[i + j] + ai.compose(bj)
    return MapSeries(out)


def series_inverse(a: MapSeries) -> MapSeries:
    """The two-sided inverse through the truncation order (a_0 must be Id)."""
    module = a.module
    if a.coeffs[0] != GradedMap.identity(module):
        raise ConstantTermNotIdentity("series inverse needs constant coefficient Id")
    inv = [GradedMap.identity(module)]
    # only nonzero a_i contribute; for each k they are summed in increasing i
    nonzero_a = [(i, ai) for i, ai in enumerate(a.coeffs) if i and ai]
    for k in range(1, a.order + 1):
        acc = GradedMap.zero(module, degree=a.degree)
        for i, ai in nonzero_a:
            if i <= k and inv[k - i]:
                acc = acc + ai.compose(inv[k - i])
        inv.append(-acc)
    return MapSeries(inv)


def gauge_transform(d_t: MapSeries, phi_t: MapSeries) -> MapSeries:
    """Conjugate: phi_t o d_t o phi_t^{-1}, truncated at the common order."""
    if phi_t.coeffs[0] != GradedMap.identity(phi_t.module):
        raise ConstantTermNotIdentity("gauge series must start at the identity")
    if not d_t.is_square_zero():
        raise NotSquareZero("series to be gauged must square to zero")
    return series_mul(series_mul(phi_t, d_t), series_inverse(phi_t))


# -- the obstruction ladder ---------------------------------------------------


class _Ledger:
    """One ladder on one complex: lifts d_1..d_n, each checked once as it
    enters, and each O_k and delta(d_k) worked out once, when first read.
    O_k sums only pairs of nonzero lifts, so a zero tail costs next to nothing."""

    def __init__(self, cx: Complex, lifts: Sequence[GradedMap] = ()):
        self.cx = cx
        self.lifts: list[GradedMap] = []
        self.nonzero: dict[int, GradedMap] = {}  # i -> d_i, nonzero lifts only
        self.o: dict[int, GradedMap] = {}  # n -> O_n, once read
        self.deltas: list[GradedMap] = []  # delta(d_1), delta(d_2), ..., once compared
        for m in lifts:
            self.append(m)

    def append(self, m: GradedMap, what: str = "lift") -> None:
        _check_lift(self.cx, m, what)
        self.lifts.append(m)
        if m:
            self.nonzero[len(self.lifts)] = m

    def obstruction(self, n: int) -> GradedMap:
        """O_n = -sum_{i=1}^{n} d_i o d_{n-i+1}, with d_i = 0 past the last lift."""
        if n not in self.o:
            acc = GradedMap.zero(self.cx.module, degree=-2)
            for i, a in self.nonzero.items():
                if i > n:
                    break
                b = self.nonzero.get(n + 1 - i)
                if b is not None:
                    acc = acc + a.compose(b)
            self.o[n] = -acc
        return self.o[n]

    def relations(self) -> list[bool]:
        """For each 0 <= k < n, whether delta(d_{k+1}) = O_k holds exactly."""
        for m in self.lifts[len(self.deltas):]:
            self.deltas.append(Cochain(1, m, self.cx).coboundary().mapping)
        return [dk == self.obstruction(k) for k, dk in enumerate(self.deltas)]


def obstruction(cx: Complex, lifts: Sequence[GradedMap]) -> Cochain:
    """The 2-cochain O_n = -sum_{i=1}^{n} d_i o d_{n-i+1}; O_0 = 0."""
    return Cochain(2, _Ledger(cx, lifts).obstruction(len(lifts)), cx)


def check_relations(cx: Complex, lifts: Sequence[GradedMap]) -> list[bool]:
    """For each 0 <= k < n, whether delta(d_{k+1}) = O_k holds exactly."""
    return _Ledger(cx, lifts).relations()


@dataclass
class NextLift:
    lift: GradedMap


@dataclass
class ObstructionHit:
    order: int
    obstruction: Cochain
    witness: InfeasibilityWitness
    certificate: bool
    certificate_degree: int | None


def extend_step(cx: Complex, lifts: Sequence[GradedMap]) -> NextLift | ObstructionHit:
    """One rung of the ladder: solve delta(d_{n+1}) = O_n or report failure."""
    ledger = _Ledger(cx, lifts)
    checks = ledger.relations()
    if not all(checks):
        raise RelationsViolated(f"relation fails at order {checks.index(False)}")
    return _rung(ledger, CoboundarySolver(cx, cx, 1))


def _rung(ledger: _Ledger, solver: CoboundarySolver) -> NextLift | ObstructionHit:
    """extend_step on a ledger whose lifts already satisfy the relations."""
    cx, n = ledger.cx, len(ledger.lifts)
    o_n = Cochain(2, ledger.obstruction(n), cx)
    outcome = solver.solve(o_n)
    if isinstance(outcome, Solved):
        return NextLift(outcome.cochain.mapping)
    degree = _certificate_degree(cx.d, o_n.mapping)
    return ObstructionHit(n, o_n, outcome.witness, degree is not None, degree)


@dataclass
class DeformationReport:
    """Outcome of the inductive extension of an infinitesimal deformation."""

    cx: Complex
    order: int
    lifts: list[GradedMap]
    relation_checks: list[bool]
    obstructed_at: int | None = None
    obstruction: Cochain | None = None
    witness: InfeasibilityWitness | None = None
    certificate: bool | None = None
    certificate_degree: int | None = None

    @property
    def extended(self) -> bool:
        return self.obstructed_at is None

    def render(self) -> str:
        lines = [f"deformation of {self.cx.module.name} over {self.cx.field} "
                 f"to order {self.order}"]
        for k, m in enumerate(self.lifts, start=1):
            lines.append(f"order {k}: {m.render()}")
        ok_through = -1
        for k, ok in enumerate(self.relation_checks):
            if not ok:
                break
            ok_through = k
        lines.append(f"relations: ok through order {ok_through}")
        if self.extended:
            lines.append(f"status: extended to order {self.order}")
        else:
            lines.append(f"status: obstructed at order {self.obstructed_at}")
            lines.append(f"obstruction O_{self.obstructed_at} = {self.obstruction.render()}")
            lines.append(f"witness: {self.witness.render()}")
            if self.certificate:
                lines.append(
                    "degree-support certificate: obstruction block at source degree "
                    f"{self.certificate_degree} cannot cobound on any truncation"
                )
            else:
                lines.append("degree-support certificate: not applicable")
        return "\n".join(lines)


def deform_to_order(
    cx: Complex,
    d1: GradedMap,
    order: int,
    lifts: Sequence[GradedMap] | None = None,
) -> DeformationReport:
    """Extend d + t d_1 to the requested order, or stop at the first
    obstruction.

    When ``lifts`` is given, those coefficients (d_2, d_3, ...) are validated
    against the relations instead of solved for; any remaining orders are
    filled by the canonical solver.
    """
    if order < 1:
        raise TruncationMismatch(f"target order must be >= 1, got {order}")
    if order > MAX_ORDER:
        raise TruncationMismatch(f"target order {order} exceeds the cap {MAX_ORDER}")
    ledger = _Ledger(cx)
    ledger.append(d1, "infinitesimal")
    if not ledger.relations()[0]:
        raise InfinitesimalNotCocycle("delta(d_1) != 0")
    if lifts:
        if 1 + len(lifts) > order:
            raise TruncationMismatch(f"{1 + len(lifts)} lifts exceed requested order {order}")
        for m in lifts:
            ledger.append(m)
        checks = ledger.relations()
        if not all(checks):
            raise RelationsViolated(f"supplied lifts fail the relation at order {checks.index(False)}")
    # every rung solves against delta^1 of cx: reduce it once, and only if a
    # rung runs; each solved lift passes delta(f) = g, and the report compares
    # every delta(d_{k+1}) with the O_k the ledger already holds
    chain = ledger.lifts
    solver = CoboundarySolver(cx, cx, 1) if len(chain) < order else None
    while len(chain) < order:
        step = _rung(ledger, solver)
        if isinstance(step, ObstructionHit):
            return DeformationReport(
                cx=cx,
                order=order,
                lifts=chain,
                relation_checks=ledger.relations(),
                obstructed_at=step.order,
                obstruction=step.obstruction,
                witness=step.witness,
                certificate=step.certificate,
                certificate_degree=step.certificate_degree,
            )
        ledger.append(step.lift)
    return DeformationReport(cx=cx, order=order, lifts=chain, relation_checks=ledger.relations())


# -- equivalence and trivialization -----------------------------------------------


@dataclass
class TrivializationReport:
    """Outcome of the stage-by-stage gauge trivialization of a deformation."""

    order: int
    stages: list[GradedMap]
    automorphism: MapSeries
    residual: MapSeries
    stuck_at: int | None = None
    unsolved: Cochain | None = None
    witness: InfeasibilityWitness | None = None

    @property
    def trivialized(self) -> bool:
        return self.stuck_at is None

    @property
    def definitive_nontriviality(self) -> bool:
        # only an order-1 failure certifies non-triviality of the deformation
        return self.stuck_at == 1

    def render(self) -> str:
        lines = []
        if self.trivialized:
            lines.append(f"status: trivialized through order {self.order}")
            for r, phi in enumerate(self.stages, start=1):
                lines.append(f"phi {r}: {phi.render()}")
        else:
            lines.append(f"status: stuck at order {self.stuck_at}")
            lines.append(f"unsolved cocycle: {self.unsolved.render()}")
            lines.append(f"witness: {self.witness.render()}")
            lines.append(
                "definitive non-triviality: "
                + ("yes" if self.definitive_nontriviality else "no (relative to chosen gauges)")
            )
        return "\n".join(lines)


def _gauge_step(
    d_t: MapSeries, g: MapSeries, phi: GradedMap, r: int
) -> tuple[MapSeries, MapSeries]:
    """One gauge stage, 1 <= r <= order: ``gauge_transform(d_t, F)`` and
    ``series_mul(F, g)`` for F = Id - t^r phi, where g_0 = Id.  The square-zero
    check of ``gauge_transform`` is left to the caller.

    F^-1 is the geometric series sum_k t^{rk} phi^k, so the conjugate has
    coefficients E_j - phi o E_{j-r} with E = d_t o F^-1, and F o g has
    g_j - phi o g_{j-r}.  Each power phi^k (rk <= order) is composed once,
    only nonzero coefficients are composed, and no composition has the
    identity as an operand: phi^0 and g_0 enter as plain copies.
    """
    n = d_t.order
    powers = [phi]  # phi^1, phi^2, ... while nonzero and rk <= n
    while r * (len(powers) + 1) <= n and (power := powers[-1].compose(phi)):
        powers.append(power)
    e: dict[int, GradedMap] = {}  # E_j, for j where some term lands
    for i, c in enumerate(d_t.coeffs):
        if c:
            for k, m in enumerate([c] + [c.compose(p) for p in powers[: (n - i) // r]]):
                j = i + r * k
                e[j] = e[j] + m if j in e else m

    minus_phi = -phi

    def left(out: list, terms) -> MapSeries:
        # out_{j+r} - phi o m for each nonzero term (j, m) with j + r <= n
        for j, m in terms:
            if m and j + r <= n:
                out[j + r] = out[j + r] + minus_phi.compose(m)
        return MapSeries(out)

    out = [GradedMap.zero(d_t.module, degree=d_t.degree)] * (n + 1)
    for j, m in e.items():
        out[j] = m
    g_out = list(g.coeffs)
    g_out[r] = g_out[r] + minus_phi
    return left(out, e.items()), left(g_out, enumerate(g.coeffs[1:], start=1))


def trivialize(d_t: MapSeries) -> TrivializationReport:
    """Run the inductive gauge loop: at stage r solve delta(phi) = -coefficient
    and conjugate by Id - t^r phi, until every coefficient through the
    truncation order dies.

    Stops with ``stuck_at = r`` if the stage-r cocycle fails to cobound;
    failure at r = 1 is a genuine non-triviality certificate, later failures
    are relative to the gauges already chosen.
    """
    n = d_t.order
    if not d_t.is_square_zero():
        raise NotSquareZero("series does not square to zero through the truncation order")
    cx = Complex(d_t.module, d_t.coeffs[0])
    current = d_t
    stages: list[GradedMap] = []
    composed = MapSeries.identity(d_t.module, n)
    solver = None  # delta^0 of cx, reduced at the first stage that solves
    for r in range(1, n + 1):
        c = current.coeffs[r]
        if c.is_zero():
            stages.append(GradedMap.zero(d_t.module, degree=0))
            continue
        if solver is None:
            solver = CoboundarySolver(cx, cx, 0)
        outcome = solver.solve(Cochain(1, -c, cx))
        if isinstance(outcome, Infeasible):
            return TrivializationReport(
                order=n,
                stages=stages,
                automorphism=composed,
                residual=current,
                stuck_at=r,
                unsolved=Cochain(1, c, cx),
                witness=outcome.witness,
            )
        phi = outcome.cochain.mapping
        if not current.is_square_zero():
            raise NotSquareZero("series to be gauged must square to zero")
        current, composed = _gauge_step(current, composed, phi, r)
        stages.append(phi)
    return TrivializationReport(
        order=n, stages=stages, automorphism=composed, residual=current
    )


def first_order_triviality(cx: Complex, d1: GradedMap) -> Solved | Infeasible:
    """Solve delta(phi_1) = -d_1 in C^0; infeasibility certifies that no
    equivalence with the trivial deformation exists."""
    _check_lift(cx, d1, "infinitesimal")
    g = Cochain(1, -d1, cx)
    if not g.is_cocycle():
        raise InfinitesimalNotCocycle("delta(d_1) != 0")
    return solve_coboundary(g)
