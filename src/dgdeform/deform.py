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
    noncobounding_certificate,
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

    def truncate(self, order: int) -> "MapSeries":
        if order > self.order:
            raise TruncationMismatch(f"cannot extend truncation {self.order} to {order}")
        return MapSeries(self.coeffs[: order + 1])

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
    for k in range(1, a.order + 1):
        acc = GradedMap.zero(module, degree=a.degree)
        for i in range(1, k + 1):
            if a.coeffs[i] and inv[k - i]:
                acc = acc + a.coeffs[i].compose(inv[k - i])
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


def obstruction(cx: Complex, lifts: Sequence[GradedMap]) -> Cochain:
    """The 2-cochain O_n = -sum_{i=1}^{n} d_i o d_{n-i+1}; O_0 = 0."""
    for m in lifts:
        _check_lift(cx, m)
    n = len(lifts)
    acc = GradedMap.zero(cx.module, degree=-2)
    for i in range(1, n + 1):
        a, b = lifts[i - 1], lifts[n - i]
        if a and b:
            acc = acc + a.compose(b)
    return Cochain(2, -acc, cx)


def check_relations(cx: Complex, lifts: Sequence[GradedMap]) -> list[bool]:
    """For each 0 <= k < n, whether delta(d_{k+1}) = O_k holds exactly."""
    results = []
    for k in range(len(lifts)):
        _check_lift(cx, lifts[k])
        lhs = Cochain(1, lifts[k], cx).coboundary().mapping
        rhs = obstruction(cx, lifts[:k]).mapping
        results.append(lhs == rhs)
    return results


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
    checks = check_relations(cx, lifts)
    if not all(checks):
        raise RelationsViolated(f"relation fails at order {checks.index(False)}")
    return _rung(cx, lifts, CoboundarySolver(cx, cx, 1))


def _rung(cx: Complex, lifts: Sequence[GradedMap],
          solver: CoboundarySolver) -> NextLift | ObstructionHit:
    """extend_step on lifts already known to satisfy the relations."""
    o_n = obstruction(cx, lifts)
    outcome = solver.solve(o_n)
    if isinstance(outcome, Solved):
        return NextLift(outcome.cochain.mapping)
    return ObstructionHit(
        order=len(lifts),
        obstruction=o_n,
        witness=outcome.witness,
        certificate=noncobounding_certificate(cx.d, o_n),
        certificate_degree=_certificate_degree(cx.d, o_n.mapping),
    )


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
    _check_lift(cx, d1, "infinitesimal")
    if not Cochain(1, d1, cx).is_cocycle():
        raise InfinitesimalNotCocycle("delta(d_1) != 0")
    chain: list[GradedMap] = [d1]
    if lifts:
        chain.extend(lifts)
        if len(chain) > order:
            raise TruncationMismatch(f"{len(chain)} lifts exceed requested order {order}")
        checks = check_relations(cx, chain)
        if not all(checks):
            raise RelationsViolated(f"supplied lifts fail the relation at order {checks.index(False)}")
    # every rung solves against delta^1 of cx: reduce it once, and only if a
    # rung runs; each solved lift passes delta(f) = g, so the relations on the
    # prefix are checked once, in the report
    solver = CoboundarySolver(cx, cx, 1) if len(chain) < order else None
    while len(chain) < order:
        step = _rung(cx, chain, solver)
        if isinstance(step, ObstructionHit):
            return DeformationReport(
                cx=cx,
                order=order,
                lifts=chain,
                relation_checks=check_relations(cx, chain),
                obstructed_at=step.order,
                obstruction=step.obstruction,
                witness=step.witness,
                certificate=step.certificate,
                certificate_degree=step.certificate_degree,
            )
        chain.append(step.lift)
    return DeformationReport(
        cx=cx, order=order, lifts=chain, relation_checks=check_relations(cx, chain)
    )


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


def trivialize(d_t: MapSeries, order: int | None = None) -> TrivializationReport:
    """Run the inductive gauge loop: at stage r solve delta(phi) = -coefficient
    and conjugate by Id - t^r phi, until every coefficient 1..order dies.

    Stops with ``stuck_at = r`` if the stage-r cocycle fails to cobound;
    failure at r = 1 is a genuine non-triviality certificate, later failures
    are relative to the gauges already chosen.
    """
    n = order if order is not None else d_t.order
    if n > d_t.order:
        raise TruncationMismatch(f"series is truncated at {d_t.order} < requested {n}")
    d_t = d_t.truncate(n)
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
        factor = MapSeries.gauge_factor(phi, r, n)
        current = gauge_transform(current, factor)
        composed = series_mul(factor, composed)
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
