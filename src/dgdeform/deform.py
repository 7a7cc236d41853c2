"""The deformation engine: obstruction ladder, inductive extension,
truncated power-series algebra over maps, and gauge trivialization.

A deformation of (V, d) is a series d_t = d + t d_1 + t^2 d_2 + ... squaring
to zero; equating coefficients of d_t o d_t = 0 gives the ladder of relations
delta(d_{n+1}) = O_n with O_n = -sum_{i=1}^{n} d_i d_{n-i+1}.  Extension past
order n is possible exactly when O_n cobounds; trivialization repeatedly
gauges away the lowest nonzero coefficient by solving delta(phi) = -coeff.

Every product of maps here goes through the sparse kernel of
:mod:`gmap`, ``_Products``: the ledger, which holds d as order 0 and adds
each lift's products into sums by order as the lift enters, the series
product and inverse, and the gauge step.  It multiplies only entries that
meet, so a ladder costs in proportion to its nonzero products, not to the
square of its order.
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
    _check_differentials,
    solve_coboundary,
)
from .errors import (
    ConstantTermNotIdentity,
    DegreeMismatch,
    InfinitesimalNotCocycle,
    ModuleMismatch,
    NotACocycle,
    NotSquareZero,
    RelationsViolated,
    TruncationMismatch,
)
from .gmap import GradedMap, _Products

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


# -- the series algebra -------------------------------------------------------


def series_mul(a: MapSeries, b: MapSeries) -> MapSeries:
    """Truncated Cauchy product: coefficient k is sum of a_i o b_{k-i}."""
    if a.module != b.module:
        raise ModuleMismatch("series live over different modules")
    if a.order != b.order:
        raise TruncationMismatch(f"truncation orders differ: {a.order} vs {b.order}")
    n, module, degree = a.order, a.module, a.degree + b.degree
    products = _Products(n)
    for j, bj in enumerate(b.coeffs):
        if bj:
            products.hold_right(j, bj.columns)
    for i, ai in enumerate(a.coeffs):
        if ai:
            products.left(i, ai.columns)
    return MapSeries([products.read(k, module, degree) for k in range(n + 1)])


def series_inverse(a: MapSeries) -> MapSeries:
    """The two-sided inverse through the truncation order (a_0 must be Id)."""
    module = a.module
    if a.coeffs[0] != GradedMap.identity(module):
        raise ConstantTermNotIdentity("series inverse needs constant coefficient Id")
    # inv_k = -sum_{i >= 1} a_i o inv_{k-i}: each inv_k, once read, is
    # multiplied into the orders above it, and inv_0 = Id enters as copies
    products = _Products(a.order)
    for i, ai in enumerate(a.coeffs):
        if i and ai:
            products.hold_left(i, ai.columns)
            products.add(i, ai.columns)
    inv = [a.coeffs[0]]
    for k in range(1, a.order + 1):
        m = -products.read(k, module, a.degree)
        if m:
            products.right(k, m.columns)
        inv.append(m)
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
    enters, with d held as order 0.

    As d_k enters, its products with d and with every lift already in are
    added into sums by order (``_Products``): d d_k + d_k d, which is
    delta(d_k), apart from the products d_i d_j of lifts, whose sum of order
    k + 1 is -O_k.  So the whole ladder costs in proportion to its nonzero
    products, and each O_k and delta(d_k) is normalized once, when first read.
    """

    def __init__(self, cx: Complex, lifts: Sequence[GradedMap] = ()):
        self.cx = cx
        self.lifts: list[GradedMap] = []
        self.with_d = _Products()  # d d_k + d_k d at order k
        self.with_d.hold_left(0, cx.d.columns)
        self.with_d.hold_right(0, cx.d.columns)
        self.pairs = _Products()  # d_i d_j at order i + j, for i, j >= 1
        self.o: dict[int, GradedMap] = {}  # n -> O_n, once read with d_1..d_n in
        self.deltas: list[GradedMap] = []  # delta(d_1), delta(d_2), ..., once compared
        for m in lifts:
            self.append(m)

    def append(self, m: GradedMap, what: str = "lift") -> None:
        _check_lift(self.cx, m, what)
        self.lifts.append(m)
        if m:
            k, cols = len(self.lifts), m.columns
            self.with_d.left(k, cols)
            self.with_d.right(k, cols)
            self.pairs.left(k, cols)
            self.pairs.hold_left(k, cols)
            self.pairs.hold_right(k, cols)
            self.pairs.right(k, cols)

    def obstruction(self, n: int) -> GradedMap:
        """O_n = -sum_{i=1}^{n} d_i o d_{n-i+1}, with d_i = 0 past the last lift."""
        o = self.o.get(n)
        if o is None:
            o = -self.pairs.read(n + 1, self.cx.module, -2)
            if n <= len(self.lifts):  # no later lift changes it
                self.o[n] = o
        return o

    def relations(self) -> list[bool]:
        """For each 0 <= k < n, whether delta(d_{k+1}) = O_k holds exactly."""
        if self.lifts:
            _check_differentials(self.cx, self.cx)
        for k in range(len(self.deltas) + 1, len(self.lifts) + 1):
            self.deltas.append(self.with_d.read(k, self.cx.module, -2))
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
    # each solved lift passes delta(f) = g, and the report compares every
    # delta(d_{k+1}) with the O_k the ledger already holds
    chain = ledger.lifts
    solver = CoboundarySolver(cx, cx, 1)
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
    g_j - phi o g_{j-r}.  Each power phi^k (rk <= order) is formed once, every
    product goes through ``_Products``, so only entries that meet are
    multiplied, and no product has the identity as an operand: phi^0 and g_0
    enter as plain copies.
    """
    n, module = d_t.order, d_t.module
    chain = _Products(n // r)  # phi^k o phi at order k + 1, while r(k + 1) <= n
    chain.hold_right(1, phi.columns)
    gauged = _Products(n)  # E = d_t o F^-1 (c_i and c_i o phi^k at order i + rk), then F o E
    power, k = phi, 1
    while power:
        gauged.hold_right(r * k, power.columns)
        chain.left(k, power.columns)
        k += 1
        power = chain.read(k, module, phi.degree)
    for i, c in enumerate(d_t.coeffs):
        if c:
            gauged.add(i, c.columns)
            gauged.left(i, c.columns)
    composed = _Products(n)  # g_j, j >= 1
    for j, m in enumerate(g.coeffs[1:], start=1):
        composed.add(j, m.columns)
    minus_phi = -phi
    for products in (gauged, composed):
        # m_j - phi o m_{j-r} in place: from the top order down, so that each
        # m_j is multiplied before anything lands on it; raw sums multiply
        # as well as normalized ones
        products.hold_left(r, minus_phi.columns)
        for j in sorted(products.sums, reverse=True):
            products.right(j, products.sums[j])
    composed.add(r, minus_phi.columns)  # -phi o g_0, with g_0 = Id
    return (
        MapSeries([gauged.read(j, module, d_t.degree) for j in range(n + 1)]),
        MapSeries([g.coeffs[0]] + [composed.read(j, module, g.degree) for j in range(1, n + 1)]),
    )


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
    solver = CoboundarySolver(cx, cx, 0)
    for r in range(1, n + 1):
        c = current.coeffs[r]
        if c.is_zero():
            stages.append(GradedMap.zero(d_t.module, degree=0))
            continue
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
    try:
        return solve_coboundary(Cochain(1, -d1, cx))
    except NotACocycle:
        raise InfinitesimalNotCocycle("delta(d_1) != 0") from None
