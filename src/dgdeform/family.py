"""Generator and verifiers for the built-in parametric deformation family.

The base complex has V_p = <x_{2p-1}, x_{2p}> for p >= 1 and differential
d = sum x_{6i-5} d/d x_{6i-3}.  On top of it the generator produces, for each
order n, four variants of an approximation d + t d_1 + ... :

* ``polynomial``  - a non-trivial polynomial deformation of order n,
* ``obstructed``  - an approximation whose extension dies at order n,
* ``linear``      - the one-term non-trivial deformation d + t x4 d/d x6,
* ``infinite``    - lifts with nonzero terms at every order.

Everything is verified mechanically on a finite truncation; all maps in play
have degree -1, so any sufficiently large truncation window is exact.

The maps are written straight in index space: x_i is basis index i - 1, and
each column holds the field's 1 or -1.  A ``FamilySpec`` holds one module;
``family_lifts`` builds the lifts on it without building a complex, and
``FamilySpec.cx`` puts d on the same module object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cochain import Cochain, Complex, Infeasible, noncobounding_certificate, solve_coboundary
from .deform import MapSeries, _Ledger, deform_to_order, first_order_triviality
from .errors import BadTruncation, TruncationTooSmall, UnknownBasisName
from .field import QQ, FieldSpec
from .gmap import GradedMap, _check
from .graded import GradedModule

VARIANTS = ("polynomial", "obstructed", "linear", "infinite")

#: The largest truncation degree a family member may use, given or derived
#: from its order (module dimension 2 * 10,000).  The tests, golden runs and
#: benchmark stay far below it (``verify-paper --n 64`` needs 195); past it,
#: ``FamilySpec`` and ``base_complex`` raise ``BadTruncation`` before building
#: anything, so ``--truncate`` or ``--n`` cannot ask for unbounded memory.
MAX_TRUNCATION = 10_000


def minimal_truncation(variant: str, n: int) -> int:
    """Smallest truncation degree housing every index the variant touches,
    with one degree of headroom."""
    if variant == "polynomial":
        return 3 * n + 1
    if variant == "obstructed":
        return max(4, 3 * n + 1)
    if variant == "linear":
        return 3
    if variant == "infinite":
        return 3 * n + 3
    raise BadTruncation(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one member of the example family."""

    n: int
    variant: str
    truncation: int | None = None
    field: FieldSpec = QQ

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise BadTruncation(f"unknown variant {self.variant!r}")
        if self.n < 1:
            raise TruncationTooSmall(f"order must be >= 1, got {self.n}")
        if self.variant == "polynomial" and self.n < 2:
            raise TruncationTooSmall("the polynomial variant needs n >= 2")
        minimum = minimal_truncation(self.variant, self.n)
        if self.truncation is None:
            object.__setattr__(self, "truncation", minimum)
        elif self.truncation < minimum:
            raise TruncationTooSmall(
                f"truncation {self.truncation} is below the minimum {minimum} "
                f"for variant {self.variant} at order {self.n}"
            )
        if self.truncation > MAX_TRUNCATION:
            raise BadTruncation(
                f"truncation {self.truncation} for variant {self.variant} at order "
                f"{self.n} exceeds the cap {MAX_TRUNCATION}"
            )

    @cached_property
    def _module(self) -> GradedModule:
        """The truncated module every lift of this member lives on."""
        return _base_module(self.truncation, self.field)

    @cached_property
    def cx(self) -> Complex:
        """The base complex every lift of this member is a map on."""
        return _complex_on(self._module)


def _base_module(truncation: int, field: FieldSpec) -> GradedModule:
    return GradedModule(
        "V", field, [(f"x{i}", (i + 1) // 2) for i in range(1, 2 * truncation + 1)]
    )


def _family_map(module: GradedModule, terms, degree: int = -1) -> GradedMap:
    """The map of ``degree`` sending x_s to c * x_t for each (s, t, c) in
    ``terms``, with c = 1 or -1 and x_i at index i - 1; no pair (s, t)
    repeats.  Every column is checked to be homogeneous, and a subscript
    outside 1..dim raises rather than wrapping around as a negative index."""
    one = module.field.one.value
    values = {1: one, -1: module.field.norm(-one)}
    dim = module.dim
    cols: dict[int, dict] = {}
    for s, t, c in terms:
        if not (0 < s <= dim and 0 < t <= dim):
            bad = t if 0 < s <= dim else s
            raise UnknownBasisName(f"no basis element 'x{bad}' in module {module.name}")
        cols.setdefault(s - 1, {})[t - 1] = values[c]
    _check(module, module, degree, cols)
    return GradedMap._of(module, module, degree, cols)


def _complex_on(module: GradedModule) -> Complex:
    """``module`` with d = sum x_{6i-5} d/d x_{6i-3} over every x_{6i-3} in it."""
    top = module.dim
    return Complex(module, _family_map(
        module, [(6 * i - 3, 6 * i - 5, 1) for i in range(1, (top + 3) // 6 + 1)]))


def base_complex(truncation: int, field: FieldSpec = QQ) -> Complex:
    """The truncated base complex: x_{2p-1}, x_{2p} in degree p for
    1 <= p <= truncation, with d = sum x_{6i-5} d/d x_{6i-3}."""
    if truncation < 1:
        raise BadTruncation(f"truncation must be >= 1, got {truncation}")
    if truncation > MAX_TRUNCATION:
        raise BadTruncation(f"truncation {truncation} exceeds the cap {MAX_TRUNCATION}")
    return _complex_on(_base_module(truncation, field))


def _poly_d1(module: GradedModule, upto: int) -> GradedMap:
    return _family_map(module, [(4, 1, 1)] + [(6 * i, 6 * i - 2, 1) for i in range(1, upto + 1)])


def _ladder_lift(module: GradedModule, k: int, with_tail: bool) -> GradedMap:
    terms = [(6 * k - 6, 6 * k - 9, -1)]
    if with_tail:
        terms.append((6 * k - 2, 6 * k - 5, 1))
    return _family_map(module, terms)


def family_lifts(spec: FamilySpec) -> list[GradedMap]:
    """The lift sequence d_1, d_2, ... for the chosen variant, on the module
    of ``spec.cx`` (which this does not build)."""
    module = spec._module
    n = spec.n
    if spec.variant == "linear":
        return [_family_map(module, [(6, 4, 1)])]
    if spec.variant == "polynomial":
        lifts = [_poly_d1(module, n - 1)]
        lifts += [_ladder_lift(module, k, with_tail=k < n) for k in range(2, n + 1)]
        return lifts
    if spec.variant == "obstructed":
        if n == 1:
            return [_family_map(module, [(6, 4, 1), (8, 6, 1)])]
        lifts = [_poly_d1(module, n - 1)]
        lifts += [_ladder_lift(module, k, with_tail=True) for k in range(2, n)]
        lifts.append(_family_map(module, [(6 * n - 6, 6 * n - 9, -1), (6 * n - 4, 6 * n - 6, 1)]))
        return lifts
    # infinite: d_1 spans every column the truncation admits; the tail of
    # each later lift is what keeps every obstruction (hence every lift) nonzero.
    lifts = [_poly_d1(module, module.dim // 6)]
    lifts += [_ladder_lift(module, k, with_tail=True) for k in range(2, n + 1)]
    return lifts


# -- verifiers ------------------------------------------------------------------


@dataclass
class CheckEntry:
    label: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        tail = f": {self.detail}" if self.detail else ""
        return f"{'PASS' if self.ok else 'FAIL'} {self.label}{tail}"


@dataclass
class VerificationReport:
    title: str
    entries: list[CheckEntry]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def render(self) -> str:
        return "\n".join([f"== {self.title} =="] + [e.render() for e in self.entries])


def _relation_sign(ledger: _Ledger) -> str:
    """Which sign of delta(d_{k+1}) reproduces O_k on this family."""
    plus = all(ledger.relations()[1:])
    minus = all(-dk == ledger.obstruction(k) for k, dk in enumerate(ledger.deltas[1:], start=1))
    if plus and minus:
        return "both (char 2)"
    if plus:
        return "+d"
    if minus:
        return "-d"
    return "neither"


def verify_polynomial(n: int, truncation: int | None = None,
                      field: FieldSpec = QQ) -> VerificationReport:
    """Check that the order-n polynomial variant is an exact, non-trivial
    polynomial deformation."""
    spec = FamilySpec(n, "polynomial", truncation, field)
    cx, lifts = spec.cx, family_lifts(spec)
    ledger = _Ledger(cx, lifts)

    entries = [
        CheckEntry(
            "relations",
            all(ledger.relations()),
            f"orders 0..{n - 1} hold; realized sign {_relation_sign(ledger)}",
        )
    ]

    d_t = MapSeries.deformation(cx, lifts, order=2 * n)
    entries.append(
        CheckEntry(
            "series square", d_t.is_square_zero(),
            f"all coefficients of d_t o d_t vanish through t^{2 * n}",
        )
    )

    entries.append(
        CheckEntry(
            "polynomial order", bool(lifts[n - 1]) and len(lifts) == n,
            f"d_{n} = {lifts[n - 1].render()} and d_i = 0 for i > {n}",
        )
    )

    outcome = first_order_triviality(cx, lifts[0])
    nontrivial = isinstance(outcome, Infeasible) and "x6" in outcome.witness.source_names
    detail = (
        f"witness: {outcome.witness.render()}"
        if isinstance(outcome, Infeasible)
        else "unexpectedly solvable"
    )
    entries.append(CheckEntry("non-triviality", nontrivial, detail))

    title = f"polynomial family n={n} over {field} (truncation {spec.truncation})"
    return VerificationReport(title, entries)


def verify_obstructed(n: int, truncation: int | None = None,
                      field: FieldSpec = QQ) -> VerificationReport:
    """Check that the order-n obstructed variant satisfies the relations
    through order n-1 and then genuinely fails to extend."""
    spec = FamilySpec(n, "obstructed", truncation, field)
    cx, lifts = spec.cx, family_lifts(spec)
    ledger = _Ledger(cx, lifts)

    entries = [
        CheckEntry("relations", all(ledger.relations()), f"orders 0..{n - 1} hold"),
    ]

    o_n = Cochain(2, ledger.obstruction(n), cx)
    lo, hi = (4, 8) if n == 1 else (6 * n - 8, 6 * n - 4)
    expected = _family_map(cx.module, [(hi, lo, -1)], degree=-2)
    entries.append(
        CheckEntry("obstruction value", o_n.mapping == expected, f"O_{n} = {o_n.render()}")
    )

    outcome = solve_coboundary(o_n)
    entries.append(
        CheckEntry(
            "no preimage on the truncation",
            isinstance(outcome, Infeasible),
            outcome.witness.render() if isinstance(outcome, Infeasible) else "solved",
        )
    )

    cert = noncobounding_certificate(cx.d, o_n)
    entries.append(
        CheckEntry(
            "truncation-independent certificate", cert,
            "source-degree block outside d's reach",
        )
    )

    title = f"obstructed family n={n} over {field} (truncation {spec.truncation})"
    return VerificationReport(title, entries)


def verify_infinite(order: int, truncation: int | None = None,
                    field: FieldSpec = QQ) -> VerificationReport:
    """Check the all-orders variant: the explicit lifts satisfy every
    relation, stay nonzero, and the deformation is non-trivial."""
    spec = FamilySpec(order, "infinite", truncation, field)
    cx, lifts = spec.cx, family_lifts(spec)

    report = deform_to_order(cx, lifts[0], order, lifts=lifts[1:])
    entries = [
        CheckEntry(
            "relations", report.extended and all(report.relation_checks),
            f"orders 0..{order - 1} hold",
        ),
        CheckEntry(
            "nonzero lifts", all(bool(m) for m in report.lifts),
            f"d_1..d_{order} all nonzero",
        ),
    ]

    canonical = deform_to_order(cx, lifts[0], order)
    entries.append(
        CheckEntry(
            "canonical extension unobstructed", canonical.extended,
            "solver lifts exist at every order (they may vanish)",
        )
    )

    outcome = first_order_triviality(cx, lifts[0])
    nontrivial = isinstance(outcome, Infeasible) and "x6" in outcome.witness.source_names
    entries.append(
        CheckEntry(
            "non-triviality", nontrivial,
            outcome.witness.render() if isinstance(outcome, Infeasible) else "unexpectedly solvable",
        )
    )

    title = f"infinite family N={order} over {field} (truncation {spec.truncation})"
    return VerificationReport(title, entries)
