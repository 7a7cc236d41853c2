"""Obstruction ladder, inductive extension, series algebra, trivialization."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dgdeform import (
    GF,
    QQ,
    Cochain,
    Complex,
    FamilySpec,
    GradedMap,
    GradedModule,
    Infeasible,
    MapSeries,
    Solved,
    base_complex,
    check_relations,
    cohomology,
    deform_to_order,
    extend_step,
    family_lifts,
    first_order_triviality,
    gauge_transform,
    obstruction,
    series_inverse,
    series_mul,
    trivialize,
)
from dgdeform import cochain
from dgdeform.deform import (
    MAX_ORDER,
    NextLift,
    ObstructionHit,
    _gauge_step,
    _Ledger,
)
from dgdeform.errors import (
    BadDegree,
    ConstantTermNotIdentity,
    InfinitesimalNotCocycle,
    NotSquareZero,
    RelationsViolated,
    TruncationMismatch,
)
from dgdeform.gmap import _Products
from conftest import (
    compose_callers,
    conjugated,
    count_blocks,
    count_reductions,
    gauge_factor,
    oracle_obstruction,
    oracle_relations,
    oracle_series_mul,
    random_cochain,
    random_cocycle,
    random_complex,
    random_gauged,
)


@pytest.fixture
def poly4():
    spec = FamilySpec(4, "polynomial")
    cx = base_complex(spec.truncation, QQ)
    return cx, family_lifts(spec)


# -- obstructions --------------------------------------------------------------


def test_primary_obstruction_of_family(poly4):
    cx, lifts = poly4
    o1 = obstruction(cx, lifts[:1])
    assert o1.mapping == GradedMap.from_entries(cx.module, -2, [("x6", "x1", -1)])


def test_intermediate_obstructions(poly4):
    cx, lifts = poly4
    for k in range(2, 4):
        o_k = obstruction(cx, lifts[:k])
        expected = GradedMap.from_entries(
            cx.module, -2, [(f"x{6 * k}", f"x{6 * k - 5}", -1)]
        )
        assert o_k.mapping == expected


def test_full_family_obstruction_vanishes(poly4):
    cx, lifts = poly4
    assert obstruction(cx, lifts).is_zero()


def test_obstruction_of_nothing_is_zero(poly4):
    cx, _ = poly4
    assert obstruction(cx, []).is_zero()
    zero = GradedMap.zero(cx.module, degree=-1)
    assert obstruction(cx, [zero, zero]).is_zero()


def test_obstruction_cocycle_law(poly4):
    cx, lifts = poly4
    rng = random.Random(2)
    for k in range(1, len(lifts) + 1):
        assert obstruction(cx, lifts[:k]).is_cocycle()
    # random valid extensions keep the law
    for _ in range(6):
        rcx = random_complex(rng, QQ, 8, singleton_degrees=[0, 1])
        d1 = random_cocycle(rng, rcx)
        report = deform_to_order(rcx, d1, 4)
        if report.extended:
            for k in range(1, 5):
                assert obstruction(rcx, report.lifts[:k]).is_cocycle()


# -- relations -------------------------------------------------------------------


def test_relations_hold_for_family(poly4):
    cx, lifts = poly4
    assert all(check_relations(cx, lifts))


def test_relation_zero_fails_for_non_cocycle(poly4):
    cx, _ = poly4
    bad = GradedMap.from_entries(cx.module, -1, [("x7", "x5", 1)])
    assert check_relations(cx, [bad]) == [False]


def test_ladder_needs_a_degree_minus_one_differential():
    # a complex whose d has degree +1: relations read delta, and delta needs
    # d of degree -1, whether a lift is zero or not
    module = GradedModule("V", QQ, [("a", 0), ("b", 1)])
    cx = Complex(module, GradedMap.from_entries(module, 1, [("a", "b", 1)]))
    d1 = GradedMap.from_entries(module, -1, [("b", "a", 1)])
    zero = GradedMap.zero(module, degree=-1)
    message = "the coboundary operator needs degree -1 differentials; got degree 1"
    for lifts in ([d1], [zero], [d1, zero]):
        with pytest.raises(BadDegree, match=message):
            check_relations(cx, lifts)
        with pytest.raises(BadDegree, match=message):
            extend_step(cx, lifts)
    with pytest.raises(BadDegree, match=message):
        deform_to_order(cx, d1, 2)
    with pytest.raises(BadDegree, match=message):
        deform_to_order(cx, zero, 1)
    assert check_relations(cx, []) == []


def test_relations_trivial_deformation(poly4):
    cx, _ = poly4
    zero = GradedMap.zero(cx.module, degree=-1)
    assert check_relations(cx, [zero] * 4 ) == [True] * 4


def test_relation_series_equivalence(poly4):
    cx, lifts = poly4
    n = len(lifts)
    # relations through every order <=> the series squares to zero
    assert all(check_relations(cx, lifts))
    d_t = MapSeries.deformation(cx, lifts, order=2 * n)
    assert series_mul(d_t, d_t).is_zero()
    # corrupt one lift: some relation fails and the square is nonzero
    corrupted = list(lifts)
    corrupted[1] = -corrupted[1]
    assert not all(check_relations(cx, corrupted))
    d_bad = MapSeries.deformation(cx, corrupted, order=2 * n)
    assert not series_mul(d_bad, d_bad).is_zero()


def test_relation_series_equivalence_random_valid_deformations():
    # relations through order N-1 are exactly square-zero through t^N;
    # the t^{N+1} coefficient is the next obstruction and stays unconstrained
    rng = random.Random(59)
    for _ in range(6):
        cx = random_complex(rng, QQ, 8, singleton_degrees=[0, 1])
        d1 = random_cocycle(rng, cx)
        report = deform_to_order(cx, d1, 4)
        assert report.extended
        assert all(check_relations(cx, report.lifts))
        d_t = MapSeries.deformation(cx, report.lifts, order=4)
        assert series_mul(d_t, d_t).is_zero()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from([QQ, GF(2), GF(5)]))
def test_ledger_matches_quadratic_oracle(seed, field):
    # a valid prefix, then random lifts with zero gaps, then a zero tail
    rng = random.Random(seed)
    cx = random_complex(rng, field, rng.randint(3, 9), singleton_degrees=[0, 1])
    zero = GradedMap.zero(cx.module, degree=-1)
    lifts = list(deform_to_order(cx, random_cocycle(rng, cx), rng.randint(1, 4)).lifts)
    for _ in range(rng.randint(0, 4)):
        lifts.append(zero if rng.random() < 0.4 else random_cochain(rng, cx, 1, 0.3))
    lifts += [zero] * rng.randint(0, 4)
    ledger = _Ledger(cx, lifts)
    for k in range(len(lifts) + 1):
        expected = oracle_obstruction(cx, lifts[:k])
        assert obstruction(cx, lifts[:k]).mapping == expected
        assert ledger.obstruction(k) == expected
    expected = oracle_relations(cx, lifts)
    assert check_relations(cx, lifts) == expected
    assert ledger.relations() == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from([QQ, GF(2), GF(5)]))
def test_ledger_deltas_are_coboundaries(seed, field):
    # random lifts with zero gaps and a zero tail, on a complex whose d is
    # sometimes conjugated to fill in; the lifts enter in two batches, with
    # every obstruction read in between, some before their lifts are all in
    rng = random.Random(seed)
    cx = random_complex(rng, field, rng.randint(3, 9), singleton_degrees=[0, 1])
    if rng.random() < 0.5:
        cx = conjugated(rng, cx)
    zero = GradedMap.zero(cx.module, degree=-1)
    lifts = [zero if rng.random() < 0.3 else random_cochain(rng, cx, 1, 0.4)
             for _ in range(rng.randint(1, 6))]
    lifts += [zero] * rng.randint(0, 3)
    cut = rng.randint(0, len(lifts))
    ledger = _Ledger(cx, lifts[:cut])
    ledger.relations()
    padded = lifts[:cut] + [zero] * len(lifts)  # d_i = 0 past the last lift in
    for k in range(len(lifts) + 1):
        assert ledger.obstruction(k) == oracle_obstruction(cx, padded[:k])
    for m in lifts[cut:]:
        ledger.append(m)
    assert ledger.relations() == oracle_relations(cx, lifts)
    assert len(ledger.deltas) == len(lifts)
    for k, m in enumerate(lifts):
        assert ledger.deltas[k] == Cochain(1, m, cx).coboundary().mapping
        assert ledger.obstruction(k) == oracle_obstruction(cx, lifts[:k])


# -- stepping -----------------------------------------------------------------------


def test_extend_step_produces_valid_lift(poly4):
    cx, lifts = poly4
    step = extend_step(cx, lifts[:2])
    assert isinstance(step, NextLift)
    o2 = obstruction(cx, lifts[:2])
    assert Cochain(1, step.lift, cx).coboundary() == o2


def test_extend_step_hits_obstruction():
    spec = FamilySpec(3, "obstructed")
    cx = base_complex(spec.truncation, QQ)
    lifts = family_lifts(spec)
    step = extend_step(cx, lifts)
    assert isinstance(step, ObstructionHit)
    assert step.order == 3
    assert step.obstruction.mapping == GradedMap.from_entries(
        cx.module, -2, [("x14", "x10", -1)]
    )
    assert step.certificate


def test_extend_step_zero_infinitesimal(poly4):
    cx, _ = poly4
    step = extend_step(cx, [GradedMap.zero(cx.module, degree=-1)])
    assert isinstance(step, NextLift)
    assert step.lift.is_zero()


def test_extend_step_rejects_broken_relations(poly4):
    cx, lifts = poly4
    with pytest.raises(RelationsViolated):
        extend_step(cx, [lifts[0], -lifts[1]])


def test_deform_to_order_obstructed_family():
    for n in (2, 4):
        spec = FamilySpec(n, "obstructed")
        cx = base_complex(spec.truncation, QQ)
        lifts = family_lifts(spec)
        report = deform_to_order(cx, lifts[0], 6, lifts=lifts[1:])
        assert not report.extended
        assert report.obstructed_at == n
        assert report.certificate


def test_deform_to_order_rejects_non_cocycle(poly4):
    cx, _ = poly4
    bad = GradedMap.from_entries(cx.module, -1, [("x7", "x5", 1)])
    with pytest.raises(InfinitesimalNotCocycle):
        deform_to_order(cx, bad, 3)


def test_deform_to_order_validates_supplied_lifts(poly4):
    cx, lifts = poly4
    with pytest.raises(RelationsViolated):
        deform_to_order(cx, lifts[0], 4, lifts=[-lifts[1]])


def test_deform_to_order_extends_when_h2_vanishes():
    rng = random.Random(19)
    for _ in range(8):
        field = rng.choice([QQ, GF(2), GF(5)])
        cx = random_complex(rng, field, rng.randint(4, 10), singleton_degrees=[0, 1])
        assert cohomology(cx, cx, 2).dim_h == 0
        d1 = random_cocycle(rng, cx)
        report = deform_to_order(cx, d1, 6)
        assert report.extended
        assert all(report.relation_checks)


# -- series algebra -----------------------------------------------------------------


def test_series_identity_unit(poly4):
    cx, lifts = poly4
    d_t = MapSeries.deformation(cx, lifts, order=5)
    ident = MapSeries.identity(cx.module, 5)
    assert series_mul(ident, d_t) == d_t
    assert series_mul(d_t, ident) == d_t


def test_series_square_of_linear_deformation():
    spec = FamilySpec(1, "linear")
    cx = base_complex(spec.truncation, QQ)
    (d1,) = family_lifts(spec)
    assert d1.compose(d1).is_zero()
    d_t = MapSeries.deformation(cx, [d1], order=2)
    assert series_mul(d_t, d_t).is_zero()


def test_series_inverse_geometric():
    cx = base_complex(4, QQ)
    phi = GradedMap.from_entries(cx.module, 0, [("x4", "x3", 1), ("x6", "x5", 2)])
    n = 4
    zero = GradedMap.zero(cx.module, degree=0)
    coeffs = [GradedMap.identity(cx.module), -phi] + [zero] * (n - 1)
    inv = series_inverse(MapSeries(coeffs))
    power = GradedMap.identity(cx.module)
    for k in range(n + 1):
        assert inv.coeff(k) == power
        power = power.compose(phi)


def test_series_inverse_of_identity(poly4):
    cx, _ = poly4
    ident = MapSeries.identity(cx.module, 3)
    assert series_inverse(ident) == ident


def test_series_inverse_two_sided_random():
    rng = random.Random(29)
    for _ in range(10):
        cx = random_complex(rng, QQ, 8)
        n = rng.randint(1, 4)
        coeffs = [GradedMap.identity(cx.module)] + [
            random_cochain(rng, cx, 0) for _ in range(n)
        ]
        a = MapSeries(coeffs)
        b = series_inverse(a)
        ident = MapSeries.identity(cx.module, n)
        assert series_mul(a, b) == ident
        assert series_mul(b, a) == ident


def test_series_inverse_requires_identity_constant(poly4):
    cx, lifts = poly4
    with pytest.raises(ConstantTermNotIdentity):
        series_inverse(MapSeries.deformation(cx, lifts))


def test_series_truncation_mismatch(poly4):
    cx, lifts = poly4
    a = MapSeries.deformation(cx, lifts, order=4)
    b = MapSeries.deformation(cx, lifts, order=5)
    with pytest.raises(TruncationMismatch):
        series_mul(a, b)


def test_orders_outside_the_bounds_raise_before_allocating(poly4):
    cx, lifts = poly4
    start = time.perf_counter()
    with pytest.raises(TruncationMismatch, match=f"exceeds the cap {MAX_ORDER}"):
        deform_to_order(cx, lifts[0], 10**12)
    with pytest.raises(TruncationMismatch, match=f"exceeds the cap {MAX_ORDER}"):
        MapSeries.deformation(cx, lifts, order=MAX_ORDER + 1)
    # a negative order is refused before it is compared with the lifts
    with pytest.raises(TruncationMismatch, match="order must be >= 0, got -1"):
        MapSeries.deformation(cx, lifts, order=-1)
    assert time.perf_counter() - start < 1.0
    assert MapSeries.deformation(cx, lifts, order=MAX_ORDER).order == MAX_ORDER


# -- gauge ------------------------------------------------------------------------------


def test_gauge_by_identity_fixes_series(poly4):
    cx, lifts = poly4
    d_t = MapSeries.deformation(cx, lifts, order=4)
    assert gauge_transform(d_t, MapSeries.identity(cx.module, 4)) == d_t


def test_gauge_kills_first_order_when_solvable():
    # build d_1 = -delta(phi) so that Id - t*phi trivializes the first order
    rng = random.Random(31)
    cx = random_complex(rng, QQ, 8)
    phi = random_cochain(rng, cx, 0)
    d1 = -Cochain(0, phi, cx).coboundary().mapping
    d_t = MapSeries.deformation(cx, [d1], order=2)
    assert series_mul(d_t, d_t).is_zero()
    factor = gauge_factor(phi, 1, 2)
    gauged = gauge_transform(d_t, factor)
    assert gauged.coeff(0) == cx.d
    assert gauged.coeff(1).is_zero()


def test_gauge_preserves_square_zero_and_constant_term(poly4):
    cx, lifts = poly4
    rng = random.Random(37)
    d_t = MapSeries.deformation(cx, lifts, order=4)
    phi = random_cochain(rng, cx, 0, density=0.3)
    phi_t = gauge_factor(phi, 2, 4)
    gauged = gauge_transform(d_t, phi_t)
    assert gauged.coeff(0) == cx.d
    assert series_mul(gauged, gauged).is_zero()


def test_gauge_moves_infinitesimal_by_coboundary():
    rng = random.Random(43)
    for _ in range(6):
        cx = random_complex(rng, QQ, 8, singleton_degrees=[0, 1])
        d1 = random_cocycle(rng, cx)
        report = deform_to_order(cx, d1, 3)
        assert report.extended
        d_t = MapSeries.deformation(cx, report.lifts, order=3)
        phi = random_cochain(rng, cx, 0)
        phi_t = MapSeries([GradedMap.identity(cx.module), phi]
                          + [GradedMap.zero(cx.module, degree=0)] * 2)
        gauged = gauge_transform(d_t, phi_t)
        delta_phi = Cochain(0, phi, cx).coboundary().mapping
        assert gauged.coeff(1) - d_t.coeff(1) == -delta_phi


def test_gauge_requires_identity_and_square_zero(poly4):
    cx, lifts = poly4
    d_t = MapSeries.deformation(cx, lifts, order=4)
    bad_phi = MapSeries.deformation(cx, lifts, order=4)
    with pytest.raises(ConstantTermNotIdentity):
        gauge_transform(d_t, bad_phi)
    broken = MapSeries.deformation(cx, [lifts[1]], order=4)  # delta(d_2) != 0
    with pytest.raises(NotSquareZero):
        gauge_transform(broken, MapSeries.identity(cx.module, 4))


# -- trivialization -----------------------------------------------------------------------


def test_trivialize_family_stuck_at_one(poly4):
    cx, lifts = poly4
    d_t = MapSeries.deformation(cx, lifts, order=8)
    report = trivialize(d_t)
    assert not report.trivialized
    assert report.stuck_at == 1
    assert report.definitive_nontriviality
    assert "x6" in report.witness.source_names


def test_trivialize_trivial_deformation(poly4):
    cx, _ = poly4
    d_t = MapSeries.deformation(cx, [], order=4)
    report = trivialize(d_t)
    assert report.trivialized
    assert all(phi.is_zero() for phi in report.stages)
    assert report.residual == d_t


def test_trivialize_long_order_is_fast():
    # each gauge factor Id - t^r phi has one nonzero coefficient of positive
    # order, so inverting it must not cost order^2 map tests
    module = GradedModule("V", QQ, [("a", 1), ("b", 0)])
    d = GradedMap.from_entries(module, -1, [("a", "b", 1)])
    d_t = MapSeries.deformation(Complex(module, d), [d], 20_000)
    start = time.perf_counter()
    report = trivialize(d_t)
    elapsed = time.perf_counter() - start
    assert report.trivialized and len(report.stages) == 20_000
    assert elapsed < 3


def test_trivialize_when_h1_vanishes():
    rng = random.Random(47)
    for _ in range(6):
        cx = random_complex(rng, QQ, 8, singleton_degrees=[1])
        assert cohomology(cx, cx, 1).dim_h == 0
        d1 = random_cocycle(rng, cx)
        built = deform_to_order(cx, d1, 4)
        assert built.extended
        d_t = MapSeries.deformation(cx, built.lifts, order=4)
        report = trivialize(d_t)
        assert report.trivialized
        gauged = gauge_transform(d_t, report.automorphism)
        assert gauged == report.residual
        for k in range(1, 5):
            assert gauged.coeff(k).is_zero()
        assert gauged.coeff(0) == cx.d


def test_trivialize_rejects_non_square_zero(poly4):
    cx, lifts = poly4
    broken = MapSeries.deformation(cx, [lifts[1]], order=2)
    with pytest.raises(NotSquareZero):
        trivialize(broken)


# -- first-order triviality ------------------------------------------------------------------


def test_first_order_family_infeasible_at_x6(poly4):
    cx, lifts = poly4
    out = first_order_triviality(cx, lifts[0])
    assert isinstance(out, Infeasible)
    assert "x6" in out.witness.source_names


def test_first_order_linear_variant_infeasible():
    spec = FamilySpec(1, "linear")
    cx = base_complex(spec.truncation, QQ)
    (d1,) = family_lifts(spec)
    out = first_order_triviality(cx, d1)
    assert isinstance(out, Infeasible)


def test_first_order_solvable_for_exact_infinitesimal():
    rng = random.Random(53)
    for _ in range(5):
        cx = random_complex(rng, QQ, 8)
        phi = random_cochain(rng, cx, 0)
        d1 = Cochain(0, phi, cx).coboundary().mapping
        out = first_order_triviality(cx, d1)
        assert isinstance(out, Solved)
        assert out.cochain.coboundary().mapping == -d1


def test_first_order_rejects_non_cocycle(poly4):
    cx, _ = poly4
    bad = GradedMap.from_entries(cx.module, -1, [("x7", "x5", 1)])
    with pytest.raises(InfinitesimalNotCocycle):
        first_order_triviality(cx, bad)


def test_first_order_computes_delta_of_d1_once(poly4, monkeypatch):
    # the cocycle check of the solve is the only delta of -d_1: the family's
    # d_1 has a nonzero class, so no solution is checked either
    cx, lifts = poly4
    deltas = []
    integer_coboundary = cochain._integer_coboundary

    def counting(*args):
        deltas.append(args[2])
        return integer_coboundary(*args)

    monkeypatch.setattr(cochain, "_integer_coboundary", counting)
    monkeypatch.setattr(Cochain, "coboundary", lambda self: deltas.append("Cochain"))
    assert isinstance(first_order_triviality(cx, lifts[0]), Infeasible)
    assert deltas == [1]


def test_canonical_ladder_reduces_each_block_of_d_once(monkeypatch):
    # no delta^1: the rungs solve with the homotopy of d, one elimination
    # per degree block of d that an obstruction touches, at most once each
    # on the complex and none wider than the widest degree of the module
    spec = FamilySpec(6, "infinite")
    cx = base_complex(spec.truncation, QQ)
    lifts = family_lifts(spec)
    calls = count_reductions(monkeypatch)
    built = count_blocks(monkeypatch)
    report = deform_to_order(cx, lifts[0], 6)
    assert report.extended and len(report.lifts) == 6
    assert all(report.relation_checks)
    widest = max(len(gens) for gens in cx.module._by_degree.values())
    assert calls and max(calls) <= widest
    assert len(calls) == len(built) == len(set(built))
    # a second ladder on the same complex reads every block from its cache,
    # and with every lift supplied no rung runs
    calls.clear()
    assert deform_to_order(cx, lifts[0], 6).lifts == report.lifts
    assert deform_to_order(cx, lifts[0], 6, lifts=lifts[1:]).extended
    assert calls == []


def test_trivialize_reduces_each_block_of_d_at_most_once(monkeypatch):
    cx = base_complex(4, QQ)
    phi = GradedMap.from_entries(cx.module, 0, [("x4", "x3", 1), ("x1", "x2", 1)])
    factor = gauge_factor(phi, 1, 3)
    d_t = gauge_transform(MapSeries.deformation(cx, [], order=3), factor)
    calls = count_reductions(monkeypatch)
    built = count_blocks(monkeypatch)
    report = trivialize(d_t)
    assert report.trivialized
    widest = max(len(gens) for gens in cx.module._by_degree.values())
    assert calls and max(calls) <= widest
    assert len(calls) == len(built) == len(set(built))


def test_trivialize_composes_no_identity(monkeypatch):
    rng = random.Random(61)
    cx = random_complex(rng, QQ, 8)
    d_t = random_gauged(rng, MapSeries.deformation(cx, [], order=6), range(1, 7))
    assert all(d_t.coeffs)  # dense: every coefficient 0..6 is nonzero
    identity = GradedMap.identity(cx.module)
    operands = []  # whether each operand of a product is the identity
    for name in ("hold_left", "hold_right", "left", "right"):
        def recording(self, k, columns, method=getattr(_Products, name)):
            operands.append(columns == identity.columns)
            method(self, k, columns)

        monkeypatch.setattr(_Products, name, recording)
    compose = GradedMap.compose

    def recording_compose(self, other):
        operands.extend((self == identity, other == identity))
        return compose(self, other)

    monkeypatch.setattr(GradedMap, "compose", recording_compose)
    callers = compose_callers(monkeypatch, [_gauge_step, series_mul, series_inverse])
    report = trivialize(d_t)
    assert report.trivialized and sum(map(bool, report.stages)) >= 3
    assert operands and not any(operands)
    assert callers == []


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from([QQ, GF(2), GF(5)]),
    stage=st.sampled_from(["one", "late", "any"]),
)
def test_gauge_step_matches_series_oracle(seed, field, stage):
    # a square-zero series: a canonical ladder with t -> t^s (zero gaps for
    # s > 1), sometimes gauged once more to fill the gaps
    rng = random.Random(seed)
    cx = random_complex(rng, field, rng.randint(3, 8), singleton_degrees=[0, 1])
    lifts = deform_to_order(cx, random_cocycle(rng, cx), rng.randint(1, 4)).lifts
    s = rng.randint(1, 3)
    zero = GradedMap.zero(cx.module, degree=-1)
    spread = [lifts[k // s - 1] if k % s == 0 else zero for k in range(1, s * len(lifts) + 1)]
    n = len(spread)
    d_t = MapSeries.deformation(cx, spread, order=n)
    if rng.random() < 0.3:
        d_t = gauge_transform(d_t, gauge_factor(random_cochain(rng, cx, 0), 1, n))
    # r = 1 takes many powers phi^k; r > n/2 takes none beyond phi
    r = {"one": 1, "late": rng.randint(n // 2 + 1, n), "any": rng.randint(1, n)}[stage]
    phi = random_cochain(rng, cx, 0, rng.choice([0.3, 0.7]))
    g = MapSeries([GradedMap.identity(cx.module)] + [
        random_cochain(rng, cx, 0, 0.4) if rng.random() < 0.5 else GradedMap.zero(cx.module)
        for _ in range(n)
    ])
    factor = gauge_factor(phi, r, n)
    gauged, composed = _gauge_step(d_t, g, phi, r)
    assert gauged == gauge_transform(d_t, factor)
    assert composed == series_mul(factor, g)


def _random_series(rng, cx, p, n, head=None):
    """A random series of (p)-cochains through order n, with zero gaps and a
    zero tail; ``head`` replaces the order-0 coefficient."""
    zero = GradedMap.zero(cx.module, degree=-p)
    coeffs = [random_cochain(rng, cx, p, rng.choice([0.2, 0.6])) if rng.random() < 0.6 else zero
              for _ in range(n + 1)]
    tail = rng.randint(0, n)
    coeffs[n + 1 - tail:] = [zero] * tail
    if head is not None:
        coeffs[0] = head
    return MapSeries(coeffs)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from([QQ, GF(2), GF(5)]))
def test_series_products_match_quadratic_oracle(seed, field):
    rng = random.Random(seed)
    cx = random_complex(rng, field, rng.randint(3, 8), singleton_degrees=[0, 1])
    if rng.random() < 0.3:
        cx = conjugated(rng, cx)
    identity = GradedMap.identity(cx.module)
    # operands of different degrees, with gaps and tails
    n = rng.randint(0, 6)
    a = _random_series(rng, cx, rng.choice([-1, 0, 1]), n)
    b = _random_series(rng, cx, rng.choice([-1, 0, 1, 2]), n)
    assert series_mul(a, b) == oracle_series_mul(a, b)
    assert series_mul(b, a) == oracle_series_mul(b, a)
    assert series_mul(a, a) == oracle_series_mul(a, a)
    phi_t = _random_series(rng, cx, 0, n, head=identity)
    assert oracle_series_mul(phi_t, series_inverse(phi_t)) == MapSeries.identity(cx.module, n)
    # a square-zero series: a canonical ladder with t -> t^s, so with gaps
    lifts = deform_to_order(cx, random_cocycle(rng, cx), rng.randint(1, 3)).lifts
    s = rng.randint(1, 2)
    zero = GradedMap.zero(cx.module, degree=-1)
    spread = [lifts[k // s - 1] if k % s == 0 else zero for k in range(1, s * len(lifts) + 1)]
    d_t = MapSeries.deformation(cx, spread)
    assert series_mul(d_t, d_t) == oracle_series_mul(d_t, d_t)
    # phi_t d_t phi_t^-1 is the G with G phi_t = phi_t d_t
    phi_t = _random_series(rng, cx, 0, d_t.order, head=identity)
    gauged = gauge_transform(d_t, phi_t)
    assert oracle_series_mul(gauged, phi_t) == oracle_series_mul(phi_t, d_t)
    # one gauge step by F = Id - t^r phi, on the ladder padded with a zero
    # tail (the step does not need a square-zero series) and an automorphism
    # g with gaps
    order = len(spread) + rng.randint(0, 2)
    d_t = MapSeries.deformation(cx, spread, order=order)
    r = rng.randint(1, order)
    phi = random_cochain(rng, cx, 0, rng.choice([0.3, 0.7]))
    g = _random_series(rng, cx, 0, order, head=identity)
    factor = gauge_factor(phi, r, order)
    gauged, composed = _gauge_step(d_t, g, phi, r)
    assert oracle_series_mul(gauged, factor) == oracle_series_mul(factor, d_t)
    assert composed == oracle_series_mul(factor, g)
