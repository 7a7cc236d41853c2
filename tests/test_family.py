"""The built-in example family: generators, support structure, verifiers."""

import pytest

from dgdeform import (
    GF,
    QQ,
    Cochain,
    Complex,
    FamilySpec,
    GradedMap,
    GradedModule,
    base_complex,
    family_lifts,
    minimal_truncation,
    verify_infinite,
    verify_obstructed,
    verify_polynomial,
)
from dgdeform.deform import _Ledger, check_relations, obstruction, series_mul
from dgdeform.errors import BadTruncation, DegreeMismatch, TruncationTooSmall, UnknownBasisName
from dgdeform.family import MAX_TRUNCATION
from conftest import compose, compose_callers, count_products, elementary

FIELDS = [QQ, GF(2), GF(5)]


def test_base_complex_small():
    cx = base_complex(3, QQ)
    assert [n for n, _ in cx.module.basis] == [f"x{i}" for i in range(1, 7)]
    assert cx.d == elementary(cx.module, "x1", "x3")


def test_base_complex_truncates_d():
    cx = base_complex(5, QQ)
    expected = GradedMap.from_entries(
        cx.module, -1, [("x3", "x1", 1), ("x9", "x7", 1)]
    )
    assert cx.d == expected


@pytest.mark.parametrize("trunc", range(1, 31))
def test_base_differential_squares_to_zero(trunc):
    cx = base_complex(trunc, QQ)
    assert compose(cx.d, cx.d).is_zero()


def test_base_complex_rejects_bad_truncation():
    with pytest.raises(BadTruncation):
        base_complex(0, QQ)


def test_polynomial_lifts_small_orders():
    cx2 = base_complex(7, QQ)
    lifts2 = family_lifts(FamilySpec(2, "polynomial"))
    assert lifts2[1] == GradedMap.from_entries(cx2.module, -1, [("x6", "x3", -1)])

    cx3 = base_complex(10, QQ)
    lifts3 = family_lifts(FamilySpec(3, "polynomial"))
    assert lifts3[1] == GradedMap.from_entries(
        cx3.module, -1, [("x6", "x3", -1), ("x10", "x7", 1)]
    )


def test_obstructed_n1_lift():
    spec = FamilySpec(1, "obstructed")
    cx = base_complex(spec.truncation, QQ)
    (d1,) = family_lifts(spec)
    assert d1 == GradedMap.from_entries(cx.module, -1, [("x6", "x4", 1), ("x8", "x6", 1)])


def test_linear_variant_lift():
    spec = FamilySpec(1, "linear")
    cx = base_complex(spec.truncation, QQ)
    (d1,) = family_lifts(spec)
    assert d1 == elementary(cx.module, "x4", "x6")


def test_truncation_bounds():
    assert minimal_truncation("polynomial", 3) == 10
    assert minimal_truncation("obstructed", 1) == 4
    with pytest.raises(TruncationTooSmall):
        FamilySpec(3, "polynomial", truncation=5)
    with pytest.raises(TruncationTooSmall):
        FamilySpec(1, "polynomial")
    with pytest.raises(BadTruncation):
        FamilySpec(2, "no-such-variant")


@pytest.mark.parametrize("n", [2, 3, 5])
def test_support_separation(n):
    """Lifts are supported on even-index generators; higher lifts land in the
    odd-index span, which forces the pairwise composition vanishing used to
    collapse the obstruction sums."""
    spec = FamilySpec(n, "polynomial")
    cx = base_complex(spec.truncation, QQ)
    lifts = family_lifts(spec)
    module = cx.module

    def index(i):
        return int(module.name_of(i)[1:])

    for m in lifts:
        assert all(index(j) % 2 == 0 for j in m.columns)  # sources in S
    for m in lifts[1:]:
        for v in m.columns.values():
            assert all(index(i) % 2 == 1 for i in v)  # image in S-perp
    for a in lifts[1:]:
        for b in lifts[1:]:
            assert a.compose(b).is_zero()
        assert lifts[0].compose(a).is_zero()
    # d sends even-index generators nowhere: d(S) in S-perp trivially
    for a in lifts[1:]:
        assert a.compose(cx.d).is_zero()
        delta = Cochain(1, a, cx).coboundary().mapping
        assert delta == cx.d.compose(a)
    for k in range(2, n + 1):
        o_k = obstruction(cx, lifts[:k])
        assert o_k.mapping == -(lifts[k - 1].compose(lifts[0]))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [2, 3, 6])
def test_verify_polynomial_passes(n, field):
    assert verify_polynomial(n, field=field).ok


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_verify_obstructed_passes(n, field):
    assert verify_obstructed(n, field=field).ok


@pytest.mark.parametrize("field", FIELDS)
def test_verify_infinite_passes(field):
    assert verify_infinite(4, field=field).ok


def test_verify_infinite_order_one_degenerates_gracefully():
    # with a single order this is just order-1 data plus the non-triviality check
    assert verify_infinite(1).ok


def test_corrupted_lift_fails_relation_at_order_one():
    spec = FamilySpec(3, "polynomial")
    cx = base_complex(spec.truncation, QQ)
    lifts = family_lifts(spec)
    lifts[1] = -lifts[1]  # sign flip on d_2
    checks = check_relations(cx, lifts)
    assert checks[0]  # d_1 is still a cocycle
    assert not checks[1]


def test_corrupted_differential_detected():
    spec = FamilySpec(2, "infinite")
    cx = base_complex(spec.truncation, QQ)
    lifts = family_lifts(spec)
    # drop the first term of d: x3 no longer maps to x1
    weaker = GradedMap.from_entries(
        cx.module, -1, [(cx.module.name_of(j), cx.module.name_of(i), c)
                        for j, i, c in cx.d.entries() if cx.module.name_of(j) != "x3"]
    )
    broken = Complex(cx.module, weaker)
    assert not all(check_relations(broken, lifts))


def test_reports_are_truncation_stable():
    for maker, n in ((verify_polynomial, 3), (verify_obstructed, 3)):
        base = minimal_truncation("polynomial", n)
        r1 = maker(n, truncation=base)
        r2 = maker(n, truncation=base + 5)
        assert [(e.label, e.ok, e.detail) for e in r1.entries] == [
            (e.label, e.ok, e.detail) for e in r2.entries
        ]
    r1 = verify_infinite(3, truncation=12)
    r2 = verify_infinite(3, truncation=17)
    assert [(e.label, e.ok, e.detail) for e in r1.entries] == [
        (e.label, e.ok, e.detail) for e in r2.entries
    ]


def test_lifts_live_on_the_spec_complex_module():
    for variant in ("polynomial", "obstructed", "linear", "infinite"):
        spec = FamilySpec(3, variant, field=GF(5))
        assert all(m.source is spec.cx.module for m in family_lifts(spec))


def _oracle_family(spec):
    """d and the lifts of ``spec`` from the name-triple formulas, through
    ``GradedMap.from_entries`` on a module of their own."""
    top = 2 * spec.truncation
    module = GradedModule("V", spec.field, [(f"x{i}", (i + 1) // 2) for i in range(1, top + 1)])

    def entries(*triples):
        return GradedMap.from_entries(module, -1, list(triples))

    def poly_d1(upto):
        return entries(("x4", "x1", 1), *[(f"x{6 * i}", f"x{6 * i - 2}", 1)
                                          for i in range(1, upto + 1)])

    def ladder(k, with_tail):
        tail = [(f"x{6 * k - 2}", f"x{6 * k - 5}", 1)] if with_tail else []
        return entries((f"x{6 * k - 6}", f"x{6 * k - 9}", -1), *tail)

    d = entries(*[(f"x{6 * i - 3}", f"x{6 * i - 5}", 1) for i in range(1, top + 1) if 6 * i - 3 <= top])
    n = spec.n
    if spec.variant == "linear":
        lifts = [entries(("x6", "x4", 1))]
    elif spec.variant == "polynomial":
        lifts = [poly_d1(n - 1)] + [ladder(k, k < n) for k in range(2, n + 1)]
    elif spec.variant == "obstructed" and n == 1:
        lifts = [entries(("x6", "x4", 1), ("x8", "x6", 1))]
    elif spec.variant == "obstructed":
        lifts = [poly_d1(n - 1)] + [ladder(k, True) for k in range(2, n)]
        lifts.append(entries((f"x{6 * n - 6}", f"x{6 * n - 9}", -1),
                             (f"x{6 * n - 4}", f"x{6 * n - 6}", 1)))
    else:
        lifts = [poly_d1(top // 6)] + [ladder(k, True) for k in range(2, n + 1)]
    return module, d, lifts


def _columns(maps):
    """Each map's degree and columns, with the type of every raw value (a
    Fraction over Q, an int over GF(p))."""
    return [(m.degree, {j: {i: (type(v), v) for i, v in col.items()} for j, col in m.columns.items()})
            for m in maps]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("variant", ["polynomial", "obstructed", "linear", "infinite"])
def test_family_matches_the_name_triple_formulas(variant, field):
    for n in range(2 if variant == "polynomial" else 1, 25):
        minimum = minimal_truncation(variant, n)
        for truncation in (minimum, minimum + 3):
            spec = FamilySpec(n, variant, truncation, field)
            module, d, lifts = _oracle_family(spec)
            cx = base_complex(truncation, field)
            built = family_lifts(spec)
            assert cx.module == module == spec.cx.module
            assert _columns([cx.d, spec.cx.d]) == _columns([d, d])
            assert _columns(built) == _columns(lifts), (variant, n, truncation)


def test_family_lifts_build_no_complex(monkeypatch):
    built = []
    post_init = Complex.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Complex, "__post_init__", counting)
    for variant in ("polynomial", "obstructed", "linear", "infinite"):
        spec = FamilySpec(3, variant, field=GF(5))
        assert family_lifts(spec) and built == []
        assert all(m.source is spec.cx.module for m in family_lifts(spec))
        assert built == [spec.cx]
        built.clear()


def test_family_map_rejects_subscripts_outside_the_module():
    from dgdeform.family import _family_map, _ladder_lift

    module = base_complex(3, QQ).module
    with pytest.raises(UnknownBasisName):
        _ladder_lift(module, 1, with_tail=False)  # x_{-3} would wrap to index -4
    with pytest.raises(UnknownBasisName):
        _family_map(module, [(7, 5, 1)])
    with pytest.raises(DegreeMismatch):
        _family_map(module, [(6, 5, 1)])


def test_realized_relation_sign_is_recorded():
    report = verify_polynomial(3)
    relations = next(e for e in report.entries if e.label == "relations")
    assert "realized sign +d" in relations.detail
    report2 = verify_polynomial(3, field=GF(2))
    relations2 = next(e for e in report2.entries if e.label == "relations")
    assert "both" in relations2.detail


def test_truncation_cap():
    assert minimal_truncation("infinite", 64) <= MAX_TRUNCATION
    assert FamilySpec(2, "polynomial", MAX_TRUNCATION).truncation == MAX_TRUNCATION
    with pytest.raises(BadTruncation):
        FamilySpec(2, "polynomial", MAX_TRUNCATION + 1)
    with pytest.raises(BadTruncation):
        FamilySpec(MAX_TRUNCATION, "infinite")
    with pytest.raises(BadTruncation):
        base_complex(MAX_TRUNCATION + 1)


def test_ladder_products_grow_linearly(monkeypatch):
    # the family's lifts hold one or two entries each, so the ladder's
    # nonzero products, hence its work, grow linearly in n: from n = 50 to
    # n = 100 the entry products the kernel forms at most double, and none of
    # the ladder's or the series square's products is a GradedMap.compose
    callers = compose_callers(monkeypatch, [
        _Ledger.__init__, _Ledger.append, _Ledger.obstruction, _Ledger.relations, series_mul])
    counts = count_products(monkeypatch)
    for verify in (verify_polynomial, verify_infinite):
        totals = []
        for n in (50, 100):
            counts.clear()
            assert verify(n).ok
            totals.append(sum(counts))
        assert 0 < totals[0] and totals[1] <= 2 * totals[0] + 10, (verify.__name__, totals)
    assert callers == []
