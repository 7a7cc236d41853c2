"""Coboundary operator, cohomology, and the coboundary solver."""

import random
from fractions import Fraction
from math import lcm

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
    Solved,
    base_complex,
    cochain_basis,
    cohomology,
    deform_to_order,
    family_lifts,
    noncobounding_certificate,
    solve_coboundary,
)
from dgdeform import cochain, linalg
from dgdeform.cochain import _solve_homotopy_first
from dgdeform.errors import (
    MalformedCochain,
    NotACocycle,
    NotADifferential,
    PostconditionFailed,
)
from conftest import (
    _delta_matrix,
    compose,
    conjugated,
    count_class_reads,
    count_eliminations,
    count_fraction_arithmetic,
    count_reductions,
    dense_delta_matrix,
    dense_rank,
    dense_witness_defect,
    elementary,
    oracle_cohomology_dims,
    oracle_cohomology_representatives,
    oracle_homology_classes,
    random_cochain,
    random_cocycle,
    random_complex,
    raw_d_coefficients,
    shuffled,
)

FIELDS = [QQ, GF(2), GF(5)]


def test_coboundary_of_known_cochain():
    cx = base_complex(5, QQ)
    f = Cochain(1, GradedMap.from_entries(cx.module, -1, [("x6", "x3", -1)]), cx)
    expected = GradedMap.from_entries(cx.module, -2, [("x6", "x1", -1)])
    assert f.coboundary().mapping == expected


def test_coboundary_of_zero():
    cx = base_complex(4, QQ)
    z = Cochain(1, GradedMap.zero(cx.module, degree=-1), cx)
    assert z.coboundary().is_zero()


def test_family_infinitesimal_is_cocycle():
    spec = FamilySpec(3, "polynomial")
    cx = base_complex(spec.truncation, QQ)
    d1 = family_lifts(spec)[0]
    assert Cochain(1, d1, cx).coboundary().is_zero()


def test_sign_law_on_fixed_examples():
    cx = base_complex(4, QQ)
    d = cx.d
    # p even: delta(f) = d f - f d
    f0 = GradedMap.from_entries(cx.module, 0, [("x4", "x3", 1), ("x1", "x2", 1)])
    delta0 = Cochain(0, f0, cx).coboundary().mapping
    assert delta0 == d.compose(f0) - f0.compose(d)
    # p odd: delta(f) = d f + f d
    f1 = GradedMap.from_entries(cx.module, -1, [("x6", "x4", 1), ("x3", "x2", 1)])
    delta1 = Cochain(1, f1, cx).coboundary().mapping
    assert delta1 == d.compose(f1) + f1.compose(d)


def test_is_cocycle_zero_degree_examples():
    # x3 d/d x4 fails: (d o f)(x4) = d(x3) = x1; its transpose x4 d/d x3 is a cocycle.
    cx = base_complex(5, QQ)
    not_cocycle = Cochain(0, elementary(cx.module, "x3", "x4"), cx)
    assert not not_cocycle.coboundary().is_zero()
    assert not_cocycle.coboundary().mapping == elementary(cx.module, "x1", "x4")
    cocycle = Cochain(0, elementary(cx.module, "x4", "x3"), cx)
    assert cocycle.coboundary().is_zero()


def test_every_coboundary_is_a_cocycle():
    rng = random.Random(3)
    for _ in range(10):
        cx = random_complex(rng, QQ, 8)
        f = Cochain(0, random_cochain(rng, cx, 0), cx)
        assert f.coboundary().coboundary().is_zero()


def test_delta_squared_vanishes_randomized():
    rng = random.Random(17)
    for field in FIELDS:
        for _ in range(25):
            cx = random_complex(rng, field, rng.randint(2, 9))
            p = rng.randint(-2, 2)
            f = Cochain(p, random_cochain(rng, cx, p), cx)
            assert f.coboundary().coboundary().is_zero()


def test_malformed_cochain_rejected():
    cx = base_complex(3, QQ)
    with pytest.raises(MalformedCochain):
        Cochain(1, GradedMap.identity(cx.module), cx)  # degree 0 map is not a 1-cochain
    other = base_complex(4, QQ)
    with pytest.raises(MalformedCochain):
        Cochain(1, GradedMap.zero(other.module, degree=-1), cx)


def test_complex_requires_square_zero():
    m = base_complex(5, QQ).module
    bad = GradedMap.from_entries(m, -1, [("x6", "x4", 1), ("x8", "x6", 1)])
    with pytest.raises(NotADifferential):
        Complex(m, bad)


def test_complex_checks_its_differential():
    # moved here from tests/test_gmap.py with GradedMap.is_differential:
    # Complex checks d^2 = 0 itself, from its integer columns
    m5 = base_complex(5, QQ).module
    assert Complex(m5, base_complex(5, QQ).d).d
    bad = GradedMap.from_entries(m5, -1, [("x6", "x4", 1), ("x8", "x6", 1)])
    assert compose(bad, bad) == elementary(m5, "x4", "x8")
    with pytest.raises(NotADifferential, match="^d squared is not zero$"):
        Complex(m5, bad)
    Complex(m5, GradedMap.zero(m5, degree=-1))
    Complex(m5, GradedMap.zero(m5, degree=-2))  # the zero map has every degree
    other = base_complex(3, QQ).module
    with pytest.raises(NotADifferential,
                       match="^the differential must be an endomorphism of the module$"):
        Complex(m5, GradedMap(m5, other, -1, {}))
    with pytest.raises(NotADifferential, match=r"^a differential has degree \+1 or -1, not -2$"):
        Complex(m5, elementary(m5, "x1", "x5"))


@st.composite
def _endomorphisms(draw):
    """A map of degree -1 or +1 on a module of 1-7 generators in degrees
    0-3, over Q, GF(2) or GF(5), with fractional entries: dense enough
    that d^2 is often not zero.  Some draws are a -> b + c, b -> k x,
    c -> (5 - k) x: d^2 = 5 x, zero over GF(5) alone."""
    field = draw(st.sampled_from(FIELDS))
    if draw(st.integers(0, 5)) == 0:
        m = GradedModule("F", field, [("a", 2), ("b", 1), ("c", 1), ("x", 0)])
        k = draw(st.integers(1, 4))
        d = GradedMap.from_entries(m, -1, [("a", "b", 1), ("a", "c", 1), ("b", "x", k),
                                           ("c", "x", 5 - k)])
        return m, d
    dim = draw(st.integers(1, 7))
    m = GradedModule("R", field, [(f"e{i}", draw(st.integers(0, 3))) for i in range(dim)])
    degree = draw(st.sampled_from([-1, 1]))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    value = st.builds(Fraction, st.integers(-3, 3), st.sampled_from(
        [1, 3] if field.modulus == 2 else [1, 2, 3, 4]))
    cols: dict[int, dict] = {}
    for j in range(dim):
        for i in range(dim):
            if m.degree_of(i) == m.degree_of(j) + degree and draw(st.floats(0, 1)) < density:
                cols.setdefault(j, {})[i] = draw(value)
    return m, GradedMap(m, m, degree, cols)


@settings(max_examples=300, deadline=None)
@given(_endomorphisms())
def test_complex_refuses_exactly_the_maps_whose_square_is_not_zero(case):
    m, d = case
    if compose(d, d):
        with pytest.raises(NotADifferential, match="^d squared is not zero$"):
            Complex(m, d)
    else:
        assert Complex(m, d).d == d


def test_complex_checks_d_squared_without_fraction_arithmetic(monkeypatch):
    # over Q the check runs on the integer columns over one denominator
    rng = random.Random(27)
    cx = conjugated(rng, random_complex(rng, QQ, 60))
    assert any(v.denominator != 1 for col in cx.d.columns.values() for v in col.values())
    calls = count_fraction_arithmetic(monkeypatch)
    again = Complex(cx.module, cx.d)
    monkeypatch.undo()
    assert calls == []
    assert again._integer_d == cx._integer_d


def test_complex_is_unhashable():
    # equal complexes compare by value, and their maps have no hash
    cx = base_complex(3, QQ)
    with pytest.raises(TypeError, match="unhashable type: 'Complex'"):
        hash(cx)


def test_coboundary_rejects_raising_differentials():
    from dgdeform.errors import BadDegree

    m = GradedModule("W", QQ, [("y1", 1), ("y2", 2)])
    up = Complex(m, GradedMap.from_entries(m, 1, [("y1", "y2", 1)]))
    f = Cochain(0, GradedMap.identity(m), up)
    with pytest.raises(BadDegree):
        f.coboundary()


def _random_pair(rng, field):
    v = random_complex(rng, field, rng.randint(1, 9), name="V")
    m = random_complex(rng, field, rng.randint(1, 9), name="M")
    return v, m


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_delta_matrix_columns_match_composition(field):
    # independent of the entrywise formula: each column is delta of one
    # elementary cochain, d_M E - (-1)^p E d_V by the plain composition of
    # conftest, which shares no code with delta or the product kernel
    rng = random.Random(61)
    for _ in range(12):
        v, m = _random_pair(rng, field)
        for p in range(-2, 4):
            dom, cod_index, rows, den = _delta_matrix(v, m, p)
            assert all(type(x) is int for row in rows for x in row.values())
            if field.modulus is not None:
                assert den == 1
            assert list(cod_index) == cochain_basis(v.module, m.module, p + 1)
            assert list(cod_index.values()) == list(range(len(cod_index)))
            for c, (j, i) in enumerate(dom):
                e = elementary(
                    v.module, m.module.name_of(i), v.module.name_of(j), target=m.module
                )
                d_e, e_d = compose(m.d, e), compose(e, v.d)
                delta_e = d_e + e_d if p % 2 else d_e - e_d
                expected = {cod_index[jj, ii]: coeff.value for jj, ii, coeff in delta_e.entries()}
                assert {r: field.scalar(row[c], den).value
                        for r, row in enumerate(rows) if c in row} == expected


# -- cohomology ---------------------------------------------------------------


def test_cohomology_with_zero_differential():
    m = GradedModule("U", QQ, [("a", 0), ("b", 1)])
    cx = Complex(m, GradedMap.zero(m, degree=-1))
    for p in (-1, 0, 1):
        res = cohomology(cx, cx, p)
        dim_cp = len([1 for i in range(2) for j in range(2)
                      if m.degree_of(i) == m.degree_of(j) - p])
        assert res.dim_h == res.dim_cocycles == dim_cp
        assert res.dim_coboundaries == 0


def test_cohomology_two_element_complex():
    m = GradedModule("W", QQ, [("y1", 1), ("y2", 2)])
    cx = Complex(m, GradedMap.from_entries(m, -1, [("y2", "y1", 1)]))
    res = cohomology(cx, cx, 0)
    assert (res.dim_cocycles, res.dim_coboundaries, res.dim_h) == (1, 1, 0)


def test_cohomology_base_complex_matches_dense_oracle():
    cx = base_complex(6, QQ)
    for p in (0, 1, 2):
        res = cohomology(cx, cx, p)
        cocycles, coboundaries, dim_h = oracle_cohomology_dims(cx, p)
        assert (res.dim_cocycles, res.dim_coboundaries, res.dim_h) == (
            cocycles, coboundaries, dim_h,
        )


def test_cohomology_random_complexes_match_dense_oracle():
    rng = random.Random(23)
    for trial in range(18):
        field = rng.choice(FIELDS)
        cx = random_complex(rng, field, rng.randint(2, 12))
        p = rng.randint(-1, 2)
        res = cohomology(cx, cx, p)
        cocycles, coboundaries, dim_h = oracle_cohomology_dims(cx, p)
        assert (res.dim_cocycles, res.dim_coboundaries, res.dim_h) == (
            cocycles, coboundaries, dim_h,
        ), f"trial {trial}"


def test_cohomology_representatives_are_independent_cocycles():
    rng = random.Random(5)
    for _ in range(8):
        cx = random_complex(rng, QQ, 8)
        res = cohomology(cx, cx, 1)
        assert len(res.representatives) == res.dim_h
        for rep in res.representatives:
            assert rep.coboundary().is_zero()


def _homology_dims(cx):
    """h_q of a complex from dense ranks of d's per-degree blocks."""
    module, q = cx.module, cx.field.modulus
    dcoef = raw_d_coefficients(cx)

    def rank_from(deg):  # rank of d: V_deg -> V_{deg-1}
        src = [j for j in range(module.dim) if module.degree_of(j) == deg]
        tgt = [i for i in range(module.dim) if module.degree_of(i) == deg - 1]
        return dense_rank([[dcoef.get((i, j), 0) for j in src] for i in tgt], q)

    return {
        deg: sum(q == deg for _, q in module.basis) - rank_from(deg) - rank_from(deg + 1)
        for deg in module.degrees()
    }


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cohomology_of_pairs_matches_kunneth(field):
    # H^p(Hom(V, M)) = sum over q of Hom(H_q V, H_{q-p} M) over a field
    rng = random.Random(67)
    for _ in range(10):
        v, m = _random_pair(rng, field)
        h_v, h_m = _homology_dims(v), _homology_dims(m)
        for p in range(-2, 4):
            res = cohomology(v, m, p)
            assert res.dim_h == sum(h * h_m.get(q - p, 0) for q, h in h_v.items())
            assert len(res.representatives) == res.dim_h
            for rep in res.representatives:
                assert rep.coboundary().is_zero()


def test_cohomology_checks_its_inputs_whenever_either_cochain_space_is_nonempty():
    # H^p reads C^p and C^{p-1}: a bad differential or a mixed pair is an
    # error exactly when one of them is nonempty, and zeros otherwise
    from dgdeform.errors import BadDegree, ModuleMismatch

    m = GradedModule("V", QQ, [("a", 0), ("b", 1)])
    up = Complex(m, GradedMap.from_entries(m, 1, [("a", "b", 1)]))
    flat = Complex(m, GradedMap.zero(m, degree=-1))
    m5 = GradedModule("M", GF(5), [("c", 0)])
    other = Complex(m5, GradedMap.zero(m5, degree=-1))
    cases = [
        (up, up, BadDegree, range(-1, 3)),
        (flat, up, BadDegree, range(-1, 3)),
        (up, flat, BadDegree, range(-1, 3)),
        (flat, other, ModuleMismatch, range(0, 3)),  # |a| - |c|, |b| - |c| in {0, 1}
        (other, flat, ModuleMismatch, range(-1, 2)),
        (up, other, ModuleMismatch, range(0, 3)),  # the fields are checked first
    ]
    for v, w, error, raising in cases:
        for p in range(-4, 6):
            if p in raising:
                with pytest.raises(error):
                    cohomology(v, w, p)
            else:
                res = cohomology(v, w, p)
                assert (res.dim_cocycles, res.dim_coboundaries, res.dim_h) == (0, 0, 0)
                assert res.representatives == []


def test_cohomology_postcondition_is_a_real_check(monkeypatch):
    m = GradedModule("U", QQ, [("a", 0), ("b", 1)])
    cx = Complex(m, GradedMap.zero(m, degree=-1))
    monkeypatch.setattr(linalg._System, "nullspace", lambda self, columns: [])
    with pytest.raises(PostconditionFailed):
        cohomology(cx, cx, 0)


@pytest.mark.parametrize("short_side", ["cycles", "functionals"])
def test_cohomology_with_a_class_missing_fails_its_postcondition(monkeypatch, short_side):
    # dim_h comes from the ranks of d, so one cycle (or functional) short
    # leaves H^p short of the representatives it pairs into
    m = GradedModule("U", QQ, [("a", 0), ("b", 1)])
    cx = Complex(m, GradedMap.zero(m, degree=-1))
    classes = cochain._homology_classes

    def one_short(complex_, dual=False):
        found, h = classes(complex_, dual)
        return (found[:-1] if dual == (short_side == "functionals") else found), h

    monkeypatch.setattr(cochain, "_homology_classes", one_short)
    with pytest.raises(PostconditionFailed):
        cohomology(cx, cx, 0)


@pytest.mark.parametrize("side", ["source", "target"])
def test_cohomology_with_a_homology_dim_off_by_one_fails_its_postcondition(monkeypatch, side):
    # the ranks of d are solved from dim_q = h_q + pi_q + pi_{q+1} down the
    # degrees, and must close at 0 below each run of degrees: that is the
    # Euler characteristic identity of the run, which one wrong h_q breaks
    rng = random.Random(86)  # M has degrees -3, -2 and 0, 1, 2: two runs
    v0 = conjugated(rng, random_complex(rng, QQ, 12, name="V", top=2))
    m0 = conjugated(rng, random_complex(rng, QQ, 10, name="M", top=2))
    classes = cochain._homology_classes
    for q in sorted((v0 if side == "source" else m0).module.degrees()):
        for step in (1, -1):
            def off_by_one(complex_, dual=False):  # V gives H(V)*, M gives H(M)
                found, h = classes(complex_, dual)
                return found, ({**h, q: h[q] + step} if dual == (side == "source") else h)

            monkeypatch.setattr(cochain, "_homology_classes", off_by_one)
            v, m = Complex(v0.module, v0.d), Complex(m0.module, m0.d)  # nothing cached
            with pytest.raises(PostconditionFailed, match="rank"):
                cohomology(v, m, 0)
    monkeypatch.undo()
    assert cohomology(v0, m0, 0).dim_h > 0


def test_cohomology_of_a_large_conjugated_pair_reduces_only_the_differentials(monkeypatch):
    # 100/90 generators in four degrees, filled in: C^0 has 2,022 pairs,
    # and a reduction of delta^0 takes seconds; the widest reduction here is
    # the class pass over one differential
    rng = random.Random(13)
    v = conjugated(rng, random_complex(rng, QQ, 100, name="V", top=1))
    m = conjugated(rng, random_complex(rng, QQ, 90, name="M", top=1))
    calls = count_reductions(monkeypatch)
    res = cohomology(v, m, 0)
    monkeypatch.undo()
    assert max(calls) <= 2 * max(v.module.dim, m.module.dim)
    assert len(res.representatives) == res.dim_h > 0
    assert all(rep.coboundary().is_zero() for rep in res.representatives)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_homology_on_some_degrees_is_the_whole_homology_there(field):
    # degree q reads d only between q - 1, q and q + 1: the classes found on
    # a set of degrees are the whole computation's there, in its order
    rng = random.Random(101)
    for _ in range(12):
        cx = shuffled(rng, conjugated(rng, random_complex(rng, field, rng.randint(1, 16), top=3)))
        degree_of = cx.module.degree_of
        for dual in (False, True):
            everything, h = cochain._homology_classes(cx, dual)
            assert sum(h.values()) == len(everything)
            for degrees in ({-2}, {0, 1}, {1, 3, 7}, set(range(-3, 5)), set()):
                found, h_some = cochain._homology_classes(cx, dual, degrees)
                assert found == [v for v in everything if degree_of(max(v)) in degrees]
                assert h_some == {q: n for q, n in h.items() if q in degrees}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_homology_classes_match_the_pass_over_every_boundary(field):
    # the echelon pass over a basis of the boundaries has the pivots of the
    # pass over all of them, so the kept vectors and h are the oracle's, on
    # the whole module and on random sets of degrees; a set holding q but
    # not q - 1 reads every row of d into q - 1 on the dual side
    rng = random.Random(211)
    fallback = 0
    for k in range(24):
        cx = random_complex(rng, field, rng.randint(1, 18), top=3)
        if k % 3:
            cx = conjugated(rng, cx)
        if k % 3 == 2:
            cx = shuffled(rng, cx)
        by_degree, d_rows = cx.module._by_degree, cx._integer_rows
        pool = list(range(-3, 5))
        subsets = [None, {-1, 1, 3}, {0, 2}] + [
            set(rng.sample(pool, rng.randint(0, len(pool)))) for _ in range(6)]
        for degrees in subsets:
            for dual in (False, True):
                assert (cochain._homology_classes(cx, dual, degrees)
                        == oracle_homology_classes(cx, dual, degrees))
            fallback += degrees is not None and any(
                q - 1 not in degrees and any(r in d_rows for r in by_degree.get(q - 1, ()))
                for q in degrees)
    assert fallback


def _rank_from(cx: Complex, q: int) -> int:
    """The rank of d from degree q, by the dense oracle."""
    by_degree, coeffs = cx.module._by_degree, raw_d_coefficients(cx)
    return dense_rank([[coeffs.get((i, j), 0) for j in by_degree.get(q, ())]
                       for i in by_degree.get(q - 1, ())], cx.field.modulus)


def _class_reads(cx: Complex, dual: bool, degrees) -> tuple[int, int]:
    """(sum of h_q, rows of the echelon pass) that ``_homology_classes``
    should read on ``degrees``: h_q = dim_q - rank d_q - rank d_{q+1}, and a
    basis of the boundaries, rank d_q rows into q - 1 on the dual side when
    q - 1 is among the degrees (else every nonzero row), rank d_{q+1}
    columns from q + 1 on d."""
    by_degree, d_rows = cx.module._by_degree, cx._integer_rows
    h = rows = 0
    for q in degrees:
        if q not in by_degree:
            continue
        h += len(by_degree[q]) - _rank_from(cx, q) - _rank_from(cx, q + 1)
        if not dual:
            rows += _rank_from(cx, q + 1)
        elif q - 1 in degrees:
            rows += _rank_from(cx, q)
        else:
            rows += sum(k in d_rows for k in by_degree.get(q - 1, ()))
    return h, rows


def test_class_reads_form_one_kernel_vector_per_class(monkeypatch):
    # cohomology and a class witness on a conjugated pair ask nullspace for
    # the kept free columns only, sum_q h_q of them, and each echelon pass
    # holds a basis of the boundaries, rank d rows, not every nonzero one
    rng = random.Random(43)
    for field in FIELDS:
        v = shuffled(rng, conjugated(rng, random_complex(rng, field, 30, name="V", top=2)))
        m = shuffled(rng, conjugated(rng, random_complex(rng, field, 26, name="M", top=2)))
        f = Cochain(0, random_cochain(rng, v, 0, 0.3, target=m), v, m)
        g = f.coboundary() + cohomology(v, m, 1).representatives[-1]
        v, m = (Complex(cx.module, cx.d) for cx in (v, m))  # nothing cached
        g = Cochain(1, g.mapping, v, m)
        (v_h, v_rows), (m_h, m_rows) = (_class_reads(v, True, v.module.degrees()),
                                        _class_reads(m, False, m.module.degrees()))
        assert v_rows == sum(_rank_from(v, q) for q in v.module.degrees())
        asked, held = count_class_reads(monkeypatch)
        cohomology(v, m, 1)
        monkeypatch.undo()
        assert asked == [v_h, m_h] and held == [v_rows, m_rows]
        den, cols = cochain._cocycle_columns(g)
        v_degrees = {v.module.degree_of(j) for j in cols}
        (m_h, m_rows), (v_h, v_rows) = (_class_reads(m, True, {q - 1 for q in v_degrees}),
                                        _class_reads(v, False, v_degrees))
        asked, held = count_class_reads(monkeypatch)
        assert cochain._class_witness(g, cols, den) is not None
        monkeypatch.undo()
        assert asked == [m_h, v_h] and held == [m_rows, v_rows]
        assert len(v_degrees) > 1 and v_h and m_h


@st.composite
def _cohomology_pairs(draw):
    """(V, M) over Q, GF(2) or GF(5), each a random complex of dim 1-12 in
    degrees from -3 up to -1..4, conjugated by transvections in most draws:
    few degrees give fill-in and dense cycles and functionals.  Most draws
    also shuffle the declaration order, so that a pair's two generators are
    not next to each other in the lex order of the cochain basis."""
    field = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pair = []
    for name in ("V", "M"):
        top = draw(st.integers(-1, 4))
        cx = random_complex(rng, field, draw(st.integers(1, 12)), name=name, top=top)
        if draw(st.integers(0, 3)):
            cx = conjugated(rng, cx)
        pair.append(shuffled(rng, cx) if draw(st.integers(0, 3)) else cx)
    return pair


@settings(max_examples=80, deadline=None)
@given(_cohomology_pairs())
def test_cohomology_representatives_match_the_image_reduction(pair):
    # every p from one below the lowest nonempty C^p to one above the highest
    v, m = pair
    gaps = {q - r for q in v.module.degrees() for r in m.module.degrees()}
    for p in range(min(gaps) - 1, max(gaps) + 2):
        res = cohomology(v, m, p)
        want = oracle_cohomology_representatives(v, m, p)
        assert [rep.mapping for rep in res.representatives] == want
        assert res.dim_h == len(want)


# -- solving ----------------------------------------------------------------------


def test_solve_coboundary_finds_exact_preimage():
    cx = base_complex(5, QQ)
    g = Cochain(2, GradedMap.from_entries(cx.module, -2, [("x6", "x1", -1)]), cx)
    outcome = solve_coboundary(g)
    assert isinstance(outcome, Solved)
    assert outcome.cochain.coboundary() == g
    assert outcome.cochain.mapping == GradedMap.from_entries(
        cx.module, -1, [("x6", "x3", -1)]
    )


def test_solve_coboundary_zero_rhs():
    cx = base_complex(4, QQ)
    out = solve_coboundary(Cochain(2, GradedMap.zero(cx.module, degree=-2), cx))
    assert isinstance(out, Solved)
    assert out.cochain.is_zero()


def test_solve_coboundary_infeasible_with_witness():
    cx = base_complex(5, QQ)
    g = Cochain(2, GradedMap.from_entries(cx.module, -2, [("x8", "x4", -1)]), cx)
    out = solve_coboundary(g)
    assert isinstance(out, Infeasible)
    assert out.witness.combination
    assert out.witness.residual


def test_solve_coboundary_rejects_non_cocycle():
    cx = base_complex(5, QQ)
    # d(x9) = x7 feeds x5 d/d x7, so delta(x5 d/d x7) = x5 d/d x9 != 0
    bad = Cochain(1, GradedMap.from_entries(cx.module, -1, [("x7", "x5", 1)]), cx)
    assert not bad.coboundary().is_zero()
    with pytest.raises(NotACocycle):
        solve_coboundary(bad)


def test_solver_soundness_randomized():
    rng = random.Random(41)
    solved = infeasible = 0
    for _ in range(40):
        field = rng.choice(FIELDS)
        cx = random_complex(rng, field, rng.randint(3, 10))
        p = rng.choice([0, 1])
        g = Cochain(p + 1, random_cochain(rng, cx, p + 1), cx)
        if not g.coboundary().is_zero():
            continue
        out = solve_coboundary(g)
        if isinstance(out, Solved):
            solved += 1
            assert out.cochain.coboundary() == g
        else:
            infeasible += 1
    assert solved  # the suite must actually exercise the solved branch


def test_noncobounding_certificate_on_family():
    for n in (1, 2, 4):
        spec = FamilySpec(n, "obstructed")
        cx = base_complex(spec.truncation, QQ)
        from dgdeform.deform import obstruction

        o_n = obstruction(cx, family_lifts(spec))
        assert noncobounding_certificate(cx.d, o_n)
        out = solve_coboundary(o_n)
        assert isinstance(out, Infeasible)


def test_noncobounding_certificate_false_for_cobounding():
    cx = base_complex(5, QQ)
    g = Cochain(2, GradedMap.from_entries(cx.module, -2, [("x6", "x1", -1)]), cx)
    assert not noncobounding_certificate(cx.d, g)


def test_certificate_implies_infeasible_on_any_truncation():
    for trunc in (4, 7, 12):
        cx = base_complex(trunc, QQ)
        g = Cochain(2, GradedMap.from_entries(cx.module, -2, [("x8", "x4", -1)]), cx)
        assert noncobounding_certificate(cx.d, g)
        assert isinstance(solve_coboundary(g), Infeasible)


def test_solver_postcondition_is_a_real_check():
    # a homotopy that answers f = 0 for a nonzero coboundary must be caught,
    # in the one-shot order (class coordinates first) and in the ladder's
    # (homotopy first)
    cx = base_complex(5, QQ)
    g = Cochain(2, GradedMap.from_entries(cx.module, -2, [("x6", "x1", -1)]), cx)
    assert isinstance(_solve_homotopy_first(g), Solved)  # builds and caches h
    cx.__dict__["_homotopy"] = (1, {}, {})
    with pytest.raises(PostconditionFailed, match="does not satisfy"):
        solve_coboundary(g)
    with pytest.raises(PostconditionFailed, match="does not satisfy"):
        _solve_homotopy_first(g)


def test_solver_with_a_wrong_zero_class_fails_its_postcondition(monkeypatch):
    # a class test that misses the class of x4 d/d x8: the one-shot order
    # then trusts the homotopy, whose f fails delta(f) = g, and the
    # ladder's, whose homotopy fails first, finds no witness; neither may
    # answer, and each tries the homotopy once
    cx = base_complex(5, QQ)
    g = Cochain(2, GradedMap.from_entries(cx.module, -2, [("x8", "x4", -1)]), cx)
    assert isinstance(_solve_homotopy_first(g), Infeasible)
    homotopy = cochain._homotopy_solution
    tried = []
    monkeypatch.setattr(cochain, "_homotopy_solution", lambda *args: tried.append(1) or homotopy(*args))
    monkeypatch.setattr(cochain, "_class_witness", lambda g, cols, den: None)
    with pytest.raises(PostconditionFailed, match="zero class"):
        solve_coboundary(g)
    assert tried == [1]
    with pytest.raises(PostconditionFailed, match="zero class"):
        _solve_homotopy_first(g)
    assert tried == [1, 1]


@pytest.mark.parametrize("broken", ["cycle", "functional"])
def test_solver_with_a_wrong_class_witness_fails_its_postcondition(monkeypatch, broken):
    # on base_complex(5) d = x1 d/d x3 + x7 d/d x9, so x9 + x10 is no cycle
    # and x1* + x2* vanishes on no boundary; each still pairs to 1 with g
    classes = cochain._homology_classes
    swap = {"cycle": ({9: 1}, {8: 1, 9: 1}), "functional": ({1: 1}, {0: 1, 1: 1})}[broken]
    target = {"cycle": ("x10", "x6"), "functional": ("x6", "x2")}[broken]

    def wrong(cx, dual=False, degrees=None):
        found, h = classes(cx, dual, degrees)
        if dual == (broken == "functional"):
            found = [swap[1] if vec == swap[0] else vec for vec in found]
        return found, h

    monkeypatch.setattr(cochain, "_homology_classes", wrong)
    for solve in (solve_coboundary, _solve_homotopy_first):
        cx = base_complex(5, QQ)  # nothing cached
        g = Cochain(2, GradedMap.from_entries(cx.module, -2, [(*target, 1)]), cx)
        with pytest.raises(PostconditionFailed, match=broken if broken == "cycle" else "d_M"):
            solve(g)
    monkeypatch.undo()
    cx = base_complex(5, QQ)
    g = Cochain(2, GradedMap.from_entries(cx.module, -2, [(*target, 1)]), cx)
    assert isinstance(solve_coboundary(g), Infeasible)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_integer_differential_is_d(field):
    # the cache every integer path reads: d[k, j] = cols[j][k] / den, entry by entry
    rng = random.Random(83)
    for _ in range(8):
        cx = conjugated(rng, random_complex(rng, field, rng.randint(1, 12)))
        den, cols = cx._integer_d
        assert type(den) is int and den > 0 and (field.modulus is None or den == 1)
        assert all(type(n) is int for col in cols.values() for n in col.values())
        entries = list(cx.d.entries())
        assert sum(len(col) for col in cols.values()) == len(entries)
        for j, k, c in entries:
            assert field.scalar(cols[j][k], den) == c


def _over_denominator(cx: Complex, den: int) -> Complex:
    """cx with d rescaled to integer entries over the one denominator den."""
    scale = lcm(*[c.value.denominator for _, _, c in cx.d.entries()])
    return Complex(cx.module, cx.d.scale(QQ.scalar(scale, den)))


def _rational_pair():
    # conjugated, so that d and the cycles fill in; denominators 2 and 3
    rng = random.Random(89)
    v = _over_denominator(conjugated(rng, random_complex(rng, QQ, 14, name="V", top=2)), 2)
    m = _over_denominator(conjugated(rng, random_complex(rng, QQ, 12, name="M", top=2)), 3)
    assert (v._integer_d[0], m._integer_d[0]) == (2, 3)
    return v, m


def test_rational_cohomology_does_no_fraction_arithmetic(monkeypatch):
    # from the differentials to the homology vectors everything is an
    # integer; the representatives are built as Fractions, never computed with them
    dims = []
    for p in (-1, 0, 1):
        v, m = _rational_pair()  # fresh, so that H(V) and H(M)* are computed inside
        calls = count_fraction_arithmetic(monkeypatch)
        res = cohomology(v, m, p)
        monkeypatch.undo()
        assert calls == []
        assert [rep.mapping for rep in res.representatives] == \
            oracle_cohomology_representatives(v, m, p)
        dims.append(res.dim_h)
    assert any(dims)


def test_rational_solver_checks_do_no_fraction_arithmetic(monkeypatch):
    # delta(g) = 0 on the way in and delta(f) = g on the way out run in
    # integers on the differentials; so does the rest of solve
    v, m = _rational_pair()
    rng = random.Random(97)
    outcomes = set()
    for p in (0, 1):
        f = Cochain(p, random_cochain(rng, v, p, 0.6, target=m), v, m)
        z = Cochain(p + 1, random_cocycle(rng, v, p + 1, target=m), v, m)
        not_a_cocycle = Cochain(p + 1, random_cochain(rng, v, p + 1, 0.6, target=m), v, m)
        assert not not_a_cocycle.coboundary().is_zero()
        for g in (f.coboundary(), f.coboundary() + z):
            calls = count_fraction_arithmetic(monkeypatch)
            out = _solve_homotopy_first(g)
            monkeypatch.undo()
            assert calls == []
            assert out == solve_coboundary(g)
            if isinstance(out, Solved):
                assert out.cochain.coboundary() == g
            outcomes.add(type(out))
        calls = count_fraction_arithmetic(monkeypatch)
        with pytest.raises(NotACocycle):
            _solve_homotopy_first(not_a_cocycle)
        monkeypatch.undo()
        assert calls == []
    assert outcomes == {Solved, Infeasible}


def test_solver_checks_read_the_differentials():
    # the postcondition does not trust the homotopy: a solver handed 2 h,
    # for which d h d != d, answers an f whose delta(f) != g, and that is caught
    cx = base_complex(5, QQ)
    g = Cochain(2, GradedMap.from_entries(cx.module, -2, [("x6", "x1", -1)]), cx)
    assert isinstance(solve_coboundary(g), Solved)
    den, rows, columns = cx._homotopy
    assert _dhd_defect(cx) == {}

    def doubled(vectors):
        return {a: {b: 2 * v for b, v in vec.items()} for a, vec in vectors.items()}

    cx.__dict__["_homotopy"] = den, doubled(rows), doubled(columns)
    assert _dhd_defect(cx) != {}
    with pytest.raises(PostconditionFailed):
        solve_coboundary(g)


def test_reused_solver_matches_one_shot_solves():
    # the two orders: a one-shot solve reads the class coordinates first,
    # the ladder's solve tries the homotopy first, and both give the same
    # answer; every other complex is filled in and shuffled
    rng = random.Random(71)
    outcomes = set()
    for field in FIELDS:
        for k in range(6):
            cx = random_complex(rng, field, rng.randint(3, 10))
            if k % 2:
                cx = shuffled(rng, conjugated(rng, cx))
            p = rng.choice([0, 1])
            for _ in range(4):
                g = Cochain(p + 1, random_cocycle(rng, cx, p + 1), cx)
                out = _solve_homotopy_first(g)
                assert out == solve_coboundary(g)
                outcomes.add(type(out))
    assert outcomes == {Solved, Infeasible}


@st.composite
def _solve_pairs(draw):
    """(V, M, rng): random complexes of dim 2-12 over Q, GF(2) or GF(5), in
    degrees from -2 up to -1..2, conjugated by transvections and declared
    in a shuffled order, and the seeded rng, for the right sides.  The
    sizes come from the seed, which Hypothesis does not shrink towards the
    empty cochain spaces of one-generator complexes."""
    field = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    v, m = (shuffled(rng, conjugated(rng, random_complex(
        rng, field, rng.randint(2, 12), name=name, top=rng.randint(-1, 2)))) for name in "VM")
    return v, m, rng


@settings(max_examples=100, deadline=None)
@given(_solve_pairs())
def test_solve_matches_the_dense_oracle(case):
    # for p = -2..2, g = delta(f) and g plus a random cocycle: the verdict is
    # the rank test on the dense delta^p, a witness row y has y A = 0 and
    # y g = its nonzero residual, a solution has delta(f) = g, and the
    # homotopy-first order gives the same answer
    v, m, rng = case
    q = v.field.modulus
    for p in range(-2, 3):
        _, pairs_q, mat = dense_delta_matrix(v, p, m)
        rank = dense_rank(mat, q)
        f = Cochain(p, random_cochain(rng, v, p, 0.6, target=m), v, m)
        z = Cochain(p + 1, random_cocycle(rng, v, p + 1, target=m), v, m)
        for g in (f.coboundary(), f.coboundary() + z):
            out = solve_coboundary(g)
            column = [g.mapping.columns.get(j, {}).get(i, 0) for j, i in pairs_q]
            feasible = dense_rank([row + [b] for row, b in zip(mat, column)], q) == rank
            assert isinstance(out, Solved) == feasible
            if feasible:
                assert out.cochain.coboundary() == g
            else:
                y_a, y_g = dense_witness_defect(v, m, p, g.mapping, out.witness)
                assert not any(y_a)
                assert y_g == out.witness.residual.value != 0
            assert _solve_homotopy_first(g) == out


@settings(max_examples=100, deadline=None)
@given(_solve_pairs())
def test_coboundary_matches_the_dense_oracle(case):
    # for p = -2..3, delta(f) of a random p-cochain f is the dense delta^p
    # times f's coordinate vector, with raw values in normal form
    v, m, rng = case
    field = v.field
    for p in range(-2, 4):
        pairs_p, pairs_q, mat = dense_delta_matrix(v, p, m)
        f = random_cochain(rng, v, p, rng.choice([0.2, 0.6]), target=m)
        x = [f.columns.get(j, {}).get(i, 0) for j, i in pairs_p]
        expected = {}
        for (j, i), row in zip(pairs_q, mat):
            if value := field.norm(sum(a * b for a, b in zip(row, x))):
                expected.setdefault(j, {})[i] = value
        delta = Cochain(p, f, v, m).coboundary()
        assert (delta.p, delta.source, delta.target) == (p + 1, v, m)
        assert delta.mapping.columns == expected
        assert all(type(c) is (int if field.modulus else Fraction)
                   for col in delta.mapping.columns.values() for c in col.values())


def test_an_infeasible_solve_on_a_large_conjugated_pair_builds_no_delta(monkeypatch):
    # 76/64 generators in four degrees, filled in and shuffled: C^0 has
    # over a thousand pairs; a nonzero class is read off H(V) and H(M)*,
    # and no homotopy is read either
    rng = random.Random(7)
    v = shuffled(rng, conjugated(rng, random_complex(rng, QQ, 76, name="V", top=1)))
    m = shuffled(rng, conjugated(rng, random_complex(rng, QQ, 64, name="M", top=1)))
    f = Cochain(0, random_cochain(rng, v, 0, 0.2, target=m), v, m)
    g = f.coboundary() + cohomology(v, m, 1).representatives[-1]
    assert len(cochain_basis(v.module, m.module, 0)) > 1000
    calls = count_reductions(monkeypatch)
    out = solve_coboundary(g)
    monkeypatch.undo()
    assert isinstance(out, Infeasible)
    assert calls and max(calls) <= 2 * max(v.module.dim, m.module.dim)
    assert "_homotopy" not in v.__dict__ and "_homotopy" not in m.__dict__  # nor a homotopy
    assert out.witness.residual


def _dhd_defect(cx: Complex) -> dict:
    """{z: (d h d - d)(z)} for the generators z where the homotopy h of cx
    breaks d h d = d, by plain loops over the raw values; its rows must be
    its columns transposed."""
    den, rows, columns = cx._homotopy
    assert rows == {x: {y: col[x] for y, col in columns.items() if x in col}
                    for x in {x for col in columns.values() for x in col}}
    field, d = cx.field, cx.d.columns
    h = {y: {x: field.scalar(v, den).value for x, v in col.items()} for y, col in columns.items()}
    defect = {}
    for z in range(cx.module.dim):
        dz, hdz, dhdz = d.get(z, {}), {}, {}
        for y, a in dz.items():
            for x, b in h.get(y, {}).items():
                hdz[x] = hdz.get(x, 0) + a * b
        for x, a in hdz.items():
            for w, b in d.get(x, {}).items():
                dhdz[w] = dhdz.get(w, 0) + a * b
        if diff := {w: c for w in dz.keys() | dhdz.keys()
                    if (c := field.norm(dhdz.get(w, 0) - dz.get(w, 0)))}:
            defect[z] = diff
    return defect


@settings(max_examples=100, deadline=None)
@given(_solve_pairs())
def test_homotopy_blocks_satisfy_dhd_and_a_mutated_one_is_caught(case):
    # the homotopy of each complex has d h d = d; then one entry of h_M is
    # changed by 1 at (x, y), y in the support of d x, and a solve
    # of g = d o E_{x <- u} from a one-generator complex U, a coboundary,
    # must fail its postcondition in both orders: delta(f) - g is then
    # (d E + E d) g = (d x)_y * d x, which is not zero
    v, m, rng = case
    field = v.field
    for p in range(-2, 3):
        f = Cochain(p, random_cochain(rng, v, p, 0.6, target=m), v, m)
        z = Cochain(p + 1, random_cocycle(rng, v, p + 1, target=m), v, m)
        for g in (f.coboundary(), f.coboundary() + z):
            assert _solve_homotopy_first(g) == solve_coboundary(g)
    for cx in (v, m):
        assert _dhd_defect(cx) == {}
    if not m.d:
        return
    x = rng.choice(sorted(m.d.columns))
    y = rng.choice(sorted(m.d.columns[x]))
    q = m.module.degree_of(x)
    point = GradedModule("U", field, [("u", q)])
    u = Complex(point, GradedMap.zero(point, degree=-1))
    phi = GradedMap.from_entries(point, 0, [("u", m.module.name_of(x), 1)], target=m.module)
    g = Cochain(0, phi, u, m).coboundary()
    assert isinstance(_solve_homotopy_first(g), Solved)
    den, rows, columns = m._homotopy
    value = rows.get(x, {}).get(y, 0) + den
    if field.modulus is not None:
        value %= field.modulus

    def mutated(vectors, at, key):  # vectors[at][key] set to value, zeros dropped
        vec = {**vectors.get(at, {}), key: value}
        if not value:
            del vec[key]
        return {k: w for k, w in {**vectors, at: vec}.items() if w}

    m.__dict__["_homotopy"] = den, mutated(rows, x, y), mutated(columns, y, x)
    assert _dhd_defect(m) != {}
    with pytest.raises(PostconditionFailed):
        solve_coboundary(g)
    with pytest.raises(PostconditionFailed):
        _solve_homotopy_first(g)


def test_one_complex_reduces_the_rows_of_d_once(monkeypatch):
    # a zero-class solve, cohomology and a canonical ladder on one complex:
    # the kernel vectors of the class test and of H(cx), and the homotopy
    # of every solve, all read the complex's one elimination of d
    rng = random.Random(29)
    for field in FIELDS:
        cx = conjugated(rng, random_complex(rng, field, 14))
        g = Cochain(0, random_cochain(rng, cx, 0, 0.6), cx).coboundary()
        d1 = random_cocycle(rng, cx)
        built = count_eliminations(monkeypatch)
        assert isinstance(solve_coboundary(g), Solved)
        cohomology(cx, cx, 1)
        deform_to_order(cx, d1, 4)
        assert built == [id(cx)]
        monkeypatch.undo()


def test_an_infeasible_solve_inverts_nothing(monkeypatch):
    # a nonzero class is read from the kernel vectors of the elimination of
    # d_V, whose row operations are never replayed: no generalized inverse
    # is formed, and neither complex holds a homotopy
    rng = random.Random(32)
    for field in FIELDS:
        v = conjugated(rng, random_complex(rng, field, 12, name="V"))
        m = conjugated(rng, random_complex(rng, field, 12, name="M"))
        reps = cohomology(v, m, 1).representatives
        assert reps
        v, m = (Complex(cx.module, cx.d) for cx in (v, m))  # nothing cached
        g = Cochain(1, reps[-1].mapping, v, m)
        built = count_eliminations(monkeypatch)
        inverted = []
        inverse = linalg._System.inverse
        monkeypatch.setattr(linalg._System, "inverse",
                            lambda self: inverted.append(1) or inverse(self))
        assert isinstance(solve_coboundary(g), Infeasible)
        monkeypatch.undo()
        assert built == [id(v)] and inverted == []
        assert "_homotopy" not in v.__dict__ and "_homotopy" not in m.__dict__


def test_only_the_homotopy_replays_the_row_operations(monkeypatch):
    # cohomology reads kernel vectors alone and forms no inverse; a zero
    # class forms one per complex, once, and a second solve reads the cache
    rng = random.Random(33)
    for field in FIELDS:
        v = conjugated(rng, random_complex(rng, field, 12, name="V"))
        m = conjugated(rng, random_complex(rng, field, 10, name="M"))
        inverted = []
        inverse = linalg._System.inverse
        monkeypatch.setattr(linalg._System, "inverse",
                            lambda self: inverted.append(id(self)) or inverse(self))
        for p in (0, 1):
            cohomology(v, m, p)
        assert "_cycles" in m.__dict__ and "_functionals" in v.__dict__
        assert inverted == []
        for _ in range(2):
            g = Cochain(0, random_cochain(rng, v, 0, 0.6, target=m), v, m).coboundary()
            assert isinstance(solve_coboundary(g), Solved)
        monkeypatch.undo()
        assert sorted(inverted) == sorted([id(v._elimination), id(m._elimination)])


@pytest.mark.parametrize("field", [GF(2), GF(5)], ids=str)
def test_integer_results_over_gf_p_are_over_one(monkeypatch, field):
    # linalg._rational returns GF(p) vectors as they are, which is right
    # because every integer result it reads out over GF(p) is over 1
    dens = {"coboundary": [], "solve": [], "cohomology": []}
    rational = cochain._rational
    phase = None

    def recording(vectors, den, fld):
        dens[phase].append(den)
        return rational(vectors, den, fld)

    monkeypatch.setattr(cochain, "_rational", recording)
    rng = random.Random(71)
    representatives = 0
    for _ in range(6):
        v = conjugated(rng, random_complex(rng, field, 10, name="V"))
        m = conjugated(rng, random_complex(rng, field, 8, name="M"))
        phase = "coboundary"
        g = Cochain(0, random_cochain(rng, v, 0, 0.6, target=m), v, m).coboundary()
        phase = "solve"
        assert isinstance(solve_coboundary(g), Solved)  # a zero class, by the homotopy
        phase = "cohomology"
        representatives += sum(len(cohomology(v, m, p).representatives) for p in (0, 1))
    assert representatives
    assert all(dens.values()) and {den for ds in dens.values() for den in ds} == {1}
