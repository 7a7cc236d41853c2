"""Graded maps: elementary operators, composition, application, rendering."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dgdeform import GF, QQ, FamilySpec, GradedMap, GradedModule, Scalar, base_complex, family_lifts
from dgdeform.deform import obstruction
from dgdeform.errors import CompositionMismatch, DegreeMismatch, FieldMismatch
from conftest import compose, count_products, elementary, random_scalar


@pytest.fixture
def m5():
    return base_complex(5, QQ).module


def test_elementary_action(m5):
    x1, x3, x4 = (m5.index_of(n) for n in ("x1", "x3", "x4"))
    e = elementary(m5, "x1", "x3")
    assert e.apply({x3: Fraction(1)}) == {x1: Fraction(1)}
    assert e.apply({x4: Fraction(1)}) == {}
    assert e.degree == -1


def test_composition_of_elementaries(m5):
    a = elementary(m5, "x1", "x4")
    b = elementary(m5, "x4", "x6")
    assert a.compose(b) == elementary(m5, "x1", "x6")
    c = elementary(m5, "x1", "x3")
    assert c.compose(c).is_zero()
    ident = GradedMap.identity(m5)
    assert a.compose(ident) == a
    assert ident.compose(a) == a


def test_composition_mismatch():
    a = base_complex(3, QQ).module
    b = base_complex(4, QQ).module
    with pytest.raises(CompositionMismatch):
        elementary(a, "x1", "x3").compose(elementary(b, "x1", "x3"))


def test_arithmetic(m5):
    d1 = GradedMap.from_entries(m5, -1, [("x4", "x1", 1), ("x6", "x4", 1)])
    assert (d1 + d1.scale(-1)).is_zero()
    e = elementary(m5, "x3", "x6")
    assert e.scale(-1) == elementary(m5, "x3", "x6", -1)
    with pytest.raises(DegreeMismatch):
        d1 + GradedMap.identity(m5)


def test_apply_base_differential(m5):
    cx = base_complex(5, QQ)
    x1, x3, x5 = (m5.index_of(n) for n in ("x1", "x3", "x5"))
    assert cx.d.apply({x3: Fraction(2), x5: Fraction(1)}) == {x1: Fraction(2)}
    assert cx.d.apply({x5: Fraction(1)}) == {}
    assert cx.d.apply({}) == {}


def test_constructor_takes_raw_column_dicts(m5):
    x1, x3, x4 = (m5.index_of(n) for n in ("x1", "x3", "x4"))
    f = GradedMap(m5, m5, -1, {x3: {x1: Fraction(1)}, x4: {}})
    assert f.columns == {x3: {x1: Fraction(1)}}  # the empty column is dropped
    assert f == elementary(m5, "x1", "x3")
    with pytest.raises(DegreeMismatch):
        GradedMap(m5, m5, -1, {x3: {x1: Fraction(1), x4: Fraction(1)}})


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_constructor_drops_zeros_and_normalizes(field):
    m = base_complex(5, field).module
    x1, x2, x3 = (m.index_of(n) for n in ("x1", "x2", "x3"))
    zero = GradedMap(m, m, -1, {x3: {x1: 0}})
    assert zero.is_zero() and not zero and zero.columns == {}
    assert zero.render() == "0"
    assert zero == GradedMap.zero(m, degree=-1)
    f = GradedMap(m, m, -1, {x3: {x1: 2, x2: 0}})
    assert f == elementary(m, "x1", "x3", 2)
    assert f.render() == "2*x1 d/d x3"
    if field is QQ:
        # an int is stored as a Fraction, the raw form of a rational
        assert type(f.columns[x3][x1]) is Fraction
        assert GradedMap(m, m, -1, {x3: {x1: Fraction(-3, 6)}}).render() == "-1/2*x1 d/d x3"
    else:
        assert GradedMap(m, m, -1, {x3: {x1: 7, x2: 5}}).columns == {x3: {x1: 2}}
        assert GradedMap(m, m, -1, {x3: {x1: -1}}).columns == {x3: {x1: 4}}
        assert GradedMap(m, m, -1, {x3: {x1: Fraction(1, 2)}}).columns == {x3: {x1: 3}}
    assert GradedMap(m, m, -1, {x3: {x1: field.scalar(3)}}) == 3 * elementary(m, "x1", "x3")
    with pytest.raises(DegreeMismatch):
        GradedMap(m, m, -1, {x3: {x3: 1}})


def test_internal_results_are_in_normal_form(m5):
    # cancellation in +, scaling by 0 and a zero composite leave no empty column
    f = elementary(m5, "x1", "x3")
    assert (f - f).columns == {}
    assert f.scale(0).columns == {}
    assert f.compose(f).columns == {}
    g = GradedMap.from_entries(m5, -1, [("x3", "x1", 1), ("x4", "x2", 1)])
    assert (g - f).columns == {m5.index_of("x4"): {m5.index_of("x2"): Fraction(1)}}


def test_block_support():
    cx = base_complex(9, QQ)
    assert cx.d.block_support() == {2, 5, 8}
    assert GradedMap.zero(cx.module, degree=-1).block_support() == set()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_block_support_of_obstructed_obstruction(n):
    spec = FamilySpec(n, "obstructed")
    cx = base_complex(spec.truncation, QQ)
    lifts = family_lifts(spec)
    o_n = obstruction(cx, lifts)
    assert o_n.mapping.block_support() == {3 * n - 2}


def test_homogeneity_enforced(m5):
    with pytest.raises(DegreeMismatch):
        GradedMap.from_entries(m5, -1, [("x4", "x1", 1), ("x4", "x2", 1), ("x6", "x1", 1)])


def test_elementary_composition_law_brute_force():
    m = GradedModule("B", QQ, [(f"b{i}", d) for i, d in enumerate([0, 0, 1, 1, 2, 3])])
    names = [n for n, _ in m.basis]
    for i, j, k, l in product(names, repeat=4):
        lhs = elementary(m, i, j).compose(elementary(m, k, l))
        if j == k:
            assert lhs == elementary(m, i, l)
        else:
            assert lhs.is_zero()


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_compose_forms_only_the_products_that_meet(field, monkeypatch):
    # a one-entry map against a full map with 3,200 entries: on either side
    # the kernel multiplies the entry only with the entries it meets, that
    # is 40, a row of the full map (on the left) or a column (on the right)
    rng = random.Random(5)
    m = GradedModule("W", field, [(f"a{k}", k % 2) for k in range(80)])
    big = GradedMap.from_entries(m, 0, [
        (m.name_of(j), m.name_of(i), random_scalar(rng, field, nonzero=True))
        for j in range(80) for i in range(80) if (i - j) % 2 == 0])
    e = elementary(m, "a4", "a8", 2)
    counts = count_products(monkeypatch)
    for outer, inner in ((e, big), (big, e)):
        counts.clear()
        assert outer @ inner == compose(outer, inner) != GradedMap.zero(m)
        assert counts == [40]


def _random_map(rng, module, degree, density=0.5):
    entries = []
    for j in range(module.dim):
        for i in range(module.dim):
            if module.degree_of(i) == module.degree_of(j) + degree and rng.random() < density:
                c = rng.randint(-3, 3)
                if c:
                    entries.append((module.name_of(j), module.name_of(i), c))
    return GradedMap.from_entries(module, degree, entries)


def test_homogeneity_and_bilinearity_random():
    rng = random.Random(11)
    m = GradedModule("M", QQ, [(f"e{i}", rng.randint(0, 3)) for i in range(8)])
    for _ in range(40):
        df, dg, dh = (rng.choice([-1, 0, 1]) for _ in range(3))
        f, g, h = (_random_map(rng, m, d) for d in (df, dg, dh))
        # degree homogeneity of images
        for j in range(m.dim):
            assert all(m.degree_of(i) == m.degree_of(j) + df for i in f.apply({j: Fraction(1)}))
        # associativity and bilinearity (exact equality)
        assert f.compose(g.compose(h)) == f.compose(g).compose(h)
        if dg == dh:
            assert f.compose(g + h) == f.compose(g) + f.compose(h)
            assert (g + h).compose(f) == g.compose(f) + h.compose(f)


def test_render_canonical(m5):
    assert GradedMap.zero(m5, degree=-1).render() == "0"
    m = GradedMap.from_entries(
        m5, -2, [("x8", "x4", -1), ("x6", "x1", QQ.scalar(1, 2))]
    )
    assert m.render() == "1/2*x1 d/d x6 - x4 d/d x8"
    big = GradedMap.from_entries(base_complex(7, QQ).module, -2, [("x14", "x10", -1)])
    assert big.render() == "-x10 d/d x14"


# -- coefficients from another field ----------------------------------------------------


def test_foreign_scalar_coefficients_are_rejected():
    v_q = GradedModule("V", QQ, [("a", 0), ("b", 0)])
    three = GF(5).scalar(3)
    with pytest.raises(FieldMismatch):
        elementary(v_q, "b", "a", three)
    with pytest.raises(FieldMismatch):
        GradedMap.from_entries(v_q, 0, [("a", "b", three)])
    with pytest.raises(FieldMismatch):
        GradedMap.identity(v_q).scale(three)
    m = elementary(v_q, "b", "a", QQ.scalar(3))
    assert (m + m).render() == "6*b d/d a"
    assert next((m + m).entries())[2] == QQ.scalar(6)


# -- raw values against a Scalar oracle -----------------------------------------------
#
# The oracle keeps maps as {(source index, target index): Scalar} and raw
# terms as {index: Scalar}, and computes with Scalar arithmetic only.


_FIELDS = [QQ, GF(2), GF(5)]
_MODULES = st.tuples(st.sampled_from(_FIELDS), st.lists(st.integers(0, 2), min_size=1, max_size=5))
#: (source index, target index, numerator, kind); see _coeff
_TRIPLES = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-6, 6), st.integers(0, 2)),
    max_size=10,
)


def _coeff(field, num, kind):
    """A plain int, or a Scalar of the field with denominator 1 or 3; zero included."""
    return num if kind == 0 else field.scalar(num, 1 if kind == 1 else 3)


def _scalar(field, c):
    return c if isinstance(c, Scalar) else field.scalar(c)


def _entry_list(module, degree, triples):
    """The (source, target, coefficient) triples that fit a map of this degree."""
    return [
        (module.name_of(j), module.name_of(i), _coeff(module.field, num, kind))
        for j, i, num, kind in triples
        if max(i, j) < module.dim and module.degree_of(i) == module.degree_of(j) + degree
    ]


def _nonzero(terms):
    return {k: c for k, c in terms.items() if c}


def _oracle_map(module, entries):
    field, acc = module.field, {}
    for src, tgt, c in entries:
        key = (module.index_of(src), module.index_of(tgt))
        acc[key] = acc.get(key, field.zero) + _scalar(field, c)
    return _nonzero(acc)


def _oracle_add(f, g):
    acc = dict(f)
    for k, c in g.items():
        acc[k] = acc[k] + c if k in acc else c
    return _nonzero(acc)


def _assert_raw(field, terms):
    assert terms
    for c in terms.values():
        if field.modulus is None:
            assert type(c) is Fraction and c != 0
        else:
            assert type(c) is int and 1 <= c < field.modulus


def _entries(m):
    """Entries of a library map, after checking how it stores them."""
    for col in m.columns.values():
        _assert_raw(m.target.field, col)
    return {(j, i): c for j, i, c in m.entries()}


def _terms(field, terms):
    """Raw terms as Scalars, after checking how they are stored."""
    if terms:
        _assert_raw(field, terms)
    return {i: Scalar(field, c) for i, c in terms.items()}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_raw_map_arithmetic_matches_scalar_oracle(data):
    field, degrees = data.draw(_MODULES)
    module = GradedModule("M", field, [(f"e{k}", d) for k, d in enumerate(degrees)])
    deg_f, deg_g = data.draw(st.integers(-1, 1)), data.draw(st.integers(-1, 1))
    ef, eg, eh = (_entry_list(module, d, data.draw(_TRIPLES)) for d in (deg_f, deg_g, deg_f))
    f, g, h = (GradedMap.from_entries(module, d, e) for d, e in ((deg_f, ef), (deg_g, eg), (deg_f, eh)))
    of, og, oh = (_oracle_map(module, e) for e in (ef, eg, eh))
    assert (_entries(f), _entries(g), _entries(h)) == (of, og, oh)

    assert _entries(f + h) == _oracle_add(of, oh)
    assert _entries(-f) == {k: -c for k, c in of.items()}
    assert _entries(f - h) == _oracle_add(of, {k: -c for k, c in oh.items()})
    c = _coeff(field, *data.draw(st.tuples(st.integers(-6, 6), st.integers(0, 2))))
    assert _entries(f.scale(c)) == _nonzero({k: _scalar(field, c) * a for k, a in of.items()})

    composed = {}
    for (j, i), b in og.items():
        for (i2, k), a in of.items():
            if i2 == i:
                composed[j, k] = composed.get((j, k), field.zero) + b * a
    assert _entries(f.compose(g)) == _nonzero(composed)

    coeffs = {
        j: _coeff(field, num, kind) for j, _, num, kind in data.draw(_TRIPLES) if j < module.dim
    }
    ov = _nonzero({j: _scalar(field, x) for j, x in coeffs.items()})
    image = {}
    for (j, i), a in of.items():
        if j in ov:
            image[i] = image.get(i, field.zero) + ov[j] * a
    assert _terms(field, f.apply({j: x.value for j, x in ov.items()})) == _nonzero(image)
