"""Acceptance suite: one test per criterion, exact equality throughout.

Each criterion prints a single `ACCEPTANCE <k> ...: PASS/FAIL` line (visible
with ``pytest -s`` or in the captured output on failure).
"""

import functools
import random
import time

from click.testing import CliRunner

from dgdeform import (
    GF,
    QQ,
    Cochain,
    FamilySpec,
    GradedMap,
    Infeasible,
    MapSeries,
    Solved,
    base_complex,
    check_relations,
    cohomology,
    deform_to_order,
    family_lifts,
    first_order_triviality,
    gauge_transform,
    noncobounding_certificate,
    obstruction,
    series_mul,
    solve_coboundary,
    trivialize,
)
from dgdeform.cli import main as cli_main
from dgdeform.dsl import Document, parse, render
from conftest import (
    oracle_cohomology_dims,
    random_cochain,
    random_cocycle,
    random_complex,
    random_document,
)

FIELDS = [QQ, GF(2), GF(5)]


def criterion(k, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {k} {name}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {k} {name}: PASS", flush=True)
        return run
    return wrap


@criterion(1, "polynomial family reproduction")
def test_criterion_1():
    start = time.perf_counter()
    for n in range(2, 9):
        for field in FIELDS:
            spec = FamilySpec(n, "polynomial", field=field)
            cx = base_complex(spec.truncation, field)
            lifts = family_lifts(spec)
            d_t = MapSeries.deformation(cx, lifts, order=2 * n)
            square = series_mul(d_t, d_t)
            assert all(square.coeffs[k].is_zero() for k in range(2 * n + 1))
            assert lifts[n - 1], f"d_{n} must be nonzero"
            assert len(lifts) == n  # d_i = 0 for i > n
            out = first_order_triviality(cx, lifts[0])
            assert isinstance(out, Infeasible)
            assert "x6" in out.witness.source_names
    assert time.perf_counter() - start < 5.0


@criterion(2, "obstructed family reproduction")
def test_criterion_2():
    start = time.perf_counter()
    for n in range(1, 9):
        spec = FamilySpec(n, "obstructed")
        cx = base_complex(spec.truncation, QQ)
        lifts = family_lifts(spec)
        o_n = obstruction(cx, lifts)
        lo, hi = (4, 8) if n == 1 else (6 * n - 8, 6 * n - 4)
        expected = GradedMap.from_entries(cx.module, -2, [(f"x{hi}", f"x{lo}", -1)])
        assert o_n.mapping == expected
        assert isinstance(solve_coboundary(o_n), Infeasible)
        assert noncobounding_certificate(cx.d, o_n)
    assert time.perf_counter() - start < 5.0


@criterion(3, "primary obstruction vanishes in cohomology")
def test_criterion_3():
    for n in (2, 5):
        spec = FamilySpec(n, "polynomial")
        cx = base_complex(spec.truncation, QQ)
        lifts = family_lifts(spec)
        o_1 = obstruction(cx, lifts[:1])
        assert o_1.mapping == GradedMap.from_entries(cx.module, -2, [("x6", "x1", -1)])
        out = solve_coboundary(o_1)
        assert isinstance(out, Solved)
        assert out.cochain.coboundary() == o_1


@criterion(4, "relations ledger")
def test_criterion_4():
    for n in range(2, 9):
        spec = FamilySpec(n, "polynomial")
        cx = base_complex(spec.truncation, QQ)
        assert all(check_relations(cx, family_lifts(spec)))
    spec = FamilySpec(6, "infinite", truncation=21)
    cx = base_complex(21, QQ)
    lifts = family_lifts(spec)
    report = deform_to_order(cx, lifts[0], 6, lifts=lifts[1:])
    assert report.extended
    assert all(report.relation_checks)
    assert len(report.lifts) == 6
    assert all(bool(m) for m in report.lifts), "every d_k must be nonzero"


@criterion(5, "extension whenever H^2 vanishes")
def test_criterion_5():
    rng = random.Random(101)
    for trial in range(50):
        field = rng.choice(FIELDS)
        cx = random_complex(rng, field, rng.randint(2, 10), singleton_degrees=[0, 1])
        assert cohomology(cx, cx, 2).dim_h == 0  # cohomology-verified hypothesis
        d1 = random_cocycle(rng, cx)
        report = deform_to_order(cx, d1, 6)
        assert report.extended, f"trial {trial}"
        assert all(report.relation_checks)


@criterion(6, "rigidity whenever H^1 vanishes")
def test_criterion_6():
    rng = random.Random(103)
    for trial in range(50):
        field = rng.choice(FIELDS)
        cx = random_complex(rng, field, rng.randint(2, 10), singleton_degrees=[1])
        assert cohomology(cx, cx, 1).dim_h == 0  # cohomology-verified hypothesis
        d1 = random_cocycle(rng, cx)
        built = deform_to_order(cx, d1, 5)
        assert built.extended
        d_t = MapSeries.deformation(cx, built.lifts, order=5)
        report = trivialize(d_t)
        assert report.trivialized, f"trial {trial}"
        gauged = gauge_transform(d_t, report.automorphism)
        assert all(gauged.coeffs[k].is_zero() for k in range(1, 6))


@criterion(7, "coboundary laws and solver soundness")
def test_criterion_7():
    rng = random.Random(107)
    # delta o delta = 0 on 200 randomized cochains
    for _ in range(200):
        field = rng.choice(FIELDS)
        cx = random_complex(rng, field, rng.randint(2, 9))
        p = rng.randint(-2, 2)
        f = Cochain(p, random_cochain(rng, cx, p), cx)
        assert f.coboundary().coboundary().is_zero()
    # every Solved outcome re-verifies delta(f) = g
    solved = 0
    for _ in range(40):
        field = rng.choice(FIELDS)
        cx = random_complex(rng, field, rng.randint(3, 10))
        p = rng.choice([0, 1])
        h = Cochain(p, random_cochain(rng, cx, p), cx)
        g = h.coboundary()
        out = solve_coboundary(g)
        assert isinstance(out, Solved)
        assert out.cochain.coboundary() == g
        solved += 1
    assert solved == 40
    # cohomology dimensions match the dense brute-force oracle
    for _ in range(25):
        field = rng.choice(FIELDS)
        cx = random_complex(rng, field, rng.randint(2, 12))
        p = rng.randint(-1, 2)
        res = cohomology(cx, cx, p)
        assert (res.dim_cocycles, res.dim_coboundaries, res.dim_h) == \
            oracle_cohomology_dims(cx, p)


@criterion(8, "format round-trip and CLI determinism")
def test_criterion_8():
    # generator-emitted documents
    cases = [("polynomial", 2), ("polynomial", 5), ("obstructed", 1),
             ("obstructed", 4), ("linear", 1), ("infinite", 3)]
    for variant, n in cases:
        for field in FIELDS:
            spec = FamilySpec(n, variant, field=field)
            cx = base_complex(spec.truncation, field)
            maps = {"d": cx.d}
            names = []
            for k, m in enumerate(family_lifts(spec), start=1):
                maps[f"d{k}"] = m
                names.append(f"d{k}")
            doc = Document(field, cx.module, maps, names)
            assert parse(render(doc)) == doc
    # 100 randomized documents
    rng = random.Random(109)
    for _ in range(100):
        doc = random_document(rng)
        assert parse(render(doc)) == doc
    # byte-identical CLI output across repeated invocations
    runner = CliRunner()
    for argv in (["verify-paper", "--n", "2"],
                 ["verify-paper", "--n", "4", "--variant", "obstructed", "--field", "GF:5"]):
        first = runner.invoke(cli_main, argv)
        second = runner.invoke(cli_main, argv)
        assert first.output and first.output == second.output
        assert first.exit_code == second.exit_code == 0
