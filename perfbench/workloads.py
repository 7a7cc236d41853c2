"""The three workloads: a fixed schedule of job slots per cycle, and for each
slot a factory that builds one job's inputs from a seeded RNG.

``make(slot, rng, ctx)`` runs outside the timed span and returns
``(run, check)``: ``run()`` is the timed call into the library and
``check(result, skew)`` is the benchmark's own verdict on its answer.
``skew`` is 0 in a real run; the self-test passes 1 to shift the expected
value and prove that the check can fail.

Every call into the library goes through a module attribute
(``cochain.solve_coboundary``, ...) looked up at call time, so the tracer's
wrappers are seen.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout

from dgdeform import cli, cochain, deform, dsl, family
from dgdeform.field import GF, QQ
from dgdeform.gmap import GradedMap
from dgdeform.graded import GradedModule

from . import exact, gen

Q, GF2, GF5 = exact.Field(), exact.Field(2), exact.Field(5)


# -- conversions between the benchmark's data and library objects -----------------


def lib_field(fld):
    return QQ if fld.p is None else GF(fld.p)


def lib_scalar(F, v):
    return F.scalar(v.numerator, v.denominator) if F.modulus is None else F.scalar(v)


def lib_module(name, names, degrees, fld):
    return GradedModule(name, lib_field(fld), list(zip(names, degrees)))


def lib_map(src, tgt, degree, cols):
    F = src.field
    entries = [
        (src.name_of(j), tgt.name_of(i), lib_scalar(F, v))
        for j, col in cols.items() for i, v in col.items()
    ]
    return GradedMap.from_entries(src, degree, entries, target=tgt)


def data(m) -> dict:
    """A library map as a column dict of raw values."""
    out: dict = {}
    for j, i, c in m.entries():
        out.setdefault(j, {})[i] = c.value
    return out


def lib_complex(c: gen.Cx, fld):
    module = lib_module(c.name, c.names, c.degrees, fld)
    return cochain.Complex(module, lib_map(module, module, -1, c.d))


class Ctx:
    """Per-run context: the tracer's span factory and a scratch directory."""

    def __init__(self, span, workdir):
        self.span = span
        self.workdir = workdir


def run_cli(ctx, args):
    """The CLI in-process, as a user runs it: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with ctx.span("cli.main"), redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="dgdeform", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue(), err.getvalue()


# -- ladder ----------------------------------------------------------------------------


def _ladder_deform(n, fld, rng, ctx):
    F = lib_field(fld)

    def run():
        spec = family.FamilySpec(n, "infinite", None, F)
        cx = family.base_complex(spec.truncation, F)
        return deform.deform_to_order(cx, family.family_lifts(spec)[0], n)

    def check(report, skew):
        truncation = family.minimal_truncation("infinite", n)
        d = data(report.cx.d)
        series = [d] + [data(m) for m in report.lifts]
        square = exact.series_mul(series, series, fld)
        ok = (
            report.extended
            and len(report.lifts) == n
            and d == gen.base_differential(truncation, fld)
            and not any(square)
        )
        return ok != bool(skew)

    return run, check


def _ladder_verify(n, fld, rng, ctx):
    args = ["verify-paper", "--n", str(n), "--field", fld.cli_name()]

    def check(out, skew):
        code, stdout, _ = out
        lines = stdout.splitlines()
        return (
            code == 0 + skew
            and lines[-1] == "all checks passed"
            and sum(line.startswith("PASS ") for line in lines) == 12
        )

    return (lambda: run_cli(ctx, args)), check


def _ladder_trivialize(spec, fld, rng, ctx):
    truncation, order = spec
    names, degrees = gen.base_module(truncation)
    coeffs = gen.gauge_trivial(rng, fld, truncation, order)
    module = lib_module("V", names, degrees, fld)
    d_t = deform.MapSeries([lib_map(module, module, -1, c) for c in coeffs])

    def check(report, skew):
        residual = [data(m) for m in report.residual.coeffs]
        return (
            report.trivialized
            and len(report.stages) == order
            and residual[0] == coeffs[0]
            and not any(residual[1:])
        ) != bool(skew)

    return (lambda: deform.trivialize(d_t)), check


# -- cohomology ----------------------------------------------------------------------


def _pair_inputs(rng, fld, conj, sizes):
    (pv, sv), (pm, sm) = sizes
    v = gen.pair_complex(rng, fld, "V", "v", pv, sv, conjugate=conj)
    m = gen.pair_complex(rng, fld, "M", "m", pm, sm, conjugate=conj)
    return v, m, lib_complex(v, fld), lib_complex(m, fld)


def _cohomology(spec, fld, rng, ctx):
    conj, p, sizes = spec
    v, m, cv, cm = _pair_inputs(rng, fld, conj, sizes)
    expected = gen.kunneth(v, m, p)

    def check(res, skew):
        reps = [data(r.mapping) for r in res.representatives]
        return (
            res.dim_h == expected + skew
            and len(reps) == expected
            and not any(exact.coboundary(r, v.d, m.d, p, fld) for r in reps)
        )

    return (lambda: cochain.cohomology(cv, cm, p)), check


def _solve(spec, fld, rng, ctx):
    """delta(f) = g in C^{p+1}(V; M): g = delta(f0), plus a non-exact cocycle
    when the job is infeasible."""
    conj, p, sizes, feasible = spec
    v, m, cv, cm = _pair_inputs(rng, fld, conj, sizes)
    g = exact.coboundary(gen.random_cochain(rng, fld, v, m, p, 0.3), v.d, m.d, p, fld)
    z = None if feasible else gen.class_cocycle(rng, fld, v, m, p + 1)
    if z is not None:
        g = exact.add(g, z, fld)
    rhs = cochain.Cochain(p + 1, lib_map(cv.module, cm.module, -(p + 1), g), cv, cm)
    v_index = {name: j for j, name in enumerate(v.names)}
    m_index = {name: i for i, name in enumerate(m.names)}

    def pairing(combo, c):
        return fld.canon(sum(w * c.get(j, {}).get(i, 0) for (j, i), w in combo.items()))

    def check(out, skew):
        if feasible:
            # the library's own postcondition is an assert, gone under python -O
            ok = type(out).__name__ == "Solved" and out.cochain.coboundary() == rhs
            return ok != bool(skew)
        if type(out).__name__ != "Infeasible":
            return False
        w = out.witness
        combo = {(v_index[s], m_index[t]): c.value for s, t, c in w.combination}
        residual = w.residual.value
        return (
            not exact.witness_defect(combo, v.d, m.d, p, fld)
            and residual != 0
            and pairing(combo, g) == residual
            and pairing(combo, z) == fld.canon(residual + skew)
        )

    return (lambda: cochain.solve_coboundary(rhs)), check


# -- files ------------------------------------------------------------------------------


def _family_file(ctx, variant, n, fld):
    return os.path.join(ctx.workdir, f"{variant}_{n}_{fld.cli_name().replace(':', '')}.dgm")


def _files_family(spec, fld, rng, ctx):
    """paper-family --out: renders and writes the member."""
    variant, n = spec
    path = _family_file(ctx, variant, n, fld)
    args = ["paper-family", "--n", str(n), "--variant", variant,
            "--field", fld.cli_name(), "--out", path]
    truncation = family.minimal_truncation(variant, n)
    names, degrees = gen.base_module(truncation)
    basis = "  basis " + ", ".join(f"{a} : {q}" for a, q in zip(names, degrees)) + ";"
    orders = [f"  order {k} : d{k};" for k in range(1, n + 1)]

    def check(out, skew):
        code, stdout, _ = out
        with open(path) as fh:
            lines = fh.read().splitlines()
        return code == skew and stdout == "" and basis in lines and lines[-n - 1:-1] == orders

    return (lambda: run_cli(ctx, args)), check


def _lifts(variant, n, fld):
    spec = family.FamilySpec(n, variant, None, lib_field(fld))
    return [data(m) for m in family.family_lifts(spec)], spec.truncation


def _files_check(spec, fld, rng, ctx):
    variant, n = spec
    path = _family_file(ctx, variant, n, fld)
    dim = 2 * family.minimal_truncation(variant, n)
    want = (f"ok: module V over {fld.name()}, dim {dim}, {n + 1} maps, "
            f"{n} deformation orders; d^2 = 0\n")

    def check(out, skew):
        code, stdout, _ = out
        return code == skew and stdout == want

    return (lambda: run_cli(ctx, ["check", path])), check


def _files_obstruction(spec, fld, rng, ctx):
    variant, n = spec
    k = rng.randint(1, n)
    path = _family_file(ctx, variant, n, fld)
    lifts, truncation = _lifts(variant, n, fld)
    acc: dict = {}
    for i in range(1, k + 1):
        acc = exact.add(acc, exact.mul(lifts[i - 1], lifts[k - i], fld), fld, scale=-1)
    names, _ = gen.base_module(truncation)
    want = f"O_{k} = {exact.render_map(acc, names, names, fld)}\n"

    def check(out, skew):
        code, stdout, _ = out
        return code == skew and stdout == want

    return (lambda: run_cli(ctx, ["obstruction", path, "--order", str(k)])), check


def _files_deform(spec, fld, rng, ctx):
    variant, n = spec
    path = _family_file(ctx, variant, n, fld)

    def check(out, skew):
        code, stdout, _ = out
        lines = stdout.splitlines()
        return (
            code == skew
            and lines[-1] == f"status: extended to order {n}"
            and f"relations: ok through order {n - 1}" in lines
        )

    return (lambda: run_cli(ctx, ["deform", path, "--order", str(n)])), check


def _files_roundtrip(spec, fld, rng, ctx):
    """render then parse a seeded random document; the result must equal it."""
    dim, n_maps = spec
    names, degrees, maps, deformation = gen.random_document(rng, fld, dim, n_maps)
    module = lib_module("W", names, degrees, fld)
    doc = dsl.Document(
        module.field, module,
        {name: lib_map(module, module, deg, cols) for name, deg, cols in maps},
        deformation,
    )

    def run():
        return dsl.parse(dsl.render(doc))

    def check(back, skew):
        return (
            back.field.modulus == fld.p
            and back.module.basis == tuple(zip(names, degrees))
            and list(back.deformation) == deformation
            and [(name, data(mp)) for name, mp in back.maps.items()]
            == [(name, cols) for name, _, cols in maps]
            and all(back.maps[name].degree == deg + skew for name, deg, cols in maps if cols)
        )

    return run, check


_DEFECTS = (
    ("unknown basis name", lambda t: t.replace("*g1;", "*nowhere;", 1).replace("*g1 ", "*nowhere ", 1)),
    ("missing semicolon", lambda t: t.replace(";\n}", "\n}", 1)),
    ("non-prime modulus", lambda t: t.replace("field GF 5", "field GF 4").replace("field Q", "field GF 9")),
)


def _files_bad(spec, fld, rng, ctx):
    """check on a malformed file (exit 2) or on a map d with d^2 != 0 (exit 1)."""
    kind = spec
    path = os.path.join(ctx.workdir, f"bad_{kind}.dgm")
    if kind == "not a differential":
        # g0 -> g1 -> g2 composes to a nonzero map of degree -2
        text = gen.write_document(
            fld, ["g0", "g1", "g2"], [2, 1, 0], [("d", -1, {0: {1: fld.one}, 1: {2: fld.one}})]
        )
        want = 1
    else:
        while True:
            names, degrees, maps, _ = gen.random_document(rng, fld, 12, 2, density=0.6)
            text = gen.write_document(fld, names, degrees, maps)
            bad = dict(_DEFECTS)[kind](text)
            if bad != text:
                break
        text, want = bad, 2
    with open(path, "w") as fh:
        fh.write(text)

    def check(out, skew):
        code, stdout, stderr = out
        return code == want + skew and stdout == "" and stderr.count("\n") == 1

    return (lambda: run_cli(ctx, ["check", path])), check


# -- schedules -------------------------------------------------------------------------


def _ladder_schedule():
    slots = []
    for n in (4, 5, 6, 7, 8):
        for fld in (Q, GF2, GF5):
            slots.append((_ladder_deform, n, fld))
    for n, fld in ((3, Q), (4, GF5), (5, Q), (6, GF2)):
        slots.append((_ladder_verify, n, fld))
    for spec, fld in (((8, 4), Q), ((12, 5), GF5), ((16, 6), GF2), ((16, 3), Q), ((10, 6), GF5)):
        slots.append((_ladder_trivialize, spec, fld))
    return slots


def _profile(n_pairs, n_singles, degrees):
    """Pairs and singletons spread round-robin over the given degrees."""
    pairs = {q: 0 for q in degrees}
    singles = {q: 0 for q in degrees}
    for k in range(n_pairs):
        pairs[degrees[k % len(degrees)]] += 1
    for k in range(n_singles):
        singles[degrees[(k * 3) % len(degrees)]] += 1
    return pairs, singles


# (V profile, M profile) for plain and conjugated pairs
_PLAIN = (_profile(18, 9, range(1, 9)), _profile(16, 8, range(0, 8)))
_CONJ = (_profile(11, 7, range(1, 5)), _profile(9, 6, range(0, 4)))


def _cohomology_schedule():
    slots = []
    for fld in (Q, GF5):
        for conj, sizes in ((False, _PLAIN), (True, _CONJ)):
            for p in (0, 1):
                # GF(5) cohomology jobs run twice a cycle: their times fill the
                # gaps between the other slots' times where the median and p90
                # of the mix fall, which keeps those steady from seed to seed
                for _ in range(2 if fld is GF5 else 1):
                    slots.append((_cohomology, (conj, p, sizes), fld))
                slots.append((_solve, (conj, p, sizes, True), fld))
                slots.append((_solve, (conj, p, sizes, False), fld))
    return slots


def _files_schedule():
    slots = []
    k = 0
    for variant in ("polynomial", "obstructed", "infinite"):
        for n in (3, 5, 7):
            fld = (Q, GF5, GF2)[k % 3]
            k += 1
            for make in (_files_family, _files_check, _files_obstruction, _files_deform):
                slots.append((make, (variant, n), fld))
    # eight small round trips: about a sixth of the jobs, with times that
    # overlap the CLI jobs', so p90 falls where jobs are dense
    for spec, fld in (((16, 4), Q), ((20, 5), GF5), ((24, 4), Q), ((18, 6), GF2),
                      ((22, 4), GF5), ((20, 6), Q), ((16, 5), GF2), ((24, 5), Q)):
        slots.append((_files_roundtrip, spec, fld))
    for kind in ("unknown basis name", "missing semicolon", "non-prime modulus", "not a differential"):
        slots.append((_files_bad, kind, GF5 if kind == "non-prime modulus" else Q))
    return slots


SCHEDULES = {
    "ladder": _ladder_schedule,
    "cohomology": _cohomology_schedule,
    "files": _files_schedule,
}


def make(slot, rng, ctx):
    factory, spec, fld = slot
    return factory(spec, fld, rng, ctx)
