"""Pinned outputs: cohomology on seeded random complexes, and the CLI.

``tests/golden/cohomology.txt`` has one line per ``cohomology()`` call: the
inputs (seed, field, dims of V and M, p), the three dimensions, and the
sha256 of the rendered representatives.  Seeds 0-23 pair random complexes
as built; seeds 24-35 conjugate each complex by transvections, so that the
differentials, cycles and kernel vectors fill in.

``tests/golden/cli.txt`` records 502 in-process CLI runs: each command line
(file arguments by file name only), its exit code, and its stdout, one
``| ``-prefixed line per output line.  The runs are ``paper-family``,
``check``, ``cohomology``, ``deform`` (file and canonical lifts),
``trivialize`` and ``obstruction`` on every family variant over Q, GF(2) and
GF(5) for n in {2, 3, 6}, ``verify-paper`` for n in {3, 6, 10}, and
``check``, ``deform`` and ``trivialize`` at orders 2-4 on the gauge-trivial
order-4 files ``tests/golden/gauged-Q.dgm`` (fractional gauge coefficients)
and ``gauged-GF5.dgm``, the runs that end in ``status: trivialized``.  Last
come ``check``, ``cohomology``, ``obstruction``, canonical ``deform`` and
``trivialize`` on the ``tests/golden/filled-*.dgm`` files: a random
1-cocycle d_1 on a conjugated random complex over Q (fractional entries),
GF(2) or GF(5), so that delta fills in, with its canonical lifts.  One file
per field is obstructed, and every ``trivialize`` sticks at order 1, so
these runs pin witnesses of a filled-in elimination.  The long ladders close
the file: ``verify-paper --n 48`` over Q, GF(2) and GF(5), then
``obstruction`` at several orders up to 30 and ``deform --order 30`` on the
``infinite`` and ``polynomial`` members with n = 30 over Q and GF(5).
Then ``check``, canonical ``deform`` and ``trivialize`` on six seeded
random documents in the shape of the benchmark's (``_document``): over Q,
GF(2) and GF(5), one gauge-trivial deformation of order 3 and one random
1-cocycle each, so that the solver is pinned outside the paper's family too.

``tests/golden/trivialize.txt`` records ``trivialize`` on seeded series over
Q, GF(2) and GF(5) at orders 1-8: the rendered report, every stage phi_r, and
every coefficient of the automorphism and of the residual.  Most series are
gauge-trivial (the trivial deformation conjugated by random gauge factors at
every stage, at every second or third stage, which leaves zero coefficients
in between, or a canonical ladder on a complex with H^1 = 0); the rest stick
at order 2.

``tests/golden/solve.txt`` records ``solve_coboundary`` on seeded pairs over
Q, GF(2) and GF(5), V = M for every fourth seed, each complex conjugated by
transvections so that delta fills in: for each p, g = delta(f) for a random
p-cochain f, then g plus a random (p+1)-cocycle, which cobounds only when its
class is zero.  A solution is pinned by the sha256 of its rendering: the
homotopy solution, which depends on the pivots of the one elimination of d
and on the order of its rows.  A witness is pinned by its rendering in full.

``tests/golden/parse.txt`` records ``parse`` on .dgm texts, one line per
text: a label, then ``ok`` and the sha256 of ``render(parse(text))``, or the
exception type and message.  The texts are seeded random documents over Q,
GF(2), GF(5) and GF(7) in free form (spacing, comments, repeated and
cancelling terms, fractions, a deformation block in shuffled order), every
``paper-family`` file for n in {1, 2, 3, 6} over Q and GF(5), and 20 seeded
mutations of each: insertions of characters and tokens that the scanner
must reject or split (``²``, ``٣``, ``é``, a vertical tab, ``#``, ``->``, a
5,000-digit literal, ``1/0*``, an empty deformation block and more),
deletions and duplicated spans.

Any change to these files is a change of canonical outputs and needs a
deliberate, reviewed diff.  They were written by

    PYTHONPATH=src:tests python tests/test_golden.py > tests/golden/cohomology.txt
    PYTHONPATH=src:tests python tests/test_golden.py cli > tests/golden/cli.txt
    PYTHONPATH=src:tests python tests/test_golden.py trivialize > tests/golden/trivialize.txt
    PYTHONPATH=src:tests python tests/test_golden.py solve > tests/golden/solve.txt
    PYTHONPATH=src:tests python tests/test_golden.py parse > tests/golden/parse.txt
"""

import hashlib
import random
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from dgdeform import (
    GF,
    QQ,
    Cochain,
    Complex,
    FamilySpec,
    GradedMap,
    GradedModule,
    MapSeries,
    Solved,
    cohomology,
    deform_to_order,
    family_lifts,
    solve_coboundary,
    trivialize,
)
from dgdeform.cli import main
from dgdeform.cochain import cochain_basis
from dgdeform.dsl import parse, render
from dgdeform.family import VARIANTS
from conftest import (
    conjugated,
    count_reductions,
    oracle_nullity,
    random_cochain,
    random_cocycle,
    random_complex,
    random_gauged,
    random_scalar,
)

GOLDEN = Path(__file__).parent / "golden" / "cohomology.txt"
CLI_GOLDEN = Path(__file__).parent / "golden" / "cli.txt"
TRIVIALIZE_GOLDEN = Path(__file__).parent / "golden" / "trivialize.txt"
SOLVE_GOLDEN = Path(__file__).parent / "golden" / "solve.txt"
PARSE_GOLDEN = Path(__file__).parent / "golden" / "parse.txt"
GAUGED_FILES = ("gauged-Q.dgm", "gauged-GF5.dgm")
FILLED_FILES = ("filled-Q-35.dgm", "filled-Q-3.dgm", "filled-GF2-33.dgm", "filled-GF2-2.dgm",
                "filled-GF5-22.dgm", "filled-GF5-1.dgm")
FIELDS = [QQ, GF(2), GF(5)]
DOCUMENTS = [("Q-gauged", QQ, True), ("Q-cocycle", QQ, False), ("GF2-gauged", GF(2), True),
             ("GF2-cocycle", GF(2), False), ("GF5-gauged", GF(5), True),
             ("GF5-cocycle", GF(5), False)]
SEEDS = range(24)
CONJUGATED_SEEDS = range(24, 36)
DEGREES = range(-2, 4)
HUGE = "7" * 5000  # past the interpreter's 4300-digit int conversion limit


def _cohomology_pairs():
    # every fourth seed pins End(V), the rest a pair V != M
    for seed in SEEDS:
        for field in FIELDS:
            rng = random.Random(f"{seed}/{field}")
            v = random_complex(rng, field, rng.randint(4, 32), name="V")
            m = v if seed % 4 == 0 else random_complex(rng, field, rng.randint(4, 32), name="M")
            yield seed, field, v, m
    for seed in CONJUGATED_SEEDS:
        for field in FIELDS:
            rng = random.Random(f"conjugated/{seed}/{field}")
            v = conjugated(rng, random_complex(rng, field, rng.randint(4, 24), name="V"))
            m = v if seed % 4 == 0 else conjugated(
                rng, random_complex(rng, field, rng.randint(4, 24), name="M"))
            yield seed, field, v, m


def golden_lines():
    for seed, field, v, m in _cohomology_pairs():
        for p in DEGREES:
            res = cohomology(v, m, p)
            reps = "\n".join(rep.render() for rep in res.representatives)
            digest = hashlib.sha256(reps.encode()).hexdigest()
            yield (
                f"seed={seed} field={field} V={v.module.dim} M={m.module.dim} p={p} "
                f"cocycles={res.dim_cocycles} coboundaries={res.dim_coboundaries} "
                f"h={res.dim_h} reps={digest}"
            )


def _cli_run(runner, args, tmp: Path) -> str:
    result = runner.invoke(main, args)
    shown = " ".join(Path(a).name if a.startswith(str(tmp)) else a for a in args)
    out = result.stdout
    text = f"$ {shown}\nexit {result.exit_code}\n"
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        text += f"exception {type(result.exception).__name__}\n"
    text += "".join(f"| {line}" for line in out.splitlines(keepends=True))
    if out and not out.endswith("\n"):
        text += "\n(no newline at end of stdout)\n"
    return text


def cli_golden() -> str:
    runner = CliRunner()
    runs = []
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        for variant in VARIANTS:
            for field in ("Q", "GF:2", "GF:5"):
                for n in (2, 3, 6):
                    path = tmp / f"{variant}-{field.replace(':', '')}-{n}.dgm"
                    family = ["paper-family", "--n", str(n), "--variant", variant,
                              "--field", field, "--out"]
                    runs.append(_cli_run(runner, [*family, "-"], tmp))
                    runner.invoke(main, [*family, str(path)])
                    f = str(path)
                    commands = [
                        ["check", f],
                        ["cohomology", f, "--p", "-1", "--p", "0", "--p", "1", "--p", "2"],
                        ["deform", f, "--order", str(n + 1)],
                        ["deform", f, "--order", str(n + 1), "--lifts", "canonical"],
                        ["trivialize", f, "--order", str(n)],
                    ]
                    commands += [["obstruction", f, "--order", str(k)] for k in (1, 2, 3, 5, 7)]
                    runs += [_cli_run(runner, args, tmp) for args in commands]
        for n in (3, 6, 10):
            for field in ("Q", "GF:2", "GF:5"):
                runs.append(_cli_run(runner, ["verify-paper", "--n", str(n), "--field", field], tmp))
        for name in GAUGED_FILES:
            path = tmp / name
            path.write_text((GOLDEN.parent / name).read_text())
            f = str(path)
            commands = [["check", f], ["deform", f, "--order", "4"]]
            commands += [["trivialize", f, "--order", str(n)] for n in (2, 3, 4)]
            runs += [_cli_run(runner, args, tmp) for args in commands]
        for name in FILLED_FILES:
            path = tmp / name
            text = (GOLDEN.parent / name).read_text()
            path.write_text(text)
            f = str(path)
            top = len(parse(text).deformation)
            commands = [["check", f], ["cohomology", f, "--p", "0", "--p", "1"]]
            commands += [["obstruction", f, "--order", str(k)] for k in range(1, top + 1)]
            commands += [["deform", f, "--order", "4", "--lifts", "canonical"],
                         ["trivialize", f, "--order", str(top)]]
            runs += [_cli_run(runner, args, tmp) for args in commands]
        # long ladders, where each O_k sums many nonzero pairs of lifts
        for field in ("Q", "GF:2", "GF:5"):
            runs.append(_cli_run(runner, ["verify-paper", "--n", "48", "--field", field], tmp))
        for variant in ("infinite", "polynomial"):
            for field in ("Q", "GF:5"):
                path = tmp / f"{variant}-{field.replace(':', '')}-30.dgm"
                runner.invoke(main, ["paper-family", "--n", "30", "--variant", variant,
                                     "--field", field, "--out", str(path)])
                f = str(path)
                commands = [["obstruction", f, "--order", str(k)] for k in (1, 2, 9, 16, 29, 30)]
                commands.append(["deform", f, "--order", "30"])
                runs += [_cli_run(runner, args, tmp) for args in commands]
        # the solver on random documents, outside the paper's family
        for label, field, gauged in DOCUMENTS:
            path = tmp / f"document-{label}.dgm"
            text, top = _document(random.Random(f"document/{label}"), field, gauged)
            path.write_text(text)
            f = str(path)
            commands = [["check", f], ["deform", f, "--order", "4", "--lifts", "canonical"],
                        ["trivialize", f, "--order", str(top)]]
            runs += [_cli_run(runner, args, tmp) for args in commands]
    return "".join(runs)


def _document(rng: random.Random, field, gauged: bool) -> tuple[str, int]:
    """(.dgm text, number of lifts) in the shape of the benchmark's random
    documents (``perfbench.gen.random_document`` written by ``write_document``):
    module W with generators g0, g1, ... in degrees 0-4, maps m0, m1, ...
    of degree -1 or 0, the deformation block listing the degree -1 ones, and
    every coefficient written out.  d is a sum of exact pairs and
    singletons, declared in a shuffled order and conjugated by
    transvections, so that delta fills in.  The lifts are a random gauge of
    the trivial deformation at orders 1-3 when ``gauged`` (every stage of
    ``trivialize`` solves), else one random 1-cocycle; the last map is a
    random degree-0 map outside the deformation."""
    gens, dim = [], rng.randint(8, 14)  # (degree, whether d sends it to the next one)
    while len(gens) < dim:  # more singletons, so more classes, for the cocycle
        if rng.random() < (0.6 if gauged else 0.3):
            q = rng.randint(1, 4)
            gens += [(q, True), (q - 1, False)]
        else:
            gens.append((rng.randint(0, 4), False))
    order = list(range(len(gens)))
    rng.shuffle(order)
    name = {k: f"g{i}" for i, k in enumerate(order)}
    module = GradedModule("W", field, [(name[k], gens[k][0]) for k in order])
    entries = [(name[k], name[k + 1], random_scalar(rng, field, nonzero=True))
               for k, (_, top) in enumerate(gens) if top]
    cx = conjugated(rng, Complex(module, GradedMap.from_entries(module, -1, entries)))
    if gauged:
        lifts = random_gauged(rng, MapSeries.deformation(cx, [], order=3), [1, 2, 3]).coeffs[1:]
    else:
        lifts = [random_cocycle(rng, cx)]
    maps = [("d", -1, cx.d), *((f"m{k}", -1, m) for k, m in enumerate(lifts)),
            (f"m{len(lifts)}", 0, random_cochain(rng, cx, 0, 0.3))]
    head = "field Q" if field.modulus is None else f"field GF {field.modulus}"
    basis = ", ".join(f"{n} : {q}" for n, q in module.basis)
    out = [head, f"module W {{ basis {basis}; }}"]
    for label, degree, m in maps:
        out.append(f"map {label} degree {degree} {{")
        for j, col in m.columns.items():
            terms = " + ".join(f"{v}*{module.name_of(i)}" for i, v in col.items())
            out.append(f"  {module.name_of(j)} -> {terms};")
        out.append("}")
    out.append("deformation { " + " ".join(f"order {k} : m{k - 1};"
                                            for k in range(1, len(lifts) + 1)) + " }")
    return "\n".join(out) + "\n", len(lifts)


def trivialize_cases():
    """(label, series) pairs; see the module docstring."""
    for field in FIELDS:
        for n in range(1, 9):
            for kind in ("dense", "gaps", "ladder"):
                rng = random.Random(f"trivialize/{field}/{n}/{kind}")
                if kind == "ladder":
                    # singletons only in degree 1: H^1 = H^2 = 0, so the
                    # canonical ladder extends and the series is gauge-trivial
                    cx = random_complex(rng, field, rng.randint(4, 8), singleton_degrees=[1])
                    lifts = deform_to_order(cx, random_cocycle(rng, cx), n).lifts
                    d_t = MapSeries.deformation(cx, lifts, order=n)
                else:
                    cx = random_complex(rng, field, rng.randint(4, 8))
                    step = 1 if kind == "dense" else rng.choice([2, 3])
                    stages = list(range(step, n + 1, step))
                    rng.shuffle(stages)
                    d_t = random_gauged(rng, MapSeries.deformation(cx, [], order=n), stages)
                yield f"{kind} field={field} n={n} dim={cx.module.dim}", d_t
        # d + t^2 x4 d/d x6: stage 1 is zero and stage 2 is not a coboundary,
        # once as it is and once after a random gauge at stage 1
        spec = FamilySpec(1, "linear", None, field)
        cx = spec.cx
        zero = GradedMap.zero(cx.module, degree=-1)
        d_t = MapSeries.deformation(cx, [zero, *family_lifts(spec)], order=6)
        yield f"stuck field={field} n=6 dim={cx.module.dim}", d_t
        rng = random.Random(f"trivialize/{field}/stuck")
        yield f"stuck-gauged field={field} n=6 dim={cx.module.dim}", random_gauged(rng, d_t, [1])


def trivialize_golden() -> str:
    out = []
    for label, d_t in trivialize_cases():
        report = trivialize(d_t)
        out.append(f"$ {label}")
        out.append(report.render())
        if not report.trivialized:
            out += [f"phi {r}: {phi.render()}" for r, phi in enumerate(report.stages, start=1)]
        out += [f"automorphism t^{k}: {m.render()}" for k, m in enumerate(report.automorphism.coeffs)]
        out += [f"residual t^{k}: {m.render()}" for k, m in enumerate(report.residual.coeffs)]
    return "\n".join(out) + "\n"


def solve_lines():
    for seed in SEEDS:
        for field in FIELDS:
            rng = random.Random(f"solve/{seed}/{field}")
            v = conjugated(rng, random_complex(rng, field, rng.randint(4, 20), name="V"))
            m = v if seed % 4 == 0 else conjugated(
                rng, random_complex(rng, field, rng.randint(4, 20), name="M"))
            for p in range(-1, 3):
                f = Cochain(p, random_cochain(rng, v, p, 0.6, target=m), v, m)
                exact = f.coboundary()
                z = Cochain(p + 1, random_cocycle(rng, v, p + 1, target=m), v, m)
                for kind, g in (("exact", exact), ("cocycle", exact + z)):
                    out = solve_coboundary(g)
                    head = (f"seed={seed} field={field} V={v.module.dim} M={m.module.dim} "
                            f"p={p} {kind}")
                    if isinstance(out, Solved):
                        digest = hashlib.sha256(out.cochain.render().encode()).hexdigest()
                        yield f"{head} solved {digest}"
                    else:
                        yield f"{head} infeasible {out.witness.render()}"


def _random_dgm(rng: random.Random, field) -> str:
    """A well-formed .dgm text over ``field`` in free form: random spacing and
    comments, terms split into repeated and cancelling ones, fractional
    coefficients, and a deformation block listing maps in shuffled order."""
    def gap():
        return rng.choice([" ", " ", " ", "  ", "\t", "\n", "\r\n", " # note\n", "\n\n  "])

    def coeff(num, den):
        if den == 1 and num == 1 and rng.random() < 0.6:
            return ""
        return f"{num}*" if den == 1 else f"{num}/{den}*"

    dens = [1, 3] if field.modulus == 2 else [1, 2, 3, 4]
    dim = rng.randint(1, 10)
    names = [f"{rng.choice(['e', 'x', '_g', 'Y'])}{i}" for i in range(dim)]
    degrees = [rng.randint(-1, 2) for _ in range(dim)]
    out = ["field Q" if field.modulus is None else f"field GF {field.modulus}", gap(),
           f"module {rng.choice(['V', 'M', 'W'])}", gap(), "{", gap(), "basis "]
    out.append(",".join(f"{gap()}{n}{gap()}:{gap()}{d}" for n, d in zip(names, degrees)))
    out += [";", gap(), "}"]
    maps = [f"m{k}" for k in range(rng.randint(0, 3))]
    for name in maps:
        degree = rng.randint(-1, 1)
        out += ["\n", f"map {name} degree {degree}", gap(), "{"]
        for j in rng.sample(range(dim), dim):
            targets = [i for i in range(dim) if degrees[i] == degrees[j] + degree]
            if not targets or rng.random() < 0.2:
                continue
            terms = []
            for i in rng.sample(targets, rng.randint(1, len(targets))):
                num, den = rng.randint(1, 9), rng.choice(dens)
                terms.append((rng.random() < 0.4, coeff(num, den) + names[i]))
                if rng.random() < 0.25:  # a repeated term, cancelling half the time
                    terms.append((not terms[-1][0] if rng.random() < 0.5 else rng.random() < 0.5,
                                  coeff(rng.randint(1, 9), den) + names[i]))
            text = ""
            for k, (neg, term) in enumerate(terms):
                if k == 0:
                    text += f"-{term}" if neg else term
                elif rng.random() < 0.2:
                    text += f"{gap()}+{gap()}{'-' if neg else ''}{term}"
                else:
                    text += f"{gap()}{'-' if neg else '+'}{gap()}{term}"
            out += [gap(), names[j], gap(), "->", gap(), text, gap(), ";"]
        out += [gap(), "}"]
    lifts = rng.sample(maps, rng.randint(0, len(maps)))
    if lifts or rng.random() < 0.3:
        out += ["\n", "deformation", gap(), "{"]
        order = list(enumerate(lifts, start=1))
        rng.shuffle(order)
        out += [f"{gap()}order {k}{gap()}:{gap()}{name};" for k, name in order]
        out += [gap(), "}"]
    if rng.random() < 0.3:
        out.append(" # the end")
    return "".join(out) + rng.choice(["", "\n"])


_INSERTS = ("²", "٣", "é", "\x0b", "#", "->", HUGE, "1/0*", " ", "\n", ";", "{", "}", "-",
            "0", "x1", "deformation { }")


def _mutated(rng: random.Random, text: str) -> str:
    """text after one to three seeded edits: an insertion from ``_INSERTS``, a
    deletion, or a duplicated span."""
    for _ in range(rng.choice([1, 1, 2, 3])):
        at = rng.randint(0, len(text))
        edit = rng.choice(["insert", "insert", "delete", "duplicate"])
        if edit == "insert":
            text = text[:at] + rng.choice(_INSERTS) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + rng.randint(1, 8):]
        else:
            span = text[at:at + rng.randint(1, 40)]
            to = rng.randint(0, len(text))
            text = text[:to] + span + text[to:]
    return text


def parse_inputs():
    """(label, text) pairs; see the module docstring."""
    bases = []
    for field in (QQ, GF(2), GF(5), GF(7)):
        for seed in range(16):
            rng = random.Random(f"parse/{field}/{seed}")
            bases.append((f"random {field} {seed}", _random_dgm(rng, field)))
    runner = CliRunner()
    for variant in VARIANTS:
        for field in ("Q", "GF:5"):
            for n in (1, 2, 3, 6):
                args = ["paper-family", "--n", str(n), "--variant", variant, "--field", field,
                        "--out", "-"]
                result = runner.invoke(main, args)
                if result.exit_code == 0:  # the polynomial variant needs n >= 2
                    bases.append((f"family {variant} {field} n={n}", result.stdout))
    for label, text in bases:
        yield label, text
        rng = random.Random(f"parse/mutations/{label}")
        for k in range(20):
            yield f"{label} mutation {k}", _mutated(rng, text)


def parse_lines():
    for label, text in parse_inputs():
        try:
            digest = hashlib.sha256(render(parse(text)).encode()).hexdigest()
        except Exception as exc:
            yield f"{label}: {type(exc).__name__}: {exc}"
        else:
            yield f"{label}: ok {digest}"


def test_parse_matches_golden():
    assert list(parse_lines()) == PARSE_GOLDEN.read_text().splitlines()


def test_solve_matches_golden():
    assert list(solve_lines()) == SOLVE_GOLDEN.read_text().splitlines()


def test_trivialize_matches_golden():
    assert trivialize_golden() == TRIVIALIZE_GOLDEN.read_text()


def test_cli_matches_golden():
    assert cli_golden() == CLI_GOLDEN.read_text()


def test_cohomology_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    assert list(golden_lines()) == expected


def test_cohomology_reduces_no_delta(monkeypatch):
    # delta^p is never built: d_V^T and d_M cost one kernel elimination
    # each and one class elimination; nothing is reduced with a column per
    # pair of C^p.  An unconjugated random complex is a sum of pairs
    # x -> c y, so each elimination holds rank d columns
    rng = random.Random(5)
    v = random_complex(rng, QQ, 12, name="V")
    m = random_complex(rng, QQ, 10, name="M")
    dim_cp = len(cochain_basis(v.module, m.module, 1))
    rank_v, rank_m = v.module.dim - oracle_nullity(v), m.module.dim - oracle_nullity(m)
    calls = count_reductions(monkeypatch)
    res = cohomology(v, m, 1)
    assert calls == [rank_v, rank_v, rank_m, rank_m]
    assert dim_cp not in calls
    assert res.dim_h > 0


if __name__ == "__main__":
    if sys.argv[1:] == ["cli"]:
        sys.stdout.write(cli_golden())
    elif sys.argv[1:] == ["trivialize"]:
        sys.stdout.write(trivialize_golden())
    elif sys.argv[1:] == ["solve"]:
        for line in solve_lines():
            print(line)
    elif sys.argv[1:] == ["parse"]:
        for line in parse_lines():
            print(line)
    else:
        for line in golden_lines():
            print(line)
