"""Pinned outputs: cohomology on seeded random complexes, and the CLI.

``tests/golden/cohomology.txt`` has one line per ``cohomology()`` call: the
inputs (seed, field, dims of V and M, p), the three dimensions, and the
sha256 of the rendered representatives.  Seeds 0-23 pair random complexes
as built; seeds 24-35 conjugate each complex by transvections, so that the
differentials, cycles and kernel vectors fill in.

``tests/golden/cli.txt`` records 484 in-process CLI runs: each command line
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
class is zero.  A solution is pinned by the sha256 of its rendering, a
witness by its rendering in full: which rows of the elimination end up
inconsistent, and so which witness is canonical, depends on every row swap.

Any change to these files is a change of canonical outputs and needs a
deliberate, reviewed diff.  They were written by

    PYTHONPATH=src:tests python tests/test_golden.py > tests/golden/cohomology.txt
    PYTHONPATH=src:tests python tests/test_golden.py cli > tests/golden/cli.txt
    PYTHONPATH=src:tests python tests/test_golden.py trivialize > tests/golden/trivialize.txt
    PYTHONPATH=src:tests python tests/test_golden.py solve > tests/golden/solve.txt
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
    FamilySpec,
    GradedMap,
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
from dgdeform.dsl import parse
from dgdeform.family import VARIANTS
from conftest import (
    conjugated,
    count_reductions,
    oracle_nullity,
    random_cochain,
    random_cocycle,
    random_complex,
    random_gauged,
)

GOLDEN = Path(__file__).parent / "golden" / "cohomology.txt"
CLI_GOLDEN = Path(__file__).parent / "golden" / "cli.txt"
TRIVIALIZE_GOLDEN = Path(__file__).parent / "golden" / "trivialize.txt"
SOLVE_GOLDEN = Path(__file__).parent / "golden" / "solve.txt"
GAUGED_FILES = ("gauged-Q.dgm", "gauged-GF5.dgm")
FILLED_FILES = ("filled-Q-35.dgm", "filled-Q-3.dgm", "filled-GF2-33.dgm", "filled-GF2-2.dgm",
                "filled-GF5-22.dgm", "filled-GF5-1.dgm")
FIELDS = [QQ, GF(2), GF(5)]
SEEDS = range(24)
CONJUGATED_SEEDS = range(24, 36)
DEGREES = range(-2, 4)


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
    return "".join(runs)


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


def test_solve_matches_golden():
    assert list(solve_lines()) == SOLVE_GOLDEN.read_text().splitlines()


def test_trivialize_matches_golden():
    assert trivialize_golden() == TRIVIALIZE_GOLDEN.read_text()


def test_cli_matches_golden():
    assert cli_golden() == CLI_GOLDEN.read_text()


def test_cohomology_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    assert list(golden_lines()) == expected


def test_cohomology_reduces_delta_once(monkeypatch):
    # delta^p is the one large elimination; d_V and d_M cost one kernel and
    # one class elimination each, and the representatives one echelon pass
    # over the class coordinates, a column per cocycle basis vector
    rng = random.Random(5)
    v = random_complex(rng, QQ, 12, name="V")
    m = random_complex(rng, QQ, 10, name="M")
    dim_cp = len(cochain_basis(v.module, m.module, 1))
    dv, dm = v.module.dim, m.module.dim
    calls = count_reductions(monkeypatch)
    res = cohomology(v, m, 1)
    assert calls == [dim_cp, dv, dv + oracle_nullity(v), dm, dm + oracle_nullity(m),
                     res.dim_cocycles]
    assert res.dim_h > 0


if __name__ == "__main__":
    if sys.argv[1:] == ["cli"]:
        sys.stdout.write(cli_golden())
    elif sys.argv[1:] == ["trivialize"]:
        sys.stdout.write(trivialize_golden())
    elif sys.argv[1:] == ["solve"]:
        for line in solve_lines():
            print(line)
    else:
        for line in golden_lines():
            print(line)
