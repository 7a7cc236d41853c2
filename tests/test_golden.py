"""Pinned outputs: cohomology on seeded random complexes, and the CLI.

``tests/golden/cohomology.txt`` has one line per ``cohomology()`` call: the
inputs (seed, field, dims of V and M, p), the three dimensions, and the
sha256 of the rendered representatives.

``tests/golden/cli.txt`` records 405 in-process CLI runs: each command line
(file arguments by file name only), its exit code, and its stdout, one
``| ``-prefixed line per output line.  The runs are ``paper-family``,
``check``, ``cohomology``, ``deform`` (file and canonical lifts),
``trivialize`` and ``obstruction`` on every family variant over Q, GF(2) and
GF(5) for n in {2, 3, 6}, and ``verify-paper`` for n in {3, 6, 10}.

Any change to these files is a change of canonical outputs and needs a
deliberate, reviewed diff.  They were written by

    PYTHONPATH=src:tests python tests/test_golden.py > tests/golden/cohomology.txt
    PYTHONPATH=src:tests python tests/test_golden.py cli > tests/golden/cli.txt
"""

import hashlib
import random
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from dgdeform import GF, QQ, cohomology
from dgdeform.cli import main
from dgdeform.family import VARIANTS
from conftest import count_reductions, random_complex

GOLDEN = Path(__file__).parent / "golden" / "cohomology.txt"
CLI_GOLDEN = Path(__file__).parent / "golden" / "cli.txt"
FIELDS = [QQ, GF(2), GF(5)]
SEEDS = range(24)
DEGREES = range(-2, 4)


def golden_lines():
    for seed in SEEDS:
        for field in FIELDS:
            rng = random.Random(f"{seed}/{field}")
            v = random_complex(rng, field, rng.randint(4, 32), name="V")
            # every fourth seed pins End(V), the rest a pair V != M
            m = v if seed % 4 == 0 else random_complex(rng, field, rng.randint(4, 32), name="M")
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
    return "".join(runs)


def test_cli_matches_golden():
    assert cli_golden() == CLI_GOLDEN.read_text()


def test_cohomology_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    assert list(golden_lines()) == expected


def test_cohomology_reduces_twice(monkeypatch):
    rng = random.Random(5)
    v = random_complex(rng, QQ, 12, name="V")
    m = random_complex(rng, QQ, 10, name="M")
    calls = count_reductions(monkeypatch)
    cohomology(v, m, 1)
    assert len(calls) == 2


if __name__ == "__main__":
    if sys.argv[1:] == ["cli"]:
        sys.stdout.write(cli_golden())
    else:
        for line in golden_lines():
            print(line)
