"""Pinned cohomology outputs on seeded random pairs of complexes.

``tests/golden/cohomology.txt`` has one line per ``cohomology()`` call: the
inputs (seed, field, dims of V and M, p), the three dimensions, and the
sha256 of the rendered representatives.  Any change to these lines is a
change of canonical outputs and needs a deliberate, reviewed diff.  The file
was written by

    PYTHONPATH=src:tests python tests/test_golden.py > tests/golden/cohomology.txt
"""

import hashlib
import random
from pathlib import Path

from dgdeform import GF, QQ, cohomology
from conftest import count_reductions, random_complex

GOLDEN = Path(__file__).parent / "golden" / "cohomology.txt"
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
    for line in golden_lines():
        print(line)
