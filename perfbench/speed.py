"""Machine speed, measured alongside the jobs.

On a shared host the speed of one vCPU drifts by 20–40% in phases of
10–60 s, for the library and for any other pure-Python code alike.  The
benchmark therefore times a fixed reference computation of its own between
jobs, and reports each job's wall time scaled by
``NOMINAL_S / median(reference times of the job's block)``: the time the job
would take on a machine where the reference takes ``NOMINAL_S``.  A block is
a run of whole cycles of at least a few seconds (``worker.BLOCK_S``).
Set-up time is scaled the same way, by reference samples taken at its end.

The reference is benchmark code and never calls the library, so a change to
the library moves the scaled times exactly as it moves the wall times.  It
runs with the garbage collector off, so that the library's heap does not
leak into it.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

#: reference time the scaled figures assume, in seconds
NOMINAL_S = 0.004

_P = 5
_N = 100
_rng = random.Random(7)
_ROWS = [{j: _rng.randint(1, _P - 1) for j in _rng.sample(range(_N), 4)} for _ in range(_N)]


def _reference():
    """Sparse row reduction over GF(5) with dict rows: the kind of work the
    library's elimination does.  Returns the rank."""
    pivots: dict = {}
    for source in _ROWS:
        row = dict(source)
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], _P - 2, _P)
                pivots[c] = {j: v * inv % _P for j, v in row.items()}
                break
            f = row[c]
            for j, v in pivot.items():
                x = (row.get(j, 0) - f * v) % _P
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    return len(pivots)


def sample() -> float:
    """Wall time of one reference computation, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Scale from wall time to time at the nominal reference speed."""
    return NOMINAL_S / statistics.median(samples)
