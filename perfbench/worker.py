"""One benchmark process: set up, run a workload as a closed loop with one
client, check every answer, and print one JSON line.

The loop runs whole cycles of the workload's schedule, so every run sees
the same mix of jobs.  Job k of cycle c draws its inputs from a generator
seeded with (workload, seed, c, k): the same seed gives the same jobs, and
no job reuses another's objects.  Only ``run()`` is timed; building inputs
and checking answers happen outside the timed span.  Between jobs the
reference of ``speed.py`` is timed; the times this process reports are
scaled to the nominal reference speed, block by block.

Run it through ``perfbench/run.py``, which sets the interpreter flags,
``PYTHONHASHSEED`` and ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from time import perf_counter

from . import speed

#: p90 needs at least ten samples beyond it
MIN_JOBS = 100
#: reference samples that scale the set-up time
SETUP_REFS = 21
#: shortest span of jobs that share one scale, in seconds
BLOCK_S = 4.0
#: least time between two reference samples in the loop, in seconds
REF_EVERY_S = 0.03


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--skew", type=int, default=0,
                    help="shift every expected value (self-test of the checks)")
    return ap.parse_args(argv)


class Loop:
    def __init__(self, workloads, name, seed, ctx, skew):
        self.workloads = workloads
        self.name = name
        self.seed = seed
        self.schedule = workloads.SCHEDULES[name]()
        self.ctx = ctx
        self.skew = skew
        self.attempted = 0
        self.failures: list = []

    def job(self, cycle, k, slot, tracer=None):
        """Build, time and check one job; its timed duration in seconds."""
        rng = random.Random(f"{self.name}/{self.seed}/{cycle}/{k}")
        run, check = self.workloads.make(slot, rng, self.ctx)
        span = tracer.span("job") if tracer is not None else nullcontext()
        error = None
        with span:
            if tracer is not None:
                tracer.on = True
            t0 = perf_counter()
            try:
                out = run()
            except Exception:  # a failed job is counted, and the loop goes on
                error = traceback.format_exc()
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.on = False
        if error is None:
            try:
                if not check(out, self.skew):
                    error = "check failed"
            except Exception:
                error = "check raised:\n" + traceback.format_exc()
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{self.name} cycle {cycle} job {k} {slot[0].__name__} "
                                 f"{slot[1]!r} {slot[2].name()}: {error}")
        return dt

    def cycles(self, seconds=None, count=None, tracer=None, min_jobs=0):
        """Whole cycles until ``seconds`` have passed and ``min_jobs`` ran, or
        exactly ``count`` cycles; the per-job times scaled to the nominal
        reference speed, the per-job wall times, and the cycles run.

        The reference is timed before a job when ``REF_EVERY_S`` have passed
        since it last ran, and at the start of every block: whole cycles
        that last at least ``BLOCK_S`` and share one scale."""
        times, wall = [], []
        dts, refs = [], []
        start = block = time.monotonic()
        last_ref = -math.inf
        c = 0
        while (c < count) if count is not None else (
            time.monotonic() - start < seconds or len(wall) + len(dts) < min_jobs
        ):
            for k, slot in enumerate(self.schedule):
                if time.monotonic() - last_ref >= REF_EVERY_S:
                    refs.append(speed.sample())
                    last_ref = time.monotonic()
                dts.append(self.job(c, k, slot, tracer))
            c += 1
            if time.monotonic() - block >= BLOCK_S:
                times.extend(dt * speed.factor(refs) for dt in dts)
                wall.extend(dts)
                dts, refs = [], []
                block = time.monotonic()
                last_ref = -math.inf
        if dts:
            times.extend(dt * speed.factor(refs) for dt in dts)
            wall.extend(dts)
        return times, wall, c


def main(argv=None) -> int:
    args = _parse_args(argv)
    import dgdeform

    from . import trace, workloads

    ctx = workloads.Ctx(lambda name: nullcontext(), args.workdir)
    loop = Loop(workloads, args.workload, args.seed, ctx, args.skew)
    # set-up ends with one untimed warm-up job: the schedule's first slot
    loop.job("warmup", 0, loop.schedule[0])
    setup_wall = time.monotonic() - args.t0
    refs = [speed.sample() for _ in range(SETUP_REFS)]
    result = {"setup_s": setup_wall * speed.factor(refs), "setup_wall_s": setup_wall,
              "library": dgdeform.__file__}
    if not args.trace and not args.setup_only:
        result["job_s"], result["job_wall_s"], _ = loop.cycles(
            seconds=args.seconds, min_jobs=MIN_JOBS)
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    elif args.trace:
        # the same cycles untraced, then traced: their ratio is the overhead;
        # the wrappers go in only after the untraced pass
        plain, _, n = loop.cycles(seconds=args.seconds / 2)
        tracer = trace.Tracer()
        tracer.install()
        ctx.span = tracer.span
        traced, _, _ = loop.cycles(count=n, tracer=tracer)
        layers, share = tracer.metrics(sum(traced) / sum(plain))
        result.update(layers=layers, linalg_share=share)
    result.update(attempted=loop.attempted, failed=len(loop.failures))
    for line in loop.failures[:5]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
