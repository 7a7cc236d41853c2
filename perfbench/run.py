"""dgdeform benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {ladder,cohomology,files} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout that has ``src/dgdeform``; the library is
imported from there, never from an installed copy.  Each run is fresh
interpreters: ``SETUP_SAMPLES - 1`` set-up-only processes and one process
that sets up and then runs the workload's jobs in a closed loop with one
client for ``--seconds``.  With ``--trace 1`` a single process runs the same
jobs untraced and then traced, and reports the per-layer metrics.

The end-to-end times are wall times scaled to a nominal machine speed,
measured alongside the jobs by ``perfbench/speed.py``; the raw wall times are
printed next to them.

The last line of standard output is the result; the lines before it give
every metric by name with its unit, the failure ratio and the environment.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("ladder", "cohomology", "files")
SETUP_SAMPLES = 15
#: every process of a run must have ended by then
DEADLINE_S = 170.0
ROOT = Path(__file__).resolve().parent.parent


def _args(argv):
    ap = argparse.ArgumentParser(description="dgdeform benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--skew", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")
    return args


def _commit():
    """The checked-out commit, when the checkout is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dgdeform").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _spawn(args, workdir, deadline, setup_only=False):
    """Run one worker process to completion; its JSON result."""
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        ),
    )
    cmd = [
        sys.executable, "-B", "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--skew", str(args.skew),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    library = Path(result["library"]).resolve()
    if ROOT / "src" not in library.parents:
        raise RuntimeError(f"worker imported dgdeform from {library}, not from this checkout")
    return result


def _p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _measure(args, workdir, deadline):
    setups = [_spawn(args, workdir, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    main = _spawn(args, workdir, deadline)
    times_ms = [t * 1000 for t in main["job_s"]]
    wall_ms = [t * 1000 for t in main["job_wall_s"]]
    attempted = main["attempted"] + sum(s["attempted"] for s in setups)
    failed = main["failed"] + sum(s["failed"] for s in setups)
    metrics = {
        "jobs_per_s": {"value": len(times_ms) / (sum(times_ms) / 1000), "unit": "1/s"},
        "job_ms.p50": {"value": statistics.median(times_ms), "unit": "ms"},
        "job_ms.p90": {"value": _p90(times_ms), "unit": "ms"},
        "setup_s": {
            "value": statistics.median([s["setup_s"] for s in setups + [main]]), "unit": "s",
        },
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }
    wall_setup = statistics.median([s["setup_wall_s"] for s in setups + [main]])
    notes = {
        "jobs_per_s": f"timed jobs {len(times_ms)}, closed loop, one client; "
                      f"wall {len(wall_ms) / (sum(wall_ms) / 1000):.4f}",
        "job_ms.p50": f"n={len(times_ms)}; wall {statistics.median(wall_ms):.4f}",
        "job_ms.p90": f"n={len(times_ms)}, {len(times_ms) - math.ceil(0.9 * len(times_ms))} "
                      f"beyond; wall {_p90(wall_ms):.4f}",
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters: import, inputs, warm-up job; "
                   f"wall {wall_setup:.4f}",
        "peak_rss_mb": "peak resident set of the measuring process",
    }
    return metrics, notes, attempted, failed


def _trace(args, workdir, deadline):
    main = _spawn(args, workdir, deadline)
    notes = {}
    if main["linalg_share"] is not None:
        notes["trace.job_s"] = f"linalg.* share of traced job time {main['linalg_share']:.4f}"
    return main["layers"], notes, main["attempted"], main["failed"]


def main(argv=None) -> int:
    args = _args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "dgdeform" / "__init__.py").is_file():
        print(f"error: no dgdeform sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    workdir = ROOT / "perfbench" / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure = _trace if args.trace else _measure
        metrics, notes, attempted, failed = measure(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(f"dgdeform benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(_environment()))
    for name, m in metrics.items():
        value = "null" if m["value"] is None else repr(m["value"])
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value} {m['unit']}{note}")
    print(f"  fail_ratio = {failed / attempted!r} ratio  ({failed} of {attempted} jobs failed)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
