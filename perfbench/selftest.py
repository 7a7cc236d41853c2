"""Self-test of the benchmark harness at tiny size.

    python3 perfbench/selftest.py

From the root of a checkout, it runs every workload for one second, plain
and traced, and checks that every metric of BENCHMARK.json is printed with
its unit and that no job fails.  It runs each workload again with every
expected value shifted by one and checks that every job then fails, so that
each check is shown to be live.  Finally it copies the benchmark alone into
a scratch directory and checks that it refuses to run there.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def _result(workload, *extra):
    args = ["--workload", workload, "--seed", "0", "--seconds", "1", *extra]
    code, lines, stderr = _run(ROOT, *args)
    if code != 0:
        raise AssertionError(f"{' '.join(args)} exited {code}:\n{stderr}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result, lines[:-1]


def _check_metrics(specs, result, summary, label):
    metrics = result["metrics"]
    if set(metrics) != {s["name"] for s in specs}:
        raise AssertionError(f"{label}: metrics {sorted(metrics)} differ from BENCHMARK.json")
    for spec in specs:
        m = metrics[spec["name"]]
        if m["unit"] != spec["unit"] or not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {spec['name']} = {m}")
        if not any(line.strip().startswith(f"{spec['name']} = ")
                   and f" {spec['unit']}" in line for line in summary):
            raise AssertionError(f"{label}: {spec['name']} is not printed with its unit")
    if not any(line.strip().startswith("fail_ratio = ") for line in summary):
        raise AssertionError(f"{label}: fail_ratio is not printed")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    if [(x["name"], x["unit"], x["better"]) for x in layers] != [
        (x["name"], x["unit"], x["better"]) for x in bench["per_layer"]
    ]:
        raise AssertionError("per_layer in BENCHMARK.json and perfbench/layers.json differ")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, specs in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            result, summary = _result(workload, "--trace", trace)
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{label}: {result['failed']} jobs failed")
            _check_metrics(specs, result, summary, label)
            print(f"ok  {label}: {result['attempted']} jobs, every metric printed with its unit")
        result, _ = _result(workload, "--trace", "0", "--skew", "1")
        if result["correct"] or result["failed"] != result["attempted"]:
            raise AssertionError(
                f"{workload}: with shifted expectations only {result['failed']} of "
                f"{result['attempted']} jobs failed"
            )
        print(f"ok  {workload} --skew 1: all {result['attempted']} checks fail (fail_ratio 1)")
    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines, _ = _run(bare, "--workload", "ladder", "--seed", "0", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:  # another run's scratch directory is still there
            pass
    if code == 0 or any(line.startswith("{") for line in lines):
        raise AssertionError("the benchmark ran without the library's sources")
    print(f"ok  without src/: exit {code}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
