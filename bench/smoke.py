"""Smoke test of the benchmark itself, at toy sizes (about a minute).

    python3 bench/smoke.py

For every workload in BENCHMARK.json it runs bench/run.py untraced and
traced, and checks that the last line is a correct result that prints every
metric BENCHMARK.json names, with its unit, and that the untraced and traced
invocations report the same output digest. It then checks that the benchmark
refuses to run, printing no result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


class SmokeFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def digests(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.strip().startswith("output digest"):
            return line.split(None, 2)[2]
    raise SmokeFailure("no output digest in the report")


def check_result(proc, expected: list[dict], label: str) -> None:
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
    check(result["correct"] is True, f"{label}: not correct\n{proc.stdout}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, label)
    check(isinstance(result["failed"], int), label)
    metrics = result["metrics"]
    names = {m["name"] for m in expected}
    check(set(metrics) == names, f"{label}: metrics differ from BENCHMARK.json: "
          f"{sorted(set(metrics) ^ names)}")
    for m in expected:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}")
        check(isinstance(got["value"], (int, float)), f"{label}: {m['name']} value")


def check_bare_directory() -> None:
    """Without the library sources the benchmark must fail and print no result."""
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "mine", 0)
        check(proc.returncode != 0, "benchmark ran without the library sources")
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        check(not last.startswith("{"), "a result was printed without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        untraced = run(ROOT, workload, 0)
        check_result(untraced, bench["end_to_end"], f"{workload} untraced")
        traced = run(ROOT, workload, 1)
        check_result(traced, bench["per_layer"], f"{workload} traced")
        check(digests(untraced.stdout) == digests(traced.stdout),
              f"{workload}: untraced and traced output digests differ")
        print(f"ok  {workload}")
    check_bare_directory()
    print("ok  bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
