"""deskmt benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload recipe --seed 7 --seconds 24 --trace 0

Run from the root of a checkout; deskmt is imported from its src/. Each
repetition runs in a fresh process (bench/workloads.py) on inputs made from
the seed. Repetitions continue until --seconds have passed (at least
MIN_REPS); the end-to-end metrics are medians over them. With --trace 1 one
more repetition runs traced and the per-layer metrics come from it.

Standard output holds a readable report, one `context` line (host and source
facts that are recorded but never gated) and, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. Every repetition of a
workload and seed, traced or not, must produce the same output digest, also
across invocations in one checkout; a mismatch fails the run.

bench/METRICS.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH_DIR)
from layertrace import layer_names  # noqa: E402
from workloads import WORKLOADS, planned_operations  # noqa: E402

MIN_REPS = 3
# Every invocation must end within 180 s; no repetition starts that cannot
# finish before this many seconds.
DEADLINE_S = 165.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Outcomes of one workload: printed in every report and recorded with the
# per-layer metrics. They are not gated end to end because each applies to
# only some workloads; where one does not apply it reads 0.
OUTCOMES = {
    "synth_sents_per_s": "1/s",
    "dev_bleu_fwd": "BLEU", "dev_bleu_bwd": "BLEU",
    "test_bleu_fwd": "BLEU", "test_bleu_bwd": "BLEU",
    "mine_precision": "share", "mine_recall": "share",
    "failed_share": "share",
}


def per_layer_units() -> dict:
    units = {}
    for name in layer_names():
        units.update({f"{name}.calls": "count", f"{name}.s": "s",
                      f"{name}.self_s": "s"})
    units.update({
        "subword.encode_dataset.tokens": "count",
        "rerank.fill_scores.entries": "count",
        "augment.dropped": "count",
        "tm.translate_nbest.repeat_share": "share",
        "search.em_useful_share": "share",
        "search.finetune_useful_share": "share",
    })
    units.update({f"pipeline.stage.{s}_s": "s" for s in ("init", "iter")})
    units.update({f"pipeline.iter.{p}_s": "s"
                  for p in ("decode", "search", "finetune", "tune", "eval")})
    units.update({"trace_overhead_s": "s", "untraced_share": "share"})
    units.update(OUTCOMES)
    return units


# -- context: recorded beside the metrics, never gated ---------------------------


def host_probe_ms() -> float:
    """Fixed pure-Python work; its time tracks the host's current speed."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(200_000):
        acc += (i * 7) % 13
        table[i & 1023] = acc
    return (time.perf_counter() - start) * 1000.0


def src_line_count() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def code_digest() -> str:
    """sha256 over the library and benchmark sources."""
    digest = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for dirpath, dirs, files in sorted(os.walk(base)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode("utf-8"))
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()


# -- repetitions -------------------------------------------------------------------


def run_rep(args, *, trace: bool, evaluate_test: bool, deadline: float) -> dict:
    request = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": trace, "evaluate_test": evaluate_test, "work_dir": WORK_DIR,
        "trace_out": os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.tsv"),
    }
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
             json.dumps(request)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"repetition exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "error": f"exit {proc.returncode}: {tail[0]}"}
    if not rep.get("ok"):
        sys.stderr.write(proc.stderr)
    return rep


def check_digest(args, digest: str) -> str | None:
    """Compare with the digest recorded for this workload, seed and code."""
    path = os.path.join(WORK_DIR, "digests.json")
    key = f"{args.workload}:{args.scale}:{args.seed}:{code_digest()}"
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, json.JSONDecodeError):
        known = {}
    if known.setdefault(key, digest) != digest:
        return f"output digest {digest[:12]} differs from an earlier run's {known[key][:12]}"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    return None


def measure(args) -> tuple[list, dict | None, list]:
    """Untraced repetitions for --seconds (at least MIN_REPS), then with
    --trace 1 one traced repetition. Returns (reps, traced, probes)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps, probes = [], []
    traced = None
    while True:
        probes.append(host_probe_ms())
        rep_start = time.monotonic()
        rep = run_rep(args, trace=False, evaluate_test=not reps, deadline=deadline)
        rep["elapsed_s"] = time.monotonic() - rep_start
        reps.append(rep)
        now = time.monotonic()
        if not rep["ok"]:
            return reps, traced, probes
        if len(reps) >= MIN_REPS and now - start >= args.seconds:
            break
        # a traced repetition takes longer than an untraced one
        reserve = 2.5 * rep["elapsed_s"] if args.trace else 0.0
        if now + 1.5 * rep["elapsed_s"] + reserve > deadline:
            break
    if args.trace:
        probes.append(host_probe_ms())
        traced = run_rep(args, trace=True, evaluate_test=True, deadline=deadline)
    return reps, traced, probes


# -- result --------------------------------------------------------------------------


def summarize(args, reps, traced) -> tuple[dict, list, int, int]:
    """Returns (all metric values, failed checks, attempted, failed)."""
    errors = []
    attempted = failed = 0
    for rep in reps + ([traced] if traced else []):
        if rep["ok"]:
            attempted += rep["attempted"]
            failed += rep["failed"]
            errors.extend(rep["checks"])
        else:
            ops = planned_operations(args.workload, args.scale)
            attempted += ops
            failed += ops
            errors.append(rep["error"])
    good = [r for r in reps if r["ok"]]
    values = {}
    if good:
        for name in END_TO_END:
            values[name] = statistics.median(r[name] for r in good)
        first = good[0]
        for name in OUTCOMES:
            values[name] = first.get(name, 0.0)
        values["synth_sents_per_s"] = statistics.median(
            r.get("synth_sents_per_s", 0.0) for r in good)

    runs = good + ([traced] if traced and traced["ok"] else [])
    digests = {r["digest"] for r in runs}
    if len(digests) > 1:
        errors.append(f"repetitions disagree on the output digest: {sorted(digests)}")
    elif digests and not errors:
        mismatch = check_digest(args, digests.pop())
        if mismatch:
            errors.append(mismatch)
    if good and traced and traced["ok"]:
        for name in ("test_bleu_fwd", "test_bleu_bwd", "mine_precision",
                     "mine_recall"):
            if name in traced and traced[name] != good[0][name]:
                errors.append(f"traced {name} {traced[name]} differs from "
                              f"untraced {good[0][name]}")
        values.update(traced["layers"])
        values["trace_overhead_s"] = traced["wall_s"] - values["wall_s"]
    if errors:
        # a failing run counts every operation it attempted as failed
        failed = attempted
    values["failed_share"] = failed / attempted
    return values, errors, attempted, failed


def report(args, reps, traced, values, errors, attempted, failed, probes) -> None:
    good = [r for r in reps if r["ok"]]
    runs = good + ([traced] if traced and traced["ok"] else [])
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"repetitions {len(reps)} untraced" + (" + 1 traced" if traced else ""))
    for name, unit in END_TO_END.items():
        if name in values:
            samples = " ".join(f"{r[name]:.4g}" for r in good)
            print(f"  {name:<20} {values[name]:>12.4f} {unit:<6} median of [{samples}]")
    for name, unit in OUTCOMES.items():
        if name in values:
            print(f"  {name:<20} {values[name]:>12.4f} {unit}")
    print(f"  {'operations':<20} {attempted:>12d} attempted, {failed} failed")
    digests = " ".join(sorted({r["digest"] for r in runs}))
    print(f"  {'output digest':<20} {digests or '-'}")
    if traced and traced["ok"]:
        print(f"  {'trace_overhead_s':<20} {values['trace_overhead_s']:>12.4f} s")
        print(f"  {'untraced_share':<20} {values['untraced_share']:>12.4f} share")
        for name, (part, whole) in traced["bases"].items():
            print(f"  {name:<36} {values[name]:.4f} ({part} of {whole})")
        top = sorted(((values[f"{n}.self_s"], n) for n in layer_names()),
                     reverse=True)[:8]
        print("  largest self times: " + ", ".join(f"{n} {s:.2f} s" for s, n in top))
    for err in errors:
        print(f"  FAILED: {err}")
    context = {
        "src_lines": src_line_count(), "commit": commit(),
        "python": platform.python_version(), "numpy": _numpy_version(),
        "nproc": os.cpu_count(),
        "host_probe_ms": [round(p, 2) for p in probes],
        "host_probe_ms_median": round(statistics.median(probes), 2),
    }
    print("context " + json.dumps(context, sort_keys=True))


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "missing"
    return numpy.__version__


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure untraced repetitions for this long")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "toy"], default="full",
                   help="toy sizes finish in seconds (for the smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "deskmt", "__init__.py")):
        print(f"bench: no deskmt sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    reps, traced, probes = measure(args)
    values, errors, attempted, failed = summarize(args, reps, traced)
    report(args, reps, traced, values, errors, attempted, failed, probes)
    units = per_layer_units() if args.trace else END_TO_END
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
