"""corbf benchmark: per-architecture battery time on one workload.

    python3 perfbench/run.py --workload {funapprox,sysid,iris} --seed N \
        --seconds S --trace {0,1}

BENCHMARK.json lists funapprox and sysid; iris runs only by hand.

Run from the repository root (or any checkout holding src/corbf). The
workload runs in a fresh Python process with every BLAS pool pinned to one
thread and src/ on PYTHONPATH (see battery.py). With --trace 0 this prints
the end-to-end metrics; with --trace 1, the per-layer metrics of a traced
run together with the tracing overhead. Each metric is printed by name with
its unit and sample count, then the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. attempted and failed
count training runs; a run fails when it diverges or its outputs differ from
reference.json. The exit status is 0 only when every check passed. The full
record (environment, every round, spans) is kept under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spans import LAYER_UNITS
from workloads import ARCHS, HERE, ROOT, SRC, WORK, WORKLOADS, child_env

# Every run must end within this many seconds.
DEADLINE_S = 170.0

E2E_UNITS = {f"battery_s.{a}": "s" for a in ARCHS} | {
    "updates_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def summarize(record: dict) -> dict[str, tuple[float, str]]:
    """metric -> (value, how it was taken).

    Battery figures are means over the run. On a shared 2-vCPU VM, Python's
    speed switches between a fast and a slow state (up to 1.8x apart) that
    each last up to tens of seconds: a run's median lands in whichever state held most of its
    rounds, while the mean follows the mix, so the mean varies less from run
    to run. setup_s is the median of its fresh-interpreter samples, and
    per-layer figures are medians over the traced rounds.
    """
    rounds = record["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if not record["trace"]:
        out = {f"battery_s.{arch}": (statistics.fmean(r["battery_s"][arch] for r in plain),
                                     f"mean of {len(plain)}")
               for arch in ARCHS}
        out["updates_per_s"] = (
            sum(sum(r["updates"].values()) for r in plain)
            / sum(sum(r["battery_s"].values()) for r in plain),
            f"total over {len(plain)} rounds")
        out["setup_s"] = (statistics.median(record["setup_s"]),
                          f"median of {len(record['setup_s'])}")
        out["peak_rss_mb"] = (record["peak_rss_mb"], "1 process")
        return out
    out = {name: (statistics.median(r["layers"][name] for r in traced),
                  f"median of {len(traced)}")
           for name in traced[0]["layers"]}
    for arch in ARCHS:
        out[f"trace.overhead_s.{arch}"] = (
            statistics.fmean(r["battery_s"][arch] for r in traced)
            - statistics.fmean(r["battery_s"][arch] for r in plain),
            f"{len(traced)} traced vs {len(plain)} untraced")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="corbf benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "corbf", "__init__.py")):
        print(f"error: no corbf package under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    os.makedirs(WORK, exist_ok=True)
    env = child_env()
    record_path = os.path.join(
        WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    child = [sys.executable, os.path.join(HERE, "battery.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--record", record_path]
    try:
        # on timeout, run() kills the child and waits for it
        proc = subprocess.run(child, env=env, cwd=WORK, stdout=sys.stderr,
                              timeout=DEADLINE_S - (time.monotonic() - start))
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)

    samples = summarize(record)
    attempted = sum(r["attempted"] for r in record["rounds"])
    failed = sum(r["failed"] for r in record["rounds"])
    correct = not record["problems"]

    e = record["environment"]
    print(f"workload {args.workload}: run seeds "
          f"{record['run_seeds']}, {len(record['rounds'])} rounds, trace {args.trace}")
    print(f"environment: git {e['git_sha']}, nproc {e['nproc']}, "
          f"{e['cpu_model']}, Python {e['python']}, "
          f"NumPy {e['numpy']}, SciPy {e['scipy']}, "
          f"BLAS {e['blas']} with {e['blas_threads_effective']} thread(s) "
          f"{e['blas_threads_env']}")
    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {name: samples[name][0] for name in units}
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]:<6} ({samples[name][1]})")
    print(f"  {'run_fail_frac':<34} {failed / attempted:>16.6g} {'':<6} "
          f"({failed} of {attempted} runs)")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print(f"output check: {'pass' if correct else 'FAIL'}; "
          f"record in {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
