"""Run one workload in this (fresh) process and write its record as JSON.

Started by run.py with BLAS pinned and src/ on PYTHONPATH. Repeats rounds
until the time budget is used up. A round runs the manual, adaptive
and co batteries in that order through ``corbf.cli.main``, then
``bench.compare_report`` on each battery's directory and one
``bench.bound_probe``, then checks every run's outputs against the
reference. With --trace 1, rounds alternate untraced and traced; only
traced rounds carry spans.

    python3 perfbench/battery.py --workload W --seed N --seconds S \
        --trace {0,1} --record PATH
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import check
from env import environment
from spans import Tracer, layer_metrics
from workloads import ARCHS, WORK, WORKLOADS, root_seed

# Fresh interpreters timed for setup_s after each untraced round, so that
# the samples spread over the whole run.
SETUP_PER_ROUND = 3

# Counts that must repeat exactly in every round that records them.
EXACT = ("centers.count", "kernels.columns", "bench.write_bytes", "bench.files",
         "trace.spans", *(f"trainer.updates.{a}" for a in ARCHS))


def _samples_per_run(task: str, seed: int) -> int:
    from corbf import tasks

    if task == "iris":
        return tasks.load_iris(seed=seed)[0].n_samples
    if task == "funapprox":
        return tasks.gen_function_approx()[0].n_samples
    return tasks.gen_sysid(seed=seed).n_samples


def measure_setup(n: int) -> list[float]:
    """Seconds from starting a fresh interpreter until `import corbf` returns."""
    code = "import time\nimport corbf\nprint(repr(time.monotonic()))"
    samples = []
    for _ in range(n):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, check=True)
        samples.append(float(out.stdout.split()[-1]) - t0)
    return samples


def _artifact_size(out_dir: str) -> tuple[int, int]:
    """(files, bytes) of a battery's artifacts; the manifest's bytes are left
    out because it carries the run's own wall-clock time."""
    names = os.listdir(out_dir)
    size = sum(os.path.getsize(os.path.join(out_dir, n)) for n in names
               if n != "manifest.json")
    return len(names), size


def run_round(task: str, runs: int, root: int, scratch: str, reference: dict,
              samples: dict[int, int], tracer: Tracer | None) -> dict:
    from corbf import bench, cli

    def span(name, **attrs):
        return tracer.span(name, **attrs) if tracer else contextlib.nullcontext()

    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    battery_s, status = {}, {}
    try:
        for arch in ARCHS:
            argv = ["run", task, "--arch", arch, "--runs", str(runs),
                    "--seed", str(root), "--jobs", "1",
                    "--out", os.path.join(scratch, arch)]
            t0 = time.perf_counter()
            with span("bench.battery", arch=arch), \
                    contextlib.redirect_stdout(io.StringIO()):
                status[arch] = cli.main(argv)
            battery_s[arch] = time.perf_counter() - t0
        reports = {}
        for arch in ARCHS:
            with span("bench.report", arch=arch):
                reports[arch] = bench.compare_report(os.path.join(scratch, arch))
        with span("bench.probe"):
            probe = bench.bound_probe(task)
    finally:
        if tracer:
            tracer.uninstall()

    problems: list[str] = []
    updates = {}
    failed = files = write_bytes = 0
    for arch in ARCHS:
        out = os.path.join(scratch, arch)
        battery = check.read_battery(out, task, arch, runs, root)
        run_problems = check.compare(reference, task, arch, battery)
        if status[arch] != 0:
            run_problems.append((None, f"{task}/{arch}: exit status {status[arch]}"))
        if not reports[arch]:
            run_problems.append((None, f"{task}/{arch}: compare_report returned nothing"))
        problems += [msg for _, msg in run_problems]
        bad = {seed for seed, _ in run_problems}
        failed += runs if None in bad else len(bad)
        updates[arch] = sum(rec["epochs"] * samples[int(seed)]
                            for seed, rec in battery["runs"].items() if rec is not None)
        n, size = _artifact_size(out)
        files += n
        write_bytes += size
    if not probe["bound"] > 0:
        problems.append(f"{task}: bound_probe returned {probe['bound']!r}")
    shutil.rmtree(scratch)

    counts = {"bench.files": files, "bench.write_bytes": write_bytes}
    rec = {"traced": tracer is not None, "battery_s": battery_s,
           "updates": updates, "attempted": runs * len(ARCHS), "failed": failed}
    if tracer:
        layers = layer_metrics(tracer.spans[first_span:], task) | counts
        for arch in ARCHS:
            traced = layers[f"trainer.updates.{arch}"]
            if traced != updates[arch]:
                problems.append(f"trainer.updates.{arch} = {traced}, "
                                f"artifacts show {updates[arch]}")
        rec["layers"] = layers
        counts = {k: layers[k] for k in EXACT}
    rec["counts"] = counts
    rec["problems"] = problems
    return rec


def main() -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", required=True)
    args = parser.parse_args()

    task, runs = args.workload, WORKLOADS[args.workload]
    root = root_seed(args.seed, runs)
    reference = check.load_reference()
    samples = {s: _samples_per_run(task, s) for s in range(root, root + runs)}
    tracer = Tracer() if args.trace else None
    scratch = os.path.join(WORK, f"battery-{os.getpid()}")

    rounds: list[dict] = []
    setup: list[float] = []
    if not tracer:
        measure_setup(1)  # warms the file and bytecode caches; not a sample
    start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            rounds.append(run_round(task, runs, root, scratch, reference, samples,
                                    tracer if traced else None))
            if not tracer:
                setup += measure_setup(SETUP_PER_ROUND)
            rounds[-1]["wall_s"] = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            # Start another round while it would end, on average, no later
            # than half a round past the budget: the run then measures about
            # --seconds however long a round is.
            typical = statistics.fmean(r["wall_s"] for r in rounds)
            if len(rounds) >= (2 if tracer else 1) and elapsed + typical / 2 > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = [p for r in rounds for p in r["problems"]]
    for key in EXACT:
        values = {r["counts"][key] for r in rounds if key in r["counts"]}
        if len(values) > 1:
            problems.append(f"count {key} differs across repeats: {sorted(values)}")

    record = {
        "workload": task, "seed": args.seed,
        "run_seeds": list(range(root, root + runs)), "runs_per_battery": runs,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup, "rounds": rounds, "problems": problems,
        "spans": tracer.spans if tracer else [],
    }
    os.makedirs(os.path.dirname(args.record), exist_ok=True)
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
