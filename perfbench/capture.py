"""Capture the reference values the benchmark's output check compares against.

Runs every (task, architecture) pair as one battery of REF_SEEDS runs from
seed 0 through the public CLI, with BLAS pinned to one thread, and writes
each run's final outputs to perfbench/reference.json. Run it from the
repository root on the commit whose behaviour is the reference:

    python3 perfbench/capture.py

The batteries run with one job per CPU; reruns are byte-identical for any
job count.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

from check import REFERENCE, read_battery
from env import git_sha
from workloads import ARCHS, BLAS_ENV, PYCACHE, REF_SEEDS, SRC, WORK, WORKLOADS


def main() -> int:
    os.environ.update(BLAS_ENV)  # before corbf imports NumPy
    # keeps src/ free of __pycache__, here and in the job processes
    os.environ["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix = PYCACHE
    sys.path.insert(0, SRC)
    from corbf import cli

    tasks: dict = {}
    for task in sorted(WORKLOADS):
        tasks[task] = {}
        for arch in ARCHS:
            out = os.path.join(WORK, "capture", f"{task}_{arch}")
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(["run", task, "--arch", arch,
                                   "--runs", str(REF_SEEDS), "--seed", "0",
                                   "--jobs", str(os.cpu_count() or 1), "--out", out])
            battery = read_battery(out, task, arch, REF_SEEDS, 0)
            if status != 0 or battery["diverged"] or None in battery["runs"].values():
                print(f"error: {task}/{arch} did not complete every run",
                      file=sys.stderr)
                return 1
            tasks[task][arch] = battery["runs"]
            shutil.rmtree(out)
            print(f"captured {task}/{arch}", file=sys.stderr)
    reference = {"git_sha": git_sha(), "run_seeds": REF_SEEDS, "tasks": tasks}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
