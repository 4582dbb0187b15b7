"""Workload definitions and checkout layout shared by the benchmark's scripts.

A workload is one task, named after it, run as three single-architecture
batteries, each through the public CLI entry ``corbf.cli.main(["run", task,
"--arch", arch, ...])`` with the task's default configuration.
"""

from __future__ import annotations

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Scratch space inside the checkout: battery artifacts (deleted after each
# round), result records, span dumps and the bytecode cache.
WORK = os.path.join(ROOT, ".perfbench")
# The benchmark's own bytecode cache. Python then never reads or writes a
# __pycache__ next to the sources, so a cache left by anything else that ran
# in the checkout cannot change what setup_s measures.
PYCACHE = os.path.join(WORK, "pycache")
HERE = os.path.dirname(os.path.abspath(__file__))

ARCHS = ("manual", "adaptive", "co")

# Workload -> seeded runs per battery.
WORKLOADS = {
    # Shuffled 3-head SGD, subtractive centers and the classification metrics
    # run only here. One run per battery, so cross-run batching does nothing.
    # Runnable by hand but not listed in BENCHMARK.json: on a shared 2-vCPU
    # VM its battery times spread past the 0.25 bound between two sets of
    # runs of the same code.
    "iris": 1,
    # 121 centers: the kernels layer is about a quarter of each battery.
    "funapprox": 1,
    # 5 centers, 400 samples: the SGD loop is nearly all of the time, and
    # both runs share one design.
    "sysid": 2,
}

# reference.json holds the outputs of run seeds 0 .. REF_SEEDS - 1.
REF_SEEDS = 32

# Every BLAS/OpenMP pool the stack might use is pinned to one thread before
# NumPy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def root_seed(seed: int, runs: int) -> int:
    """The battery's root seed for a benchmark seed.

    Run r of the battery uses root + r, so every run seed stays inside the
    range that reference.json covers; the same benchmark seed always gives
    the same inputs.
    """
    return seed % (REF_SEEDS - runs + 1)


def child_env() -> dict[str, str]:
    """Environment for a fresh process that imports corbf from the checkout.

    Bytecode is cached under PYCACHE only, and always written, whatever the
    caller's setting: the first import fills the cache and every later one
    reads it, and nothing is written to src/.
    """
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not path else SRC + os.pathsep + path
    return env
