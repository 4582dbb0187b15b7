"""Output check: compare a battery's artifacts with stored reference values.

reference.json holds, per task, architecture and run seed, the final
training MSE in dB and, for iris, the final train/test accuracy, captured by
capture.py. A run passes when its final mse_db is within MSE_DB_RTOL
(relative) of the reference and its accuracies are equal; a battery passes
when all its runs pass and none diverged.
"""

from __future__ import annotations

import csv
import json
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

# Loose enough for re-associated floating-point sums (block SGD agrees with
# the sequential loop to ~1e-14 relative), tight enough that any change to
# what is trained shows.
MSE_DB_RTOL = 1e-9


def read_battery(out_dir: str, task: str, arch: str, runs: int,
                 root: int) -> dict:
    """Final per-run outputs and divergences, keyed by run seed, parsed from a
    battery's artifacts independently of the program's own readers."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    diverged = {str(root + d["run"]): d for d in manifest["divergences"][arch]}
    outputs: dict[str, dict | None] = {}
    for r in range(runs):
        path = os.path.join(out_dir, f"{task}_{arch}_run{r:02d}_curve.csv")
        if not os.path.isfile(path):
            outputs[str(root + r)] = None
            continue
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rec = {"epochs": len(rows), "mse_db": float(rows[-1]["mse_db"])}
        if task == "iris":
            rec["train_acc"] = float(rows[-1]["train_acc"])
            rec["test_acc"] = float(rows[-1]["test_acc"])
        outputs[str(root + r)] = rec
    return {"diverged": diverged, "runs": outputs}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def compare(reference: dict, task: str, arch: str,
            battery: dict) -> list[tuple[str, str]]:
    """(run seed, problem) for every way a run differs from the reference."""
    problems = []
    expected = reference["tasks"][task][arch]
    for seed, got in battery["runs"].items():
        want = expected.get(seed)
        where = f"{task}/{arch}/seed {seed}"
        if seed in battery["diverged"]:
            d = battery["diverged"][seed]
            problems.append((seed, f"{where}: diverged at epoch {d['epoch']}, "
                                   f"sample {d['sample']}"))
        if want is None:
            problems.append((seed, f"{where}: no reference value"))
            continue
        if got is None:
            problems.append((seed, f"{where}: no curve written"))
            continue
        if got["epochs"] != want["epochs"]:
            problems.append((seed, f"{where}: {got['epochs']} epochs, "
                                   f"reference {want['epochs']}"))
        if not abs(got["mse_db"] - want["mse_db"]) <= MSE_DB_RTOL * abs(want["mse_db"]):
            problems.append((seed, f"{where}: final mse_db {got['mse_db']!r} != "
                                   f"reference {want['mse_db']!r}"))
        for key in ("train_acc", "test_acc"):
            if key in want and got.get(key) != want[key]:
                problems.append((seed, f"{where}: final {key} {got.get(key)!r} != "
                                       f"reference {want[key]!r}"))
    return problems
