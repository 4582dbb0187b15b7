"""Command-line benchmark front end.

corbf run <task> [--arch LIST] [--runs N] [--epochs T] [--eta R] [--seed S]
                 [--jobs J] [--out DIR] [--funapprox-target NAME]
                 [--sysid-centers NAME]
corbf report <DIR>
corbf bound <task>

Exit status: 0 success, 1 every run diverged, 2 invalid configuration or
unusable input (bad arguments, unwritable output, missing artifacts).
"""

from __future__ import annotations

import argparse
import sys

from .bench import (ARCHITECTURES, SYSID_CENTER_SETS, TASKS, ExperimentConfig,
                    bound_probe, compare_report, run_experiment)
from .errors import CorbfError
from .tasks import DEFAULT_FUNAPPROX_TARGET, FUNAPPROX_TARGETS

# "custom" selects the alternative documented reading of the 2-D target (the
# constant f(x) = 1 surface); the canonical task-level name is "constant-one".
# It is listed right after the default target.
_FUNAPPROX_CHOICES = FUNAPPROX_TARGETS[:1] + ("custom",) + FUNAPPROX_TARGETS[1:]


def _parse_arch_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _funapprox_target(name: str) -> str:
    return "constant-one" if name == "custom" else name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corbf",
        description="Multi-kernel RBF network benchmarks "
                    "(iris / funapprox / sysid).")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark task and write artifacts")
    run.add_argument("task", choices=TASKS)
    # Every option of run is named after its ExperimentConfig field (dest),
    # so main builds the config from the parsed options as they are.
    run.add_argument("--arch", dest="architectures", type=_parse_arch_list,
                     default=",".join(ARCHITECTURES), metavar="ARCH",
                     help="comma-separated architecture list "
                          f"(subset of {', '.join(ARCHITECTURES)})")
    run.add_argument("--runs", type=int, default=20, metavar="N",
                     help="seeded repetitions per architecture (default 20)")
    run.add_argument("--epochs", type=int, default=None, metavar="T",
                     help="training epochs (default: task preset)")
    run.add_argument("--eta", type=float, default=None, metavar="R",
                     help="learning rate (default: task preset)")
    run.add_argument("--seed", type=int, default=0, metavar="S",
                     help="root seed; run r uses S + r (default 0)")
    run.add_argument("--jobs", type=int, default=1, metavar="J",
                     help="concurrent runs (default 1)")
    run.add_argument("--out", dest="out_dir", default="corbf-results", metavar="DIR",
                     help="output directory (default corbf-results)")
    run.add_argument("--funapprox-target", type=_funapprox_target,
                     choices=_FUNAPPROX_CHOICES,
                     default=DEFAULT_FUNAPPROX_TARGET,
                     help="2-D target function; 'custom' is the constant "
                          "f(x)=1 alternative reading")
    run.add_argument("--sysid-centers", choices=tuple(SYSID_CENTER_SETS),
                     default="symmetric",
                     help="center list for the identification task")

    report = sub.add_parser("report",
                            help="summarize an artifact directory against "
                                 "the published reference figures")
    report.add_argument("directory")

    bound = sub.add_parser("bound",
                           help="print the stable learning-rate bound for a "
                                "task's default design")
    bound.add_argument("task", choices=TASKS)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    try:
        if command == "run":
            cfg = ExperimentConfig(**args)
            status = run_experiment(cfg)
            if status == 0:
                print(f"wrote artifacts to {cfg.out_dir}")
            else:
                print(f"all runs diverged; manifest in {cfg.out_dir}",
                      file=sys.stderr)
            return status
        if command == "report":
            sys.stdout.write(compare_report(args["directory"]))
            return 0
        probe = bound_probe(args["task"])
        verdict = "respects" if probe["respects"] else "violates"
        print(f"task: {probe['task']}")
        print(f"learning-rate bound (1/lambda_max): {probe['bound']:.6g}")
        print(f"task default eta: {probe['eta']:.6g} ({verdict} the bound)")
        return 0
    except CorbfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
