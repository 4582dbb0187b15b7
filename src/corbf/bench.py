"""Benchmark harness: run the three tasks across architectures and seeds.

An experiment = one task x a set of architectures x `runs` seeded repetitions.
Artifacts per architecture: per-run learning-curve CSVs, a mean curve CSV,
task-specific outputs (iris metric tables, function-approximation error
surfaces and test-error listings, system-identification predicted-vs-actual
traces), plus one JSON manifest describing the whole experiment: the fields
of its ExperimentConfig (except out_dir), the settings every run of the task
fixes, and what the runs did. config_from_manifest reads the config back by
the same fields. Re-running it reproduces the curve files byte for byte:
every random stream derives from seed + run_index and aggregation order is
fixed by run index, never by completion order. Each run's results keep the
arrays training and evaluation produced; the artifact writers turn them into
Python floats.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import reference
from .centers import SubtractiveConfig, fixed_centers, subtractive_clustering
from .errors import (DataFormatError, DivergenceError, InvalidConfigError,
                     MissingArtifactsError, _read_csv, _write_csv)
from .kernels import CosineParams, GaussianParams, KernelBank, kernel_matrix
from .metrics import (_METRIC_TABLE_CSV, ErrorSurface, accuracy, confusion,
                      error_surface, format_percent, format_youden,
                      sensitivity_specificity_youden, write_metric_table)
from .model import (AdaptiveFusion, CoFusion, FixedFusion, MultiHeadRbfModel,
                    RbfModel, forward_batch)
from .tasks import (DEFAULT_FUNAPPROX_TARGET, FUNAPPROX_TARGETS, funapprox_target,
                    gen_function_approx, gen_sysid, load_iris)
from .trainer import (TrainConfig, TrainTrace, fit,
                      learning_rate_bound, write_trace_csv, read_trace_csv)

TASKS = ("iris", "funapprox", "sysid")
ARCHITECTURES = ("manual", "adaptive", "co")
MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "corbf-manifest/1"

# Per-task training defaults: learning rate, epoch budget, Gaussian width, and
# presentation order. The iris task shuffles because its file order is
# class-blocked, a degenerate ordering for per-sample updates; the two
# regression tasks keep their natural sample order.
TASK_DEFAULTS = {
    "iris": {"eta": 5e-3, "epochs": 2000, "sigma": 1.0, "shuffle": True},
    "funapprox": {"eta": 1e-3, "epochs": 2000, "sigma": 1.0, "shuffle": False},
    "sysid": {"eta": 1e-4, "epochs": 1000, "sigma": 0.5, "shuffle": False},
}

# Iris center selection: subtractive clustering, influence radius 0.2 over the
# training split, squash radius 1.25x the influence radius, capped at 16
# centers (the classic subclust parameterization; the training splits of
# seeds 0-19 yield 12-16 centers).
IRIS_INFLUENCE = 0.2
IRIS_SQUASH = 0.25
IRIS_MAX_CENTERS = 16

# "repeated-endpoint" preserves the duplicated -100 endpoint that some task
# statements print in place of +100.
SYSID_CENTER_SETS = {
    "symmetric": (-100.0, -50.0, 0.0, 50.0, 100.0),
    "repeated-endpoint": (-100.0, -50.0, 0.0, 50.0, -100.0),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings a caller chooses for one benchmark experiment.

    Complete once constructed: epochs and eta left at None take the task's
    TASK_DEFAULTS, and every field is checked, so a wrong type raises
    InvalidConfigError rather than failing later. The Gaussian width, the
    presentation order and the weight init are not settings: every run of a
    task uses the same ones (_fixed_settings). seed is the root seed; run r
    uses seed + r for both its data split/noise and its weight init.
    """

    task: str
    architectures: tuple[str, ...] = ARCHITECTURES
    runs: int = 20
    seed: int = 0
    out_dir: str = "corbf-results"
    epochs: int | None = None
    eta: float | None = None
    jobs: int = 1
    funapprox_target: str = DEFAULT_FUNAPPROX_TARGET
    sysid_centers: str = "symmetric"

    def __post_init__(self):
        if self.task not in TASKS:
            raise InvalidConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if not isinstance(self.architectures, (tuple, list)):
            raise InvalidConfigError(
                f"architectures must be a sequence of names, got {self.architectures!r}")
        archs = tuple(self.architectures)
        if not archs:
            raise InvalidConfigError("at least one architecture is required")
        for a in archs:
            if a not in ARCHITECTURES:
                raise InvalidConfigError(
                    f"unknown architecture {a!r}; expected a subset of {ARCHITECTURES}")
        if len(set(archs)) != len(archs):
            raise InvalidConfigError(f"duplicate architecture in {archs}")
        object.__setattr__(self, "architectures", archs)
        for key in ("epochs", "eta"):
            if getattr(self, key) is None:
                object.__setattr__(self, key, TASK_DEFAULTS[self.task][key])
        for key, low in (("runs", 1), ("seed", 0), ("jobs", 1), ("epochs", 1)):
            value = getattr(self, key)
            if not _is_int(value) or value < low:
                raise InvalidConfigError(f"{key} must be an integer >= {low}, got {value!r}")
        if not ((_is_int(self.eta) or isinstance(self.eta, float))
                and 0.0 < self.eta < np.inf):
            raise InvalidConfigError(f"eta must be a finite number > 0, got {self.eta!r}")
        if self.funapprox_target not in FUNAPPROX_TARGETS:
            raise InvalidConfigError(
                f"unknown funapprox target {self.funapprox_target!r}; "
                f"expected one of {FUNAPPROX_TARGETS}")
        if self.sysid_centers not in tuple(SYSID_CENTER_SETS):
            raise InvalidConfigError(
                f"unknown sysid center set {self.sysid_centers!r}; "
                f"expected one of {tuple(SYSID_CENTER_SETS)}")


def _iris_bank(X_train: np.ndarray, sigma: float) -> KernelBank:
    centers = subtractive_clustering(
        X_train,
        SubtractiveConfig(IRIS_INFLUENCE, squash_radius=IRIS_SQUASH,
                          max_centers=IRIS_MAX_CENTERS))
    return KernelBank(centers, GaussianParams(sigma), CosineParams())


def _single_head(bank: KernelBank, arch: str) -> RbfModel:
    if arch == "co":
        return RbfModel(bank, CoFusion(), np.zeros((bank.n_centers, bank.n_kernels)))
    mode = FixedFusion if arch == "manual" else AdaptiveFusion
    return RbfModel(bank, mode(0.5, 0.5), np.zeros(bank.n_centers))


def _multi_head(bank: KernelBank, arch: str, labels: tuple) -> MultiHeadRbfModel:
    heads = tuple(_single_head(bank, arch) for _ in labels)
    return MultiHeadRbfModel(heads, tuple(labels))


def _train_config(cfg: ExperimentConfig, run_seed: int) -> TrainConfig:
    return TrainConfig(eta=cfg.eta, epochs=cfg.epochs, seed=run_seed,
                       shuffle=TASK_DEFAULTS[cfg.task]["shuffle"])


def _fixed_settings(cfg: ExperimentConfig) -> dict:
    """The settings every run of cfg.task uses and no caller sets: the task's
    Gaussian width, and the presentation order, init and mix learning rate of
    the TrainConfig its runs train under. The manifest records them."""
    train = _train_config(cfg, cfg.seed)
    return {"sigma": TASK_DEFAULTS[cfg.task]["sigma"], "shuffle": train.shuffle,
            "init": train.init, "init_scale": train.init_scale,
            "alpha_eta": train.alpha_eta}


def _phase_metrics(model: MultiHeadRbfModel, X: np.ndarray, y: np.ndarray,
                   labels: tuple) -> dict:
    pred = model.decide_batch(X)
    cc = confusion(pred, y, len(labels))
    ssy = sensitivity_specificity_youden(cc)
    return {
        "accuracy": accuracy(pred, y),
        "per_class": [
            {"label": str(labels[i]), "sensitivity": ssy[i][0],
             "specificity": ssy[i][1], "youden": ssy[i][2]}
            for i in range(len(labels))
        ],
    }


def _problem(cfg: ExperimentConfig, run_seed: int) -> tuple:
    """(X, D, bank, test) of one seeded run: training inputs and targets, the
    kernel bank, and what the run is evaluated on (the iris or funapprox test
    split, or the sysid signal)."""
    sigma = TASK_DEFAULTS[cfg.task]["sigma"]
    if cfg.task == "iris":
        train, test = load_iris(seed=run_seed)
        return train.X, train.y, _iris_bank(train.X, sigma), test
    if cfg.task == "funapprox":
        train, test = gen_function_approx(funapprox_target(cfg.funapprox_target))
        bank = KernelBank(train.X.copy(), GaussianParams(sigma), CosineParams())
        return train.X, train.y, bank, test
    signal = gen_sysid(seed=run_seed)
    centers = fixed_centers(
        np.array([[c] for c in SYSID_CENTER_SETS[cfg.sysid_centers]]))
    bank = KernelBank(centers, GaussianParams(sigma), CosineParams())
    return signal.u.reshape(1, -1), signal.y_noisy, bank, signal


def _run_single(cfg: ExperimentConfig, arch: str, run: int) -> dict:
    """Train run `run` of arch under cfg and measure it: its trace, which
    carries the final model, and iris's per-phase metrics or funapprox's test
    errors. The surfaces and traces that need a model are run_experiment's."""
    run_seed = cfg.seed + run
    try:
        X, D, bank, test = _problem(cfg, run_seed)
        if cfg.task == "iris":
            labels = test.class_labels
            trace = fit(_multi_head(bank, arch, labels), X, D,
                        _train_config(cfg, run_seed), eval_set=(test.X, test.y))
            return {"trace": trace, "metrics": {
                "training": _phase_metrics(trace.final_model, X, D, labels),
                "testing": _phase_metrics(trace.final_model, test.X, test.y, labels)}}
        trace = fit(_single_head(bank, arch), X, D, _train_config(cfg, run_seed))
    except DivergenceError as exc:
        return {"diverged": {"epoch": exc.epoch, "sample": exc.sample,
                             "error_value": exc.error_value}}
    if cfg.task == "funapprox":
        return {"trace": trace,
                "test_errors": test.y - forward_batch(trace.final_model, test.X)}
    return {"trace": trace}


def curve_name(task: str, arch: str, run_index: int) -> str:
    return f"{task}_{arch}_run{run_index:02d}_curve.csv"


def mean_curve_name(task: str, arch: str) -> str:
    return f"{task}_{arch}_mean_curve.csv"


def expected_artifacts(task: str, architectures: tuple[str, ...]) -> list[str]:
    """Artifact file names run_experiment promises when the given
    architectures each completed a run (an architecture whose runs all
    diverged writes nothing).

    Per-run curves exist only for completed (non-diverged) runs, so they are
    not listed here; the manifest enumerates the ones actually written.
    """
    names = [MANIFEST_NAME]
    for arch in architectures:
        names.append(mean_curve_name(task, arch))
    if task == "iris" and architectures:
        names += ["iris_accuracy.csv", "iris_sensitivity.csv",
                  "iris_specificity.csv", "iris_youden.csv"]
    elif task == "funapprox":
        for arch in architectures:
            names += [f"funapprox_{arch}_train_surface.csv",
                      f"funapprox_{arch}_test_surface.csv",
                      f"funapprox_{arch}_test_errors.csv"]
    else:
        for arch in architectures:
            names.append(f"sysid_{arch}_trace.csv")
    return names


_SURFACE_CSV = {"x1": float, "x2": float, "error": float}
_TEST_ERRORS_CSV = {"run": int, "index": int, "error": float}
_SYSID_TRACE_CSV = {"t": int, "input": float, "actual": float, "predicted": float}


def _write_surface_csv(path: str, surf: ErrorSurface) -> None:
    errors = surf.errors.tolist()
    _write_csv(path, _SURFACE_CSV,
               ((a, b, errors[i][j]) for i, a in enumerate(surf.axis1.tolist())
                for j, b in enumerate(surf.axis2.tolist())))


def read_surface_csv(path: str) -> dict:
    """Parse an error-surface CSV back into axis/error arrays."""
    return {key: np.array(vals) for key, vals in _read_csv(path, _SURFACE_CSV).items()}


def _write_test_errors_csv(path: str, per_run: dict[int, np.ndarray]) -> None:
    _write_csv(path, _TEST_ERRORS_CSV,
               ((run_index, i, v) for run_index in sorted(per_run)
                for i, v in enumerate(per_run[run_index].tolist())))


def read_test_errors_csv(path: str) -> dict[int, np.ndarray]:
    """Parse a per-run test-error CSV into {run_index: errors}."""
    cols = _read_csv(path, _TEST_ERRORS_CSV)
    acc: dict[int, list[float]] = {}
    for run_index, err in zip(cols["run"], cols["error"]):
        acc.setdefault(run_index, []).append(err)
    return {k: np.array(v) for k, v in acc.items()}


def _write_sysid_trace_csv(path: str, pairs: dict[str, np.ndarray]) -> None:
    columns = (pairs[key].tolist() for key in ("input", "actual", "predicted"))
    _write_csv(path, _SYSID_TRACE_CSV,
               ((t, *row) for t, row in enumerate(zip(*columns))))


def _mean_curve_trace(results: list[dict]) -> TrainTrace:
    """Average completed runs epoch-wise. mse_linear is the mean linear MSE;
    mse_db is the mean of per-run dB curves (the convention used for reported
    curve comparisons); accuracies are plain means."""
    traces = [r["trace"] for r in results]

    def _mean(key):
        if getattr(traces[0], key) is None:
            return None
        return np.stack([getattr(t, key) for t in traces]).mean(axis=0)

    return TrainTrace(
        epochs=traces[0].epochs,
        mse_linear=_mean("mse_linear"),
        mse_db=_mean("mse_db"),
        train_acc=_mean("train_acc"),
        test_acc=_mean("test_acc"),
        final_model=None,
    )


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.array(values, dtype=np.float64)
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1))


def _iris_metric_rows(per_arch: dict[str, list[dict]]) -> dict[str, list[tuple]]:
    """Build (architecture, phase, class, mean, std) rows for the four tables."""
    tables: dict[str, list[tuple]] = {
        "accuracy": [], "sensitivity": [], "specificity": [], "youden": []}
    for arch, results in per_arch.items():
        for phase in ("training", "testing"):
            accs = [r["metrics"][phase]["accuracy"] for r in results]
            tables["accuracy"].append((arch, phase, "all", *_mean_std(accs)))
            labels = [c["label"] for c in results[0]["metrics"][phase]["per_class"]]
            for ci, label in enumerate(labels):
                for key in ("sensitivity", "specificity", "youden"):
                    vals = [r["metrics"][phase]["per_class"][ci][key] for r in results]
                    known = [v for v in vals if v is not None]
                    if known:
                        mean, std = _mean_std(known)
                    else:
                        mean, std = None, None
                    tables[key].append((arch, phase, label, mean, std))
    return tables


def ProcessPoolExecutor(max_workers: int):
    # imported here, not with corbf: only --jobs > 1 needs a pool
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run the experiment, write artifacts into cfg.out_dir, return exit status.

    One loop writes each architecture that completed a run: its run and mean
    curves, and the funapprox surfaces and test errors or the sysid trace.
    The surfaces and the trace are of its first completed run's final model,
    so a diverged run 0 leaves them to run 1 and so on.

    0 = success (possibly with some diverged runs, noted in the manifest);
    1 = every run of every architecture diverged. Invalid configurations raise
    InvalidConfigError (the CLI maps that to exit status 2).
    """
    t0 = time.monotonic()
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        # exclusive, under a name no artifact uses: no existing file is touched
        probe = os.path.join(cfg.out_dir, f".corbf-probe-{os.getpid()}")
        os.close(os.open(probe, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        os.remove(probe)
    except OSError as exc:
        raise InvalidConfigError(f"output directory {cfg.out_dir!r} is not writable: {exc}")

    jobs = [(cfg, arch, run) for arch in cfg.architectures for run in range(cfg.runs)]
    # the pool starts all its workers at once, so never more than there are runs
    workers = min(cfg.jobs, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(_run_single, *zip(*jobs)))
    else:
        flat = [_run_single(*job) for job in jobs]

    completed: dict[str, list[tuple[int, dict]]] = {a: [] for a in cfg.architectures}
    divergences: dict[str, list[dict]] = {a: [] for a in cfg.architectures}
    for (_, arch, run), res in zip(jobs, flat):
        if "diverged" in res:
            divergences[arch].append({"run": run, **res["diverged"]})
        else:
            completed[arch].append((run, res))

    written: list[str] = [MANIFEST_NAME]

    def _path(name: str) -> str:
        written.append(name)
        return os.path.join(cfg.out_dir, name)

    ran = [a for a in cfg.architectures if completed[a]]
    for arch in ran:
        for run, res in completed[arch]:
            write_trace_csv(res["trace"], _path(curve_name(cfg.task, arch, run)))
        write_trace_csv(_mean_curve_trace([r for _, r in completed[arch]]),
                        _path(mean_curve_name(cfg.task, arch)))
        run, res = completed[arch][0]
        final = res["trace"].final_model
        if cfg.task == "funapprox":
            truth = funapprox_target(cfg.funapprox_target)
            for split, box in (("train", (-1.0, 1.0)), ("test", (-0.9, 0.9))):
                _write_surface_csv(_path(f"funapprox_{arch}_{split}_surface.csv"),
                                   error_surface(final, [box, box], 0.2, truth))
            _write_test_errors_csv(_path(f"funapprox_{arch}_test_errors.csv"),
                                   {run: r["test_errors"] for run, r in completed[arch]})
        elif cfg.task == "sysid":
            X, _, _, signal = _problem(cfg, cfg.seed + run)
            _write_sysid_trace_csv(_path(f"sysid_{arch}_trace.csv"),
                                   {"input": signal.u, "actual": signal.y_clean,
                                    "predicted": forward_batch(final, X)})

    if cfg.task == "iris" and ran:
        tables = _iris_metric_rows({a: [r for _, r in completed[a]] for a in ran})
        for key, formatter in (("accuracy", format_percent),
                               ("sensitivity", format_percent),
                               ("specificity", format_percent),
                               ("youden", format_youden)):
            write_metric_table(_path(f"iris_{key}.csv"), tables[key], formatter)

    from . import __version__
    manifest = {**asdict(cfg), **_fixed_settings(cfg),
                "format": MANIFEST_FORMAT,
                "version": __version__,
                "run_seeds": [cfg.seed + r for r in range(cfg.runs)],
                "divergences": divergences,
                "divergence_count": sum(len(v) for v in divergences.values()),
                "artifacts": sorted(written),
                "wall_clock_sec": round(time.monotonic() - t0, 3)}
    del manifest["out_dir"]
    with open(os.path.join(cfg.out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")

    return 0 if ran else 1


def config_from_manifest(path: str | os.PathLike) -> ExperimentConfig:
    """Rebuild the ExperimentConfig recorded in a manifest (out_dir is the
    manifest's directory; rerunning it reproduces identical curve files).

    A missing key, a field that fails ExperimentConfig's checks, a fixed
    setting other than the one this version runs, or a divergence_count that
    does not count the divergences recorded raises DataFormatError."""
    return _read_manifest(path)[0]


def _read_manifest(path: str | os.PathLike) -> tuple[ExperimentConfig, dict[str, list]]:
    """config_from_manifest's config and the manifest's divergence records, a
    list of {"run": run, ...} per architecture."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            m = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"manifest is not valid JSON: {exc}", path=str(path))
    if not isinstance(m, dict):
        raise DataFormatError("manifest is not a JSON object", path=str(path))
    if m.get("format") != MANIFEST_FORMAT:
        raise DataFormatError(
            f"unexpected manifest format {m.get('format')!r}", path=str(path))
    try:
        cfg = ExperimentConfig(
            **{f.name: m[f.name] for f in fields(ExperimentConfig) if f.name != "out_dir"},
            out_dir=os.path.dirname(os.path.abspath(path)) or ".")
        for key, value in _fixed_settings(cfg).items():
            if m[key] != value or type(m[key]) is not type(value):
                raise DataFormatError(f"manifest records {key} {m[key]!r}, but this "
                                      f"version runs {value!r}", path=str(path))
        count, records = m["divergence_count"], m["divergences"]
        n = (sum(map(len, records.values())) if isinstance(records, dict) and all(
            isinstance(v, list) and all(isinstance(r, dict) and "run" in r for r in v)
            for v in records.values()) else "malformed")
        if type(count) is not int or count != n:
            raise DataFormatError(f"manifest records divergence_count {count!r} for "
                                  f"{n} divergence records", path=str(path))
    except KeyError as exc:
        raise DataFormatError(f"manifest lacks the key {exc.args[0]!r}",
                              path=str(path)) from None
    except InvalidConfigError as exc:
        raise DataFormatError(f"manifest holds an invalid setting: {exc}",
                              path=str(path)) from None
    return cfg, records


def _read_metric_table(path: str) -> list[dict]:
    cols = _read_csv(path, _METRIC_TABLE_CSV)
    return [dict(zip(cols, row)) for row in zip(*cols.values())]


def _epochs_to_level(db_curve: np.ndarray, level_db: float) -> int | None:
    """First 1-based epoch at which the curve is at or below level_db."""
    hits = np.nonzero(db_curve <= level_db)[0]
    return None if hits.size == 0 else int(hits[0]) + 1


def _fmt(v: float | tuple | None, nd: int = 2) -> str:
    """v to nd decimals, a (mean, std) pair as "mean ± std", None as NA."""
    if isinstance(v, tuple):
        return " ± ".join(_fmt(x, nd) for x in v)
    return "NA" if v is None else f"{v:.{nd}f}"


def _final_test_accuracy(results_dir: str, cfg: ExperimentConfig, arch: str,
                         runs: list[int]) -> float:
    """Mean over arch's completed runs, in run order, of each run's last test
    accuracy: criterion 5's quantity, which the accuracy table rounds to two
    decimals."""
    accs = []
    for run in runs:
        path = os.path.join(results_dir, curve_name(cfg.task, arch, run))
        acc = read_trace_csv(path)["test_acc"]
        if acc is None or len(acc) != cfg.epochs:
            raise DataFormatError(f"expected {cfg.epochs} test accuracies", path=path)
        accs.append(float(acc[-1]))
    return float(np.mean(accs))


def compare_report(results_dir: str | os.PathLike) -> str:
    """Summarize an experiment directory: per-task rows of measured against
    published reference figures, their citations and, when all three
    architectures completed a run, the acceptance checks that can be evaluated
    from artifacts. An architecture whose runs all diverged gets one line
    saying so instead of rows. Reads artifacts only; never mutates them."""
    results_dir = os.fspath(results_dir)
    manifest_path = os.path.join(results_dir, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise MissingArtifactsError(results_dir, [MANIFEST_NAME])
    cfg, divergences = _read_manifest(manifest_path)
    # every run the manifest does not record as diverged left a curve
    diverged = {(arch, r["run"]) for arch, recs in divergences.items() for r in recs}
    completed = {arch: [run for run in range(cfg.runs) if (arch, run) not in diverged]
                 for arch in cfg.architectures}
    # an architecture whose runs all diverged wrote no artifact
    ran = tuple(arch for arch in cfg.architectures if completed[arch])
    missing = [name for name in expected_artifacts(cfg.task, ran)
               + [curve_name(cfg.task, arch, run)
                  for arch, runs in completed.items() for run in runs]
               if not os.path.isfile(os.path.join(results_dir, name))]
    if missing:
        raise MissingArtifactsError(results_dir, sorted(missing))

    db = {}
    for arch in ran:
        path = os.path.join(results_dir, mean_curve_name(cfg.task, arch))
        curve = read_trace_csv(path)
        if len(curve["epoch"]) != cfg.epochs:
            raise DataFormatError(f"expected {cfg.epochs} epochs, got "
                                  f"{len(curve['epoch'])}", path=path)
        db[arch] = curve["mse_db"]
    finals = {arch: float(curve[-1]) for arch, curve in db.items()}

    rows: list[tuple[str, str, str]] = []
    if cfg.task == "iris":
        table = _read_metric_table(
            os.path.join(results_dir, "iris_accuracy.csv")) if ran else []
        acc = {(r["architecture"], r["phase"]): (r["mean"], r["std"]) for r in table}
        rows += [(f"iris {phase} accuracy % ({arch})", _fmt(acc.get((arch, phase))),
                  _fmt(reference.REPORTED_IRIS_ACCURACY.get((arch, phase))))
                 for arch in ran for phase in ("training", "testing")]
        rows += [(f"iris final train MSE dB ({arch})", _fmt(finals[arch]),
                  _fmt(reference.REPORTED_IRIS_MSE_DB[
                      "co_at_2000" if arch == "co" else "baselines_at_2000"]))
                 for arch in ran]
        citations = [reference.REPORTED_IRIS_ACCURACY_CITATION,
                     reference.REPORTED_IRIS_MSE_CITATION]
    elif cfg.task == "funapprox":
        rows += [(f"funapprox final train MSE dB ({arch})", _fmt(finals[arch]),
                  _fmt(reference.REPORTED_FUNAPPROX_MSE_DB.get(arch)))
                 for arch in ran]
        max_abs = {}
        for arch in ran:
            path = os.path.join(results_dir, f"funapprox_{arch}_test_errors.csv")
            errs = read_test_errors_csv(path)
            if not errs:
                raise DataFormatError("no test errors", path=path)
            max_abs[arch] = max(float(np.max(np.abs(e))) for e in errs.values())
            band = reference.REPORTED_FUNAPPROX_BAND.get(arch)
            rows.append((f"funapprox max |test error| ({arch})", _fmt(max_abs[arch], 3),
                         "NA" if band is None else f"[{band[0]}, {band[1]}]"))
        citations = [reference.REPORTED_FUNAPPROX_CITATION]
    else:
        to_level = {arch: _epochs_to_level(db[arch], finals[arch] + 0.5) for arch in ran}
        for arch in ran:
            rows += [(f"sysid final train MSE dB ({arch})", _fmt(finals[arch]),
                      f"±{reference.REPORTED_SYSID_MSE_DB_MAGNITUDE}"),
                     (f"sysid epochs to final+0.5 dB ({arch})",
                      "NA" if to_level[arch] is None else str(to_level[arch]),
                      "fastest: co")]
        citations = [reference.REPORTED_SYSID_CITATION]

    checks: list[tuple[str, bool, str | None]] = []
    if set(ran) == set(ARCHITECTURES):
        co = finals["co"]
        if cfg.task == "iris":
            co_acc, man_acc = (_final_test_accuracy(results_dir, cfg, a, completed[a])
                               for a in ("co", "manual"))
            checks += [("accuracy check (co testing >= 96.5% and >= manual)",
                        co_acc >= 0.965 - 1e-9 and co_acc >= man_acc, None),
                       ("final-MSE check (co mean <= -31 dB)", co <= -31.0,
                        f"measured {co:.2f} dB")]
            if cfg.epochs >= 240:
                base240 = min(float(db[a][239]) for a in ("manual", "adaptive"))
                checks.append(("early-convergence check (co@160 <= baselines@240)",
                               float(db["co"][159]) <= base240,
                               f"co@160 {db['co'][159]:.2f} vs {base240:.2f} dB"))
        elif cfg.task == "funapprox":
            checks += [("ordering check (co final lowest)",
                        co <= min(finals["manual"], finals["adaptive"]),
                        f"co {co:.2f}, manual {finals['manual']:.2f}, "
                        f"adaptive {finals['adaptive']:.2f} dB"),
                       ("test-error band check (co within ±0.15)", max_abs["co"] <= 0.15,
                        f"max {max_abs['co']:.3f}")]
        else:
            spread = max(finals.values()) - min(finals.values())
            checks += [("convergence-speed check (co fastest to final+0.5 dB)",
                        to_level["co"] is not None
                        and all(to_level[a] is None or to_level["co"] < to_level[a]
                                for a in ("manual", "adaptive")), None),
                       ("final-MSE agreement check (spread <= 1 dB)", spread <= 1.0,
                        f"spread {spread:.3f} dB")]
        checks.append(("ordering check (co final <= adaptive final)",
                       co <= finals["adaptive"],
                       f"co {co:.2f} vs adaptive {finals['adaptive']:.2f} dB"))

    lines = [
        f"experiment: {cfg.task} | architectures: {', '.join(cfg.architectures)} | "
        f"runs: {cfg.runs} | epochs: {cfg.epochs} | eta: {cfg.eta}",
        "",
        f"{'quantity':<44} {'measured':>18} {'reported':>18}",
        "-" * 82,
        *(f"{label:<44} {measured:>18} {reported:>18}"
          for label, measured, reported in rows),
        *(f"{arch}: all runs diverged" for arch in cfg.architectures if arch not in ran),
        "", "citations:", *(f"  {c}" for c in citations),
    ]
    if checks:
        lines += ["", "acceptance checks:"]
        lines += [f"  {name}: {'PASS' if ok else 'FAIL'}"
                  + ("" if detail is None else f" ({detail})")
                  for name, ok, detail in checks]
    lines += ["", f"diverged runs: {sum(map(len, divergences.values()))}"]
    return "\n".join(lines) + "\n"


def bound_probe(task: str, seed: int = 0, eta: float | None = None,
                funapprox_target_name: str = DEFAULT_FUNAPPROX_TARGET,
                sysid_centers: str = "symmetric") -> dict:
    """Compute the stable-learning-rate bound 1/lambda_max for a task's
    default design and flag whether the task's learning rate respects it."""
    cfg = ExperimentConfig(task, funapprox_target=funapprox_target_name,
                           sysid_centers=sysid_centers)
    X, _, bank, _ = _problem(cfg, seed)
    bound = learning_rate_bound(kernel_matrix(X, bank))
    eta_used = cfg.eta if eta is None else eta
    return {"task": task, "bound": bound, "eta": eta_used,
            "respects": bool(eta_used <= bound)}
