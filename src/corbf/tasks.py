"""The three benchmark tasks: Iris classification, 2-D function
approximation on a lattice, and nonlinear system identification driven by a
square wave.

Iris features are passed through unscaled; any normalization happens inside
center selection, never on the model inputs. The function-approximation target
is configurable because the task family admits several closely related target
expressions; the default is exp(x1^2 - x2^2).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .centers import grid_centers
from .errors import (DataFormatError, DimensionMismatchError, InvalidConfigError,
                     _check_int, _check_positive)

IRIS_ENV_VAR = "CORBF_DATA"

DEFAULT_FUNAPPROX_TARGET = "exp-x1sq-minus-x2sq"


@dataclass(frozen=True)
class LabeledDataset:
    """Sample matrix (a, S) plus aligned targets and a split tag.

    y holds integer class indices for classification tasks or real targets
    for regression; class_labels maps indices to names when applicable.
    """

    X: np.ndarray
    y: np.ndarray
    split: str
    class_labels: tuple[str, ...] = ()

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y)
        if X.ndim != 2:
            raise DimensionMismatchError("dataset samples", 2, X.ndim)
        if y.ndim != 1 or y.shape[0] != X.shape[1]:
            raise DimensionMismatchError(
                "dataset targets vs samples", X.shape[1],
                y.shape[0] if y.ndim == 1 else -1,
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n_samples(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SysIdSignal:
    """Square-wave input, clean plant output, and the noisy training targets."""

    u: np.ndarray
    y_clean: np.ndarray
    y_noisy: np.ndarray
    noise_variance: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        yc = np.asarray(self.y_clean, dtype=np.float64)
        yn = np.asarray(self.y_noisy, dtype=np.float64)
        if not (u.shape == yc.shape == yn.shape) or u.ndim != 1:
            raise DimensionMismatchError("signal channels", u.shape[0], yc.shape[0])
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y_clean", yc)
        object.__setattr__(self, "y_noisy", yn)

    @property
    def n_samples(self) -> int:
        return self.u.shape[0]


def _default_iris_path() -> str:
    env = os.environ.get(IRIS_ENV_VAR)
    if env:
        return env
    return str(resources.files("corbf").joinpath("data/iris.csv"))


def _parse_iris_csv(path: str) -> tuple[np.ndarray, list[str]]:
    rows: list[list[float]] = []
    names: list[str] = []
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataFormatError(f"cannot open dataset: {exc}", path=path) from exc
    with fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) != 5:
                raise DataFormatError(
                    f"expected 5 comma-separated fields, got {len(record)}",
                    path=path, line=lineno,
                )
            if lineno == 1:
                try:
                    float(record[0])
                except ValueError:
                    continue  # header row
            try:
                rows.append([float(v) for v in record[:4]])
            except ValueError as exc:
                raise DataFormatError(
                    f"non-numeric feature value: {exc}", path=path, line=lineno
                ) from exc
            names.append(record[4].strip())
    if len(rows) != 150:
        raise DataFormatError(
            f"expected 150 data rows, got {len(rows)}", path=path
        )
    return np.array(rows, dtype=np.float64).T, names


def load_iris(path: str | None = None, seed: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    """Load the 150-sample Iris table and split it 40/10 per class.

    Path resolution: explicit argument, then the CORBF_DATA environment
    variable, then the vendored copy. The split draws a seed-deterministic
    permutation per class; features are kept in their original units. Class
    indices follow first appearance in the file.
    """
    _check_int("seed", seed, 0)
    resolved = path if path is not None else _default_iris_path()
    X, names = _parse_iris_csv(resolved)

    class_labels: list[str] = []
    for n in names:
        if n not in class_labels:
            class_labels.append(n)
    if len(class_labels) != 3:
        raise DataFormatError(
            f"expected 3 classes, got {len(class_labels)}: {class_labels}", path=resolved
        )
    labels = np.array([class_labels.index(n) for n in names], dtype=np.int64)
    counts = [int(np.sum(labels == c)) for c in range(3)]
    if counts != [50, 50, 50]:
        raise DataFormatError(
            f"expected 50 samples per class, got {counts}", path=resolved
        )

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    train_idx: list[int] = []
    test_idx: list[int] = []
    for c in range(3):
        members = np.flatnonzero(labels == c)
        perm = rng.permutation(members.shape[0])
        train_idx.extend(sorted(members[perm[:40]].tolist()))
        test_idx.extend(sorted(members[perm[40:]].tolist()))
    tl = tuple(class_labels)
    train = LabeledDataset(X[:, train_idx], labels[train_idx], "train", tl)
    test = LabeledDataset(X[:, test_idx], labels[test_idx], "test", tl)
    return train, test


FUNAPPROX_TARGETS = ("exp-x1sq-minus-x2sq", "constant-one")


def funapprox_target(name: str = DEFAULT_FUNAPPROX_TARGET):
    """Named target functions for the 2-D approximation task.

    "constant-one" is the degenerate f(x) = 1 surface; it is kept selectable
    because the smooth default and the constant are the two readings of the
    task's published definition.
    """
    if name == "exp-x1sq-minus-x2sq":
        return lambda p: float(np.exp(p[0] * p[0] - p[1] * p[1]))
    if name == "constant-one":
        return lambda p: 1.0
    raise InvalidConfigError(f"unknown function-approximation target {name!r}")


def gen_function_approx(truth_fn=None) -> tuple[LabeledDataset, LabeledDataset]:
    """Lattice regression task: train on [-1,1]^2, test on [-0.9,0.9]^2, step 0.2.

    That is 121 training and 100 test samples; the test lattice interleaves
    the training one. truth_fn defaults to the exp(x1^2 - x2^2) target.
    """
    fn = truth_fn if truth_fn is not None else funapprox_target()
    X_train = grid_centers([(-1.0, 1.0), (-1.0, 1.0)], 0.2)
    X_test = grid_centers([(-0.9, 0.9), (-0.9, 0.9)], 0.2)
    y_train = np.array([fn(X_train[:, j]) for j in range(X_train.shape[1])])
    y_test = np.array([fn(X_test[:, j]) for j in range(X_test.shape[1])])
    return (
        LabeledDataset(X_train, y_train, "train"),
        LabeledDataset(X_test, y_test, "test"),
    )


def square_wave(n_samples: int, period: int) -> np.ndarray:
    """Unit-amplitude square wave with 50% duty cycle: +1 then -1 each period."""
    _check_int("n_samples", n_samples, 1)
    _check_int("period", period, 2)
    if period % 2 != 0:
        raise InvalidConfigError(f"period must be even, got {period}")
    t = np.arange(n_samples)
    return np.where(t % period < period // 2, 1.0, -1.0)


def plant_response(u: np.ndarray) -> np.ndarray:
    """Nonlinear plant output for input u, with zero-padded history.

    y_t = 2 u_t - 0.5 u_{t-1} - 0.1 u_{t-2} - 0.7 (cos(3 u_t) + exp(-|u_t|)),
    where u_{t-1}, u_{t-2} are taken as 0 before the signal starts.
    """
    u = np.asarray(u, dtype=np.float64)
    u1 = np.concatenate(([0.0], u[:-1]))
    u2 = np.concatenate(([0.0, 0.0], u[:-2])) if u.shape[0] >= 2 else np.zeros_like(u)
    return 2.0 * u - 0.5 * u1 - 0.1 * u2 - 0.7 * (np.cos(3.0 * u) + np.exp(-np.abs(u)))


def gen_sysid(seed: int = 0, n_samples: int = 400, period: int = 40,
              noise_variance: float = 0.2) -> SysIdSignal:
    """Square-wave-driven identification signal with noisy training targets.

    The clean channel recomputes bit-identically from u; the noisy channel
    adds seed-deterministic zero-mean Gaussian noise of the given variance
    and is meant for training targets only (evaluation uses the clean one).
    """
    _check_int("seed", seed, 0)
    _check_positive("noise_variance", noise_variance, zero=True)
    u = square_wave(n_samples, period)
    y_clean = plant_response(u)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    noise = rng.normal(0.0, np.sqrt(noise_variance), size=n_samples)
    return SysIdSignal(u=u, y_clean=y_clean, y_noisy=y_clean + noise,
                       noise_variance=float(noise_variance))
