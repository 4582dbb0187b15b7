"""Figures of merit: MSE in dB, accuracy, one-vs-rest class metrics, surfaces.

Undefined values (zero denominators) are carried as None and serialized as
"NA" so they never silently bias an aggregate. Percentages are formatted to
two decimals and Youden indices to four.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .centers import grid_axes, grid_centers
from .errors import (DimensionMismatchError, EmptyInputError, InvalidConfigError,
                     _check_int, _check_labels, _float_or_na, _write_csv)
from .model import RbfModel, forward_batch


def mse_db_from_linear(mse):
    """10*log10(mse), elementwise for an array (a float for a scalar); zero
    maps to the -inf sentinel."""
    mse = np.asarray(mse, dtype=np.float64)
    if np.any(mse < 0):
        raise InvalidConfigError(
            f"mean squared error cannot be negative: {mse[mse < 0].flat[0]}")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(mse)
    return float(db) if db.ndim == 0 else db


def mse_db(errors: np.ndarray) -> float:
    """Mean squared error of an error vector, in dB; all-zero gives -inf."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise EmptyInputError("mse_db needs at least one error value")
    return mse_db_from_linear(float(np.mean(errors * errors)))


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of positions where pred equals truth."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise DimensionMismatchError("pred vs truth", truth.size, pred.size)
    if pred.size == 0:
        raise EmptyInputError("accuracy needs at least one sample")
    return float(np.mean(pred == truth))


@dataclass(frozen=True)
class ConfusionCounts:
    """One-vs-rest counts per class; arrays all have length n_classes."""

    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray

    def __post_init__(self):
        arrays = {}
        n = None
        for name in ("tp", "fp", "tn", "fn"):
            v = np.asarray(getattr(self, name), dtype=np.int64)
            if v.ndim != 1:
                raise DimensionMismatchError(f"ConfusionCounts.{name}", 1, v.ndim)
            if np.any(v < 0):
                raise InvalidConfigError(f"ConfusionCounts.{name} has negative entries")
            if n is None:
                n = v.shape[0]
            elif v.shape[0] != n:
                raise DimensionMismatchError(f"ConfusionCounts.{name}", n, v.shape[0])
            arrays[name] = v
        totals = arrays["tp"] + arrays["fp"] + arrays["tn"] + arrays["fn"]
        if np.any(totals != totals[0]):
            raise InvalidConfigError(
                f"per-class count totals disagree: {totals.tolist()}"
            )
        for name, v in arrays.items():
            object.__setattr__(self, name, v)

    @property
    def n_classes(self) -> int:
        return self.tp.shape[0]

    @property
    def n_samples(self) -> int:
        return int(self.tp[0] + self.fp[0] + self.tn[0] + self.fn[0])


def confusion(pred: np.ndarray, truth: np.ndarray, n_classes: int) -> ConfusionCounts:
    """One-vs-rest confusion counts from predicted and true class indices,
    each a whole number in [0, n_classes)."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise DimensionMismatchError("pred vs truth", truth.size, pred.size)
    if pred.size == 0:
        raise EmptyInputError("confusion needs at least one sample")
    _check_int("n_classes", n_classes, 2)
    pred, truth = _check_labels("pred", pred, n_classes), _check_labels("truth", truth, n_classes)
    tp = np.empty(n_classes, dtype=np.int64)
    fp = np.empty(n_classes, dtype=np.int64)
    tn = np.empty(n_classes, dtype=np.int64)
    fn = np.empty(n_classes, dtype=np.int64)
    for c in range(n_classes):
        p = pred == c
        t = truth == c
        tp[c] = np.sum(p & t)
        fp[c] = np.sum(p & ~t)
        fn[c] = np.sum(~p & t)
        tn[c] = np.sum(~p & ~t)
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def sensitivity_specificity_youden(
    cc: ConfusionCounts,
) -> list[tuple[float | None, float | None, float | None]]:
    """Per-class (sensitivity, specificity, Youden); None where undefined.

    sensitivity = TP/(TP+FN), specificity = TN/(TN+FP), Youden = sens + spec
    - 1. A zero denominator yields None for that entry and for the Youden
    index that would need it.
    """
    out: list[tuple[float | None, float | None, float | None]] = []
    for c in range(cc.n_classes):
        pos = int(cc.tp[c] + cc.fn[c])
        neg = int(cc.tn[c] + cc.fp[c])
        sens = (int(cc.tp[c]) / pos) if pos > 0 else None
        spec = (int(cc.tn[c]) / neg) if neg > 0 else None
        youden = (sens + spec - 1.0) if (sens is not None and spec is not None) else None
        out.append((sens, spec, youden))
    return out


@dataclass(frozen=True)
class ErrorSurface:
    """Signed error d - y over a 2-D lattice; errors[i, j] pairs axis1[i], axis2[j]."""

    axis1: np.ndarray
    axis2: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        a1 = np.asarray(self.axis1, dtype=np.float64)
        a2 = np.asarray(self.axis2, dtype=np.float64)
        err = np.asarray(self.errors, dtype=np.float64)
        if err.shape != (a1.shape[0], a2.shape[0]):
            raise DimensionMismatchError(
                "error grid", a1.shape[0] * a2.shape[0], err.size
            )
        object.__setattr__(self, "axis1", a1)
        object.__setattr__(self, "axis2", a2)
        object.__setattr__(self, "errors", err)


def error_surface(model: RbfModel, bounds: list[tuple[float, float]], step: float,
                  truth_fn) -> ErrorSurface:
    """Evaluate d - y on the lattice over bounds with the given step.

    truth_fn maps a 2-vector to the desired output d. The model must take 2-D
    inputs.
    """
    if model.bank.input_dim != 2:
        raise DimensionMismatchError("error_surface input dim", 2, model.bank.input_dim)
    if len(bounds) != 2:
        raise DimensionMismatchError("error_surface axes", 2, len(bounds))
    axes = grid_axes(bounds, step)
    pts = grid_centers(bounds, step)
    y = forward_batch(model, pts)
    d = np.array([float(truth_fn(pts[:, j])) for j in range(pts.shape[1])])
    errors = (d - y).reshape(axes[0].shape[0], axes[1].shape[0])
    return ErrorSurface(axis1=axes[0], axis2=axes[1], errors=errors)


def format_percent(value: float | None) -> str:
    """Two-decimal percentage string, e.g. 0.9771 -> '97.71'; None -> 'NA'."""
    if value is None:
        return "NA"
    return f"{100.0 * value:.2f}"


def format_youden(value: float | None) -> str:
    """Four-decimal Youden string, e.g. 0.91 -> '0.9100'; None -> 'NA'."""
    if value is None:
        return "NA"
    return f"{value:.4f}"


_METRIC_TABLE_CSV = {"architecture": str, "phase": str, "class": str,
                     "mean": _float_or_na, "std": _float_or_na}


def write_metric_table(path: str | os.PathLike, rows: list[tuple],
                       formatter=format_percent) -> None:
    """Write (architecture, phase, class, mean, std) rows as CSV.

    mean/std are floats in natural units (fractions for percent tables) or
    None for undefined cells; the formatter renders them.
    """
    _write_csv(path, _METRIC_TABLE_CSV,
               ((arch, phase, cls, formatter(mean), formatter(std))
                for arch, phase, cls, mean, std in rows))
