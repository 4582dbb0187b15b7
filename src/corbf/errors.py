"""Exception types raised by the corbf package, its one CSV format and its
one rule for each kind of setting.

Every error carries enough structure (dimensions, indices, file names) for a
caller to act on it programmatically instead of parsing the message.
_write_csv and _read_csv write and parse every CSV artifact; the reader
reports any malformed line as a DataFormatError. _check_number,
_check_positive and _check_int check every numeric setting,
_check_choice and _check_names every named one, and _check_labels every
vector of class labels.
"""

from __future__ import annotations

import os

import numpy as np


class CorbfError(Exception):
    """Base class for all corbf errors."""


class DimensionMismatchError(CorbfError):
    """Two arrays that must share a dimension do not.

    Attributes:
        expected: the dimension required by the receiving object.
        actual: the dimension of the offending input.
    """

    def __init__(self, what: str, expected: int, actual: int):
        self.expected = int(expected)
        self.actual = int(actual)
        super().__init__(f"{what}: expected dimension {expected}, got {actual}")


class EmptyInputError(CorbfError):
    """An operation received an empty dataset or vector."""


class InvalidModelError(CorbfError):
    """Model state violates an invariant (shape mismatch, non-finite weights)."""


class InvalidConfigError(CorbfError):
    """A configuration value violates its documented constraint."""


class DivergenceError(CorbfError):
    """Training produced a non-finite or absurdly large instantaneous error.

    Attributes:
        epoch: 1-based epoch at which divergence was detected.
        sample: 1-based training-set index (column of X) of the first failing
            sample; under shuffling this is not its position in the epoch.
        error_value: the offending instantaneous error.

    fit raises with these 1-based values, and the manifest records them;
    sgd_step echoes whatever epoch and sample its caller passes.
    """

    def __init__(self, epoch: int, sample: int, error_value: float):
        self.epoch = int(epoch)
        self.sample = int(sample)
        self.error_value = float(error_value)
        super().__init__(
            f"training diverged at epoch {epoch}, sample {sample} "
            f"(instantaneous error {error_value!r})"
        )


class PartitionError(CorbfError):
    """A center partition does not cover all centers exactly once."""


class DataFormatError(CorbfError):
    """A data file could not be parsed.

    Attributes:
        path: file that failed to parse.
        line: 1-based line number of the offending row, or None.
    """

    def __init__(self, message: str, path: str = "", line: int | None = None):
        self.path = str(path)
        self.line = line
        where = f"{path}:{line}: " if line is not None else (f"{path}: " if path else "")
        super().__init__(where + message)


class MissingArtifactsError(CorbfError):
    """A results directory is missing files the report needs.

    Attributes:
        missing: list of absent file names.
    """

    def __init__(self, directory: str, missing: list[str]):
        self.directory = str(directory)
        self.missing = list(missing)
        super().__init__(
            f"results directory {directory} is missing: {', '.join(missing)}"
        )


def _check_number(name: str, value,
                  types: tuple = (int, float, np.integer, np.floating)) -> float:
    """value as a float; raise InvalidConfigError unless it is one of types,
    not a bool, and finite."""
    try:
        v = float(value) if isinstance(value, types) and not isinstance(value, bool) else np.nan
    except OverflowError:
        raise InvalidConfigError(f"{name} must be a finite number, got an int too large "
                                 "for a float") from None
    if not np.isfinite(v):
        raise InvalidConfigError(f"{name} must be a finite number, got {value!r}")
    return v


def _check_positive(name: str, value, zero: bool = False,
                    types: tuple = (int, float, np.integer, np.floating)) -> None:
    """Raise InvalidConfigError unless value passes _check_number and is > 0
    (>= 0 if zero)."""
    v = _check_number(name, value, types)
    if not (v > 0.0 or zero and v == 0.0):
        raise InvalidConfigError(
            f"{name} must be a finite number {'>=' if zero else '>'} 0, got {value!r}")


def _check_int(name: str, value, low: int, types: tuple = (int, np.integer)) -> None:
    """Raise InvalidConfigError unless value is one of types, not a bool, and >= low."""
    if not isinstance(value, types) or isinstance(value, bool) or value < low:
        raise InvalidConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_choice(name: str, value, choices) -> None:
    """Raise InvalidConfigError unless value is a str and one of choices."""
    if not (isinstance(value, str) and value in choices):
        raise InvalidConfigError(f"{name} must be one of {tuple(choices)}, got {value!r}")


def _check_names(name: str, values, choices) -> tuple:
    """values as a tuple; raise InvalidConfigError unless it is a non-empty
    list or tuple of distinct names that each pass _check_choice."""
    if not (isinstance(values, (list, tuple)) and values):
        raise InvalidConfigError(f"{name} must be a non-empty list or tuple, got {values!r}")
    for value in values:
        _check_choice(f"every entry of {name}", value, choices)
    if len(set(values)) < len(values):
        raise InvalidConfigError(f"{name} repeats a name: {values!r}")
    return tuple(values)


def _check_labels(name: str, labels, n_classes: int) -> np.ndarray:
    """labels as class indices; raise InvalidConfigError unless each is a
    whole number in [0, n_classes)."""
    try:
        labels = np.asarray(labels, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"{name} must be whole numbers in [0, {n_classes}), "
                                 f"not numbers: {exc}") from None
    if labels.ndim != 1:
        raise DimensionMismatchError("class labels", 1, labels.ndim)
    # NaN fails the first test, +-inf the range
    bad = (labels != np.floor(labels)) | (labels < 0) | (labels >= n_classes)
    if bad.any():
        raise InvalidConfigError(f"{name} must be whole numbers in [0, {n_classes}), "
                                 f"got {float(labels[bad][0])!r}")
    return labels.astype(np.int64)


def _write_csv(path: str | os.PathLike, header, rows) -> None:
    """Write the header names and then each row, UTF-8 with \\n line ends.

    rows are tuples of Python ints, floats and strs. %s writes a float as its
    repr, the shortest text that parses back to the same value.
    """
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def _read_csv(path: str | os.PathLike, header: dict) -> dict[str, list]:
    """Parse a file written by _write_csv into one list per column.

    header maps each column name, in file order, to the parser of its fields.
    Another header line, another field count or a field its parser rejects
    raises DataFormatError at that 1-based line.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        rows = [line.strip().split(",") for line in fh]
    if first != ",".join(header):
        raise DataFormatError(f"unexpected header {first!r}", path=str(path), line=1)
    for lineno, fields in enumerate(rows, start=2):
        if len(fields) != len(header):
            raise DataFormatError(f"expected {len(header)} fields, got {len(fields)}",
                                  path=str(path), line=lineno)
    # whole columns through map: a third less time than field by field
    cols = {}
    for (name, parse), raw in zip(header.items(), zip(*rows) if rows else [()] * len(header)):
        try:
            cols[name] = list(map(parse, raw))
        except ValueError:
            for lineno, field in enumerate(raw, start=2):
                try:
                    parse(field)
                except ValueError as exc:
                    raise DataFormatError(str(exc), path=str(path), line=lineno) from exc
    return cols


def _float_or_na(field: str) -> float | None:
    """A float field in which "NA" marks an undefined value."""
    return None if field == "NA" else float(field)
