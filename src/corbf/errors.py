"""Exception types raised by the corbf package.

Every error carries enough structure (dimensions, indices, file names) for a
caller to act on it programmatically instead of parsing the message.
"""

from __future__ import annotations


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
