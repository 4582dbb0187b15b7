"""Center selection: subtractive clustering, regular grids, fixed lists.

Subtractive clustering runs on features normalized per dimension to [0, 1], so
the influence radii are scale-free; returned centers are in original units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatchError, EmptyInputError, InvalidConfigError,
                     _check_int, _check_number, _check_positive)


@dataclass(frozen=True)
class SubtractiveConfig:
    """Knobs of the subtractive clustering pass.

    influence_radius is the neighborhood radius for the potential sum;
    squash_radius (default 1.5x influence) controls how broadly a selected
    center suppresses nearby potentials. accept_ratio / reject_ratio gate new
    centers against the first (largest) potential; points in between are kept
    only if they are far enough from existing centers. max_centers truncates
    selection order.
    """

    influence_radius: float
    squash_radius: float | None = None
    accept_ratio: float = 0.5
    reject_ratio: float = 0.15
    max_centers: int | None = None

    def __post_init__(self):
        _check_positive("influence_radius", self.influence_radius)
        if self.squash_radius is not None:
            _check_positive("squash_radius", self.squash_radius)
        reject = _check_number("reject_ratio", self.reject_ratio)
        accept = _check_number("accept_ratio", self.accept_ratio)
        if not (0 < reject <= accept <= 1):
            raise InvalidConfigError("need 0 < reject_ratio <= accept_ratio <= 1, got "
                                     f"reject={self.reject_ratio}, accept={self.accept_ratio}")
        if self.max_centers is not None:
            _check_int("max_centers", self.max_centers, 1)

    @property
    def effective_squash_radius(self) -> float:
        if self.squash_radius is not None:
            return self.squash_radius
        return 1.5 * self.influence_radius


def subtractive_clustering(X: np.ndarray, config: SubtractiveConfig) -> np.ndarray:
    """Pick cluster centers among the samples of X (shape (a, S)) by potential.

    Every sample gets a potential equal to a Gaussian-weighted count of its
    neighbors; the highest-potential sample becomes a center, its neighborhood
    is subtracted from all potentials, and the process repeats until the best
    remaining potential falls below reject_ratio times the first one. Returned
    centers are actual data points (original units), in selection order, shape
    (a, n_found).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise EmptyInputError("subtractive_clustering needs a non-empty (a, S) matrix")
    if not np.isfinite(X).all():
        raise InvalidConfigError("samples contain non-finite values")
    a, S = X.shape

    lo = X.min(axis=1, keepdims=True)
    hi = X.max(axis=1, keepdims=True)
    span = hi - lo
    span[span == 0.0] = 1.0
    Z = (X - lo) / span

    r_a = config.influence_radius
    r_b = config.effective_squash_radius
    sq = np.sum((Z[:, :, None] - Z[:, None, :]) ** 2, axis=0)
    potential = np.sum(np.exp(-4.0 * sq / (r_a * r_a)), axis=1)

    first_best = None
    chosen: list[int] = []
    limit = config.max_centers if config.max_centers is not None else S
    while len(chosen) < limit:
        k = int(np.argmax(potential))
        p_k = potential[k]
        if first_best is None:
            first_best = p_k
            if p_k <= 0:
                break
        else:
            if p_k < config.reject_ratio * first_best:
                break
            if p_k <= config.accept_ratio * first_best:
                d_min = np.sqrt(
                    min(np.sum((Z[:, k] - Z[:, c]) ** 2) for c in chosen)
                )
                if d_min / r_a + p_k / first_best < 1.0:
                    potential[k] = 0.0
                    continue
        chosen.append(k)
        potential = potential - p_k * np.exp(-4.0 * sq[k] / (r_b * r_b))

    if not chosen:
        raise EmptyInputError("subtractive_clustering selected no centers")
    return X[:, chosen].copy()


# Points a grid may hold. 10^7 points of 2-D coordinates take 160 MB; the
# largest grid a task builds holds 121 (funapprox's 11 x 11 training lattice
# and error surfaces).
GRID_POINT_LIMIT = 10**7


def grid_axes(bounds: list[tuple[float, float]], step: float) -> list[np.ndarray]:
    """Per-axis lattice coordinates lo + i*step (index times step, no drift).

    Per-axis count is floor((hi - lo) / step) + 1 with a small slack so that
    spans that are exact multiples of step are not lost to rounding. A span
    of steps that overflows a float raises InvalidConfigError naming the
    axis, and so does a grid of more than GRID_POINT_LIMIT points.
    """
    _check_positive("step", step)
    if not bounds:
        raise EmptyInputError("grid needs at least one axis")
    starts, counts = [], []
    for axis, pair in enumerate(bounds):
        lo, hi = (_check_number("axis bound", v) for v in pair)
        if hi < lo:
            raise InvalidConfigError(f"axis bounds reversed: ({lo}, {hi})")
        steps = (hi - lo) / step
        if not np.isfinite(steps):
            raise InvalidConfigError(f"axis {axis} ({lo}, {hi}) spans more steps of "
                                     f"{step} than a float holds")
        starts.append(lo)
        counts.append(int(np.floor(steps + 1e-9)) + 1)
    if math.prod(counts) > GRID_POINT_LIMIT:
        raise InvalidConfigError(f"a grid over {list(bounds)} with step {step} holds more "
                                 f"than {GRID_POINT_LIMIT} points")
    return [lo + step * np.arange(count, dtype=np.float64)
            for lo, count in zip(starts, counts)]


def grid_centers(bounds: list[tuple[float, float]], step: float) -> np.ndarray:
    """Regular lattice over a box, first axis outermost; shape (a, n_points)."""
    axes = grid_axes(bounds, step)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=0)


def fixed_centers(points) -> np.ndarray:
    """Assemble explicit center points (rows of `points`) into an (a, K) matrix.

    Duplicates are allowed; ragged rows are rejected.
    """
    rows = [np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in points]
    if not rows:
        raise EmptyInputError("fixed_centers needs at least one point")
    dim = rows[0].shape[0]
    for i, r in enumerate(rows):
        if r.ndim != 1 or r.shape[0] != dim:
            raise DimensionMismatchError(
                f"fixed_centers point {i}", dim, r.shape[0] if r.ndim == 1 else -1
            )
    return np.stack(rows, axis=1)
