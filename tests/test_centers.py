import math

import numpy as np
import pytest

from corbf.centers import (SubtractiveConfig, fixed_centers, grid_axes,
                           grid_centers, subtractive_clustering)
from corbf.errors import (DimensionMismatchError, EmptyInputError,
                          InvalidConfigError)


def brute_force_subtractive(X, cfg):
    """Scalar-loop re-implementation of the documented selection rules:
    normalized potentials, argmax pick, squash subtraction, accept/reject
    ratio gates with the distance fallback in between."""
    X = np.asarray(X, dtype=np.float64)
    a, S = X.shape
    lo = X.min(axis=1)
    hi = X.max(axis=1)
    span = [h - l if h > l else 1.0 for l, h in zip(lo, hi)]
    Z = [[(X[i, s] - lo[i]) / span[i] for i in range(a)] for s in range(S)]

    def sqdist(p, q):
        return sum((pi - qi) ** 2 for pi, qi in zip(p, q))

    r_a = cfg.influence_radius
    r_b = cfg.effective_squash_radius
    P = [sum(math.exp(-4.0 * sqdist(Z[i], Z[j]) / (r_a * r_a)) for j in range(S))
         for i in range(S)]
    chosen = []
    first = None
    limit = cfg.max_centers if cfg.max_centers is not None else S
    while len(chosen) < limit:
        k = max(range(S), key=lambda i: P[i])
        pk = P[k]
        if first is None:
            first = pk
            if pk <= 0:
                break
        else:
            if pk < cfg.reject_ratio * first:
                break
            if pk <= cfg.accept_ratio * first:
                d_min = math.sqrt(min(sqdist(Z[k], Z[c]) for c in chosen))
                if d_min / r_a + pk / first < 1.0:
                    P[k] = 0.0
                    continue
        chosen.append(k)
        P = [P[i] - pk * math.exp(-4.0 * sqdist(Z[i], Z[k]) / (r_b * r_b))
             for i in range(S)]
    return X[:, chosen]


class TestSubtractiveClustering:
    def test_single_sample_is_sole_center(self):
        X = np.array([[2.0], [3.0]])
        out = subtractive_clustering(X, SubtractiveConfig(0.5))
        np.testing.assert_array_equal(out, X)

    def test_two_isolated_clusters(self):
        X = np.concatenate([np.tile([[0.0], [0.0]], 10),
                            np.tile([[10.0], [10.0]], 10)], axis=1)
        out = subtractive_clustering(X, SubtractiveConfig(0.1))
        assert out.shape == (2, 2)
        cols = {tuple(out[:, k]) for k in range(2)}
        assert cols == {(0.0, 0.0), (10.0, 10.0)}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            X = rng.uniform(-1, 1, size=(2, 5))
            cfg = SubtractiveConfig(float(rng.uniform(0.3, 1.0)))
            got = subtractive_clustering(X, cfg)
            want = brute_force_subtractive(X, cfg)
            np.testing.assert_array_equal(got, want)

    def test_oracle_with_cap_and_tight_radius(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(3, 12))
        cfg = SubtractiveConfig(0.25, max_centers=4)
        got = subtractive_clustering(X, cfg)
        assert got.shape[1] <= 4
        np.testing.assert_array_equal(got, brute_force_subtractive(X, cfg))

    def test_centers_are_input_columns(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(4, 30))
        out = subtractive_clustering(X, SubtractiveConfig(0.4))
        in_cols = {tuple(X[:, s]) for s in range(30)}
        for k in range(out.shape[1]):
            assert tuple(out[:, k]) in in_cols

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(2, 40))
        cfg = SubtractiveConfig(0.3)
        np.testing.assert_array_equal(subtractive_clustering(X, cfg),
                                      subtractive_clustering(X, cfg))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            subtractive_clustering(np.zeros((2, 0)), SubtractiveConfig(0.5))

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            SubtractiveConfig(0.0)
        with pytest.raises(InvalidConfigError):
            SubtractiveConfig(0.5, accept_ratio=0.1, reject_ratio=0.2)
        with pytest.raises(InvalidConfigError):
            SubtractiveConfig(0.5, max_centers=0)
        for ratios in (dict(accept_ratio=True), dict(accept_ratio="0.5"),
                       dict(accept_ratio=1.0, reject_ratio=True),
                       dict(reject_ratio="0.5")):
            with pytest.raises(InvalidConfigError, match="ratio"):
                SubtractiveConfig(0.5, **ratios)
        with pytest.raises(InvalidConfigError, match="influence_radius"):
            SubtractiveConfig(np.inf)
        with pytest.raises(InvalidConfigError, match="squash_radius"):
            SubtractiveConfig(0.3, squash_radius=np.nan)
        # a fractional cap used to select ceil(cap) centers
        with pytest.raises(InvalidConfigError, match="max_centers"):
            SubtractiveConfig(0.3, max_centers=1.5)
        # a NaN sample used to come back as centers, an infinite one to warn
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidConfigError, match="non-finite"):
                subtractive_clustering(np.array([[0.0, 0.5, 1.0], [bad, 0.0, 1.0]]),
                                       SubtractiveConfig(0.5))

    def test_default_squash_is_one_and_a_half_influence(self):
        cfg = SubtractiveConfig(0.2)
        np.testing.assert_allclose(cfg.effective_squash_radius, 0.3)
        assert SubtractiveConfig(0.2, squash_radius=0.25).effective_squash_radius == 0.25


class TestGridCenters:
    def test_one_dimensional(self):
        out = grid_centers([(0.0, 1.0)], 0.5)
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]])

    def test_121_point_lattice(self):
        out = grid_centers([(-1.0, 1.0), (-1.0, 1.0)], 0.2)
        assert out.shape == (2, 121)

    def test_unit_square_corners(self):
        out = grid_centers([(0.0, 1.0), (0.0, 1.0)], 1.0)
        assert out.shape == (2, 4)
        corners = {tuple(out[:, k]) for k in range(4)}
        assert corners == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}

    def test_size_formula(self):
        for bounds, step in ([(0.0, 2.0)], 0.3), ([(0.0, 1.0), (-1.0, 0.5)], 0.25):
            out = grid_centers(bounds, step)
            want = 1
            for lo, hi in bounds:
                want *= int(np.floor((hi - lo) / step + 1e-9)) + 1
            assert out.shape[1] == want

    def test_exact_lattice_no_drift(self):
        axes = grid_axes([(-1.0, 1.0)], 0.2)[0]
        # Coordinates are index * step offsets, so -1 + 10 steps is exactly 1.
        assert axes[0] == -1.0 and axes[-1] == 1.0
        np.testing.assert_array_equal(axes, -1.0 + 0.2 * np.arange(11))

    def test_oversized_step_gives_single_point(self):
        out = grid_centers([(0.0, 1.0)], 5.0)
        np.testing.assert_allclose(out, [[0.0]])

    def test_bad_step(self):
        with pytest.raises(InvalidConfigError):
            grid_centers([(0.0, 1.0)], 0.0)
        for step in (np.inf, True):
            with pytest.raises(InvalidConfigError, match="step"):
                grid_axes([(0.0, 1.0)], step)
        for bounds in ((np.nan, 1.0), (0.0, np.inf), (0.0, "1")):
            with pytest.raises(InvalidConfigError, match="axis bound"):
                grid_axes([bounds], 0.5)

    def test_span_of_steps_past_a_float(self):
        # finite bounds whose span, or span in steps, overflows to inf
        for bounds, step in (([(-1e308, 1e308)], 0.5), ([(0.0, 0.0), (0.0, 1e308)], 1e-10)):
            with pytest.raises(InvalidConfigError, match=f"axis {len(bounds) - 1} "):
                grid_axes(bounds, step)

    def test_point_count_past_the_cap(self):
        # 1e10 points per axis raised MemoryError; the cap counts every axis
        for bounds, step in (([(0.0, 1.0)], 1e-10), ([(0.0, 1.0)] * 3, 1e-3)):
            with pytest.raises(InvalidConfigError, match="more than 10000000 points"):
                grid_axes(bounds, step)
        assert len(grid_axes([(0.0, 1.0)], 1e-6)[0]) == 10**6 + 1


class TestFixedCenters:
    def test_scalar_list_in_order(self):
        out = fixed_centers([[-100.0], [-50.0], [0.0], [50.0], [-100.0]])
        assert out.shape == (1, 5)
        np.testing.assert_array_equal(out[0], [-100.0, -50.0, 0.0, 50.0, -100.0])

    def test_single_vector(self):
        out = fixed_centers([[1.0, 2.0, 3.0]])
        assert out.shape == (3, 1)

    def test_duplicates_retained(self):
        out = fixed_centers([[1.0, 2.0], [1.0, 2.0]])
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out[:, 0], out[:, 1])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatchError):
            fixed_centers([[1.0, 2.0], [1.0]])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            fixed_centers([])
