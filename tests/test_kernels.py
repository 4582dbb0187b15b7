import math

import numpy as np
import pytest

from corbf.errors import DimensionMismatchError, InvalidConfigError
from corbf.kernels import (CosineParams, GaussianParams, KernelBank,
                           cosine_kernel, gaussian_kernel, kernel_matrix,
                           kernel_vector)


def make_bank(centers, sigma=1.0, epsilon=1e-8):
    return KernelBank(np.asarray(centers, dtype=np.float64),
                      GaussianParams(sigma), CosineParams(epsilon))


class TestGaussianKernel:
    def test_zero_distance_is_one(self):
        for a in (1, 2, 5):
            x = np.arange(a, dtype=np.float64)
            assert gaussian_kernel(x, x.copy(), GaussianParams(1.0)) == 1.0

    def test_unit_distance_unit_sigma(self):
        x = np.array([0.0, 0.0])
        m = np.array([1.0, 0.0])
        np.testing.assert_allclose(gaussian_kernel(x, m, GaussianParams(1.0)),
                                   math.exp(-1.0), rtol=1e-15)

    def test_scalar_arithmetic_oracle(self):
        # Independent term-by-term evaluation, no numpy.
        x = np.array([0.3, -0.7])
        m = np.array([1.1, 0.4])
        d1 = 0.3 - 1.1
        d2 = -0.7 - 0.4
        expected = math.exp(-(d1 * d1 + d2 * d2) / (2.0 * 2.0))
        got = gaussian_kernel(x, m, GaussianParams(2.0))
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, m = rng.normal(size=(2, 4))
            p = GaussianParams(float(rng.uniform(0.2, 3.0)))
            assert gaussian_kernel(x, m, p) == gaussian_kernel(m, x, p)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, m, t = rng.normal(size=(3, 3))
            p = GaussianParams(1.3)
            np.testing.assert_allclose(gaussian_kernel(x + t, m + t, p),
                                       gaussian_kernel(x, m, p), rtol=1e-12)

    def test_strictly_decreasing_in_distance(self):
        m = np.zeros(2)
        p = GaussianParams(0.9)
        vals = [gaussian_kernel(np.array([r, 0.0]), m, p) for r in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError) as exc:
            gaussian_kernel(np.zeros(2), np.zeros(3), GaussianParams(1.0))
        assert "2" in str(exc.value) and "3" in str(exc.value)

    def test_sigma_must_be_positive(self):
        with pytest.raises(InvalidConfigError):
            GaussianParams(0.0)
        with pytest.raises(InvalidConfigError):
            GaussianParams(-1.0)
        # a finite number, never a bool or text
        for sigma in (True, np.inf, "1"):
            with pytest.raises(InvalidConfigError, match="sigma"):
                GaussianParams(sigma)


class TestCosineKernel:
    def test_parallel_vectors(self):
        v = cosine_kernel(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                          CosineParams(1e-8))
        assert abs(v - 1.0) < 1e-7
        assert v < 1.0

    def test_orthogonal_vectors(self):
        assert cosine_kernel(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                             CosineParams()) == 0.0

    def test_antiparallel_vectors(self):
        v = cosine_kernel(np.array([2.0, 1.0]), np.array([-2.0, -1.0]),
                          CosineParams())
        assert abs(v + 1.0) < 1e-7
        assert v > -1.0

    def test_zero_vector_returns_zero(self):
        assert cosine_kernel(np.zeros(3), np.ones(3), CosineParams()) == 0.0
        assert cosine_kernel(np.ones(3), np.zeros(3), CosineParams()) == 0.0

    def test_bounded_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x, m = rng.normal(size=(2, 3))
            v = cosine_kernel(x, m, CosineParams())
            assert -1.0 < v < 1.0

    def test_positive_scaling_invariance(self):
        # Holds up to the epsilon perturbation for norms >= 1.
        rng = np.random.default_rng(6)
        for _ in range(50):
            x, m = rng.normal(size=(2, 3))
            x *= 2.0 / min(1.0, np.linalg.norm(x))
            m *= 2.0 / min(1.0, np.linalg.norm(m))
            c = float(rng.uniform(1.0, 10.0))
            np.testing.assert_allclose(
                cosine_kernel(c * x, c * m, CosineParams()),
                cosine_kernel(x, m, CosineParams()), atol=1e-6)

    def test_formula_oracle(self):
        x = np.array([0.4, -1.2, 2.0])
        m = np.array([1.0, 0.5, -0.3])
        eps = 1e-8
        dot = 0.4 * 1.0 + (-1.2) * 0.5 + 2.0 * (-0.3)
        nx = math.sqrt(0.4**2 + 1.2**2 + 2.0**2)
        nm = math.sqrt(1.0**2 + 0.5**2 + 0.3**2)
        np.testing.assert_allclose(cosine_kernel(x, m, CosineParams(eps)),
                                   dot / (nx * nm + eps), rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine_kernel(np.zeros(1), np.zeros(2), CosineParams())

    def test_epsilon_must_be_positive(self):
        with pytest.raises(InvalidConfigError):
            CosineParams(0.0)
        with pytest.raises(InvalidConfigError, match="epsilon"):
            CosineParams(np.inf)


class TestKernelVector:
    def test_single_center_at_center(self):
        m = np.array([1.0, 2.0])
        bank = make_bank(m.reshape(2, 1))
        phi = kernel_vector(m, bank)
        assert phi.shape == (3,)
        assert phi[0] == 1.0
        assert phi[1] == 1.0
        np.testing.assert_allclose(phi[2], 1.0, atol=1e-7)

    def test_orthogonal_and_far(self):
        centers = np.array([[50.0, 0.0], [0.0, 50.0]]).T
        bank = make_bank(centers)
        x = np.array([0.0, 0.0])
        # x = 0 is orthogonal-by-convention (cosine 0) and far from both.
        phi = kernel_vector(x, bank)
        np.testing.assert_allclose(phi[1:3], 0.0, atol=1e-12)
        assert phi[3] == 0.0 and phi[4] == 0.0

    def test_layout_matches_per_element_oracle(self):
        rng = np.random.default_rng(7)
        centers = rng.normal(size=(4, 3))
        bank = make_bank(centers, sigma=0.8)
        x = rng.normal(size=4)
        phi = kernel_vector(x, bank)
        assert phi.shape == (1 + 3 * 2,)
        assert phi[0] == 1.0
        for k in range(3):
            assert phi[1 + k] == gaussian_kernel(x, centers[:, k], bank.gaussian)
            assert phi[4 + k] == cosine_kernel(x, centers[:, k], bank.cosine)

    def test_elements_bounded(self):
        rng = np.random.default_rng(8)
        bank = make_bank(rng.normal(size=(2, 5)), sigma=0.5)
        for _ in range(100):
            phi = kernel_vector(rng.normal(size=2), bank)
            assert np.all(phi >= -1.0) and np.all(phi <= 1.0)

    def test_dimension_mismatch(self):
        bank = make_bank(np.zeros((3, 2)))
        with pytest.raises(DimensionMismatchError):
            kernel_vector(np.zeros(2), bank)


def python_kernels(x, m, sigma, epsilon):
    """Both kernels from Python floats, each sum exactly rounded by math.fsum.

    Returns (gaussian, q, cosine, scale): q = ||x - m||^2 / sigma^2, and scale
    = sum |x_i m_i| / (||x|| ||m|| + epsilon), the size of the cosine's terms
    that its rounding errors are relative to.
    """
    q = math.fsum((xi - mi) * (xi - mi) for xi, mi in zip(x, m)) / (sigma * sigma)
    denom = (math.sqrt(math.fsum(xi * xi for xi in x))
             * math.sqrt(math.fsum(mi * mi for mi in m)) + epsilon)
    cosine = math.fsum(xi * mi for xi, mi in zip(x, m)) / denom
    scale = math.fsum(abs(xi * mi) for xi, mi in zip(x, m)) / denom
    return math.exp(-q), q, cosine, scale


class TestKernelMatrix:
    def test_matches_pure_python_within_a_few_ulps(self):
        # An oracle that shares no code with the evaluator. Rounding in a
        # sum of a terms stays within (a + 2) ulps of its scale: the Gaussian
        # scales by 1 + q, since exp turns an error in q into q times it.
        rng = np.random.default_rng(10)
        for _ in range(40):
            a, K, S = (int(v) for v in rng.integers([1, 2, 2], [5, 7, 9]))
            centers = rng.normal(size=(a, K)) * rng.uniform(0.1, 5.0)
            X = rng.normal(size=(a, S)) * rng.uniform(0.1, 5.0)
            centers[:, 0] = 0.0                   # cosine 0 for every sample
            X[:, 0] = 0.0                         # cosine 0 for every center
            X[:, -1] = centers[:, -1]             # Gaussian 1
            bank = make_bank(centers, sigma=float(rng.uniform(0.3, 3.0)),
                             epsilon=float(10.0 ** rng.uniform(-10, -6)))
            Phi = kernel_matrix(X, bank)
            for s in range(S):
                for k in range(K):
                    g, q, c, scale = python_kernels(
                        X[:, s].tolist(), centers[:, k].tolist(),
                        bank.gaussian.sigma, bank.cosine.epsilon)
                    assert abs(Phi[1 + k, s] - g) <= (a + 2) * (1 + q) * math.ulp(g)
                    assert abs(Phi[1 + K + k, s] - c) <= (a + 2) * math.ulp(scale)
            assert np.all(Phi[1 + K, :] == 0.0) and np.all(Phi[1 + K:, 0] == 0.0)
            assert Phi[K, S - 1] == 1.0

    def test_bit_exact_to_looped_kernel_vector(self):
        rng = np.random.default_rng(9)
        bank = make_bank(rng.normal(size=(3, 4)), sigma=1.7)
        X = rng.normal(size=(3, 11))
        Phi = kernel_matrix(X, bank)
        assert Phi.shape == (1 + 4 * 2, 11)
        for s in range(11):
            np.testing.assert_array_equal(Phi[:, s], kernel_vector(X[:, s], bank))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_samples_rejected(self, value):
        # unchecked, inf gives NaN responses and RuntimeWarnings
        bank = make_bank(np.ones((2, 3)))
        X = np.ones((2, 4))
        X[1, 2] = value
        with pytest.raises(InvalidConfigError, match="non-finite"):
            kernel_matrix(X, bank)
        with pytest.raises(InvalidConfigError, match="non-finite"):
            kernel_vector(X[:, 2], bank)

    def test_single_column(self):
        bank = make_bank(np.ones((2, 1)))
        X = np.array([[1.0], [1.0]])
        np.testing.assert_array_equal(kernel_matrix(X, bank)[:, 0],
                                      kernel_vector(X[:, 0], bank))


class TestKernelBank:
    def test_properties(self):
        bank = make_bank(np.zeros((3, 5)))
        assert bank.input_dim == 3
        assert bank.n_centers == 5
        assert bank.n_kernels == 2
        assert bank.vector_len == 11
        # a list order is stored as the tuple the frozen bank needs
        order = KernelBank(np.zeros((3, 5)), kernel_order=["cosine", "gaussian"]).kernel_order
        assert type(order) is tuple and order == ("cosine", "gaussian")

    def test_duplicate_kernel_order_rejected(self):
        # and an empty, missing, bare or nested order, each named as kernel_order
        for order in (("gaussian", "gaussian"), (), None, "gaussian", [["gaussian"]]):
            with pytest.raises(InvalidConfigError, match="kernel_order"):
                KernelBank(np.zeros((2, 1)), GaussianParams(), CosineParams(),
                           kernel_order=order)

    def test_empty_centers_rejected(self):
        with pytest.raises(InvalidConfigError):
            make_bank(np.zeros((2, 0)))
