"""Primary kernels (Gaussian, cosine) and the stacked kernel response design.

kernel_matrix is the one evaluator: it broadcasts both kernels over a whole
sample matrix in double precision, with the difference form sum_a (x - m)^2
and no BLAS product, so every entry follows a fixed operation order of its
own. kernel_vector is its one-column case and gaussian_kernel/cosine_kernel
its one-center, one-sample case, so all of them agree bit for bit by
construction, and repeated calls on identical inputs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError, _check_names, _check_positive

KERNEL_NAMES = ("gaussian", "cosine")


@dataclass(frozen=True)
class GaussianParams:
    """Width parameter of the Gaussian kernel, in input-space distance units."""

    sigma: float = 1.0

    def __post_init__(self):
        _check_positive("gaussian sigma", self.sigma)


@dataclass(frozen=True)
class CosineParams:
    """Denominator guard for the cosine kernel.

    epsilon keeps the quotient defined when either vector is zero; it must stay
    far below the typical product of input and center norms.
    """

    epsilon: float = 1e-8

    def __post_init__(self):
        _check_positive("cosine epsilon", self.epsilon)


@dataclass(frozen=True)
class KernelBank:
    """Immutable set of centers plus kernel parameters shared by the network.

    centers has one column per hidden unit (shape (a, K)). kernel_order fixes
    the layout of the stacked response vector: bias first, then K responses per
    kernel in this order.
    """

    centers: np.ndarray
    gaussian: GaussianParams = field(default_factory=GaussianParams)
    cosine: CosineParams = field(default_factory=CosineParams)
    kernel_order: tuple[str, ...] = KERNEL_NAMES

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] < 1:
            raise InvalidConfigError(
                f"centers must be a 2-D matrix with at least one column, got shape {centers.shape}"
            )
        if not np.all(np.isfinite(centers)):
            raise InvalidConfigError("centers contain non-finite values")
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "kernel_order",
                           _check_names("kernel_order", self.kernel_order, KERNEL_NAMES))

    @property
    def input_dim(self) -> int:
        return self.centers.shape[0]

    @property
    def n_centers(self) -> int:
        return self.centers.shape[1]

    @property
    def n_kernels(self) -> int:
        return len(self.kernel_order)

    @property
    def vector_len(self) -> int:
        """Length of the stacked response vector: 1 + K * L."""
        return 1 + self.n_centers * self.n_kernels


def _as_vector(what: str, x, dim: int) -> np.ndarray:
    # No contiguous copy is needed: every response is computed elementwise,
    # and elementwise results do not depend on memory layout.
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    actual = x.shape[0] if x.ndim == 1 else -1
    if actual != dim:
        raise DimensionMismatchError(what, dim, actual)
    return x


def _one_center_bank(op: str, m, **params) -> KernelBank:
    m = np.atleast_1d(np.asarray(m, dtype=np.float64))
    if m.ndim != 1:
        raise DimensionMismatchError(f"{op} center", 1, m.ndim)
    return KernelBank(m[:, np.newaxis], **params)


def gaussian_kernel(x: np.ndarray, m: np.ndarray, p: GaussianParams) -> float:
    """exp(-||x - m||^2 / sigma^2); equals 1 at x == m, decays with distance."""
    bank = _one_center_bank("gaussian_kernel", m, gaussian=p, kernel_order=("gaussian",))
    return float(kernel_vector(x, bank)[1])


def cosine_kernel(x: np.ndarray, m: np.ndarray, p: CosineParams) -> float:
    """(x . m) / (||x|| ||m|| + epsilon); 0 whenever either vector is zero."""
    bank = _one_center_bank("cosine_kernel", m, cosine=p, kernel_order=("cosine",))
    return float(kernel_vector(x, bank)[1])


def kernel_vector(x: np.ndarray, bank: KernelBank) -> np.ndarray:
    """Stacked response [1, gaussian responses (K,), cosine responses (K,)].

    The leading 1 is the bias channel. Layout follows bank.kernel_order and is
    fixed project-wide so weight indexing stays unambiguous. This is the
    one-column case of kernel_matrix.
    """
    x = _as_vector("kernel_vector input vs bank", x, bank.input_dim)
    return kernel_matrix(x[:, np.newaxis], bank)[:, 0]


def kernel_matrix(X: np.ndarray, bank: KernelBank) -> np.ndarray:
    """Stacked responses of every column of X (shape (a, S)), shape (1 + L*K, S).

    Column j is kernel_vector(X[:, j], bank), bit for bit: each entry is
    built from its own sample and center by the same elementwise operations,
    whatever the other columns are. A NaN or infinite sample entry raises
    InvalidConfigError.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != bank.input_dim:
        raise DimensionMismatchError(
            "kernel_matrix samples vs bank",
            bank.input_dim,
            X.shape[0] if X.ndim == 2 else -1,
        )
    if not np.isfinite(X).all():
        raise InvalidConfigError("samples contain non-finite values")
    K, S = bank.n_centers, X.shape[1]
    sq_dist = np.zeros((K, S))
    dot = np.zeros((K, S))
    x_sq = np.zeros(S)
    m_sq = np.zeros(K)
    # One broadcast pass per input dimension, in order: a reduction over an
    # axis would sum in an order that depends on the array's shape.
    for x_i, m_i in zip(X, bank.centers):
        diff = x_i - m_i[:, np.newaxis]
        sq_dist += diff * diff
        dot += x_i * m_i[:, np.newaxis]
        x_sq += x_i * x_i
        m_sq += m_i * m_i
    sigma, epsilon = bank.gaussian.sigma, bank.cosine.epsilon
    responses = {
        "gaussian": np.exp(-sq_dist / (sigma * sigma)),
        "cosine": dot / (np.sqrt(m_sq)[:, np.newaxis] * np.sqrt(x_sq) + epsilon),
    }
    return np.concatenate([np.ones((1, S)), *(responses[name] for name in bank.kernel_order)])
