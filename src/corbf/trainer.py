"""Per-sample stochastic gradient descent for all three fusion architectures.

The training loop presents samples one at a time, in dataset order unless
shuffling is requested: compute the output, then the error, then apply every
increment from the pre-update parameter values. Epoch statistics (MSE over the
full training set, accuracies for classification) are computed after each
epoch finishes, never from the running instantaneous errors.

sgd_step is the sequential reference. Fixed and co fusion are linear in their
weights, so fit trains them with one routine, _linear_blocks, as exact blocks:
one triangular solve yields every instantaneous error of a block, then one
product applies all of its increments. A block of one sample is sgd_step's
update; blocks hold one sample when a step could expand the error, and a
block failing the divergence check replays that way. In dataset order with
stable steps an epoch's errors are affine in its starting rows W,
E = F - J W^T: the routine run once from zero rows on the targets [D | DS]
(DS the design) gives [F | J]. The epoch's increments U = (eta E) DS then
make the next epoch's as U M, M = I - eta J^T DS (P x P, built once per
fit), and W += U. Its errors make the next epoch's as E N,
N = I - eta DS J^T (S x S): fit iterates whichever of U (H x P) and E
(H x S) costs an epoch fewer multiply-adds, P^2 + P_theta S against 2 S^2
(P_theta = len(phi), since fixed fusion evaluates through theta), so the
errors when a design has fewer samples than weights. The state comes from
the errors only when this operator (re)starts; _increments then makes its
first GROUP_EPOCHS values by single products and each later group of them
as the one before it times M^GROUP_EPOCHS (or N^GROUP_EPOCHS; squared once
per fit, when a first later group is due), one product. Adaptive fusion
multiplies the weights by trainable coefficients, so it stays sample by
sample, one head after another. Its steps read the weights only through the
sample's Gaussian and cosine projections: the block's Gram matrix Z Z^T
carries the projections Z w at its starting weights as a spare column, so one
product of four of its rows with the increments made so far in the block (and
a trailing 1) reads this sample's projections and the next one's, and one
product applies the increments at the block's end. A sample without a
product (every odd one, and an even one whose row repeats its neighbours',
as a square-wave input's do) moves the carried projections by its coupling
to the previous sample, four Gram entries times that sample's increments.
Heads share the design, the order and the blocks (built once per fit in
dataset order, once per epoch under shuffle). All of them match repeated
sgd_step calls up to rounding. Before an adaptive divergence the errors grow
faster than exponentially, so rounding can move the failing value far more:
when the adaptive loop fails, fit replays the epochs up to the failing one
by sgd_step's arithmetic (one step per head and presented sample, on a
design evaluated once, in the orders of a fresh shuffle stream of the same
seed) and reports its failure.

fit trains rows of parameters, one per head (model._params reads them,
model._set_params writes them back), and loops over chunks of CHUNK_EPOCHS
epochs. Each epoch writes its rows (and adaptive coefficients) into a chunk
buffer; model._thetas builds theta for the whole chunk, and theta . phi is
one product per group of GROUP_EPOCHS epochs, counted from the fit's first
epoch and padded with zero rows where a chunk ends inside a group, so an
epoch's outputs are bit for bit the same whatever the chunking. Under the
operator a chunk draws its increments, its rows are their
cumulative sum (adding as W += U does, epoch by epoch), and its epochs are
checked once, by a bound on their errors that needs only the rows' norms,
|E[h, s]| <= max|F[h]| + ||W[h]|| max_s ||J[s]|| (Cauchy-Schwarz). Iterating
the errors, a chunk draws them and checks each exactly; their running sums C
(one cumulative sum, as the rows') give the rows W_base + (eta C) DS and the
outputs Y_base + (eta C) K, K = theta(DS) . phi built once per fit, from the
rows W_base and outputs Y_base where the operator started. Those outputs
come by the same groups of products, and rows are formed only where they
are read: at the fit's end and from a failed check on. The first epoch
failing the check and the rest of the chunk then train by blocks, which
raise at the first failing sample (so a false alarm costs only time), as
every epoch does otherwise, and the next chunk restarts the operator;
otherwise it draws on from the same groups, so chunk ends leave no trace in
the bits. fit writes the heads once, after the last epoch or, on
divergence, from the last completed one.

Also here: the stable learning-rate estimate 1 / lambda_max of the kernel
autocorrelation matrix.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable, Generator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    EmptyInputError,
    InvalidConfigError,
    InvalidModelError,
    _check_choice,
    _check_int,
    _check_labels,
    _check_positive,
    _float_or_na,
    _read_csv,
    _write_csv,
)
from .kernels import kernel_matrix, kernel_vector
from .metrics import mse_db_from_linear
from .model import (
    AdaptiveFusion,
    CoFusion,
    FixedFusion,
    MultiHeadRbfModel,
    RbfModel,
    _params,
    _set_params,
    _thetas,
)

DIVERGENCE_LIMIT = 1e12

# Samples per block of the linear-mode engine and of the adaptive loop. The
# B x B error system of a block is built and solved whole, and so is the
# adaptive loop's 2B x 2B Gram matrix (512 KiB), so this caps their memory:
# inverting sysid's 400-sample epoch as one block raised the benchmark's peak
# RSS by 16%, blocks of 128 by 2%.
BLOCK_SIZE = 128

# Epochs per chunk of fit: a chunk's epochs are evaluated together, and the
# error-operator epochs of a chunk are checked together. Its buffers hold one
# chunk's rows and outputs.
CHUNK_EPOCHS = 128

# Epochs per group: error-operator increments made by one product, and
# epochs evaluated by one product.
GROUP_EPOCHS = 16

INIT_KINDS = ("uniform", "zeros", "keep")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    init selects how weights and bias are set before the first epoch:
    "uniform" draws from [-init_scale, init_scale] seed-deterministically,
    "zeros" clears them, "keep" trains from the model's current values.
    Adaptive mixing coefficients are never redrawn; they train from their
    current values. alpha_eta defaults to eta when omitted.
    """

    eta: float
    epochs: int
    seed: int = 0
    shuffle: bool = False
    init: str = "uniform"
    init_scale: float = 0.1
    alpha_eta: float | None = None

    def __post_init__(self):
        _check_positive("eta", self.eta)
        if not isinstance(self.shuffle, bool):
            raise InvalidConfigError(f"shuffle must be a bool, got {self.shuffle!r}")
        _check_int("epochs", self.epochs, 1)
        _check_int("seed", self.seed, 0)
        _check_choice("init", self.init, INIT_KINDS)
        _check_positive("init_scale", self.init_scale, zero=True)
        if self.alpha_eta is not None:
            _check_positive("alpha_eta", self.alpha_eta)

    @property
    def effective_alpha_eta(self) -> float:
        return self.eta if self.alpha_eta is None else self.alpha_eta


@dataclass
class TrainTrace:
    """Per-epoch history of one training run plus the final model.

    mse_linear / mse_db cover the full training set, evaluated after each
    epoch. Accuracy arrays are present for classification runs only; test_acc
    additionally needs an evaluation set.
    """

    epochs: np.ndarray
    mse_linear: np.ndarray
    mse_db: np.ndarray
    train_acc: np.ndarray | None
    test_acc: np.ndarray | None
    final_model: RbfModel | MultiHeadRbfModel


_TRACE_CSV = {"epoch": int, "mse_linear": float, "mse_db": float,
              "train_acc": _float_or_na, "test_acc": _float_or_na}


def write_trace_csv(trace: TrainTrace, path: str | os.PathLike) -> None:
    """Write the per-epoch columns as CSV; missing accuracies become NA."""
    def column(values) -> list:
        if values is None:
            return ["NA"] * len(trace.epochs)
        return np.asarray(values, dtype=np.float64).tolist()

    _write_csv(path, _TRACE_CSV, zip(map(int, trace.epochs), column(trace.mse_linear),
                                     column(trace.mse_db), column(trace.train_acc),
                                     column(trace.test_acc)))


def read_trace_csv(path: str | os.PathLike) -> dict[str, np.ndarray | None]:
    """Parse a file written by write_trace_csv back into column arrays."""
    return {key: None if None in vals else np.array(
                vals, dtype=np.int64 if key == "epoch" else np.float64)
            for key, vals in _read_csv(path, _TRACE_CSV).items()}


def _gaussian_cosine(by_kernel: np.ndarray, bank) -> tuple[np.ndarray, np.ndarray]:
    """The Gaussian and cosine blocks (kernels along axis 0) that fixed and
    adaptive fusion mix; a bank without both cannot train under them."""
    order = bank.kernel_order
    if not {"gaussian", "cosine"} <= set(order):
        raise InvalidModelError(
            f"fixed and adaptive fusion need a gaussian and a cosine kernel, not {order}")
    return by_kernel[order.index("gaussian")], by_kernel[order.index("cosine")]


def _guard(e: float, epoch: int, sample: int) -> None:
    if not (abs(e) <= DIVERGENCE_LIMIT):
        raise DivergenceError(epoch, sample, e)


def _first_failure(failed: list[DivergenceError], order) -> DivergenceError:
    """The divergence of heads trained one after another over one order: the
    failure first in that order, valued as the largest-magnitude error of the
    heads failing there (every other head's error there is within the limit)."""
    order = list(order)
    first = min(failed, key=lambda exc: order.index(exc.sample - 1))
    errors = np.array([exc.error_value for exc in failed if exc.sample == first.sample])
    return DivergenceError(first.epoch, first.sample,
                           float(errors[np.argmax(np.abs(errors))]))


def _linear_blocks(W: np.ndarray | None, DS: np.ndarray, Drows: np.ndarray, order,
                   eta: float, width: int, epoch: int | None,
                   out: np.ndarray | None = None) -> None:
    """Present the design rows DS[order] (targets Drows[order]) in blocks of
    width samples, updating W (heads as rows) in place as one sgd_step per
    row and head would, up to rounding; out[order], when given, receives the
    errors (samples as rows, heads as columns). W None, unchecked only,
    starts from zero rows and keeps nothing but out: the first block's
    residuals are its targets, and the last block's update is skipped.

    From W, a block of rows A makes errors E that solve the unit
    lower-triangular system (I + eta * tril(A A^T, -1)) E = D - A W^T
    exactly: error i is row i's residual minus eta * (A A^T)[i, j] * E[j] for
    every earlier row j, the move that row j's update made in row i's output.
    Width 1 needs no solve: that is sgd_step's arithmetic. Wider blocks need
    stable steps (eta * ||row||^2 <= 2 for every row), which bound every
    entry of the inverse by 2; otherwise its entries grow with the errors and
    a solve cancels digits (1e-7 relative at eta * ||row||^2 = 5).

    epoch labels the check of each block's errors; None skips it. A block
    failing it replays from its starting W with width 1, which raises at the
    first failing sample: a pivoted solve can spoil the errors before a
    divergence, sequential steps cannot.
    """
    keep = W is not None
    for lo in range(0, len(order), width):
        idx = order[lo:lo + width]
        A = DS[idx]
        E = Drows[idx] if W is None else Drows[idx] - A @ W.T
        if width > 1:
            T = np.tril(A @ A.T, -1)
            T *= eta
            np.fill_diagonal(T, 1.0)
            E = np.linalg.solve(T, E)
        if epoch is not None and not (np.abs(E).max() <= DIVERGENCE_LIMIT):
            if width == 1:
                raise DivergenceError(epoch, int(idx[0]) + 1,
                                      float(E[0, np.argmax(np.abs(E[0]))]))
            _linear_blocks(W, DS, Drows, idx, eta, 1, epoch, out)
            continue
        if out is not None:
            out[idx] = E
        if keep or lo + width < len(order):
            step = (eta * E).T @ A
            W = step if W is None else np.add(W, step, out=W)


def _increments(U: np.ndarray, M: np.ndarray,
                M_group: Callable[[], np.ndarray]) -> Generator[None, np.ndarray, None]:
    """Primed by next(), writes the next len(out) of U, U M, U M^2, ... (the
    increments, or the errors when M is N) into each buffer out sent to it.
    Each group of GROUP_EPOCHS after the first is the one before it times
    M_group() = M^GROUP_EPOCHS, made when its first value is due, whatever
    the buffers' lengths."""
    G = np.empty((GROUP_EPOCHS, *U.shape))
    G[0] = U
    for j in range(1, GROUP_EPOCHS):
        np.matmul(G[j - 1], M, out=G[j])
    j = 0
    while True:
        out = yield
        i = 0
        while i < len(out):
            if j == GROUP_EPOCHS:
                G, j = np.matmul(G.reshape(-1, len(M)), M_group()).reshape(G.shape), 0
            m = min(len(out) - i, GROUP_EPOCHS - j)
            out[i:i + m] = G[j:j + m]
            i, j = i + m, j + m


def _gram_block(P2: np.ndarray, Dmat: np.ndarray, idx: np.ndarray,
                A: np.ndarray | None = None) -> tuple:
    """One presentation block of the adaptive loop, for the samples idx.

    P2[s] holds sample s's Gaussian and cosine rows. Returns idx, the block's
    stacked rows Z (rows 2i, 2i + 1 are sample i's Gaussian and cosine rows),
    A = [Z Z^T | r] with a spare last column r for a head's projections Z w
    and two zero rows more, one step per sample and each head's targets.
    A, when given, is the A of an earlier block of as many samples, rewritten
    in place: its two last rows are still zero, and r is rewritten by every
    head before it is read.
    Step i is (2i, rows 2i..2i + 3 of A or None, the Gram entries
    A[2i:2i + 2, 2i - 2:2i] that couple sample i to sample i - 1's
    increments). Only even samples hold rows, and not when samples i - 1, i
    and i + 1 (i - 1 and i at the block's end) have bit-equal rows. Sample 0
    always holds them, so its entries are never read.
    """
    n = len(idx)
    cols = 2 * n + 1
    R = P2[idx]
    Z = R.reshape(2 * n, -1)
    if A is None:
        A = np.zeros((cols + 1, cols))
    np.matmul(Z, Z.T, out=A[:-2, :-1])
    # the entries A[2i:2i + 2, 2i - 2:2i], by their offsets in A: entry
    # (2i, 2i) lies 2i (cols + 1) into it
    C = A.take(2 * (cols + 1) * np.arange(n)[:, None] + [-2, -1, cols - 2, cols - 1])
    # same[s]: sample s repeats sample s - 1's row (and a sample past the
    # end repeats any)
    same = [False, *(R[1:] == R[:-1]).all(axis=(1, 2)).tolist(), True]
    rows = [None if i % 2 or same[i] and same[i + 1] else A[2 * i:2 * i + 4] for i in range(n)]
    return idx, Z, A, list(zip(range(0, 2 * n, 2), rows, *C.T.tolist())), Dmat[:, idx].tolist()


def _replay(heads: list, Phi: np.ndarray, Dmat: np.ndarray, cfg: TrainConfig,
            rows: np.ndarray, alphas: np.ndarray, epochs: int) -> DivergenceError | None:
    """The divergence of epochs 1..epochs of fit as sgd_step steps them:
    copies of rows and alphas train by sgd_step's arithmetic on fit's design
    Phi, each epoch in the order fit drew from its shuffle stream. Returns
    the first failure (None if none)."""
    bank, mode = heads[0].bank, heads[0].mode
    # kernel_matrix's columns are kernel_vector's, bit for bit
    Phi = np.ascontiguousarray(Phi.T)
    rows, alphas = rows.copy(), alphas.copy()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
    for t in range(1, epochs + 1):
        order = rng.permutation(len(Phi)) if cfg.shuffle else range(len(Phi))
        failed: list[DivergenceError] = []
        for row, alpha, d in zip(rows, alphas, Dmat.tolist()):
            try:
                for s in order:
                    _step(row, alpha, Phi[s], d[s], cfg.eta, cfg.effective_alpha_eta,
                          bank, mode, t, int(s) + 1)
            except DivergenceError as exc:
                failed.append(exc)
        if failed:
            return _first_failure(failed, order)
    return None


def _step(row: np.ndarray, alpha: np.ndarray, phi: np.ndarray, d: float, eta: float,
          a_eta: float, bank, mode, epoch: int, sample: int) -> float:
    """sgd_step's update of one head's row of model._params and its
    coefficients alpha (both in place) by the kernel vector phi; returns e."""
    g = phi
    if not isinstance(mode, CoFusion):
        pg, pc = _gaussian_cosine(phi[1:].reshape(bank.n_kernels, bank.n_centers), bank)
        ag, ac = alpha.tolist()
        g = np.concatenate(([1.0], ag * pg + ac * pc))
    adaptive = isinstance(mode, AdaptiveFusion)
    if adaptive:
        w = row[1:]
        sg, sc = float(np.dot(w, pg)), float(np.dot(w, pc))
        y = ag * sg + ac * sc + float(row[0])
    else:
        y = float(np.dot(row, g))
    e = float(d) - y
    _guard(e, epoch, sample)
    row += (eta * e) * g
    if adaptive:
        # coefficient moves use the pre-update weights
        alpha[:] = ag + a_eta * e * sg, ac + a_eta * e * sc
    return e


def sgd_step(model: RbfModel, x: np.ndarray, d: float, eta: float,
             alpha_eta: float | None = None, epoch: int = 0, sample: int = 0) -> float:
    """One per-sample update, in place; returns the pre-update error e.

    Ordering: output first, then e = d - output, then every parameter
    increment computed from pre-update values. Every mode moves its row of
    model._params, [b, weights], by eta*e times its design row: the kernel
    vector under CoFusion, so each (center, kernel) weight moves by its own
    response, and [1, mixed responses] under Fixed/Adaptive. Adaptive
    additionally moves the two mixing coefficients by alpha_eta*e times the
    corresponding unmixed response sums. epoch and sample only label a
    DivergenceError; fit's engines are checked against this step. A
    MultiHeadRbfModel is refused (InvalidModelError): fit trains its heads.
    """
    if not isinstance(model, RbfModel):
        raise InvalidModelError(f"sgd_step updates one RbfModel, not a {type(model).__name__}")
    _check_positive("eta", eta)
    a_eta = eta if alpha_eta is None else alpha_eta
    _check_positive("alpha_eta", a_eta)
    rows, alphas = _params([model])
    e = _step(rows[0], alphas[0], kernel_vector(x, model.bank), d, eta, a_eta,
              model.bank, model.mode, epoch, sample)
    _set_params([model], rows, alphas)
    return e


def _targets_matrix(model, D) -> tuple[np.ndarray, np.ndarray | None]:
    """Normalize targets to a (C, S) matrix; returns (targets, labels or None)."""
    if isinstance(model, MultiHeadRbfModel) and np.ndim(D) == 1:
        labels = _check_labels("labels", D, model.n_classes)
        return (np.arange(model.n_classes)[:, None] == labels).astype(np.float64), labels
    D = np.asarray(D, dtype=np.float64)
    if isinstance(model, MultiHeadRbfModel):
        C = model.n_classes
        if D.shape[0] != C:
            raise DimensionMismatchError("target rows vs heads", C, D.shape[0])
        return D, None
    if D.ndim != 1:
        raise DimensionMismatchError("regression targets", 1, D.ndim)
    return D[np.newaxis, :], None


def _draw_init(rng: np.random.Generator, cfg: TrainConfig, n: int) -> np.ndarray:
    if cfg.init == "uniform":
        return rng.uniform(-cfg.init_scale, cfg.init_scale, size=n)
    return np.zeros(n, dtype=np.float64)


def fit(model: RbfModel | MultiHeadRbfModel, X: np.ndarray, D,
        cfg: TrainConfig, eval_set=None) -> TrainTrace:
    """Train in place for cfg.epochs passes over X (shape (a, S)).

    D is a real target vector (S,) for a single-output model; for a multi-head
    model it is either an integer label vector (S,) (one-hot targets are built
    internally, coding {0, 1}) or an explicit (C, S) target matrix. eval_set,
    a (X_test, labels_test) pair, enables the per-epoch test-accuracy column
    and is meaningful for classification runs only.

    Deterministic given (cfg.seed, inputs): initialization and the optional
    per-epoch shuffle each draw from their own seed-derived stream. Divergence
    (|e| > 1e12 or non-finite) raises DivergenceError at the first presented
    sample that fails, with the 1-based epoch and the 1-based training-set
    index (column of X) of that sample; for several heads the error value is
    the failing sample's error of largest magnitude. The model then holds the
    parameters of the last completed epoch; a failure in epoch 1 leaves it as
    it was. An adaptive failure in epoch t is reported as sgd_step's replay
    of epochs 1..t reports it when the replay fails in epoch t too.
    Fixed and adaptive fusion need a Gaussian and a cosine kernel
    (InvalidModelError); co does not. Heads of different fusion modes are
    refused (InvalidModelError).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError("training samples", 2, X.ndim)
    S = X.shape[1]
    if S == 0:
        raise EmptyInputError("fit needs at least one training sample")
    heads = model.heads if isinstance(model, MultiHeadRbfModel) else [model]
    H, bank, mode = len(heads), heads[0].bank, heads[0].mode
    if any(type(h.mode) is not type(mode) for h in heads):
        raise InvalidModelError("all heads must use the same fusion mode")
    co, adaptive = isinstance(mode, CoFusion), isinstance(mode, AdaptiveFusion)
    rows, alphas = _params(heads)
    if isinstance(mode, FixedFusion) and np.any(alphas != alphas[0]):
        raise InvalidModelError("fixed-fusion heads must share coefficients")
    Dmat, labels = _targets_matrix(model, D)
    if Dmat.shape[1] != S:
        raise DimensionMismatchError("targets vs samples", S, Dmat.shape[1])

    classification = isinstance(model, MultiHeadRbfModel)
    K, L = bank.n_centers, bank.n_kernels
    Phi = kernel_matrix(X, bank)
    Drows = np.ascontiguousarray(Dmat.T)

    eval_phi = eval_labels = None
    if eval_set is not None and classification:
        X_eval, d_eval = eval_set
        eval_phi = kernel_matrix(np.asarray(X_eval, dtype=np.float64), bank)
        eval_labels = _check_labels("labels", d_eval, model.n_classes)
        if len(eval_labels) != eval_phi.shape[1]:
            raise DimensionMismatchError("eval labels vs samples", eval_phi.shape[1],
                                         len(eval_labels))

    rng_init, rng_shuffle = map(np.random.default_rng,
                                np.random.SeedSequence(cfg.seed).spawn(2))

    eta, a_eta = cfg.eta, cfg.effective_alpha_eta
    truth = None if not classification else (
        labels if labels is not None else np.argmax(Dmat, axis=0))

    W = rows if cfg.init == "keep" else np.array(
        [_draw_init(rng_init, cfg, rows.shape[1]) for _ in heads])
    start = W, alphas
    if co:
        DS = np.ascontiguousarray(Phi.T)
    else:
        Pg, Pc = _gaussian_cosine(Phi[1:].reshape(L, K, S), bank)
        if not adaptive:
            DS = np.empty((S, 1 + K))
            DS[:, 0] = 1.0
            DS[:, 1:] = (mode.alpha_gaussian * Pg + mode.alpha_cosine * Pc).T
    # Rows[i + 1] and Alphas[i + 1] receive what epoch i of a chunk trains
    # from Rows[i] and Alphas[i]
    C = min(CHUNK_EPOCHS, cfg.epochs)
    Rows = np.empty((C + 1, *W.shape))
    Rows[0] = W
    Alphas = np.empty((C + 1, *alphas.shape))
    Alphas[:] = alphas
    # theta . phi of epoch e (0-based) is row block e % GROUP_EPOCHS of one
    # (GROUP_EPOCHS H, P) @ (P, S) product per group of epochs (or, iterating
    # the errors, (eta C) K of a (GROUP_EPOCHS H, S) @ (S, S) one), with zero
    # rows where a chunk starts or ends inside a group. A GEMM row's bits
    # depend on the product's shape and the row's place in it, not on the
    # other rows, so they do not depend on the chunking. The operator's group
    # length serves: 16 rows already run two to five times as fast as 16
    # one-epoch products (P from 11 to 243, one OpenBLAS thread).
    # Theta (and Coef, for eta C) and the outputs hold a chunk's groups; a
    # chunk starts inside a group only when C is not a multiple of G.
    G = GROUP_EPOCHS
    span = C if C % G == 0 else C + G - 1
    span = -(-span // G) * G
    Theta = np.zeros((span, H, len(Phi)))
    Out = np.empty((span, H, S))
    # the design of each evaluated set and its outputs
    sets = [(Phi, Out)]
    if eval_phi is not None:
        Out_eval = np.empty((span, H, eval_phi.shape[1]))
        sets.append((eval_phi, Out_eval))
    operator = errors = False
    if adaptive:
        P2 = np.stack((Pg.T, Pc.T), axis=1)
        q = np.empty(4)
        blocks = None
    else:
        # fixed and co fusion reduce to linear SGD on a precomputed design
        stable = eta * float(np.max(np.sum(DS * DS, axis=1))) <= 2.0
        width = BLOCK_SIZE if stable else 1
        operator = stable and not cfg.shuffle
        if operator:
            # a stable epoch in dataset order makes the errors F - J W^T and
            # maps its increments U to the next epoch's by U M. [F | J] is
            # built unchecked: a bad entry instead fails every chunk's check.
            # F and J work transposed, heads as rows.
            FJ = np.concatenate((Drows, DS), axis=1)
            _linear_blocks(None, DS, FJ, range(S), eta, width, None, out=FJ)
            FT, JT = (np.ascontiguousarray(B.T) for B in np.split(FJ, [H], axis=1))
            # an epoch's multiply-adds per head, U M and theta . phi against
            # E N and (eta C) K, choose between the increments and the errors.
            # M = I - eta J^T DS (or N = I - eta DS J^T) is built in place,
            # and its GROUP_EPOCHS-th power by squarings, on first use and
            # once per fit.
            errors = 2 * S * S < DS.shape[1] ** 2 + len(Phi) * S
            M = DS @ JT if errors else JT @ DS
            M *= -eta
            M.flat[::M.shape[0] + 1] += 1.0
            M_group = functools.cache(lambda: np.linalg.matrix_power(M, GROUP_EPOCHS))
            if errors:
                # Sums[i] is C before epoch i of a chunk, as Rows[i] is W
                Sums = np.empty((C + 1, H, S))
                Coef = np.zeros((span, H, S))
                theta_DS = _thetas(DS, alphas[0], bank)
                Ks = [theta_DS @ basis for basis, _ in sets]
            else:
                # by Cauchy-Schwarz |E[h, s]| <= max|F[h]| + ||W[h]|| max_s ||J[s]||
                fmax = np.abs(FT).max(axis=1)
                jmax = np.linalg.norm(JT, axis=0).max()
            restart = True

    mse_lin = np.empty(cfg.epochs)
    train_acc = np.empty(cfg.epochs) if classification else None
    test_acc = np.empty(cfg.epochs) if eval_phi is not None else None
    try:
        for t0 in range(0, cfg.epochs, C):
            # the chunk trains epochs t0 + 1 .. t0 + n; operator epochs
            # 0 .. k - 1 pass their check, epochs k .. n - 1 train one by one
            n, k = min(C, cfg.epochs - t0), 0
            if operator:
                # epochs after a failing one may overflow, and they train
                # again below
                with np.errstate(over="ignore", invalid="ignore"):
                    if restart:
                        # the errors E = F - W J^T, or the first increment
                        # (eta E) DS
                        E = FT - Rows[0] @ JT
                        if errors:
                            # the operator's rows are W_base + (eta C) DS,
                            # its outputs Y_base + (eta C) K
                            W_base = Rows[0].copy()
                            theta = _thetas(W_base, Alphas[0], bank)
                            Y_base = [theta @ basis for basis, _ in sets]
                            Sums[0] = 0.0
                        increments = _increments(E if errors else np.matmul(eta * E, DS),
                                                 M, M_group)
                        next(increments)
                    if errors:
                        increments.send(Sums[1:n + 1])
                        ok = np.abs(Sums[1:n + 1]).max(axis=(1, 2)) <= DIVERGENCE_LIMIT
                        # Sums[i + 1] = Sums[i] + E_i, epoch after epoch
                        np.cumsum(Sums[:n + 1], axis=0, out=Sums[:n + 1])
                    else:
                        increments.send(Rows[1:n + 1])
                        # Rows[i + 1] = Rows[i] + U_i, epoch after epoch
                        np.cumsum(Rows[:n + 1], axis=0, out=Rows[:n + 1])
                        bound = fmax + jmax * np.linalg.norm(Rows[:n], axis=2)
                        ok = (bound <= DIVERGENCE_LIMIT).all(axis=1)
                k = n if ok.all() else int(np.argmin(ok))
                # after blocks the next chunk takes U (or E) from its errors,
                # as a fit starting from its rows would
                restart = k < n
                if errors and (restart or t0 + n == cfg.epochs):
                    # rows are formed where they are read: from the first
                    # failing epoch on, the chunk trains by blocks and is
                    # evaluated from rows, and the fit ends on its last ones.
                    # eta C first: a one-sample epoch is sgd_step's.
                    for i in range(k + 1) if restart else (n,):
                        Rows[i] = W_base + (eta * Sums[i]) @ DS
            for i in range(k, n):
                W, alphas = Rows[i + 1], Alphas[i + 1]
                W[...], alphas[...] = Rows[i], Alphas[i]
                order = rng_shuffle.permutation(S) if cfg.shuffle else range(S)
                if not adaptive:
                    # by blocks (the failed operator epoch and the rest of its
                    # chunk too); a failing block replays sample by sample and
                    # raises at its first failing sample
                    _linear_blocks(W, DS, Drows, order, eta, width, t0 + i + 1)
                    continue
                # in dataset order every epoch presents the same blocks: build
                # them once; under shuffle each block position reuses its A
                if blocks is None:
                    blocks = [_gram_block(P2, Dmat, order[lo:lo + BLOCK_SIZE])
                              for lo in range(0, S, BLOCK_SIZE)]
                elif cfg.shuffle:
                    blocks = [_gram_block(P2, Dmat, order[lo:lo + BLOCK_SIZE], block[2])
                              for lo, block in zip(range(0, S, BLOCK_SIZE), blocks)]
                # heads share only the design, the order and the blocks: each
                # trains alone
                failed: list[DivergenceError] = []
                for c in range(len(heads)):
                    w, b, (ag, ac) = W[c, 1:], float(W[c, 0]), alphas[c].tolist()
                    try:
                        for idx, Z, A, steps, targets in blocks:
                            # w moves only by inc @ Z here: a product of rows
                            # 2i..2i + 3 of [Z Z^T | Z w] with [inc, 1] reads
                            # the projections of samples i and i + 1, and a
                            # sample without one moves the carried ones by its
                            # coupling c to sample i - 1's increments
                            A[:len(Z), -1] = Z @ w
                            inc = np.zeros(len(Z) + 1)
                            inc[-1] = 1.0
                            # a store through a memoryview costs about half a
                            # NumPy scalar setitem
                            mv = memoryview(inc)
                            for (j, Q, cgg, cgc, ccg, ccc), d in zip(steps, targets[c]):
                                if Q is None:
                                    # the move is summed first; the curves' bits depend on it
                                    sg = ng = ng + (cgg * ig + cgc * ic)
                                    sc = nc = nc + (ccg * ig + ccc * ic)
                                else:
                                    sg, sc, ng, nc = Q.dot(inc, q).tolist()
                                e = d - (ag * sg + ac * sc + b)
                                if not (abs(e) <= DIVERGENCE_LIMIT):
                                    raise DivergenceError(t0 + i + 1, int(idx[j // 2]) + 1, e)
                                step = eta * e
                                mv[j] = ig = step * ag
                                mv[j + 1] = ic = step * ac
                                b += step
                                ag += a_eta * e * sg
                                ac += a_eta * e * sc
                            w += inc[:-1] @ Z
                    except DivergenceError as exc:
                        failed.append(exc)
                    W[c, 0], alphas[c] = b, (ag, ac)
                if failed:
                    raise _first_failure(failed, order)
            # the chunk's epochs are rows lo .. hi - 1 of its groups
            done = slice(t0, t0 + n)
            lo = t0 % G
            hi = lo + n
            end = -(-hi // G) * G
            # outputs are theta . phi of the rows or, where every epoch of
            # the chunk ran on the error operator, Y_base + (eta C) K
            summed = errors and not restart
            B = Coef if summed else Theta
            B[:lo], B[hi:end] = 0.0, 0.0
            if summed:
                np.multiply(eta, Sums[1:n + 1], out=B[lo:hi])
            else:
                _thetas(Rows[1:n + 1], Alphas[1:n + 1], bank, out=B[lo:hi])
            groups = B[:end].reshape(-1, G * H, B.shape[2])
            for j, (basis, Y_set) in enumerate(sets):
                np.matmul(groups, Ks[j] if summed else basis,
                          out=Y_set[:end].reshape(len(groups), G * H, -1))
                if summed:
                    Y_set[lo:hi] += Y_base[j]
            Y = Out[lo:hi]
            if classification:
                train_acc[done] = np.mean(np.argmax(Y, axis=1) == truth, axis=1)
            if eval_phi is not None:
                preds = np.argmax(Out_eval[lo:hi], axis=1)
                test_acc[done] = np.mean(preds == eval_labels, axis=1)
            err = np.subtract(Dmat, Y, out=Y)
            # each epoch's np.add.reduce(err * err, axis=None) / err.size
            mse_lin[done] = np.add.reduce(np.multiply(err, err, out=err),
                                          axis=(1, 2)) / err[0].size
            Rows[0], Alphas[0] = Rows[n], Alphas[n]
            if errors:
                Sums[0] = Sums[n]
    except DivergenceError as exc:
        # the failing epoch started from the last completed one's rows
        if exc.epoch > 1:
            _set_params(heads, Rows[exc.epoch - 1 - t0], Alphas[exc.epoch - 1 - t0])
        if adaptive:
            # the loop's steps round otherwise than sgd_step: report its
            # failure when it fails in the same epoch
            replay = _replay(heads, Phi, Dmat, cfg, *start, exc.epoch)
            if replay is not None and replay.epoch == exc.epoch:
                raise replay from None
        raise
    _set_params(heads, Rows[0], Alphas[0])
    return TrainTrace(
        epochs=np.arange(1, cfg.epochs + 1, dtype=np.int64),
        mse_linear=mse_lin,
        mse_db=mse_db_from_linear(mse_lin),
        train_acc=train_acc,
        test_acc=test_acc,
        final_model=model.copy())


def learning_rate_bound(Phi: np.ndarray) -> float:
    """1 / lambda_max of R = (1/S) * sum of phi phi^T over the columns of Phi.

    R is symmetric positive semidefinite, so lambda_max is its largest
    eigenvalue from the dense symmetric eigensolver. Training with a learning
    rate below the returned value keeps the mean weight trajectory stable.
    """
    Phi = np.asarray(Phi, dtype=np.float64)
    if Phi.ndim != 2:
        raise DimensionMismatchError("kernel design matrix", 2, Phi.ndim)
    P, S = Phi.shape
    if P == 0 or S == 0:
        raise EmptyInputError("learning_rate_bound needs a non-empty design matrix")
    if not np.isfinite(Phi).all():
        raise InvalidConfigError("learning_rate_bound needs a finite design matrix")
    R = (Phi @ Phi.T) / S
    if not np.any(R):
        raise EmptyInputError("kernel responses are all zero; the bound is undefined")
    lam = float(np.linalg.eigvalsh(R)[-1])
    if lam <= 0:
        raise EmptyInputError("dominant eigenvalue is not positive")
    return 1.0 / lam
