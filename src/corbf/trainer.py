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
(DS the design) gives [F | J], and each epoch is two products in place,
E = F - W J^T and W += (eta E) DS, on contiguous F^T and J^T. Adaptive fusion
multiplies the weights by trainable coefficients, so it stays sample by
sample, one head after another. Its steps read the weights only through the
sample's Gaussian and cosine projections: the block's Gram matrix Z Z^T
carries the projections Z w at its starting weights as a spare column, so one
product of two of its rows with the increments made so far in the block (and
a trailing 1) gives a step's pair, and one product applies the increments at
the block's end. All of them match repeated sgd_step calls up to rounding.

fit trains rows of parameters, one per head, and loops over chunks of
CHUNK_EPOCHS epochs. Each epoch writes its rows (and adaptive coefficients)
into a chunk buffer; one stacked product theta . phi, in model._theta's
layout, then evaluates the chunk, bit for bit as one product per epoch
would. Under the operator a chunk's epochs run first and are checked once;
the first failing epoch and the rest of the chunk then train by blocks, as
every epoch does otherwise. fit writes the heads once, after the last epoch
or, on divergence, from the last completed one.

Also here: the stable learning-rate estimate 1 / lambda_max of the kernel
autocorrelation matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    EmptyInputError,
    InvalidConfigError,
    InvalidModelError,
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
    _theta,
)

DIVERGENCE_LIMIT = 1e12

# Samples per block of the linear-mode engine and of the adaptive loop. The
# B x B error system of a block is built and solved whole, and so is the
# adaptive loop's 2B x 2B Gram matrix (512 KiB), so this caps their memory:
# inverting sysid's 400-sample epoch as one block raised the benchmark's peak
# RSS by 16%, blocks of 128 by 2%.
BLOCK_SIZE = 128

# Epochs per chunk of fit: a chunk's epochs are evaluated together, by one
# stacked product, and the error-operator epochs of a chunk are checked
# together. Its buffers hold one chunk's rows, errors and outputs.
CHUNK_EPOCHS = 128

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
        if not (0 < self.eta < np.inf):
            raise InvalidConfigError(f"eta must be finite and > 0, got {self.eta}")
        for key, low in (("epochs", 1), ("seed", 0)):
            value = getattr(self, key)
            if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
                    or value < low):
                raise InvalidConfigError(f"{key} must be an integer >= {low}, got {value!r}")
        if self.init not in INIT_KINDS:
            raise InvalidConfigError(f"init must be one of {INIT_KINDS}, got {self.init!r}")
        if not (0 <= self.init_scale < np.inf):
            raise InvalidConfigError(f"init_scale must be finite and >= 0, "
                                     f"got {self.init_scale}")
        if self.alpha_eta is not None and not (0 < self.alpha_eta < np.inf):
            raise InvalidConfigError(f"alpha_eta must be finite and > 0, got {self.alpha_eta}")

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


def _linear_blocks(W: np.ndarray, DS: np.ndarray, Drows: np.ndarray, order, eta: float,
                   width: int, epoch: int | None, out: np.ndarray | None = None) -> None:
    """Present the design rows DS[order] (targets Drows[order]) in blocks of
    width samples, updating W (heads as rows) in place as one sgd_step per
    row and head would, up to rounding; out[order], when given, receives the
    errors (samples as rows, heads as columns).

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
    for lo in range(0, len(order), width):
        idx = order[lo:lo + width]
        A = DS[idx]
        E = Drows[idx] - A @ W.T
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
        W += (eta * E).T @ A
        if out is not None:
            out[idx] = E


def _gram_block(P2: np.ndarray, Dmat: np.ndarray, idx: np.ndarray) -> tuple:
    """One presentation block of the adaptive loop, for the samples idx.

    P2[s] holds sample s's Gaussian and cosine rows. Returns idx, the block's
    stacked rows Z (row 2i is sample i's Gaussian row, 2i + 1 its cosine row),
    A = [Z Z^T | r], its Gram matrix with one spare last column r, the rows
    of A in pairs (one (2, 2n + 1) view per sample) and the targets as lists,
    one per head. The loop writes a head's projections Z w into r; then for
    the block's increments so far followed by 1.0, each pair of rows of A
    gives that sample's projections in one product.
    """
    Z = P2[idx].reshape(2 * len(idx), -1)
    A = np.empty((len(Z), len(Z) + 1))
    np.matmul(Z, Z.T, out=A[:, :-1])
    return idx, Z, A, list(A.reshape(len(idx), 2, -1)), Dmat[:, idx].tolist()


def sgd_step(model: RbfModel, x: np.ndarray, d: float, eta: float,
             alpha_eta: float | None = None, epoch: int = 0, sample: int = 0) -> float:
    """One per-sample update, in place; returns the pre-update error e.

    Ordering: output first, then e = d - output, then every parameter
    increment computed from pre-update values. Under CoFusion each
    (center, kernel) weight moves by eta*e times its own response; under
    Fixed/Adaptive each center weight moves by eta*e times the mixed response;
    Adaptive additionally moves the two mixing coefficients by alpha_eta*e
    times the corresponding unmixed response sums. epoch and sample only label
    a DivergenceError; fit's engines are checked against this step.
    """
    if not (eta > 0):
        raise InvalidConfigError(f"eta must be > 0, got {eta}")
    a_eta = eta if alpha_eta is None else alpha_eta
    phi = kernel_vector(x, model.bank)
    bank = model.bank
    if isinstance(model.mode, CoFusion):
        w_full = _theta(model)
        y = float(np.dot(w_full, phi))
        e = float(d) - y
        _guard(e, epoch, sample)
        w_full += (eta * e) * phi
        model.bias = float(w_full[0])
        model.weights = w_full[1:].reshape((bank.n_kernels, bank.n_centers)).T.copy()
        return e
    pg, pc = _gaussian_cosine(phi[1:].reshape(bank.n_kernels, bank.n_centers), bank)
    ag, ac = model.mode.alpha_gaussian, model.mode.alpha_cosine
    if isinstance(model.mode, FixedFusion):
        g = np.concatenate(([1.0], ag * pg + ac * pc))
        w_full = np.concatenate(([model.bias], model.weights))
        y = float(np.dot(w_full, g))
        e = float(d) - y
        _guard(e, epoch, sample)
        w_full += (eta * e) * g
        model.bias = float(w_full[0])
        model.weights = w_full[1:].copy()
        return e
    # adaptive: weight/bias moves use pre-update coefficients, coefficient
    # moves use pre-update weights
    sg = float(np.dot(model.weights, pg))
    sc = float(np.dot(model.weights, pc))
    y = ag * sg + ac * sc + model.bias
    e = float(d) - y
    _guard(e, epoch, sample)
    model.weights = model.weights + (eta * e) * (ag * pg + ac * pc)
    model.bias = float(model.bias + eta * e)
    model.mode.alpha_gaussian = float(ag + a_eta * e * sg)
    model.mode.alpha_cosine = float(ac + a_eta * e * sc)
    return e


def _class_labels(labels, n_classes: int) -> np.ndarray:
    """Class labels as indices; each must be a whole number in [0, n_classes)."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 1:
        raise DimensionMismatchError("class labels", 1, labels.ndim)
    # NaN fails the first test, +-inf the range
    bad = (labels != np.floor(labels)) | (labels < 0) | (labels >= n_classes)
    if bad.any():
        raise InvalidConfigError(
            f"labels must be whole numbers in [0, {n_classes}), got {float(labels[bad][0])!r}")
    return labels.astype(np.int64)


def _targets_matrix(model, D) -> tuple[np.ndarray, np.ndarray | None]:
    """Normalize targets to a (C, S) matrix; returns (targets, labels or None)."""
    D = np.asarray(D, dtype=np.float64)
    if isinstance(model, MultiHeadRbfModel):
        C = model.n_classes
        if D.ndim == 1:
            labels = _class_labels(D, C)
            return (np.arange(C)[:, None] == labels).astype(np.float64), labels
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
    parameters of the last completed epoch; a failure in epoch 1 leaves it as it was.

    fit trains one row of parameters per head and writes the heads at the end.
    It loops over chunks of CHUNK_EPOCHS epochs and evaluates each chunk by
    one product. Error-operator epochs (fixed and co fusion, stable steps,
    dataset order) are checked once per chunk; the first failing one and the
    rest of its chunk train by blocks, which raise at the first failing sample.
    One scalar loop trains each adaptive head in turn over the epoch's order
    (heads share only the design, the order and each block's [Z Z^T | Z w],
    built once per fit in dataset order and once per epoch under shuffle);
    the block engine trains all fixed or co heads at once. Fixed and adaptive
    fusion need a Gaussian and a cosine kernel (InvalidModelError); co does not.
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
    # each head's mixing coefficients (Gaussian, cosine); co has none
    alphas = np.array([[] if co else [h.mode.alpha_gaussian, h.mode.alpha_cosine]
                       for h in heads], dtype=np.float64)
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
        eval_labels = _class_labels(d_eval, model.n_classes)
        if len(eval_labels) != eval_phi.shape[1]:
            raise DimensionMismatchError("eval labels vs samples", eval_phi.shape[1],
                                         len(eval_labels))

    rng_init, rng_shuffle = map(np.random.default_rng,
                                np.random.SeedSequence(cfg.seed).spawn(2))

    eta, a_eta = cfg.eta, cfg.effective_alpha_eta
    truth = None if not classification else (
        labels if labels is not None else np.argmax(Dmat, axis=0))

    # the trained rows, one per head: theta for co, [b, w] otherwise
    Q = bank.vector_len if co else 1 + K
    W = np.array([(_theta(h) if co else np.concatenate(([h.bias], h.weights)))
                  if cfg.init == "keep" else _draw_init(rng_init, cfg, Q) for h in heads])
    if co:
        DS = np.ascontiguousarray(Phi.T)
    else:
        Pg, Pc = _gaussian_cosine(Phi[1:].reshape(L, K, S), bank)
        # theta's kernel blocks, alpha_l * w, follow bank.kernel_order
        mix = [("gaussian", "cosine").index(name) for name in bank.kernel_order]
        if not adaptive:
            DS = np.empty((S, 1 + K))
            DS[:, 0] = 1.0
            DS[:, 1:] = (mode.alpha_gaussian * Pg + mode.alpha_cosine * Pc).T
    # Rows[i + 1] and Alphas[i + 1] receive what epoch i of a chunk trains
    # from Rows[i] and Alphas[i]; Out[i] its errors (operator epochs), then
    # its outputs theta . phi
    C = min(CHUNK_EPOCHS, cfg.epochs)
    Rows = np.empty((C + 1, *W.shape))
    Rows[0] = W
    Alphas = np.empty((C + 1, *alphas.shape))
    Alphas[:] = alphas
    Out = np.empty((C, H, S))
    operator = False
    if adaptive:
        P2 = np.stack((Pg.T, Pc.T), axis=1)
        q = np.empty(2)
        blocks = None
    else:
        # fixed and co fusion reduce to linear SGD on a precomputed design
        stable = eta * float(np.max(np.sum(DS * DS, axis=1))) <= 2.0
        width = BLOCK_SIZE if stable else 1
        operator = stable and not cfg.shuffle
        if operator:
            # a stable epoch in dataset order makes the errors F - J W^T.
            # [F | J] is built unchecked: a bad entry instead fails each
            # epoch's check of F - J W^T. The epoch works on F^T and J^T,
            # heads as rows.
            FJ = np.concatenate((Drows, DS), axis=1)
            _linear_blocks(np.zeros((FJ.shape[1], DS.shape[1])), DS, FJ, range(S), eta,
                           width, None, out=FJ)
            FT, JT = (np.ascontiguousarray(M.T) for M in np.split(FJ, [H], axis=1))
            G, U = np.empty((H, S)), np.empty(W.shape)

    def write_heads(W: np.ndarray, alphas: np.ndarray) -> None:
        for c, h in enumerate(heads):
            h.bias = float(W[c, 0])
            h.weights = W[c, 1:].reshape((L, K)).T.copy() if co else W[c, 1:].copy()
            if adaptive:
                h.mode.alpha_gaussian, h.mode.alpha_cosine = alphas[c].tolist()

    mse_lin = np.empty(cfg.epochs)
    train_acc = np.empty(cfg.epochs) if classification else None
    test_acc = np.empty(cfg.epochs) if eval_phi is not None else None
    try:
        for t0 in range(0, cfg.epochs, C):
            # the chunk trains epochs t0 + 1 .. t0 + n; operator epochs
            # 0 .. k - 1 pass their check, epochs k .. n - 1 train one by one
            n, k = min(C, cfg.epochs - t0), 0
            if operator:
                # each epoch E = F - W J^T and W += (eta E) DS; epochs after a
                # failing one may overflow, and they train again below
                with np.errstate(over="ignore", invalid="ignore"):
                    for i in range(n):
                        E = Out[i]
                        np.matmul(Rows[i], JT, out=E)
                        np.subtract(FT, E, out=E)
                        np.matmul(np.multiply(E, eta, out=G), DS, out=U)
                        np.add(Rows[i], U, out=Rows[i + 1])
                E = np.abs(Out[:n], out=Out[:n])
                ok = E.reshape(n, -1).max(axis=1) <= DIVERGENCE_LIMIT
                k = n if ok.all() else int(np.argmin(ok))
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
                # in dataset order every epoch presents the same blocks: build them once
                if blocks is None or cfg.shuffle:
                    blocks = [_gram_block(P2, Dmat, order[lo:lo + BLOCK_SIZE])
                              for lo in range(0, S, BLOCK_SIZE)]
                # heads share only the design, the order and the blocks: each
                # trains alone
                failed: list[DivergenceError] = []
                for c in range(len(heads)):
                    w, b, (ag, ac) = W[c, 1:], float(W[c, 0]), alphas[c].tolist()
                    try:
                        for idx, Z, A, A_rows, targets in blocks:
                            # w moves only by inc @ Z here, so sample i's projections
                            # are rows 2i, 2i + 1 of [Z Z^T | Z w] times [inc, 1]
                            A[:, -1] = Z @ w
                            inc = np.zeros(len(Z) + 1)
                            inc[-1] = 1.0
                            for j, A_j, d in zip(range(0, len(Z), 2), A_rows, targets[c]):
                                sg, sc = A_j.dot(inc, q).tolist()
                                e = d - (ag * sg + ac * sc + b)
                                if not (abs(e) <= DIVERGENCE_LIMIT):
                                    raise DivergenceError(t0 + i + 1, int(idx[j // 2]) + 1, e)
                                step = eta * e
                                inc[j] = step * ag
                                inc[j + 1] = step * ac
                                b += step
                                ag += a_eta * e * sg
                                ac += a_eta * e * sc
                            w += inc[:-1] @ Z
                    except DivergenceError as exc:
                        failed.append(exc)
                    W[c, 0], alphas[c] = b, (ag, ac)
                if failed:
                    raise _first_failure(failed, order)
            # theta . phi of all of the chunk's epochs, in model._theta's
            # layout, by one stacked product
            done = slice(t0, t0 + n)
            W, alphas = Rows[1:n + 1], Alphas[1:n + 1]
            Theta = W if co else np.concatenate(
                (W[..., :1], (alphas[..., mix, None] * W[..., None, 1:]).reshape(n, H, -1)),
                axis=2)
            Y = np.matmul(Theta, Phi, out=Out[:n])
            if classification:
                train_acc[done] = np.mean(np.argmax(Y, axis=1) == truth, axis=1)
            if eval_phi is not None:
                preds = np.argmax(np.matmul(Theta, eval_phi), axis=1)
                test_acc[done] = np.mean(preds == eval_labels, axis=1)
            err = np.subtract(Dmat, Y, out=Y)
            # each epoch's np.add.reduce(err * err, axis=None) / err.size
            mse_lin[done] = np.add.reduce(np.multiply(err, err, out=err),
                                          axis=(1, 2)) / err[0].size
            Rows[0], Alphas[0] = Rows[n], Alphas[n]
    except DivergenceError as exc:
        # the failing epoch started from the last completed one's rows
        if exc.epoch > 1:
            write_heads(Rows[exc.epoch - 1 - t0], Alphas[exc.epoch - 1 - t0])
        raise
    write_heads(Rows[0], Alphas[0])
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
    R = (Phi @ Phi.T) / S
    if not np.any(R):
        raise EmptyInputError("kernel responses are all zero; the bound is undefined")
    lam = float(np.linalg.eigvalsh(R)[-1])
    if lam <= 0:
        raise EmptyInputError("dominant eigenvalue is not positive")
    return 1.0 / lam
