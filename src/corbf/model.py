"""Network state and forward passes for the three fusion architectures.

An RbfModel couples a KernelBank with one of three fusion modes:

* FixedFusion: one weight per center; kernel responses are mixed by frozen
  convex coefficients.
* AdaptiveFusion: same shape, but the global mixing coefficients are trained.
* CoFusion: one weight per center per kernel, so each center mixes the
  kernels with its own local ratio.

The module also hosts the four-center diagnostic geometry on which single
kernels and global mixing produce exactly zero class separation while local
per-center weights do not, plus versioned JSON (de)serialization.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataFormatError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidConfigError,
    InvalidModelError,
    PartitionError,
    _check_number,
)
from .kernels import (
    CosineParams,
    GaussianParams,
    KernelBank,
    kernel_matrix,
    kernel_vector,
)

MODEL_FORMAT = "corbf-model/1"
MULTIHEAD_FORMAT = "corbf-multihead/1"


@dataclass(frozen=True)
class FixedFusion:
    """Frozen convex mix of the kernel responses (coefficients sum to 1)."""

    alpha_gaussian: float = 0.5
    alpha_cosine: float = 0.5

    def __post_init__(self):
        for name in ("alpha_gaussian", "alpha_cosine"):
            a = _check_number(f"FixedFusion {name}", getattr(self, name))
            if not (0.0 <= a <= 1.0):
                raise InvalidConfigError(f"FixedFusion {name} must be in [0, 1], got {a}")
        s = self.alpha_gaussian + self.alpha_cosine
        if abs(s - 1.0) > 1e-12:
            raise InvalidConfigError(f"FixedFusion coefficients must sum to 1, got {s!r}")


@dataclass
class AdaptiveFusion:
    """Global kernel mixing coefficients, updated during training.

    After initialization the coefficients are unconstrained; only the trainer
    mutates them.
    """

    alpha_gaussian: float = 0.5
    alpha_cosine: float = 0.5

    def __post_init__(self):
        for name in ("alpha_gaussian", "alpha_cosine"):
            _check_number(f"AdaptiveFusion {name}", getattr(self, name))


@dataclass(frozen=True)
class CoFusion:
    """Per-center, per-kernel weights; no shared coefficients to store."""


FusionMode = FixedFusion | AdaptiveFusion | CoFusion


@dataclass
class RbfModel:
    """Learnable state: kernel bank, fusion mode, weights, bias.

    weights has shape (K,) under Fixed/Adaptive fusion (one weight per center)
    and (K, L) under CoFusion (one weight per center per kernel, column l for
    bank.kernel_order[l]). The model is a plain value object: forward passes
    never mutate it, only the trainer writes to it.
    """

    bank: KernelBank
    mode: FusionMode
    weights: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        K, L = self.bank.n_centers, self.bank.n_kernels
        if not isinstance(self.mode, (FixedFusion, AdaptiveFusion, CoFusion)):
            raise InvalidModelError(f"unknown fusion mode {self.mode!r}")
        shape = (K, L) if isinstance(self.mode, CoFusion) else (K,)
        if weights.shape != shape:
            raise InvalidModelError(f"{type(self.mode).__name__} weights must have shape "
                                    f"{shape}, got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise InvalidModelError("weights contain non-finite values")
        try:
            self.bias = _check_number("bias", self.bias)
        except InvalidConfigError as exc:
            raise InvalidModelError(str(exc)) from None
        self.weights = weights

    def copy(self) -> "RbfModel":
        mode = self.mode
        if isinstance(mode, AdaptiveFusion):
            mode = AdaptiveFusion(mode.alpha_gaussian, mode.alpha_cosine)
        return RbfModel(self.bank, mode, self.weights.copy(), self.bias)


def _params(heads: list[RbfModel]) -> tuple[np.ndarray, np.ndarray]:
    """Rows [b, vec(weights^T)], one per head (theta under CoFusion, [b, w]
    otherwise), and alphas, each head's (Gaussian, cosine) coefficients,
    shape (H, 0) under CoFusion."""
    rows = np.array([np.concatenate(([h.bias], h.weights.T.ravel())) for h in heads])
    return rows, np.array([[] if isinstance(h.mode, CoFusion) else
                           [h.mode.alpha_gaussian, h.mode.alpha_cosine] for h in heads])


def _set_params(heads: list[RbfModel], rows: np.ndarray, alphas: np.ndarray) -> None:
    """Write rows and alphas of _params' layout into the heads (coefficients
    into adaptive heads only)."""
    for h, row, alpha in zip(heads, rows, alphas):
        h.bias, h.weights = float(row[0]), row[1:].reshape(h.weights.T.shape).T.copy()
        if isinstance(h.mode, AdaptiveFusion):
            h.mode.alpha_gaussian, h.mode.alpha_cosine = alpha.tolist()


def _thetas(rows: np.ndarray, alphas: np.ndarray, bank: KernelBank,
            out: np.ndarray | None = None) -> np.ndarray:
    """theta = [b, vec(W)] in kernel_vector's layout, output = theta . phi, for
    rows and alphas of _params' layout with any leading axes. W is the (K, L)
    matrix of per-center, per-kernel weights: the rows hold it under CoFusion,
    and fixed and adaptive fusion are its rank-one case W = w alpha^T, whose
    column l is alpha_l * w. out, when given, receives theta (and is
    returned); otherwise co rows are returned as they are."""
    if alphas.shape[-1] == 0:
        if out is None:
            return rows
        out[...] = rows
        return out
    mix = [("gaussian", "cosine").index(name) for name in bank.kernel_order]
    if out is None:
        out = np.empty((*rows.shape[:-1], 1 + len(mix) * (rows.shape[-1] - 1)))
    out[..., 0] = rows[..., 0]
    # out[..., 1:] split into (L, K) is a view of out
    np.multiply(alphas[..., mix, None], rows[..., None, 1:],
                out=out[..., 1:].reshape(*rows.shape[:-1], len(mix), -1))
    return out


def _outputs(heads: list[RbfModel], Phi: np.ndarray) -> np.ndarray:
    """theta . phi for every head (rows) and every column of Phi (columns).

    A BLAS product sums a column in an order that depends on how many columns
    it is given, so the products are summed along the samples-as-rows layout
    instead: column j equals the one-column call bit for bit. Heads may mix
    fusion modes, so each builds its own theta.
    """
    Theta = np.concatenate([_thetas(*_params([h]), h.bank) for h in heads])
    return np.sum(Theta[:, np.newaxis, :] * np.ascontiguousarray(Phi.T), axis=2)


def forward(model: RbfModel, x: np.ndarray) -> float:
    """Network output for one sample."""
    return float(_outputs([model], kernel_vector(x, model.bank)[:, np.newaxis])[0, 0])


def forward_batch(model: RbfModel, X: np.ndarray) -> np.ndarray:
    """Column-wise forward over X (shape (a, S)); entry j equals forward on column j."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError("forward_batch samples", 2, X.ndim)
    return _outputs([model], kernel_matrix(X, model.bank))[0]


def multiclass_decision(outputs: np.ndarray) -> int:
    """Index of the largest output; ties go to the lowest index."""
    outputs = np.atleast_1d(np.asarray(outputs, dtype=np.float64))
    if outputs.size == 0:
        raise EmptyInputError("multiclass_decision needs at least one output")
    return int(np.argmax(outputs))


@dataclass
class MultiHeadRbfModel:
    """One output head per class, all sharing a single kernel bank.

    Heads are trained against one-hot targets; predicted class is the argmax
    head output with lowest-index tie-break. Heads may use different fusion
    modes: such a model evaluates, saves and loads, but fit trains one mode
    at a time and raises InvalidModelError for it. class_labels names the
    heads: distinct strs, one per head ("0", "1", ... when left empty).
    """

    heads: list[RbfModel]
    class_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.heads:
            raise InvalidModelError("MultiHeadRbfModel needs at least one head")
        bank = self.heads[0].bank
        for i, h in enumerate(self.heads[1:], start=1):
            if h.bank is not bank:
                raise InvalidModelError(f"head {i} does not share the common kernel bank")
        adaptive = [h.mode for h in self.heads if isinstance(h.mode, AdaptiveFusion)]
        if len({id(m) for m in adaptive}) != len(adaptive):
            raise InvalidModelError(
                "heads with adaptive fusion must each own a distinct mode instance"
            )
        labels = self.class_labels
        if isinstance(labels, (list, tuple)) and not labels:
            labels = tuple(str(i) for i in range(len(self.heads)))
        if not (isinstance(labels, (list, tuple)) and len(labels) == len(self.heads)
                and all(isinstance(s, str) for s in labels) and len(set(labels)) == len(labels)):
            raise InvalidModelError(f"class_labels must be a list or tuple of {len(self.heads)} "
                                    f"distinct str, one per head, got {labels!r}")
        self.class_labels = tuple(labels)

    @property
    def bank(self) -> KernelBank:
        return self.heads[0].bank

    @property
    def n_classes(self) -> int:
        return len(self.heads)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """All head outputs for one sample, shape (C,)."""
        return _outputs(self.heads, kernel_vector(x, self.bank)[:, np.newaxis])[:, 0]

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        """Head outputs for every column of X, shape (C, S)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise DimensionMismatchError("forward_batch samples", 2, X.ndim)
        return _outputs(self.heads, kernel_matrix(X, self.bank))

    def decide_batch(self, X: np.ndarray) -> np.ndarray:
        # argmax returns the first maximum: ties go to the lowest index
        return np.argmax(self.forward_batch(X), axis=0)

    def copy(self) -> "MultiHeadRbfModel":
        # RbfModel.copy keeps the bank object, so head copies still share it
        return MultiHeadRbfModel([h.copy() for h in self.heads], self.class_labels)


def center_contributions(model: RbfModel, x: np.ndarray) -> np.ndarray:
    """Per-center share of the output (bias excluded), shape (K,).

    Center k contributes its row of W times its responses, summed over
    kernels: the local weighted sum under CoFusion, w_k times the mixed
    response under Fixed/Adaptive fusion (W = w alpha^T). Contributions sum
    to forward(model, x) - bias.
    """
    phi = kernel_vector(x, model.bank)
    terms = _thetas(*_params([model]), model.bank)[0, 1:] * phi[1:]
    return terms.reshape(model.bank.n_kernels, model.bank.n_centers).sum(axis=0)


def discriminative_power(model: RbfModel, x: np.ndarray,
                         class_partition: tuple) -> float:
    """Class-A minus class-B response mass at x, bias excluded.

    class_partition is a pair of disjoint center-index collections that
    together cover every center of the bank. The result is the sum of
    per-center contributions over the first set minus the sum over the second;
    a value of zero means the model cannot separate the two classes at x
    beyond its bias.
    """
    set_a, set_b = class_partition
    idx_a = sorted(int(i) for i in set_a)
    idx_b = sorted(int(i) for i in set_b)
    K = model.bank.n_centers
    if set(idx_a) & set(idx_b):
        raise PartitionError(f"center partitions overlap: {sorted(set(idx_a) & set(idx_b))}")
    if set(idx_a) | set(idx_b) != set(range(K)):
        raise PartitionError(
            f"partition must cover all {K} centers, got {sorted(set(idx_a) | set(idx_b))}"
        )
    contrib = center_contributions(model, x)
    return float(np.sum(contrib[idx_a]) - np.sum(contrib[idx_b]))


# Geometry constant solved offline: with the pair offsets below, this vertical
# offset makes the two classes' cosine-kernel sums at the test point equal to
# the last bit (gap 0.0 in double precision).
_SCENARIO_V2 = 0.5826502786886404


@dataclass(frozen=True)
class Scenario4Center:
    """Two centers per class plus a test point, rigged so single kernels fail.

    The geometry satisfies, at the test point: equal cross distances
    (d(c1_a) = d(c2_b) and d(c2_a) = d(c1_b)), strictly ordered angles
    (a(c1_a) > a(c1_b) > a(c2_b) > a(c2_a)), and equal class-wise cosine
    response sums. verify() gates all four conditions before the geometry is
    used in any claim.
    """

    center1_a: np.ndarray
    center2_a: np.ndarray
    center1_b: np.ndarray
    center2_b: np.ndarray
    test_point: np.ndarray

    def __post_init__(self):
        for name in ("center1_a", "center2_a", "center1_b", "center2_b", "test_point"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.shape != (2,):
                raise InvalidConfigError(f"{name} must be a 2-vector, got shape {v.shape}")
            object.__setattr__(self, name, v)

    @classmethod
    def default(cls) -> "Scenario4Center":
        t = np.array([6.0, 8.0])
        o1 = np.array([-1.5, 0.5])
        o2 = np.array([0.9, _SCENARIO_V2])
        return cls(
            center1_a=t - o1,
            center2_a=t - o2,
            center1_b=t - np.array([-o2[0], o2[1]]),
            center2_b=t - np.array([-o1[0], o1[1]]),
            test_point=t,
        )

    def centers(self) -> np.ndarray:
        """Center matrix (2, 4), columns in order c1_a, c2_a, c1_b, c2_b."""
        return np.stack(
            [self.center1_a, self.center2_a, self.center1_b, self.center2_b], axis=1
        )

    def partition(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Center-index sets (class A, class B) matching centers() order."""
        return (0, 1), (2, 3)

    def residuals(self, cosine: CosineParams = CosineParams()) -> dict[str, float]:
        """Signed violations of the four geometric conditions (0 is perfect)."""
        t = self.test_point

        def dist(c):
            return float(np.linalg.norm(t - c))

        def angle(c):
            denom = float(np.linalg.norm(t)) * float(np.linalg.norm(c))
            return float(np.arccos(np.clip(np.dot(t, c) / denom, -1.0, 1.0)))

        a1a, a2a = angle(self.center1_a), angle(self.center2_a)
        a1b, a2b = angle(self.center1_b), angle(self.center2_b)
        # cosine responses of c1_a, c2_a, c1_b, c2_b at the test point
        r = kernel_vector(t, KernelBank(self.centers(), cosine=cosine,
                                        kernel_order=("cosine",))).tolist()[1:]
        return {
            "dist_gap_1": dist(self.center1_a) - dist(self.center2_b),
            "dist_gap_2": dist(self.center2_a) - dist(self.center1_b),
            "angle_margin_1": a1a - a1b,
            "angle_margin_2": a1b - a2b,
            "angle_margin_3": a2b - a2a,
            "cosine_sum_gap": (r[0] + r[1]) - (r[2] + r[3]),
        }

    def verify(self, atol: float = 1e-9, cosine: CosineParams = CosineParams()) -> None:
        """Raise InvalidConfigError unless all four conditions hold within atol."""
        r = self.residuals(cosine)
        if abs(r["dist_gap_1"]) > atol or abs(r["dist_gap_2"]) > atol:
            raise InvalidConfigError(
                f"cross distances differ: {r['dist_gap_1']!r}, {r['dist_gap_2']!r}"
            )
        for key in ("angle_margin_1", "angle_margin_2", "angle_margin_3"):
            if not (r[key] > 0):
                raise InvalidConfigError(f"angle ordering violated at {key}: {r[key]!r}")
        if abs(r["cosine_sum_gap"]) > atol:
            raise InvalidConfigError(f"cosine sums differ: {r['cosine_sum_gap']!r}")


def _mode_to_dict(mode: FusionMode) -> dict:
    if isinstance(mode, CoFusion):
        return {"kind": "co"}
    return {"kind": "fixed" if isinstance(mode, FixedFusion) else "adaptive",
            "alpha_gaussian": mode.alpha_gaussian, "alpha_cosine": mode.alpha_cosine}


def _mode_from_dict(d: dict) -> FusionMode:
    kind = d.get("kind")
    if kind == "co":
        return CoFusion()
    if kind in ("fixed", "adaptive"):
        mode = FixedFusion if kind == "fixed" else AdaptiveFusion
        return mode(d["alpha_gaussian"], d["alpha_cosine"])
    raise ValueError(f"unknown fusion kind {kind!r}")


def _bank_to_dict(bank: KernelBank) -> dict:
    return {
        "centers": bank.centers.tolist(),
        "sigma": bank.gaussian.sigma,
        "epsilon": bank.cosine.epsilon,
        "kernel_order": list(bank.kernel_order),
    }


def _bank_from_dict(d: dict) -> KernelBank:
    return KernelBank(
        centers=np.array(d["centers"], dtype=np.float64),
        gaussian=GaussianParams(sigma=d["sigma"]),
        cosine=CosineParams(epsilon=d["epsilon"]),
        kernel_order=d["kernel_order"],
    )


def _head_to_dict(model: RbfModel) -> dict:
    return {"mode": _mode_to_dict(model.mode), "weights": model.weights.tolist(),
            "bias": model.bias}


def _head_from_dict(d: dict, bank: KernelBank) -> RbfModel:
    return RbfModel(bank, _mode_from_dict(d["mode"]),
                    np.array(d["weights"], dtype=np.float64), float(d["bias"]))


def save_model(model: RbfModel | MultiHeadRbfModel, path: str | os.PathLike) -> None:
    """Write a model as versioned JSON; floats round-trip exactly."""
    if isinstance(model, MultiHeadRbfModel):
        doc = {
            "format": MULTIHEAD_FORMAT,
            "bank": _bank_to_dict(model.bank),
            "class_labels": list(model.class_labels),
            "heads": [_head_to_dict(h) for h in model.heads],
        }
    elif isinstance(model, RbfModel):
        doc = {
            "format": MODEL_FORMAT,
            "bank": _bank_to_dict(model.bank),
            **_head_to_dict(model),
        }
    else:
        raise InvalidModelError(f"cannot serialize {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path: str | os.PathLike) -> RbfModel | MultiHeadRbfModel:
    """Read a model written by save_model.

    A document that is not JSON, lacks a field or holds one it cannot read
    raises DataFormatError; a well-formed model that breaks an invariant
    raises InvalidModelError or InvalidConfigError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        fmt = doc.get("format")
        if fmt == MODEL_FORMAT:
            bank = _bank_from_dict(doc["bank"])
            return _head_from_dict(doc, bank)
        if fmt == MULTIHEAD_FORMAT:
            bank = _bank_from_dict(doc["bank"])
            heads = [_head_from_dict(h, bank) for h in doc["heads"]]
            return MultiHeadRbfModel(heads, doc["class_labels"])
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"not valid JSON: {exc}", path=str(path)) from exc
    except (KeyError, AttributeError, ValueError, TypeError) as exc:
        raise DataFormatError(f"malformed model document: {type(exc).__name__}: {exc}",
                              path=str(path)) from exc
    raise DataFormatError(f"unsupported model format {fmt!r}", path=str(path))
