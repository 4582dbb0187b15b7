import dataclasses
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corbf import bench, trainer
from corbf.errors import (DimensionMismatchError, DivergenceError, EmptyInputError,
                          InvalidConfigError, InvalidModelError)
from corbf.kernels import (CosineParams, GaussianParams, KernelBank,
                           kernel_matrix, kernel_vector)
from corbf.model import (AdaptiveFusion, CoFusion, FixedFusion,
                         MultiHeadRbfModel, RbfModel, forward, forward_batch)
from corbf.trainer import (BLOCK_SIZE, CHUNK_GROUPS, GROUP_EPOCHS, INIT_KINDS, TrainConfig,
                           TrainTrace, fit, learning_rate_bound, read_trace_csv,
                           sgd_step, write_trace_csv)

import helpers
from helpers import check_gradients, replay_fit, run_python


def small_bank(rng, a=2, K=3, sigma=1.0):
    return KernelBank(rng.normal(size=(a, K)), GaussianParams(sigma), CosineParams())


def make_model(rng, bank, mode):
    K = bank.n_centers
    if isinstance(mode, CoFusion):
        w = rng.normal(size=(K, 2)) * 0.5
    else:
        w = rng.normal(size=K) * 0.5
    return RbfModel(bank, mode, w, bias=float(rng.normal() * 0.5))


def snapshot(model):
    alphas = ()
    if isinstance(model.mode, AdaptiveFusion):
        alphas = (model.mode.alpha_gaussian, model.mode.alpha_cosine)
    return np.array(model.weights, copy=True), model.bias, alphas


class TestSgdStep:
    def test_zero_error_is_fixed_point(self):
        # A probe step with d = 0 recovers the step's own output (e = -y), so
        # presenting exactly that value as the target must leave every
        # parameter untouched.  (forward() may differ from the step's internal
        # reduction order by an ulp, so it cannot supply the exact target.)
        rng = np.random.default_rng(41)
        for mode in (CoFusion(), FixedFusion(0.5, 0.5), AdaptiveFusion(0.5, 0.5)):
            bank = small_bank(rng)
            model = make_model(rng, bank, mode)
            x = rng.normal(size=2)
            y = -sgd_step(model.copy(), x, d=0.0, eta=0.1)
            assert abs(y - forward(model, x)) <= 1e-12 * max(1.0, abs(y))
            before = snapshot(model)
            e = sgd_step(model, x, d=y, eta=0.1)
            after = snapshot(model)
            assert e == 0.0
            np.testing.assert_array_equal(before[0], after[0])
            assert before[1] == after[1] and before[2] == after[2]

    def test_single_center_hand_computation(self):
        m = np.array([1.0, 1.0])
        bank = KernelBank(m.reshape(2, 1), GaussianParams(1.0), CosineParams())
        model = RbfModel(bank, CoFusion(), np.zeros((1, 2)), bias=0.0)
        phi_c = kernel_vector(m, bank)[2]
        e = sgd_step(model, m, d=1.0, eta=0.1)
        assert e == 1.0
        np.testing.assert_allclose(model.weights[0, 0], 0.1, rtol=1e-15)
        np.testing.assert_allclose(model.weights[0, 1], 0.1 * phi_c, rtol=1e-15)
        np.testing.assert_allclose(model.bias, 0.1, rtol=1e-15)

    def test_increments_match_finite_difference_gradient(self):
        # Spot check; the full 1000-pair battery is in the acceptance suite.
        rng = np.random.default_rng(42)
        for mode in (CoFusion(), FixedFusion(0.3, 0.7), AdaptiveFusion(0.6, 0.4)):
            bank = small_bank(rng)
            model = make_model(rng, bank, mode)
            x = rng.normal(size=2)
            d = float(rng.normal())
            check_gradients(model, x, d, eta=0.05, rtol=1e-6)

    def test_updates_use_pre_update_values(self):
        # The bias increment must be eta * e with e frozen before any update;
        # chained updates would change e mid-step.
        rng = np.random.default_rng(43)
        bank = small_bank(rng)
        model = make_model(rng, bank, CoFusion())
        x = rng.normal(size=2)
        d = float(rng.normal())
        y0 = forward(model, x)
        b0 = model.bias
        e = sgd_step(model, x, d, eta=0.01)
        np.testing.assert_allclose(e, d - y0, rtol=1e-12)
        # recovering the increment by subtraction reintroduces the rounding of
        # the b0 + eta*e addition, so exact equality is not available here
        np.testing.assert_allclose(model.bias - b0, 0.01 * e, rtol=1e-12)

    def test_adaptive_alpha_update_rule(self):
        rng = np.random.default_rng(44)
        bank = small_bank(rng)
        mode = AdaptiveFusion(0.5, 0.5)
        model = make_model(rng, bank, mode)
        w0 = np.array(model.weights, copy=True)
        x = rng.normal(size=2)
        phi = kernel_vector(x, bank)
        K = bank.n_centers
        sum_g = float(np.dot(w0, phi[1:1 + K]))
        sum_c = float(np.dot(w0, phi[1 + K:1 + 2 * K]))
        d = float(rng.normal())
        eta, alpha_eta = 0.05, 0.02
        e = sgd_step(model, x, d, eta=eta, alpha_eta=alpha_eta)
        np.testing.assert_allclose(mode.alpha_gaussian, 0.5 + alpha_eta * e * sum_g,
                                   rtol=1e-12)
        np.testing.assert_allclose(mode.alpha_cosine, 0.5 + alpha_eta * e * sum_c,
                                   rtol=1e-12)

    @pytest.mark.parametrize("order", [("gaussian", "cosine"), ("cosine", "gaussian")],
                             ids="-".join)
    @pytest.mark.parametrize("mode", ["co", "fixed", "adaptive"])
    def test_matches_hand_written_update(self, mode, order):
        # given the step's e, every parameter moves exactly as written out here
        rng = np.random.default_rng(46)
        bank = KernelBank(rng.normal(size=(2, 3)), GaussianParams(1.0), CosineParams(),
                          kernel_order=order)
        ag, ac = (0.3, 0.7) if mode == "fixed" else (0.6, -0.2)
        fusion = {"co": CoFusion, "fixed": FixedFusion, "adaptive": AdaptiveFusion}[mode]
        model = make_model(rng, bank, fusion() if mode == "co" else fusion(ag, ac))
        w, b = model.weights.copy(), model.bias
        x, d, eta, alpha_eta = rng.normal(size=2), float(rng.normal()), 0.05, 0.02
        # each kernel's responses, blocks of kernel_vector in kernel_order
        resp = dict(zip(order, kernel_vector(x, bank)[1:].reshape(2, 3)))
        y = forward(model, x)
        e = sgd_step(model, x, d, eta, alpha_eta)
        np.testing.assert_allclose(e, d - y, rtol=1e-12, atol=1e-15)
        step = eta * e
        assert model.bias == b + step
        if mode == "co":
            expected = w + step * np.stack([resp[name] for name in order], axis=1)
        else:
            expected = w + step * (ag * resp["gaussian"] + ac * resp["cosine"])
        np.testing.assert_array_equal(model.weights, expected)
        if mode == "adaptive":
            assert model.mode.alpha_gaussian == ag + alpha_eta * e * float(
                np.dot(w, resp["gaussian"]))
            assert model.mode.alpha_cosine == ac + alpha_eta * e * float(
                np.dot(w, resp["cosine"]))
        elif mode == "fixed":
            assert (model.mode.alpha_gaussian, model.mode.alpha_cosine) == (ag, ac)

    @pytest.mark.parametrize("rates", [dict(eta=np.inf), dict(eta=10**400), dict(eta=0.0),
                                       dict(alpha_eta=np.nan), dict(alpha_eta=np.inf),
                                       dict(alpha_eta=-1.0)],
                             ids=["eta-inf", "eta-huge-int", "eta-zero", "alpha_eta-nan",
                                  "alpha_eta-inf", "alpha_eta-negative"])
    def test_rates_checked_as_train_config(self, rates):
        rng = np.random.default_rng(47)
        model = make_model(rng, small_bank(rng), AdaptiveFusion(0.5, 0.5))
        before = snapshot(model)
        with pytest.raises(InvalidConfigError, match=next(iter(rates))):
            sgd_step(model, rng.normal(size=2), 1.0, **{"eta": 0.1, **rates})
        after = snapshot(model)
        np.testing.assert_array_equal(before[0], after[0])
        assert before[1:] == after[1:]
        with pytest.raises(InvalidConfigError):
            TrainConfig(**{"eta": 0.1, "epochs": 1, **rates})

    def test_multi_head_model_refused(self):
        rng = np.random.default_rng(48)
        bank = small_bank(rng)
        model = MultiHeadRbfModel([make_model(rng, bank, AdaptiveFusion(0.5, 0.5))
                                   for _ in range(2)])
        before = [snapshot(h) for h in model.heads]
        with pytest.raises(InvalidModelError, match="MultiHeadRbfModel"):
            sgd_step(model, rng.normal(size=2), 1.0, eta=0.1)
        for (w0, b0, a0), (w1, b1, a1) in zip(before, map(snapshot, model.heads)):
            np.testing.assert_array_equal(w0, w1)
            assert (b0, a0) == (b1, a1)

    def test_divergence_guard_trips(self):
        rng = np.random.default_rng(45)
        bank = small_bank(rng)
        model = RbfModel(bank, CoFusion(), np.full((3, 2), 1e13), bias=0.0)
        with pytest.raises(DivergenceError) as exc:
            sgd_step(model, rng.normal(size=2), d=0.0, eta=0.1, epoch=3, sample=7)
        assert exc.value.epoch == 3 and exc.value.sample == 7


class TestFit:
    @pytest.mark.parametrize("mode", ["co", "fixed", "adaptive"])
    def test_one_epoch_one_sample_equals_single_step(self, mode):
        # co and fixed fusion train by their error operator, bit for bit
        # sgd_step here. The adaptive case is the loop's one-sample block:
        # it moves w by (eta e alpha_g) pg + (eta e alpha_c) pc,
        # sgd_step by (eta e)(alpha_g pg + alpha_c pc), which rounds otherwise.
        rng = np.random.default_rng(46)
        bank = small_bank(rng)
        model = make_model(rng, bank, FIT_MODES[mode]())
        x = rng.normal(size=2)
        d = float(rng.normal())
        manual = model.copy()
        sgd_step(manual, x, d, eta=0.05)
        trace = fit(model.copy(), x.reshape(2, 1), np.array([d]),
                    TrainConfig(eta=0.05, epochs=1, init="keep"))
        got, want = head_params(trace.final_model), head_params(manual)
        if mode == "adaptive":
            np.testing.assert_allclose(got, want, rtol=1e-12)
        else:
            np.testing.assert_array_equal(got, want)
        resid = d - forward(manual, x)
        np.testing.assert_allclose(trace.mse_linear[0], resid * resid, rtol=1e-12)

    def test_constant_target_trains_bias_monotonically(self):
        rng = np.random.default_rng(47)
        bank = small_bank(rng, K=4)
        model = RbfModel(bank, CoFusion(), np.zeros((4, 2)), bias=0.0)
        X = rng.normal(size=(2, 10))
        D = np.full(10, 3.0)
        trace = fit(model, X, D, TrainConfig(eta=0.02, epochs=60, init="keep"))
        assert np.all(np.diff(trace.mse_linear) <= 1e-12)
        assert abs(trace.final_model.bias - 3.0) < abs(0.0 - 3.0)
        assert trace.mse_linear[-1] < trace.mse_linear[0]

    def test_epoch_mse_is_post_epoch_full_set(self):
        rng = np.random.default_rng(48)
        bank = small_bank(rng)
        model = make_model(rng, bank, FixedFusion(0.5, 0.5))
        X = rng.normal(size=(2, 8))
        D = rng.normal(size=8)
        trace = fit(model, X, D, TrainConfig(eta=0.01, epochs=5, init="keep"))
        resid = D - forward_batch(trace.final_model, X)
        np.testing.assert_allclose(trace.mse_linear[-1],
                                   float(np.mean(resid * resid)), rtol=1e-12)

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(49)
        bank = small_bank(rng)
        X = rng.normal(size=(2, 12))
        D = rng.normal(size=12)
        cfg = TrainConfig(eta=0.01, epochs=20, seed=5, shuffle=True)
        traces = []
        for _ in range(2):
            model = RbfModel(bank, CoFusion(), np.zeros((3, 2)))
            traces.append(fit(model, X, D, cfg))
        np.testing.assert_array_equal(traces[0].mse_linear, traces[1].mse_linear)
        np.testing.assert_array_equal(traces[0].final_model.weights,
                                      traces[1].final_model.weights)

    def test_shuffle_changes_visit_order_not_determinism(self):
        rng = np.random.default_rng(50)
        bank = small_bank(rng)
        X = rng.normal(size=(2, 12))
        D = rng.normal(size=12)
        base = RbfModel(bank, CoFusion(), np.zeros((3, 2)))
        t_plain = fit(base.copy(), X, D, TrainConfig(eta=0.05, epochs=3, init="keep"))
        t_shuf = fit(base.copy(), X, D, TrainConfig(eta=0.05, epochs=3, seed=1,
                                                    shuffle=True, init="keep"))
        assert not np.array_equal(t_plain.final_model.weights,
                                  t_shuf.final_model.weights)

    def test_trace_lengths_and_db(self):
        rng = np.random.default_rng(51)
        bank = small_bank(rng)
        model = make_model(rng, bank, CoFusion())
        X = rng.normal(size=(2, 6))
        D = rng.normal(size=6)
        trace = fit(model, X, D, TrainConfig(eta=0.01, epochs=7, init="keep"))
        assert len(trace.epochs) == len(trace.mse_linear) == len(trace.mse_db) == 7
        np.testing.assert_allclose(trace.mse_db, 10.0 * np.log10(trace.mse_linear),
                                   rtol=1e-12)
        assert trace.train_acc is None and trace.test_acc is None

    def test_multihead_fit_records_accuracies(self):
        rng = np.random.default_rng(52)
        bank = small_bank(rng, K=4)
        heads = [RbfModel(bank, CoFusion(), np.zeros((4, 2))) for _ in range(3)]
        mm = MultiHeadRbfModel(heads, ("a", "b", "c"))
        X = rng.normal(size=(2, 15))
        y = rng.integers(0, 3, size=15)
        Xt = rng.normal(size=(2, 6))
        yt = rng.integers(0, 3, size=6)
        trace = fit(mm, X, y, TrainConfig(eta=0.02, epochs=4, init="keep"),
                    eval_set=(Xt, yt))
        assert trace.train_acc.shape == (4,) and trace.test_acc.shape == (4,)
        assert np.all((trace.train_acc >= 0) & (trace.train_acc <= 1))
        # epoch MSE averages over class-head errors as well as samples
        assert np.all(trace.mse_linear > 0)

    def test_divergence_carries_epoch_and_sample(self):
        rng = np.random.default_rng(53)
        bank = small_bank(rng)
        model = RbfModel(bank, CoFusion(), np.zeros((3, 2)))
        X = rng.normal(size=(2, 5))
        D = rng.normal(size=5)
        with pytest.raises(DivergenceError) as exc:
            fit(model, X, D, TrainConfig(eta=1e14, epochs=10, init="keep"))
        assert exc.value.epoch >= 1 and exc.value.sample >= 1

    def test_mixed_mode_heads_are_not_trained(self):
        # heads of different fusion modes evaluate, save and load as one
        # model, but fit trains one mode at a time and leaves them as they were
        rng = np.random.default_rng(55)
        bank = small_bank(rng)
        model = MultiHeadRbfModel([make_model(rng, bank, CoFusion()),
                                   make_model(rng, bank, FixedFusion(0.5, 0.5))])
        start = model.copy()
        with pytest.raises(InvalidModelError, match="all heads must use the same fusion mode"):
            fit(model, rng.normal(size=(2, 4)), np.array([0, 1, 1, 0]),
                TrainConfig(eta=0.01, epochs=1, init="keep"))
        np.testing.assert_array_equal(head_params(model), head_params(start))

    @pytest.mark.parametrize("where", ["sample", "target"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_samples(self, value, where):
        # unchecked, an inf sample made fit report DivergenceError(1, 1, nan),
        # and a non-finite target DivergenceError(1, 4, value)
        model, X, D, eta = fit_problem("adaptive", 1, 6, seed=71)
        start = model.copy()
        if where == "sample":
            X[0, 3] = value
            with pytest.raises(InvalidConfigError, match="non-finite"):
                forward(model, X[:, 3])
        else:
            D[3] = value
        with pytest.raises(InvalidConfigError, match="non-finite"):
            fit(model, X, D, TrainConfig(eta=eta, epochs=1))
        np.testing.assert_array_equal(head_params(model), head_params(start))

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(54)
        bank = small_bank(rng)
        model = make_model(rng, bank, CoFusion())
        with pytest.raises(DimensionMismatchError):
            fit(model, rng.normal(size=(2, 4)), rng.normal(size=5),
                TrainConfig(eta=0.1, epochs=1))
        # a (C, S, 1) target array for C heads: unchecked, the [F | J]
        # concatenate raised a raw ValueError
        heads = MultiHeadRbfModel([make_model(rng, bank, CoFusion()) for _ in range(3)])
        with pytest.raises(DimensionMismatchError):
            fit(heads, rng.normal(size=(2, 4)), rng.normal(size=(3, 4, 1)),
                TrainConfig(eta=0.1, epochs=1))


    @pytest.mark.parametrize("bad", [0.5, -1.0, 3.0, np.nan, np.inf])
    def test_rejects_labels_that_are_not_classes(self, bad):
        # a training or eval label must be a whole number in [0, C)
        model, X, _, eta = fit_problem("co", 3, 12, seed=70)
        labels = np.arange(12) % 3.0
        wrong = labels.copy()
        wrong[4] = bad
        for D, eval_set in ((wrong, None), (labels, (X, wrong))):
            with pytest.raises(InvalidConfigError):
                fit(model, X, D, TrainConfig(eta=eta, epochs=1), eval_set)

    def test_rejects_labels_that_are_not_numbers(self):
        model, X, _, eta = fit_problem("co", 3, 12, seed=70)
        labels = np.array(["a", "b", "c"] * 4)
        with pytest.raises(InvalidConfigError, match="labels must be whole numbers"):
            fit(model, X, labels, TrainConfig(eta=eta, epochs=1))

    def test_rejects_eval_labels_of_another_count(self):
        model, X, _, eta = fit_problem("co", 3, 12, seed=70)
        labels = np.arange(12) % 3
        with pytest.raises(DimensionMismatchError):
            fit(model, X, labels, TrainConfig(eta=eta, epochs=1), (X, labels[:-1]))

    def test_rejects_an_empty_eval_set(self):
        # unchecked, it wrote an all-NaN test_acc and warned "Mean of empty slice"
        model, X, _, eta = fit_problem("co", 3, 12, seed=70)
        labels = np.arange(12) % 3
        with pytest.raises(EmptyInputError):
            fit(model, X, labels, TrainConfig(eta=eta, epochs=1), (X[:, :0], labels[:0]))

    def test_rejects_an_eval_set_for_one_head(self):
        # unchecked, a single-output fit ignored it and returned test_acc None
        model, X, D, eta = fit_problem("co", 1, 12, seed=70)
        start = model.copy()
        with pytest.raises(InvalidConfigError, match="eval set"):
            fit(model, X, D, TrainConfig(eta=eta, epochs=1),
                (np.full((5, 2), np.nan), "junk"))
        np.testing.assert_array_equal(head_params(model), head_params(start))


FIT_MODES = {"fixed": lambda: FixedFusion(0.3, 0.7), "co": CoFusion,
             "adaptive": lambda: AdaptiveFusion(0.3, 0.7)}

# (centers, samples) of a design whose stable dataset-order fixed and co fits
# iterate their increments, and of one with fewer samples than weights (co
# 33, fixed 17), whose fits iterate their errors
DESIGNS = [(3, 24), (16, 12)]


def fit_problem(mode, n_heads, S, a=2, K=3, frac=0.5, seed=0,
                kernel_order=("gaussian", "cosine")):
    """A random model of the named fusion mode with S samples and real targets.

    eta is frac / max ||phi_s||^2 over the co design, which also bounds the
    mixed fixed design, so no per-sample step expands the error for frac <= 2.
    """
    rng = np.random.default_rng(seed)
    bank = KernelBank(rng.normal(size=(a, K)),
                      GaussianParams(float(rng.uniform(0.5, 2.0))), CosineParams(),
                      kernel_order=kernel_order)
    X = rng.normal(size=(a, S))
    phi = kernel_matrix(X, bank)
    eta = frac / float(np.max(np.sum(phi * phi, axis=0)))
    heads = [make_model(rng, bank, FIT_MODES[mode]()) for _ in range(n_heads)]
    if n_heads == 1:
        return heads[0], X, rng.normal(size=S), eta
    return MultiHeadRbfModel(heads), X, rng.normal(size=(n_heads, S)), eta


def product_counts(X, bank):
    """(products, samples) of the adaptive loop's blocks over the columns of
    X in dataset order."""
    S = X.shape[1]
    Phi = kernel_matrix(X, bank)
    Pg, Pc = trainer._gaussian_cosine(Phi[1:].reshape(bank.n_kernels, bank.n_centers, S),
                                      bank)
    P2 = np.stack((Pg.T, Pc.T), axis=1)
    steps = [step for lo in range(0, S, BLOCK_SIZE) for step in trainer._gram_block(
        P2, np.zeros((1, S)), np.arange(lo, min(lo + BLOCK_SIZE, S)))[3]]
    return sum(Q is not None for _, Q, *_ in steps), len(steps)


def head_params(model):
    heads = model.heads if isinstance(model, MultiHeadRbfModel) else [model]
    return np.concatenate([np.concatenate(([h.bias], np.ravel(h.weights),
                                           snapshot(h)[2])) for h in heads])


def assert_fit_matches_replay(model, X, D, cfg):
    reference = model.copy()
    trace = fit(model, X, D, cfg)
    mse = replay_fit(reference, X, D, cfg)
    np.testing.assert_allclose(trace.mse_linear, mse, rtol=1e-12)
    want = head_params(reference)
    # relative to the largest parameter, so a weight that stays near zero
    # is not held to a relative bound on its own rounding
    np.testing.assert_allclose(head_params(trace.final_model), want, rtol=1e-12,
                               atol=1e-12 * float(np.max(np.abs(want))))


class TestBlockEngine:
    """fit's exact block engine for fixed and co fusion, and its one adaptive
    loop (run once per head), against sgd_step."""

    @pytest.mark.parametrize("init", INIT_KINDS)
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["fixed", "co", "adaptive"])
    def test_three_blocks_match_sequential_steps(self, mode, n_heads, shuffle, init):
        # alpha_eta differs from eta, so an adaptive step that ignores it shows
        S = 2 * BLOCK_SIZE + 44
        model, X, D, eta = fit_problem(mode, n_heads, S, seed=60)
        assert_fit_matches_replay(model, X, D, TrainConfig(
            eta=eta, epochs=2, seed=7, shuffle=shuffle, init=init,
            alpha_eta=0.5 * eta))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(mode=st.sampled_from(["fixed", "co", "adaptive"]), n_heads=st.sampled_from([1, 3]),
           shuffle=st.booleans(), init=st.sampled_from(INIT_KINDS),
           S=st.integers(1, 2 * BLOCK_SIZE + 75), a=st.integers(1, 3),
           K=st.integers(1, 4), epochs=st.integers(1, 3),
           frac=st.floats(0.01, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_random_designs_match_sequential_steps(self, mode, n_heads, shuffle, init,
                                                   S, a, K, epochs, frac, seed):
        # above frac 2 co steps may expand the error, so fit trains one
        # sample per block, and some designs diverge
        if mode == "adaptive":
            # the coefficient steps feed back into the weight steps, and at
            # frac 1.9 one random design in twenty diverges (none of 300 at 1),
            # so its draws map onto half of 0.01-1.9
            frac *= 1.9 / 3.0 / 2
        model, X, D, eta = fit_problem(mode, n_heads, S, a, K, frac, seed)
        cfg = TrainConfig(eta=eta, epochs=epochs, seed=seed, shuffle=shuffle, init=init)
        try:
            replay_fit(model.copy(), X, D, cfg)
        except DivergenceError as want:
            with pytest.raises(DivergenceError) as got:
                fit(model, X, D, cfg)
            assert (got.value.epoch, got.value.sample) == (want.epoch, want.sample)
            np.testing.assert_allclose(got.value.error_value, want.error_value,
                                       rtol=1e-12)
        else:
            assert_fit_matches_replay(model, X, D, cfg)

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode,frac", [("co", 2.2), ("co", 2.6), ("co", 3.0),
                                           ("fixed", 4.0), ("fixed", 5.0)])
    def test_unstable_steps_are_sgd_steps(self, mode, frac, n_heads, shuffle):
        # Some step expands the error, so fit trains one sample per block.
        # For one head that is sgd_step's arithmetic, bit for bit; several
        # heads take their errors in one product, which may round otherwise.
        S = 2 * BLOCK_SIZE + 44
        model, X, D, eta = fit_problem(mode, n_heads, S, frac=frac, seed=70)
        head = model.heads[0] if n_heads > 1 else model
        phi = kernel_matrix(X, head.bank)
        if mode == "fixed":
            # fixed fusion's design rows are [1, alpha_g g + alpha_c c]
            g, c = phi[1:].reshape(2, -1, S)
            phi = np.vstack((phi[:1], head.mode.alpha_gaussian * g
                             + head.mode.alpha_cosine * c))
        assert eta * float(np.max(np.sum(phi * phi, axis=0))) > 2.0
        cfg = TrainConfig(eta=eta, epochs=2, seed=3, shuffle=shuffle, init="keep")
        if n_heads == 3:
            assert_fit_matches_replay(model, X, D, cfg)
            return
        reference = model.copy()
        replay_fit(reference, X, D, cfg)
        np.testing.assert_array_equal(head_params(fit(model, X, D, cfg).final_model),
                                      head_params(reference))

    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("mode,frac,bad_target", [
        pytest.param(mode, frac, bad, id=f"{prefix}{frac}-{bad}")
        for mode, prefix, expanding in (("co", "", 5.0), ("fixed", "fixed-", 6.0),
                                        ("adaptive", "adaptive-", 5.0))
        for frac, bad in ((expanding, None), (1e14, None), (1.5, -1.7e308), (1.5, 1e13))])
    def test_divergence_names_first_failing_step(self, mode, frac, bad_target,
                                                 shuffle, n_heads):
        # At frac 5 every co step expands the errors, and the first to fail
        # sits at presented positions 123-195, past the first block when
        # unshuffled. Fixed fusion's mixed design expands less: at frac 5
        # none of its cases fails within 3 epochs, at frac 6 the first
        # failure comes in epoch 2. At 1e14 they overflow within the first block. A
        # bad target at training-set index 200 under stable steps trips the
        # check of the epoch's error operator in dataset order and of the
        # block solve under shuffle, where a pivoted solve may spread it to
        # the errors before it; -1.7e308 overflows the errors after it. The
        # adaptive loop has no blocks; its coefficients make frac 5 fail
        # within the first ten samples.
        S = 2 * BLOCK_SIZE + 44
        model, X, D, eta = fit_problem(mode, n_heads, S, frac=frac, seed=61)
        if bad_target is not None:
            D[..., 200] = bad_target
        cfg = TrainConfig(eta=eta, epochs=3, seed=3, shuffle=shuffle, init="keep")
        with pytest.raises(DivergenceError) as want:
            replay_fit(model.copy(), X, D, cfg)
        if mode == "co" and not shuffle and frac != 1e14:
            assert want.value.sample > BLOCK_SIZE
        with pytest.raises(DivergenceError) as got:
            fit(model, X, D, cfg)
        assert (got.value.epoch, got.value.sample) == (want.value.epoch, want.value.sample)
        if n_heads == 1 and mode != "adaptive" and frac > 2:
            # unstable steps train one sample per block, as sgd_step does
            assert got.value.error_value == want.value.error_value
        else:
            np.testing.assert_allclose(got.value.error_value, want.value.error_value,
                                       rtol=1e-12)

    @pytest.mark.parametrize("mode", ["co", "adaptive"])
    def test_divergence_names_the_head_failing_first_in_order(self, mode):
        # Head 2 fails at presented position 51 and head 0 at 201. The
        # adaptive loop trains head 0 to its failure before it reaches head 2,
        # and must still name head 2's sample and value.
        S = 2 * BLOCK_SIZE + 44
        model, X, D, eta = fit_problem(mode, 3, S, seed=62)
        D[2, 50] = 1e13
        D[0, 200] = -1.7e308
        cfg = TrainConfig(eta=eta, epochs=2, seed=3, init="keep")
        with pytest.raises(DivergenceError) as want:
            replay_fit(model.copy(), X, D, cfg)
        assert (want.value.epoch, want.value.sample) == (1, 51)
        with pytest.raises(DivergenceError) as got:
            fit(model, X, D, cfg)
        assert (got.value.epoch, got.value.sample) == (1, 51)
        np.testing.assert_allclose(got.value.error_value, want.value.error_value,
                                   rtol=1e-12)

    def test_adaptive_divergence_after_reusing_fixed_order_blocks(self):
        # In dataset order the adaptive loop builds each block's Gram matrix
        # once per fit. Here the first failure comes in epoch 2, in the second
        # block, so it is reached through blocks that epoch 1 already used.
        S = 2 * BLOCK_SIZE + 44
        model, X, D, eta = fit_problem("adaptive", 3, S, frac=1.9, seed=61)
        cfg = TrainConfig(eta=eta, epochs=3, seed=3, init="keep")
        with pytest.raises(DivergenceError) as want:
            replay_fit(model.copy(), X, D, cfg)
        assert (want.value.epoch, want.value.sample) == (2, 197)
        with pytest.raises(DivergenceError) as got:
            fit(model, X, D, cfg)
        assert (got.value.epoch, got.value.sample) == (2, 197)
        np.testing.assert_allclose(got.value.error_value, want.value.error_value,
                                   rtol=1e-12)

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("S", [1, 2, 3, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1,
                                   2 * BLOCK_SIZE + 44])
    def test_adaptive_pairs_match_sequential_steps(self, S, n_heads, shuffle):
        # the adaptive loop's products read two samples' projections; an odd
        # block ends on a product for its last sample alone (S = 1, 3 and 129
        # end on one, 127 is one block)
        model, X, D, eta = fit_problem("adaptive", n_heads, S, seed=71)
        assert_fit_matches_replay(model, X, D, TrainConfig(
            eta=eta, epochs=3, seed=7, shuffle=shuffle, init="keep", alpha_eta=0.5 * eta))

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("run", [2, 3, 20, BLOCK_SIZE - 1, BLOCK_SIZE + 1])
    def test_adaptive_chains_match_sequential_steps(self, run, n_heads, shuffle):
        # inputs repeat in runs of run samples, so in dataset order samples
        # skip their products (runs of 2 never hold the three equal rows a
        # skip needs); runs cross block ends, and the last block is odd and,
        # for runs of 127 and 129, ends on a sample without a product
        S = 2 * BLOCK_SIZE + 45
        model, X, D, eta = fit_problem("adaptive", n_heads, S, seed=73)
        X = np.repeat(X, run, axis=1)[:, :S]
        head = model.heads[0] if n_heads > 1 else model
        assert (product_counts(X, head.bank)[0] < 151) == (run > 2)
        assert_fit_matches_replay(model, X, D, TrainConfig(
            eta=eta, epochs=3, seed=7, shuffle=shuffle, init="keep", alpha_eta=0.5 * eta))

    @pytest.mark.parametrize("task,counts", [("sysid", (23, 400)), ("funapprox", (61, 121))])
    def test_chained_pair_counts(self, task, counts):
        # the square wave driving sysid holds each input for 20 samples, so
        # 23 of its 400 samples take a product in dataset order; funapprox's
        # grid repeats no row, so every even sample of a block takes one
        X, _, bank, _ = bench._problem(bench.ExperimentConfig(task), 0)
        assert product_counts(X, bank) == counts

    def test_distinct_rows_never_chain(self):
        model, X, _, _ = fit_problem("adaptive", 1, 2 * BLOCK_SIZE + 45, seed=74)
        assert product_counts(X, model.bank) == (2 * 64 + 23, 2 * BLOCK_SIZE + 45)

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("S,position,run", [
        pytest.param(3, 1, 1, id="second-of-pair"),
        pytest.param(BLOCK_SIZE + 1, 51, 1, id="second-of-pair-in-long-block"),
        pytest.param(3, 2, 1, id="odd-block-end"),
        pytest.param(BLOCK_SIZE + 1, BLOCK_SIZE, 1, id="one-sample-block"),
        pytest.param(BLOCK_SIZE + 1, 50, BLOCK_SIZE + 1, id="chained-pair"),
        pytest.param(BLOCK_SIZE + 1, 10, 5, id="chain-end")])
    def test_adaptive_divergence_in_a_pair(self, S, position, run, n_heads,
                                           shuffle, monkeypatch):
        # inputs repeat in runs of run samples, and a bad target sits at the
        # given presented position of epoch 1: a sample whose projections
        # the product of the sample before it gave, the last sample of an
        # odd block, an even sample without a product when every input is
        # the same, or, for runs of 5, sample 10, the first of a new row,
        # whose product resumes after samples 6-9 carried their projections.
        # fit reports the sgd_step replay's failure; without the replay the
        # loop's own report names the same step.
        model, X, D, eta = fit_problem("adaptive", n_heads, S, seed=72)
        X = np.repeat(X, run, axis=1)[:, :S]
        cfg = TrainConfig(eta=eta, epochs=2, seed=3, shuffle=shuffle, init="keep")
        shuffle_stream = np.random.SeedSequence(cfg.seed).spawn(2)[1]
        order = (np.random.default_rng(shuffle_stream).permutation(S) if shuffle
                 else np.arange(S))
        D[..., order[position]] = 1e13
        with pytest.raises(DivergenceError) as want:
            replay_fit(model.copy(), X, D, cfg)
        assert (want.value.epoch, want.value.sample) == (1, order[position] + 1)
        with pytest.raises(DivergenceError) as got:
            fit(model.copy(), X, D, cfg)
        assert ((got.value.epoch, got.value.sample, got.value.error_value)
                == (want.value.epoch, want.value.sample, want.value.error_value))
        monkeypatch.setattr(trainer, "_replay", lambda *args: None)
        with pytest.raises(DivergenceError) as own:
            fit(model, X, D, cfg)
        assert (own.value.epoch, own.value.sample) == (want.value.epoch, want.value.sample)
        np.testing.assert_allclose(own.value.error_value, want.value.error_value,
                                   rtol=1e-12)

    @pytest.mark.parametrize("seed,shuffle", [
        *((seed, False) for seed in (3, 7, 8, 36, 40, 50, 51, 64, 88, 121)),
        *((seed, True) for seed in (13, 16, 20, 30))])
    def test_adaptive_divergence_is_sgd_steps_exactly(self, seed, shuffle):
        # These problems first fail in epoch 2 or 3. The errors grow faster
        # than exponentially before a divergence, as the coefficient steps
        # feed back into the weight steps, so the loop's rounding once moved
        # the reported value by up to 0.9% (seed 50). fit now replays the
        # epochs up to a failure with sgd_step and reports what it reports.
        model, X, D, eta = fit_problem("adaptive", 3, 2 * BLOCK_SIZE + 44, frac=1.9,
                                       seed=seed)
        cfg = TrainConfig(eta=eta, epochs=3, seed=3, shuffle=shuffle, init="keep")
        with pytest.raises(DivergenceError) as want:
            replay_fit(model.copy(), X, D, cfg)
        assert want.value.epoch >= 2
        with pytest.raises(DivergenceError) as got:
            fit(model, X, D, cfg)
        assert ((got.value.epoch, got.value.sample, got.value.error_value)
                == (want.value.epoch, want.value.sample, want.value.error_value))

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_adaptive_heads_train_independently(self, shuffle):
        # heads share the design, the order and the blocks' Gram matrices but
        # nothing they train: head c of a multi-head fit is, bit for bit, a
        # fit of that head alone
        S = 2 * BLOCK_SIZE + 44
        model, X, D, eta = fit_problem("adaptive", 3, S, seed=65)
        cfg = TrainConfig(eta=eta, epochs=3, seed=5, shuffle=shuffle, init="keep",
                          alpha_eta=0.5 * eta)
        alone = [fit(h.copy(), X, D[c], cfg).final_model
                 for c, h in enumerate(model.heads)]
        together = fit(model, X, D, cfg).final_model.heads
        for one, head in zip(alone, together):
            np.testing.assert_array_equal(head_params(head), head_params(one))

    # (seed, frac) per mode, or per (mode, heads, shuffle), for which fit
    # first fails in epoch 2 to 4
    DIVERGING = {"co": (61, 4.0), "fixed": (61, 6.0),
                 ("adaptive", 1, False): (66, 2.4), ("adaptive", 1, True): (66, 2.3),
                 ("adaptive", 3, False): (61, 1.9), ("adaptive", 3, True): (61, 1.9)}

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["co", "fixed", "adaptive"])
    def test_divergence_leaves_the_last_completed_epoch(self, mode, n_heads, shuffle):
        # after a failure in epoch k the model holds, bit for bit, what a
        # (k - 1)-epoch fit of the same start leaves
        seed, frac = self.DIVERGING.get(mode) or self.DIVERGING[mode, n_heads, shuffle]
        model, X, D, eta = fit_problem(mode, n_heads, 2 * BLOCK_SIZE + 44, frac=frac,
                                       seed=seed)
        start = model.copy()
        cfg = TrainConfig(eta=eta, epochs=5, seed=3, shuffle=shuffle, init="keep")
        with pytest.raises(DivergenceError) as exc:
            fit(model, X, D, cfg)
        k = exc.value.epoch
        assert 2 <= k <= 4
        done = fit(start, X, D, TrainConfig(eta=eta, epochs=k - 1, seed=3,
                                            shuffle=shuffle, init="keep"))
        np.testing.assert_array_equal(head_params(model), head_params(done.final_model))

    @pytest.mark.parametrize("target", [1.7e308, 1e13, -1.7e308])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["co", "fixed"])
    def test_stable_failure_in_epoch_1_leaves_the_model_as_it_was(self, mode, n_heads,
                                                                  target):
        # Stable steps in dataset order train by the epoch's error operator;
        # a too large target at training-set index 200 fails its check in
        # epoch 1, and the model must keep its starting parameters bit for
        # bit. The check runs after the chunk's last epoch, and the epochs
        # after the failing one (which overflow for +-1.7e308) warn of nothing.
        model, X, D, eta = fit_problem(mode, n_heads, 2 * BLOCK_SIZE + 44, frac=1.5,
                                       seed=61)
        D[..., 200] = target
        start = model.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                fit(model, X, D, TrainConfig(eta=eta, epochs=3, seed=3, init="keep"))
        assert (exc.value.epoch, exc.value.sample) == (1, 201)
        np.testing.assert_array_equal(head_params(model), head_params(start))

    @pytest.mark.parametrize("K,S", [(3, 40), DESIGNS[1]])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["co", "fixed"])
    def test_operator_check_failing_without_divergence_trains_on(self, mode, n_heads, K, S,
                                                                 monkeypatch):
        # At bias and targets 1e300 every sequential error is exactly 0, yet
        # F - W J^T cancels at 1e300 and fails the operator's check in every
        # epoch (the bound over the increments, the exact check over the
        # errors). Each epoch then trains by blocks, which do not raise, and
        # the second chunk (of one group) goes back to the operator first.
        model, X, D, eta = fit_problem(mode, n_heads, S, K=K, frac=1.5, seed=64)
        for h in (model.heads if n_heads > 1 else [model]):
            h.bias = 1e300
        D[...] = 1e300
        start = model.copy()
        monkeypatch.setattr(trainer, "CHUNK_GROUPS", 1)
        cfg = TrainConfig(eta=eta, epochs=GROUP_EPOCHS + 3, init="keep")
        epochs_by_blocks = []
        linear_blocks = trainer._linear_blocks

        def spy(*args, **kwargs):
            epochs_by_blocks.append(args[6])
            linear_blocks(*args, **kwargs)

        monkeypatch.setattr(trainer, "_linear_blocks", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = fit(model, X, D, cfg)
        # the unchecked build of [F | J], then every epoch
        assert epochs_by_blocks == [None, *range(1, cfg.epochs + 1)]
        np.testing.assert_array_equal(head_params(trace.final_model), head_params(start))
        np.testing.assert_array_equal(trace.mse_linear, np.zeros(cfg.epochs))
        assert_fit_matches_replay(start, X, D, cfg)

    @pytest.mark.parametrize("K,S", DESIGNS)
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["co", "fixed", "adaptive"])
    def test_chunking_leaves_no_trace_in_the_bits(self, mode, n_heads, shuffle, K, S,
                                                  monkeypatch):
        # fit evaluates its epochs, and checks and draws its error-operator
        # epochs, a chunk of whole groups at a time; only its last chunk can
        # end inside a group. Fits ending one epoch before, at and after a
        # group's end and the end of a chunk of one or two groups hold the
        # first epochs of a longer fit bit for bit, and every column and
        # final row of each equals, bit for bit, the same fit in chunks of one
        # group and of two.
        G = GROUP_EPOCHS
        model, X, D, eta = fit_problem(mode, n_heads, S, K=K, frac=0.5 if mode == "adaptive"
                                       else 1.9, seed=62)
        rng = np.random.default_rng(63)
        eval_set = (rng.normal(size=X.shape), rng.integers(0, 3, S)) if n_heads == 3 else None

        def run(epochs):
            return fit(model.copy(), X, D, TrainConfig(eta=eta, epochs=epochs, seed=5,
                                                       shuffle=shuffle, init="keep"),
                       eval_set)

        def assert_columns_equal(got, want, T):
            for name in ("epochs", "mse_linear", "mse_db", "train_acc", "test_acc"):
                if getattr(want, name) is None:
                    assert getattr(got, name) is None
                else:
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name)[:T])

        full = run(3 * G + 5)
        assert (full.test_acc is None) == (eval_set is None)
        whole = {T: run(T) for T in (1, G - 1, G, G + 1, 2 * G - 1, 2 * G, 2 * G + 1)}
        for T, trace in whole.items():
            assert_columns_equal(trace, full, T)
        for groups in (1, 2):
            monkeypatch.setattr(trainer, "CHUNK_GROUPS", groups)
            for T, want in whole.items():
                got = run(T)
                assert_columns_equal(got, want, T)
                np.testing.assert_array_equal(head_params(got.final_model),
                                              head_params(want.final_model))

    @pytest.mark.parametrize("K,S", [(3, 40), DESIGNS[1]])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["fixed", "co"])
    def test_increments_carried_across_chunks_match_sequential_steps(self, mode, n_heads,
                                                                     K, S, monkeypatch):
        # in dataset order each epoch's increments are the last one's times
        # M = I - eta J^T DS (or its errors the last one's times
        # N = I - eta DS J^T), carried from chunk to chunk (of two groups)
        model, X, D, eta = fit_problem(mode, n_heads, S, K=K, frac=1.9, seed=75)
        monkeypatch.setattr(trainer, "CHUNK_GROUPS", 2)
        assert_fit_matches_replay(model, X, D, TrainConfig(
            eta=eta, epochs=4 * GROUP_EPOCHS + 5, seed=9, init="keep"))

    @pytest.mark.parametrize("task", ["sysid", "funapprox"])
    @pytest.mark.parametrize("arch", ["manual", "co"])
    def test_operator_space_follows_the_design_shape(self, task, arch, monkeypatch):
        # sysid's 400 samples over 6 or 11 weights iterate the increments
        # (one per weight); funapprox's 121 samples over 122 or 243 weights
        # iterate the errors (one per sample)
        cfg = bench.ExperimentConfig(task)
        X, D, bank, _ = bench._problem(cfg, 0)
        model = bench._single_head(bank, arch)
        made = []
        first_group = trainer._first_group

        def spy(*args):
            made.append(args[0].shape)
            return first_group(*args)

        monkeypatch.setattr(trainer, "_first_group", spy)
        fit(model, X, D, dataclasses.replace(bench._train_config(cfg, 0), epochs=1))
        P = 1 + model.weights.size
        assert (X.shape[1] > P) == (task == "sysid")
        assert made == [(1, P if task == "sysid" else X.shape[1])]

    @pytest.mark.parametrize("mode,n_heads,seed,epoch", [
        ("co", 1, 86, 48), ("co", 3, 98, 154), ("fixed", 1, 72, 2), ("fixed", 3, 72, 2)])
    def test_error_operator_check_is_exact(self, mode, n_heads, seed, epoch, monkeypatch):
        # With fewer samples than weights the operator iterates the errors
        # and checks each of them. A limit at 0.8 of the largest sequential
        # error of a stable fit fails first in a later epoch (for co with 3
        # heads in the second chunk): only that epoch trains by blocks, and
        # fit raises the steps' epoch, sample and value and leaves the rows of
        # a fit one epoch shorter, bit for bit, also where that epoch starts
        # a chunk (groups of one epoch, epoch - 1 of them to a chunk).
        K, S = DESIGNS[1]
        model, X, D, eta = fit_problem(mode, n_heads, S, K=K, frac=1.9, seed=seed)
        cfg = TrainConfig(eta=eta, epochs=2 * CHUNK_GROUPS * GROUP_EPOCHS + 5, init="keep")
        errors = []

        def record(*args, **kwargs):
            e = sgd_step(*args, **kwargs)
            errors.append(abs(e))
            return e

        monkeypatch.setattr(helpers, "sgd_step", record)
        replay_fit(model.copy(), X, D, cfg)
        for where in (trainer, helpers):
            monkeypatch.setattr(where, "DIVERGENCE_LIMIT", 0.8 * max(errors))
        with pytest.raises(DivergenceError) as want:
            replay_fit(model.copy(), X, D, cfg)
        assert want.value.epoch == epoch
        epochs_by_blocks = []
        linear_blocks = trainer._linear_blocks

        def spy(*args, **kwargs):
            epochs_by_blocks.append(args[6])
            linear_blocks(*args, **kwargs)

        monkeypatch.setattr(trainer, "_linear_blocks", spy)
        for schedule in ({}, {"GROUP_EPOCHS": 1, "CHUNK_GROUPS": epoch - 1}):
            for name, value in schedule.items():
                monkeypatch.setattr(trainer, name, value)
            done = fit(model.copy(), X, D, dataclasses.replace(cfg, epochs=epoch - 1))
            epochs_by_blocks.clear()
            got_model = model.copy()
            with pytest.raises(DivergenceError) as got:
                fit(got_model, X, D, cfg)
            # the unchecked build of [F | J], then the failing epoch's block
            # and its replay one sample at a time
            assert epochs_by_blocks == [None, epoch, epoch]
            assert ((got.value.epoch, got.value.sample)
                    == (want.value.epoch, want.value.sample))
            np.testing.assert_allclose(got.value.error_value, want.value.error_value,
                                       rtol=1e-12)
            np.testing.assert_array_equal(head_params(got_model),
                                          head_params(done.final_model))

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("start", ["growing", "shrinking"])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["fixed", "co"])
    def test_operator_bound_false_alarm_trains_on(self, mode, n_heads, start, groups,
                                                  monkeypatch):
        # The first epoch's errors are the largest: from zero rows to targets
        # near 100 (growing), or from a bias of 1000 to targets near 0
        # (shrinking). The bound max|F| + ||W|| max||J|| grows, or shrinks,
        # with the bias, and a limit between it and every sequential error
        # fails the bound where no step fails. Growing rows fail it from
        # epoch 2 on, shrinking ones in epoch 1: the failing epoch and the
        # rest of its chunk (of one group or two) train by blocks, and the
        # next chunk restarts the operator, which fails again at once on
        # growing rows and runs to the end, across a chunk end, on shrunk ones.
        C = groups * GROUP_EPOCHS
        model, X, D, eta = fit_problem(mode, n_heads, 40, seed=76)
        if start == "growing":
            D = D + 100.0
        else:
            for h in (model.heads if n_heads > 1 else [model]):
                h.bias = 1000.0
        cfg = TrainConfig(eta=eta, epochs=2 * C + 5,
                          init="zeros" if start == "growing" else "keep")
        errors = []

        def record(*args, **kwargs):
            e = sgd_step(*args, **kwargs)
            errors.append(abs(e))
            return e

        monkeypatch.setattr(helpers, "sgd_step", record)
        replay_fit(model.copy(), X, D, cfg)
        monkeypatch.setattr(trainer, "DIVERGENCE_LIMIT", 1.25 * max(errors))
        monkeypatch.setattr(trainer, "CHUNK_GROUPS", groups)
        epochs_by_blocks = []
        linear_blocks = trainer._linear_blocks

        def spy(*args, **kwargs):
            epochs_by_blocks.append(args[6])
            linear_blocks(*args, **kwargs)

        monkeypatch.setattr(trainer, "_linear_blocks", spy)
        assert_fit_matches_replay(model.copy(), X, D, cfg)
        # the unchecked build of [F | J], then the epochs by blocks
        assert epochs_by_blocks == [None, *(range(2, cfg.epochs + 1) if start == "growing"
                                            else range(1, C + 1))]
        # from its last restart the fit is, bit for bit, a new fit from the
        # rows the blocks left
        restart = 2 * C if start == "growing" else C
        trace = fit(model.copy(), X, D, cfg)
        first = fit(model.copy(), X, D, dataclasses.replace(cfg, epochs=restart))
        rest = fit(first.final_model, X, D,
                   dataclasses.replace(cfg, epochs=cfg.epochs - restart, init="keep"))
        np.testing.assert_array_equal(trace.mse_linear[restart:], rest.mse_linear)
        np.testing.assert_array_equal(head_params(trace.final_model),
                                      head_params(rest.final_model))

    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["fixed", "co"])
    def test_grouped_increments_are_repeated_products(self, mode, n_heads, monkeypatch):
        # the first group of GROUP_EPOCHS increments is U M^i by single
        # products, bit for bit, and each later group is the group before it
        # times M^GROUP_EPOCHS; over more than three groups they stay U M^i.
        # fit's rows are the running sum of exactly these groups. At frac
        # 1.9 fit's M has eigenvalues near -0.9, which flip sign and decay
        # slowly.
        G = GROUP_EPOCHS
        model, X, D, eta = fit_problem(mode, n_heads, 40, frac=1.9, seed=75)
        made = []
        first_group = trainer._first_group

        def spy(*args):
            made.append(args)
            return first_group(*args)

        monkeypatch.setattr(trainer, "_first_group", spy)
        T = 3 * G + 4
        trace = fit(model.copy(), X, D, TrainConfig(eta=eta, epochs=T, init="keep"))
        U, M = made[0]
        want = [U]
        for _ in range(T - 1):
            want.append(want[-1] @ M)
        groups = [first_group(U, M)]
        M_group = np.linalg.matrix_power(M, G)
        while len(groups) * G < T:
            groups.append((groups[-1].reshape(-1, len(M)) @ M_group).reshape(groups[-1].shape))
        got = np.concatenate(groups)[:T]
        np.testing.assert_array_equal(got[:G], want[:G])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(U).max())
        rows = trainer._params(model.heads if n_heads > 1 else [model])[0]
        for increment in got:
            rows = rows + increment
        final = trace.final_model
        np.testing.assert_array_equal(
            trainer._params(final.heads if n_heads > 1 else [final])[0], rows)

    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["fixed", "co"])
    def test_chunks_inside_operator_groups_leave_no_trace(self, mode, n_heads,
                                                          monkeypatch):
        # the operator's groups run on across chunk ends, over the increments
        # (3 kernels, 24 samples) and over the errors (16 kernels, 12
        # samples): chunks of one and three groups, the last of which ends
        # inside a group, leave every column and row of a fit bit for bit as
        # one chunk does, and every epoch runs on the operator
        cfg = TrainConfig(eta=1.0, epochs=3 * GROUP_EPOCHS + 7, seed=5, init="keep")
        assert cfg.epochs < CHUNK_GROUPS * GROUP_EPOCHS
        epochs_by_blocks = []
        linear_blocks = trainer._linear_blocks

        def spy(*args, **kwargs):
            epochs_by_blocks.append(args[6])
            linear_blocks(*args, **kwargs)

        monkeypatch.setattr(trainer, "_linear_blocks", spy)
        for K, S in DESIGNS:
            model, X, D, eta = fit_problem(mode, n_heads, S, K=K, frac=1.9, seed=62)
            rng = np.random.default_rng(63)
            eval_set = (rng.normal(size=X.shape), rng.integers(0, 3, S)) if n_heads == 3 else None
            run = dataclasses.replace(cfg, eta=eta)
            monkeypatch.setattr(trainer, "CHUNK_GROUPS", CHUNK_GROUPS)
            whole = fit(model.copy(), X, D, run, eval_set)
            for groups in (1, 3):
                monkeypatch.setattr(trainer, "CHUNK_GROUPS", groups)
                epochs_by_blocks.clear()
                trace = fit(model.copy(), X, D, run, eval_set)
                assert epochs_by_blocks == [None]
                for name in ("mse_linear", "mse_db", "train_acc", "test_acc"):
                    got, want = getattr(trace, name), getattr(whole, name)
                    if want is None:
                        assert got is None
                    else:
                        np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(head_params(trace.final_model),
                                              head_params(whole.final_model))

    @pytest.mark.parametrize("K,S", DESIGNS)
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["co", "fixed", "adaptive"])
    def test_chunks_inside_evaluation_groups_leave_no_trace(self, mode, n_heads, shuffle,
                                                            K, S, monkeypatch):
        # fit evaluates GROUP_EPOCHS epochs by one product, the groups counted
        # from the fit's first epoch, and a fit's last chunk can end inside a
        # group: chunks of one and of three groups leave every column and row
        # of fits ending one epoch before, at and after a group's end, and
        # one epoch after the first default chunk, bit for bit as the
        # default chunks do
        G = GROUP_EPOCHS
        model, X, D, eta = fit_problem(mode, n_heads, S, K=K, frac=0.5 if mode == "adaptive"
                                       else 1.9, seed=62)
        rng = np.random.default_rng(63)
        eval_set = (rng.normal(size=X.shape), rng.integers(0, 3, S)) if n_heads == 3 else None

        def run(epochs):
            return fit(model.copy(), X, D, TrainConfig(eta=eta, epochs=epochs, seed=5,
                                                       shuffle=shuffle, init="keep"),
                       eval_set)

        whole = {T: run(T) for T in (3 * G - 1, 3 * G, 3 * G + 1, CHUNK_GROUPS * G + 1)}
        for groups in (1, 3):
            monkeypatch.setattr(trainer, "CHUNK_GROUPS", groups)
            for T, want in whole.items():
                got = run(T)
                for name in ("epochs", "mse_linear", "mse_db", "train_acc", "test_acc"):
                    if getattr(want, name) is None:
                        assert getattr(got, name) is None
                    else:
                        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
                np.testing.assert_array_equal(head_params(got.final_model),
                                              head_params(want.final_model))

    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["fixed", "co"])
    def test_group_power_is_made_once_when_first_due(self, mode, n_heads, monkeypatch):
        # M^GROUP_EPOCHS is made when a second group of increments is first
        # due: never in a fit of GROUP_EPOCHS epochs, once in one of
        # GROUP_EPOCHS + 1, and once in a fit whose operator restarts after
        # drawing a second group (the shrinking false alarm of
        # test_operator_bound_false_alarm_trains_on, in chunks of two groups)
        G = GROUP_EPOCHS
        model, X, D, eta = fit_problem(mode, n_heads, 40, seed=76)
        for h in (model.heads if n_heads > 1 else [model]):
            h.bias = 1000.0
        powers, starts = [], []
        matrix_power, first_group = np.linalg.matrix_power, trainer._first_group

        def count_power(M, k):
            powers.append(k)
            return matrix_power(M, k)

        def count_start(*args):
            starts.append(args)
            return first_group(*args)

        monkeypatch.setattr(np.linalg, "matrix_power", count_power)
        monkeypatch.setattr(trainer, "_first_group", count_start)
        for epochs, want in ((G, []), (G + 1, [G])):
            powers.clear()
            fit(model.copy(), X, D, TrainConfig(eta=eta, epochs=epochs, init="keep"))
            assert powers == want
        cfg = TrainConfig(eta=eta, epochs=4 * G + 5, init="keep")
        errors = []

        def record(*args, **kwargs):
            e = sgd_step(*args, **kwargs)
            errors.append(abs(e))
            return e

        monkeypatch.setattr(helpers, "sgd_step", record)
        replay_fit(model.copy(), X, D, cfg)
        monkeypatch.setattr(trainer, "DIVERGENCE_LIMIT", 1.25 * max(errors))
        monkeypatch.setattr(trainer, "CHUNK_GROUPS", 2)
        powers.clear()
        starts.clear()
        fit(model.copy(), X, D, cfg)
        assert len(starts) == 2
        assert powers == [G]

    @pytest.mark.parametrize("S", [BLOCK_SIZE - 7, 2 * BLOCK_SIZE + 44])
    @pytest.mark.parametrize("n_heads", [1, 3])
    def test_operator_build_without_rows_is_the_build_from_zero_rows(self, n_heads, S):
        # fit builds [F | J] from W None, which skips the first block's
        # product with zero rows and the last block's update that nothing
        # reads; the result is the build from zero rows, bit for bit
        model, X, D, eta = fit_problem("co", n_heads, S, frac=1.9, seed=77)
        bank = model.heads[0].bank if n_heads > 1 else model.bank
        DS = np.ascontiguousarray(kernel_matrix(X, bank).T)
        want = np.concatenate((np.atleast_2d(D).T, DS), axis=1)
        got = want.copy()
        trainer._linear_blocks(np.zeros((want.shape[1], DS.shape[1])), DS, want, range(S),
                               eta, BLOCK_SIZE, None, out=want)
        trainer._linear_blocks(None, DS, got, range(S), eta, BLOCK_SIZE, None, out=got)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("frac", [0.5, 1.9])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["fixed", "co"])
    def test_long_dataset_order_runs_match_sequential_steps(self, mode, n_heads, frac):
        # the other block tests run at most 3 epochs; the rounding of the
        # epoch's error operator accumulates over every epoch of a run
        model, X, D, eta = fit_problem(mode, n_heads, 2 * BLOCK_SIZE + 44, frac=frac,
                                       seed=69)
        assert_fit_matches_replay(model, X, D, TrainConfig(eta=eta, epochs=60, seed=9,
                                                           init="keep"))

    def test_import_and_fit_load_no_scipy(self):
        # scipy's import alone would cost a fresh process 0.2-0.4 s, and the
        # package declares numpy as its only dependency
        code = textwrap.dedent("""
            import sys
            import numpy as np
            import corbf
            from corbf.kernels import CosineParams, GaussianParams, KernelBank
            from corbf.model import CoFusion, RbfModel
            from corbf.trainer import TrainConfig, fit
            rng = np.random.default_rng(0)
            bank = KernelBank(rng.normal(size=(2, 3)), GaussianParams(1.0), CosineParams())
            X, D = rng.normal(size=(2, 200)), rng.normal(size=200)
            for shuffle in (False, True):
                fit(RbfModel(bank, CoFusion(), np.zeros((3, 2))), X, D,
                    TrainConfig(eta=0.01, epochs=3, shuffle=shuffle))
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        out = run_python("-c", code, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestOneKernelBank:
    @pytest.mark.parametrize("kernel", ["gaussian", "cosine"])
    def test_co_fusion_trains(self, kernel):
        rng = np.random.default_rng(63)
        bank = KernelBank(rng.normal(size=(2, 3)), kernel_order=(kernel,))
        model = RbfModel(bank, CoFusion(), np.zeros((3, 1)))
        X, D = rng.normal(size=(2, 40)), rng.normal(size=40)
        assert_fit_matches_replay(model, X, D, TrainConfig(
            eta=0.05, epochs=3, seed=1, shuffle=True))

    @pytest.mark.parametrize("mode", ["fixed", "adaptive"])
    def test_mixing_modes_need_both_kernels(self, mode):
        rng = np.random.default_rng(64)
        bank = KernelBank(rng.normal(size=(2, 3)), kernel_order=("gaussian",))
        model = RbfModel(bank, FIT_MODES[mode](), np.zeros(3))
        X, D = rng.normal(size=(2, 10)), rng.normal(size=10)
        with pytest.raises(InvalidModelError):
            fit(model, X, D, TrainConfig(eta=0.05, epochs=1))
        with pytest.raises(InvalidModelError):
            sgd_step(model, X[:, 0], float(D[0]), eta=0.05)


class TestKernelOrder:
    """A bank whose kernel_order puts the cosine kernel first: the design
    rows, the mixed rows of fixed and adaptive fusion and every head's theta
    follow that order."""

    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["fixed", "adaptive", "co"])
    def test_cosine_first_matches_sequential_steps(self, mode, n_heads):
        model, X, D, eta = fit_problem(mode, n_heads, BLOCK_SIZE + 30, seed=67,
                                       kernel_order=("cosine", "gaussian"))
        assert_fit_matches_replay(model, X, D, TrainConfig(
            eta=eta, epochs=3, seed=2, shuffle=True, alpha_eta=0.5 * eta))

    @pytest.mark.parametrize("mode", ["fixed", "adaptive", "co"])
    def test_cosine_first_epoch_mse_is_the_models_forward_mse(self, mode):
        model, X, D, eta = fit_problem(mode, 3, BLOCK_SIZE + 30, seed=68,
                                       kernel_order=("cosine", "gaussian"))
        mse = fit(model.copy(), X, D, TrainConfig(eta=eta, epochs=3)).mse_linear
        for epochs in (1, 2, 3):
            final = fit(model.copy(), X, D, TrainConfig(eta=eta, epochs=epochs)).final_model
            Y = np.array([forward_batch(h, X) for h in final.heads])
            np.testing.assert_allclose(mse[epochs - 1], np.mean((D - Y) ** 2), rtol=1e-12)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            TrainConfig(eta=0.0, epochs=1)
        with pytest.raises(InvalidConfigError):
            TrainConfig(eta=0.1, epochs=0)
        with pytest.raises(InvalidConfigError):
            TrainConfig(eta=0.1, epochs=1, init="gaussian")
        for epochs in (2.5, True, "3"):
            with pytest.raises(InvalidConfigError):
                TrainConfig(eta=0.1, epochs=epochs)
        for seed in (-1, 1.5, True, "0"):
            with pytest.raises(InvalidConfigError):
                TrainConfig(eta=0.1, epochs=1, seed=seed)
        for key in ("eta", "alpha_eta", "init_scale"):
            # 10**400 compares below inf but does not convert to a float
            for value in (np.inf, np.nan, 10**400):
                with pytest.raises(InvalidConfigError, match=key):
                    TrainConfig(**{"eta": 0.1, "epochs": 1, key: value})
        for shuffle in ("no", 0, None):
            with pytest.raises(InvalidConfigError, match="shuffle"):
                TrainConfig(eta=0.1, epochs=1, shuffle=shuffle)
        assert TrainConfig(eta=0.1, epochs=np.int64(3)).epochs == 3
        assert TrainConfig(eta=0.1, epochs=1, seed=np.int64(2)).seed == 2
        assert TrainConfig(eta=0.1, epochs=1, init_scale=0.0).init_scale == 0.0
        assert TrainConfig(eta=0.1, epochs=1).effective_alpha_eta == 0.1
        assert TrainConfig(eta=0.1, epochs=1, alpha_eta=0.3).effective_alpha_eta == 0.3


class TestLearningRateBound:
    def test_identity_autocorrelation(self):
        S = 5
        Phi = np.eye(S) * np.sqrt(S)  # R = (1/S) * S * I = I
        np.testing.assert_allclose(learning_rate_bound(Phi), 1.0, rtol=1e-9)

    def test_basis_columns_scale_with_count(self):
        S = 4
        Phi = np.eye(S)  # R = I/S, lambda_max = 1/S
        np.testing.assert_allclose(learning_rate_bound(Phi), float(S), rtol=1e-9)

    def test_scaling_law(self):
        rng = np.random.default_rng(55)
        Phi = rng.normal(size=(6, 30))
        b1 = learning_rate_bound(Phi)
        b2 = learning_rate_bound(3.0 * Phi)
        np.testing.assert_allclose(b2, b1 / 9.0, rtol=1e-8)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(56)
        Phi = rng.normal(size=(6, 40))
        R = (Phi @ Phi.T) / 40
        lam_max = float(np.linalg.eigvalsh(R)[-1])
        np.testing.assert_allclose(learning_rate_bound(Phi), 1.0 / lam_max,
                                   rtol=1e-8)

    def test_on_real_kernel_design(self):
        rng = np.random.default_rng(57)
        bank = small_bank(rng, K=4)
        X = rng.normal(size=(2, 25))
        Phi = kernel_matrix(X, bank)
        R = (Phi @ Phi.T) / 25
        lam_max = float(np.linalg.eigvalsh(R)[-1])
        np.testing.assert_allclose(learning_rate_bound(Phi), 1.0 / lam_max,
                                   rtol=1e-8)

    @pytest.mark.parametrize("task", ["funapprox", "sysid"])
    def test_benchmark_designs_match_dense_eigensolver(self, task, monkeypatch):
        # both designs are symmetric, and the dominant eigenvector of each is
        # orthogonal to the all-ones vector a power iteration would start from
        designs = []
        monkeypatch.setattr(bench, "learning_rate_bound",
                            lambda Phi: designs.append(Phi) or learning_rate_bound(Phi))
        bound = bench.bound_probe(task)["bound"]
        (Phi,) = designs
        lam_max = float(np.linalg.eigvalsh((Phi @ Phi.T) / Phi.shape[1])[-1])
        np.testing.assert_allclose(bound, 1.0 / lam_max, rtol=1e-8)

    def test_all_zero_rejected(self):
        with pytest.raises(EmptyInputError):
            learning_rate_bound(np.zeros((4, 10)))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rejected(self, value):
        # unchecked, either reaches the eigensolver, which raises LinAlgError
        Phi = np.ones((3, 3))
        Phi[1, 2] = value
        with pytest.raises(InvalidConfigError, match="finite"):
            learning_rate_bound(Phi)
        with pytest.raises(InvalidConfigError, match="finite"):
            learning_rate_bound(np.full((3, 3), value))


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = TrainTrace(
            epochs=np.arange(1, 4),
            mse_linear=np.array([0.5, 0.25, 0.125]),
            mse_db=10.0 * np.log10([0.5, 0.25, 0.125]),
            train_acc=np.array([0.5, 0.75, 1.0]),
            test_acc=np.array([0.4, 0.6, 0.9]),
            final_model=None)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        np.testing.assert_array_equal(back["epoch"], trace.epochs)
        np.testing.assert_array_equal(back["mse_linear"], trace.mse_linear)
        np.testing.assert_array_equal(back["mse_db"], trace.mse_db)
        np.testing.assert_array_equal(back["train_acc"], trace.train_acc)
        np.testing.assert_array_equal(back["test_acc"], trace.test_acc)

    def test_regression_traces_use_na(self, tmp_path):
        trace = TrainTrace(epochs=np.arange(1, 3),
                           mse_linear=np.array([1.0, 0.5]),
                           mse_db=np.array([0.0, -3.0103]),
                           train_acc=None, test_acc=None, final_model=None)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        text = path.read_text()
        assert "NA" in text.splitlines()[1]
        back = read_trace_csv(path)
        assert back["train_acc"] is None and back["test_acc"] is None

