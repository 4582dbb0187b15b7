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
from corbf.trainer import (BLOCK_SIZE, CHUNK_EPOCHS, INIT_KINDS, TrainConfig, TrainTrace,
                           fit, learning_rate_bound, read_trace_csv,
                           sgd_step, write_trace_csv)

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

    def test_divergence_guard_trips(self):
        rng = np.random.default_rng(45)
        bank = small_bank(rng)
        model = RbfModel(bank, CoFusion(), np.full((3, 2), 1e13), bias=0.0)
        with pytest.raises(DivergenceError) as exc:
            sgd_step(model, rng.normal(size=2), d=0.0, eta=0.1, epoch=3, sample=7)
        assert exc.value.epoch == 3 and exc.value.sample == 7


class TestFit:
    def test_one_epoch_one_sample_equals_single_step(self):
        rng = np.random.default_rng(46)
        bank = small_bank(rng)
        model = make_model(rng, bank, CoFusion())
        x = rng.normal(size=2)
        d = float(rng.normal())
        manual = model.copy()
        sgd_step(manual, x, d, eta=0.05)
        trace = fit(model.copy(), x.reshape(2, 1), np.array([d]),
                    TrainConfig(eta=0.05, epochs=1, init="keep"))
        np.testing.assert_array_equal(trace.final_model.weights, manual.weights)
        assert trace.final_model.bias == manual.bias
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

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(54)
        bank = small_bank(rng)
        model = make_model(rng, bank, CoFusion())
        with pytest.raises(Exception):
            fit(model, rng.normal(size=(2, 4)), rng.normal(size=5),
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

    def test_rejects_eval_labels_of_another_count(self):
        model, X, _, eta = fit_problem("co", 3, 12, seed=70)
        labels = np.arange(12) % 3
        with pytest.raises(DimensionMismatchError):
            fit(model, X, labels, TrainConfig(eta=eta, epochs=1), (X, labels[:-1]))


FIT_MODES = {"fixed": lambda: FixedFusion(0.3, 0.7), "co": CoFusion,
             "adaptive": lambda: AdaptiveFusion(0.3, 0.7)}


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
        for frac, bad in ((expanding, None), (1e14, None), (1.5, np.nan), (1.5, 1e13))])
    def test_divergence_names_first_failing_step(self, mode, frac, bad_target,
                                                 shuffle, n_heads):
        # At frac 5 every co step expands the errors, and the first to fail
        # sits at presented positions 123-195, past the first block when
        # unshuffled. Fixed fusion's mixed design expands less: at frac 5
        # none of its cases fails within 3 epochs, at frac 6 the first
        # failure comes in epoch 2. At 1e14 they overflow within the first block. A
        # bad target at training-set index 200 under stable steps trips the
        # check of the epoch's error operator in dataset order and of the
        # block solve under shuffle, where a pivoted solve may spread a NaN to
        # the errors before it. The adaptive loop has no blocks; its
        # coefficients make frac 5 fail within the first ten samples.
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
        D[0, 200] = np.nan
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

    @pytest.mark.parametrize("target", [np.nan, 1e13, -1.7e308])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["co", "fixed"])
    def test_stable_failure_in_epoch_1_leaves_the_model_as_it_was(self, mode, n_heads,
                                                                  target):
        # Stable steps in dataset order train by the epoch's error operator;
        # a NaN or too large target at training-set index 200 fails its check
        # in epoch 1, and the model must keep its starting parameters bit for
        # bit. The check runs after the chunk's last epoch, and the epochs
        # after the failing one (which overflow for -1.7e308) warn of nothing.
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

    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["co", "fixed"])
    def test_operator_check_failing_without_divergence_trains_on(self, mode, n_heads,
                                                                 monkeypatch):
        # At bias and targets 1e300 every sequential error is exactly 0, yet
        # F - W J^T cancels at 1e300 and fails the operator's check in every
        # epoch. Each epoch then trains by blocks, which do not raise, and the
        # second chunk goes back to the operator first.
        model, X, D, eta = fit_problem(mode, n_heads, 40, frac=1.5, seed=64)
        for h in (model.heads if n_heads > 1 else [model]):
            h.bias = 1e300
        D[...] = 1e300
        start = model.copy()
        cfg = TrainConfig(eta=eta, epochs=CHUNK_EPOCHS + 3, init="keep")
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

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("mode", ["co", "fixed", "adaptive"])
    def test_chunking_leaves_no_trace_in_the_bits(self, mode, n_heads, shuffle,
                                                  monkeypatch):
        # fit evaluates its epochs, and checks its error-operator epochs, a
        # chunk of CHUNK_EPOCHS at a time. A fit ending before, at or after a
        # chunk's end holds the first epochs of a longer fit bit for bit, and
        # ends with the rows of the same fit run one epoch per chunk.
        C = CHUNK_EPOCHS
        model, X, D, eta = fit_problem(mode, n_heads, 24, seed=62)
        rng = np.random.default_rng(63)
        eval_set = (rng.normal(size=X.shape), rng.integers(0, 3, 24)) if n_heads == 3 else None

        def run(epochs):
            return fit(model.copy(), X, D, TrainConfig(eta=eta, epochs=epochs, seed=5,
                                                       shuffle=shuffle, init="keep"),
                       eval_set)

        columns = ("epochs", "mse_linear", "mse_db", "train_acc", "test_acc")
        full = run(2 * C + 5)
        assert (full.test_acc is None) == (eval_set is None)
        traces = {T: run(T) for T in (1, C - 1, C, C + 1, 2 * C + 3)}
        monkeypatch.setattr(trainer, "CHUNK_EPOCHS", 1)
        for T, trace in traces.items():
            for name in columns:
                got, want = getattr(trace, name), getattr(full, name)
                if want is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, want[:T])
            single = run(T)
            for name in columns:
                np.testing.assert_array_equal(getattr(trace, name), getattr(single, name))
            np.testing.assert_array_equal(head_params(trace.final_model),
                                          head_params(single.final_model))

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
            for value in (np.inf, np.nan):
                with pytest.raises(InvalidConfigError):
                    TrainConfig(**{"eta": 0.1, "epochs": 1, key: value})
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

