import json

import numpy as np
import pytest

from corbf.errors import (DataFormatError, EmptyInputError, InvalidConfigError,
                          InvalidModelError, PartitionError)
from corbf.kernels import (CosineParams, GaussianParams, KernelBank,
                           cosine_kernel, gaussian_kernel, kernel_vector)
from corbf.model import (AdaptiveFusion, CoFusion, FixedFusion,
                         MultiHeadRbfModel, RbfModel, Scenario4Center,
                         _params, _set_params, _thetas,
                         center_contributions, discriminative_power, forward,
                         forward_batch, load_model, multiclass_decision,
                         save_model)


def random_bank(rng, a=3, K=4, sigma=1.0):
    return KernelBank(rng.normal(size=(a, K)), GaussianParams(sigma), CosineParams())


def random_model(rng, mode, a=3, K=4):
    bank = random_bank(rng, a, K)
    if isinstance(mode, CoFusion):
        w = rng.normal(size=(K, 2))
    else:
        w = rng.normal(size=K)
    return RbfModel(bank, mode, w, bias=float(rng.normal()))


def double_sum_oracle(model, x):
    """Explicit sum over centers and kernels, one scalar kernel call each."""
    bank = model.bank
    y = model.bias
    for k in range(bank.n_centers):
        m = bank.centers[:, k]
        phis = {"gaussian": gaussian_kernel(x, m, bank.gaussian),
                "cosine": cosine_kernel(x, m, bank.cosine)}
        if isinstance(model.mode, CoFusion):
            for l, name in enumerate(bank.kernel_order):
                y += model.weights[k, l] * phis[name]
        else:
            alphas = {"gaussian": model.mode.alpha_gaussian,
                      "cosine": model.mode.alpha_cosine}
            mixed = sum(alphas[name] * phis[name] for name in bank.kernel_order)
            y += model.weights[k] * mixed
    return y


class TestForward:
    def test_zero_weights_give_bias_every_mode(self):
        rng = np.random.default_rng(21)
        bank = random_bank(rng)
        for mode, shape in ((FixedFusion(0.5, 0.5), (4,)),
                            (AdaptiveFusion(0.5, 0.5), (4,)),
                            (CoFusion(), (4, 2))):
            model = RbfModel(bank, mode, np.zeros(shape), bias=2.5)
            for _ in range(5):
                assert forward(model, rng.normal(size=3)) == 2.5

    def test_cofusion_isolated_gaussian_channel(self):
        m = np.array([0.4, -0.2])
        bank = KernelBank(m.reshape(2, 1), GaussianParams(1.0), CosineParams())
        model = RbfModel(bank, CoFusion(), np.array([[1.0, 0.0]]), bias=0.0)
        assert forward(model, m) == 1.0

    def test_matrix_form_matches_double_sum_oracle(self):
        rng = np.random.default_rng(22)
        for mode_f in (CoFusion, lambda: FixedFusion(0.3, 0.7),
                       lambda: AdaptiveFusion(0.8, 0.4)):
            model = random_model(rng, mode_f())
            for _ in range(20):
                x = rng.normal(size=3)
                np.testing.assert_allclose(forward(model, x),
                                           double_sum_oracle(model, x),
                                           rtol=1e-12, atol=1e-14)

    def test_factorization_equivalence(self):
        # Fixed/adaptive models are the rank-one special case of the co mode.
        rng = np.random.default_rng(23)
        for _ in range(10):
            base = random_model(rng, FixedFusion(0.25, 0.75))
            W = np.stack([base.weights * 0.25, base.weights * 0.75], axis=1)
            co = RbfModel(base.bank, CoFusion(), W, bias=base.bias)
            for _ in range(5):
                x = rng.normal(size=3)
                np.testing.assert_allclose(forward(co, x), forward(base, x),
                                           rtol=1e-12, atol=1e-12)

    def test_identity_weight_matrix_admits_no_factorization(self):
        # W = [[1,0],[0,1]] needs alpha_g = 1 at center 1 and 0 at center 2
        # simultaneously; a shared per-kernel alpha cannot do both. Grid over
        # (alpha_g, alpha_c) with the exactly optimal w per grid point, which
        # dominates any simultaneous grid over w.
        rng = np.random.default_rng(24)
        bank = random_bank(rng, a=2, K=2)
        co = RbfModel(bank, CoFusion(), np.eye(2), bias=0.0)
        xs = rng.normal(size=(6, 2))
        target = np.array([forward(co, x) for x in xs])
        phis = np.stack([kernel_vector(x, bank) for x in xs])
        best = np.inf
        grid = np.linspace(-2.0, 2.0, 41)
        for ag in grid:
            for ac in grid:
                mixed = ag * phis[:, 1:3] + ac * phis[:, 3:5]
                w, *_ = np.linalg.lstsq(mixed, target, rcond=None)
                best = min(best, float(np.max(np.abs(mixed @ w - target))))
        assert best > 1e-3

    def test_continuity_in_input(self):
        rng = np.random.default_rng(25)
        model = random_model(rng, CoFusion())
        for _ in range(50):
            x = rng.normal(size=3)
            dx = rng.normal(size=3) * 1e-4
            dy = abs(forward(model, x + dx) - forward(model, x))
            assert dy <= 100.0 * np.linalg.norm(dx)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(26)
        model = random_model(rng, CoFusion())
        with pytest.raises(Exception):
            forward(model, np.zeros(5))


class TestForwardBatch:
    def test_single_column_equals_forward(self):
        rng = np.random.default_rng(27)
        model = random_model(rng, FixedFusion())
        x = rng.normal(size=3)
        np.testing.assert_array_equal(forward_batch(model, x.reshape(3, 1)),
                                      [forward(model, x)])

    def test_zero_weights_constant_bias(self):
        rng = np.random.default_rng(28)
        bank = random_bank(rng)
        model = RbfModel(bank, CoFusion(), np.zeros((4, 2)), bias=-1.25)
        X = rng.normal(size=(3, 7))
        np.testing.assert_array_equal(forward_batch(model, X), np.full(7, -1.25))

    def test_bit_exact_to_looped_forward(self):
        rng = np.random.default_rng(29)
        for mode in (CoFusion(), FixedFusion(0.5, 0.5), AdaptiveFusion(0.2, 0.9)):
            model = random_model(rng, mode)
            X = rng.normal(size=(3, 13))
            batch = forward_batch(model, X)
            looped = [forward(model, X[:, j]) for j in range(13)]
            np.testing.assert_array_equal(batch, looped)


class TestMulticlassDecision:
    def test_plain_argmax(self):
        assert multiclass_decision(np.array([0.9, 0.2, 0.1])) == 0
        assert multiclass_decision(np.array([0.1, 0.2, 0.9])) == 2

    def test_tie_break_lowest_index(self):
        assert multiclass_decision(np.array([0.5, 0.5, 0.1])) == 0
        assert multiclass_decision(np.array([0.2, 0.7, 0.7])) == 1

    def test_scan_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            v = rng.normal(size=int(rng.integers(2, 8)))
            best = 0
            for i in range(1, v.size):
                if v[i] > v[best]:
                    best = i
            assert multiclass_decision(v) == best

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            multiclass_decision(np.array([]))


class TestValidation:
    def test_fixed_fusion_requires_convexity(self):
        FixedFusion(0.0, 1.0)
        FixedFusion(1.0, 0.0)
        with pytest.raises(InvalidConfigError):
            FixedFusion(0.6, 0.6)
        with pytest.raises(InvalidConfigError):
            FixedFusion(-0.1, 1.1)
        for pair in ((True, False), ("1", 0.0)):
            with pytest.raises(InvalidConfigError, match="alpha_gaussian"):
                FixedFusion(*pair)

    def test_adaptive_fusion_allows_nonconvex_but_finite(self):
        AdaptiveFusion(1.7, -0.4)
        with pytest.raises(InvalidConfigError):
            AdaptiveFusion(np.inf, 0.0)
        for a in (True, "1"):
            with pytest.raises(InvalidConfigError, match="alpha_gaussian"):
                AdaptiveFusion(a, 0.5)

    def test_weight_shape_must_match_mode(self):
        rng = np.random.default_rng(31)
        bank = random_bank(rng)
        with pytest.raises(InvalidModelError):
            RbfModel(bank, CoFusion(), np.zeros(4))
        with pytest.raises(InvalidModelError):
            RbfModel(bank, FixedFusion(), np.zeros((4, 2)))
        with pytest.raises(InvalidModelError):
            RbfModel(bank, CoFusion(), np.zeros((3, 2)))

    def test_nonfinite_weights_rejected(self):
        rng = np.random.default_rng(32)
        bank = random_bank(rng)
        w = np.zeros((4, 2))
        w[1, 1] = np.nan
        with pytest.raises(InvalidModelError):
            RbfModel(bank, CoFusion(), w)
        for bias in (np.inf, True, "1"):
            with pytest.raises(InvalidModelError, match="bias"):
                RbfModel(bank, CoFusion(), np.zeros((4, 2)), bias=bias)

    def test_multihead_requires_shared_bank(self):
        rng = np.random.default_rng(33)
        b1 = random_bank(rng)
        b2 = KernelBank(b1.centers.copy(), b1.gaussian, b1.cosine)
        h1 = RbfModel(b1, CoFusion(), np.zeros((4, 2)))
        h2 = RbfModel(b2, CoFusion(), np.zeros((4, 2)))
        with pytest.raises(InvalidModelError):
            MultiHeadRbfModel([h1, h2])

    def test_multihead_adaptive_heads_need_distinct_modes(self):
        rng = np.random.default_rng(34)
        bank = random_bank(rng)
        shared = AdaptiveFusion(0.5, 0.5)
        h1 = RbfModel(bank, shared, np.zeros(4))
        h2 = RbfModel(bank, shared, np.zeros(4))
        with pytest.raises(InvalidModelError):
            MultiHeadRbfModel([h1, h2])

    def test_multihead_decide_batch(self):
        rng = np.random.default_rng(35)
        bank = random_bank(rng)
        heads = [RbfModel(bank, CoFusion(), rng.normal(size=(4, 2)),
                          bias=float(rng.normal())) for _ in range(3)]
        mm = MultiHeadRbfModel(heads, ("a", "b", "c"))
        X = rng.normal(size=(3, 9))
        preds = mm.decide_batch(X)
        outputs = mm.forward_batch(X)
        for j in range(9):
            assert preds[j] == multiclass_decision(outputs[:, j])

    def test_multihead_labels_are_distinct_names(self):
        rng = np.random.default_rng(37)
        bank = random_bank(rng)
        heads = [RbfModel(bank, CoFusion(), np.zeros((4, 2))) for _ in range(3)]
        assert MultiHeadRbfModel(heads, ["a", "b", "c"]).class_labels == ("a", "b", "c")
        assert MultiHeadRbfModel(heads).class_labels == ("0", "1", "2")
        for labels in ("abc", ("x", "x", 1), ("x", "x", "y"), ("x", "y", 1),
                       np.array(["a", "b", "c"])):
            with pytest.raises(InvalidModelError, match="class_labels"):
                MultiHeadRbfModel(heads, labels)


class TestCenterContributions:
    def test_sums_to_forward_minus_bias(self):
        rng = np.random.default_rng(36)
        for mode in (CoFusion(), FixedFusion(0.4, 0.6), AdaptiveFusion(0.9, 0.3)):
            model = random_model(rng, mode)
            for _ in range(10):
                x = rng.normal(size=3)
                np.testing.assert_allclose(
                    float(np.sum(center_contributions(model, x))),
                    forward(model, x) - model.bias, rtol=1e-12, atol=1e-12)


class TestDiscriminativePower:
    def test_partition_must_cover_and_not_overlap(self):
        rng = np.random.default_rng(37)
        model = random_model(rng, CoFusion())
        x = rng.normal(size=3)
        with pytest.raises(PartitionError):
            discriminative_power(model, x, ((0, 1), (1, 2, 3)))
        with pytest.raises(PartitionError):
            discriminative_power(model, x, ((0, 1), (2,)))

    def test_symmetric_weights_on_symmetric_partition(self):
        rng = np.random.default_rng(38)
        bank = random_bank(rng, a=2, K=4)
        model = RbfModel(bank, CoFusion(), np.ones((4, 2)), bias=0.0)
        x = rng.normal(size=2)
        got = discriminative_power(model, x, ((0, 1), (2, 3)))
        contrib = center_contributions(model, x)
        np.testing.assert_allclose(got, contrib[0] + contrib[1] - contrib[2] - contrib[3],
                                   rtol=1e-12, atol=1e-15)


class TestScenario:
    def test_default_geometry_passes_gate(self):
        sc = Scenario4Center.default()
        sc.verify(atol=1e-9)
        r = sc.residuals()
        assert abs(r["dist_gap_1"]) < 1e-12
        assert abs(r["dist_gap_2"]) < 1e-12
        assert abs(r["cosine_sum_gap"]) < 1e-12
        assert r["angle_margin_1"] > 0 and r["angle_margin_2"] > 0 and r["angle_margin_3"] > 0

    def test_naive_geometry_fails_gate(self):
        # Reflected-corner construction violates the cosine-sum condition.
        sc = Scenario4Center(
            center1_a=np.array([1.0, 3.0]), center2_a=np.array([3.0, 1.0]),
            center1_b=np.array([-1.0, 3.0]), center2_b=np.array([3.0, -1.0]),
            test_point=np.array([6.0, 8.0]))
        with pytest.raises(InvalidConfigError):
            sc.verify(atol=1e-9)

    def test_single_kernel_and_adaptive_power_vanish(self):
        sc = Scenario4Center.default()
        sc.verify(atol=1e-9)
        bank = KernelBank(sc.centers(), GaussianParams(1.0), CosineParams())
        part = sc.partition()
        unit = np.ones(4)
        psi_g = discriminative_power(
            RbfModel(bank, FixedFusion(1.0, 0.0), unit), sc.test_point, part)
        psi_c = discriminative_power(
            RbfModel(bank, FixedFusion(0.0, 1.0), unit), sc.test_point, part)
        psi_a = discriminative_power(
            RbfModel(bank, AdaptiveFusion(0.37, 0.63), unit), sc.test_point, part)
        assert abs(psi_g) <= 1e-9
        assert abs(psi_c) <= 1e-9
        assert abs(psi_a) <= 1e-9

    def test_per_center_weights_break_the_tie(self):
        sc = Scenario4Center.default()
        bank = KernelBank(sc.centers(), GaussianParams(1.0), CosineParams())
        W = np.array([[0.9, 0.1], [0.4, 0.7], [0.2, 0.8], [0.6, 0.3]])
        psi_r = discriminative_power(
            RbfModel(bank, CoFusion(), W), sc.test_point, sc.partition())
        assert abs(psi_r) > 1e-3


class TestParams:
    """_params, _set_params and _thetas: the one head <-> row <-> theta layout."""

    ORDERS = [("gaussian", "cosine"), ("cosine", "gaussian")]

    @staticmethod
    def heads(rng, mode, order, H, K=4):
        bank = KernelBank(rng.normal(size=(3, K)), GaussianParams(1.0), CosineParams(),
                          kernel_order=order)
        out = []
        for _ in range(H):
            if mode == "co":
                m, w = CoFusion(), rng.normal(size=(K, 2))
            elif mode == "fixed":
                m, w = FixedFusion(0.25, 0.75), rng.normal(size=K)
            else:
                m, w = AdaptiveFusion(*rng.normal(size=2).tolist()), rng.normal(size=K)
            out.append(RbfModel(bank, m, w, bias=float(rng.normal())))
        return out

    @pytest.mark.parametrize("H", [1, 3])
    @pytest.mark.parametrize("order", ORDERS, ids="-".join)
    @pytest.mark.parametrize("mode", ["co", "fixed", "adaptive"])
    def test_set_params_of_params_is_identity(self, mode, order, H):
        heads = self.heads(np.random.default_rng(60), mode, order, H)
        before = [(h.weights.copy(), h.bias, vars(h.mode).copy()) for h in heads]
        rows, alphas = _params(heads)
        assert rows.shape == (H, 1 + heads[0].weights.size)
        assert alphas.shape == (H, 0 if mode == "co" else 2)
        _set_params(heads, rows, alphas)
        for h, (w, b, m) in zip(heads, before):
            np.testing.assert_array_equal(h.weights, w)
            assert h.weights.shape == w.shape and h.weights.flags.c_contiguous
            assert h.bias == b and vars(h.mode) == m

    @pytest.mark.parametrize("order", ORDERS, ids="-".join)
    @pytest.mark.parametrize("mode", ["co", "fixed", "adaptive"])
    def test_thetas_match_the_forward_pass(self, mode, order):
        rng = np.random.default_rng(61)
        (head,) = self.heads(rng, mode, order, 1)
        x = rng.normal(size=3)
        theta = _thetas(*_params([head]), head.bank)[0]
        np.testing.assert_allclose(theta @ kernel_vector(x, head.bank),
                                   double_sum_oracle(head, x), rtol=1e-12)

    def test_heads_of_mixed_modes(self):
        # MultiHeadRbfModel does not require one mode, and rows then differ in length
        rng = np.random.default_rng(63)
        (co,) = self.heads(rng, "co", self.ORDERS[0], 1)
        fixed = RbfModel(co.bank, FixedFusion(0.25, 0.75), rng.normal(size=4), bias=0.5)
        x = rng.normal(size=3)
        np.testing.assert_array_equal(MultiHeadRbfModel([co, fixed]).forward(x),
                                      [forward(co, x), forward(fixed, x)])

    @pytest.mark.parametrize("order", ORDERS, ids="-".join)
    @pytest.mark.parametrize("mode", ["co", "fixed", "adaptive"])
    def test_stacked_thetas_equal_per_head_thetas(self, mode, order):
        rng = np.random.default_rng(62)
        heads = self.heads(rng, mode, order, 3)
        rows, alphas = _params(heads)
        n = 5
        rows = rows + rng.normal(size=(n, *rows.shape))
        alphas = alphas + rng.normal(size=(n, *alphas.shape))
        stacked = _thetas(rows, alphas, heads[0].bank)
        assert stacked.shape == (n, 3, heads[0].bank.vector_len)
        for i in range(n):
            for c in range(3):
                np.testing.assert_array_equal(
                    stacked[i, c], _thetas(rows[i, c], alphas[i, c], heads[0].bank))
        # written into part of a buffer, as fit writes a chunk's thetas
        buf = np.zeros((n + 2, *stacked.shape[1:]))
        _thetas(rows, alphas, heads[0].bank, out=buf[1:-1])
        np.testing.assert_array_equal(buf[1:-1], stacked)
        assert not buf[0].any() and not buf[-1].any()


class TestSerialization:
    def test_single_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(39)
        model = random_model(rng, CoFusion())
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back.mode, CoFusion)
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.bank.centers, model.bank.centers)
        assert back.bias == model.bias
        x = rng.normal(size=3)
        assert forward(back, x) == forward(model, x)

    def test_multihead_round_trip(self, tmp_path):
        rng = np.random.default_rng(40)
        bank = random_bank(rng)
        heads = [RbfModel(bank, AdaptiveFusion(0.5, 0.5), rng.normal(size=4))
                 for _ in range(3)]
        mm = MultiHeadRbfModel(heads, ("x", "y", "z"))
        path = tmp_path / "multi.json"
        save_model(mm, path)
        back = load_model(path)
        assert back.class_labels == ("x", "y", "z")
        X = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(back.forward_batch(X), mm.forward_batch(X))

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(DataFormatError):
            load_model(path)
        path.write_text('{"format": "unknown/9"}')
        with pytest.raises(DataFormatError):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: {k: v for k, v in doc.items() if k != "bank"},
        lambda doc: {k: v for k, v in doc.items() if k != "bias"},
        lambda doc: [doc],
        lambda doc: {**doc, "bank": {**doc["bank"], "centers": "abc"}},
        lambda doc: {**doc, "bias": "x"},
        lambda doc: {**doc, "mode": {"kind": "x"}},
    ], ids=["no-bank", "no-bias", "top-level-list", "text-centers", "text-bias",
            "unknown-kind"])
    def test_malformed_document_is_a_data_format_error(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(random_model(np.random.default_rng(41), CoFusion()), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(DataFormatError) as exc:
            load_model(path)
        assert exc.value.path == str(path)

    def test_well_formed_invalid_model_is_an_invalid_model_error(self, tmp_path):
        rng = np.random.default_rng(42)
        bank = random_bank(rng)
        heads = [RbfModel(bank, CoFusion(), rng.normal(size=(4, 2))) for _ in range(2)]
        path = tmp_path / "multi.json"
        save_model(MultiHeadRbfModel(heads), path)
        doc = json.loads(path.read_text())
        for labels in (["x"], "xy"):  # a string used to be read as its letters
            path.write_text(json.dumps({**doc, "class_labels": labels}))
            with pytest.raises(InvalidModelError):
                load_model(path)

    @pytest.mark.parametrize("key", ["sigma", "epsilon"])
    def test_text_kernel_parameter_is_an_invalid_config_error(self, tmp_path, key):
        # well-formed JSON whose kernel parameter is not a number
        path = tmp_path / "model.json"
        save_model(random_model(np.random.default_rng(43), CoFusion()), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "bank": {**doc["bank"], key: "1"}}))
        with pytest.raises(InvalidConfigError, match=key):
            load_model(path)
