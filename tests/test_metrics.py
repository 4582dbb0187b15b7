import math

import numpy as np
import pytest

from corbf.errors import (DimensionMismatchError, EmptyInputError,
                          InvalidConfigError)
from corbf.kernels import CosineParams, GaussianParams, KernelBank
from corbf.metrics import (ConfusionCounts, ErrorSurface, accuracy, confusion,
                           error_surface, format_percent, format_youden,
                           mse_db, mse_db_from_linear,
                           sensitivity_specificity_youden, write_metric_table)
from corbf.model import CoFusion, RbfModel, forward


class TestMseDb:
    def test_constant_error_point_one(self):
        for n in (1, 3, 50):
            assert mse_db(np.full(n, 0.1)) == -20.0

    def test_constant_error_one(self):
        assert mse_db(np.ones(7)) == 0.0

    def test_matches_naive_two_pass_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            e = rng.normal(size=rng.integers(1, 40))
            total = 0.0
            for v in e:
                total += float(v) * float(v)
            expected = 10.0 * math.log10(total / e.size)
            np.testing.assert_allclose(mse_db(e), expected, rtol=1e-12)

    def test_all_zero_gives_negative_infinity(self):
        assert mse_db(np.zeros(5)) == float("-inf")
        assert mse_db_from_linear(0.0) == float("-inf")

    def test_permutation_invariant(self):
        rng = np.random.default_rng(51)
        e = rng.normal(size=25)
        assert mse_db(e) == mse_db(e[rng.permutation(25)])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            mse_db(np.array([]))

    def test_negative_linear_mse_rejected(self):
        with pytest.raises(InvalidConfigError):
            mse_db_from_linear(-1e-9)
        with pytest.raises(InvalidConfigError):
            mse_db_from_linear(np.array([1.0, -1e-9]))

    def test_array_is_each_scalar_bit_for_bit(self):
        # fit converts a whole curve at once; every entry must be the float
        # that 10 * log10 of that entry alone gives
        rng = np.random.default_rng(52)
        mse = np.concatenate(([0.0, 1.0, 5e-324, 1e-300],
                              10.0 ** rng.uniform(-30, 30, 5000), rng.uniform(0, 10, 5000)))
        want = [float("-inf") if v == 0 else float(10.0 * np.log10(v)) for v in mse.tolist()]
        assert mse_db_from_linear(mse).tobytes() == np.array(want).tobytes()
        assert mse_db_from_linear(0.0) == float("-inf")


class TestAccuracy:
    def test_basic_fraction(self):
        assert accuracy(np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2])) == 0.75

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            accuracy(np.array([0, 1]), np.array([0, 1, 2]))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            accuracy(np.array([]), np.array([]))


def count_oracle(pred, truth, n_classes):
    tp = [0] * n_classes
    fp = [0] * n_classes
    tn = [0] * n_classes
    fn = [0] * n_classes
    for c in range(n_classes):
        for p, t in zip(pred, truth):
            if p == c and t == c:
                tp[c] += 1
            elif p == c:
                fp[c] += 1
            elif t == c:
                fn[c] += 1
            else:
                tn[c] += 1
    return tp, fp, tn, fn


class TestConfusion:
    def test_perfect_prediction_has_no_errors(self):
        truth = np.array([0, 1, 2, 0, 1, 2, 2])
        cc = confusion(truth, truth, 3)
        np.testing.assert_array_equal(cc.fp, 0)
        np.testing.assert_array_equal(cc.fn, 0)
        np.testing.assert_array_equal(cc.tp, [2, 2, 3])

    def test_all_predictions_one_class(self):
        n = 30
        truth = np.arange(n) % 3
        pred = np.zeros(n, dtype=int)
        cc = confusion(pred, truth, 3)
        assert cc.fp[0] == 2 * n // 3
        assert cc.tp[0] == n // 3
        assert cc.tn[0] == 0 and cc.fn[0] == 0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            pred = rng.integers(0, 3, size=30)
            truth = rng.integers(0, 3, size=30)
            cc = confusion(pred, truth, 3)
            tp, fp, tn, fn = count_oracle(pred.tolist(), truth.tolist(), 3)
            np.testing.assert_array_equal(cc.tp, tp)
            np.testing.assert_array_equal(cc.fp, fp)
            np.testing.assert_array_equal(cc.tn, tn)
            np.testing.assert_array_equal(cc.fn, fn)

    def test_accuracy_equals_tp_sum_over_n(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            pred = rng.integers(0, 4, size=40)
            truth = rng.integers(0, 4, size=40)
            cc = confusion(pred, truth, 4)
            assert accuracy(pred, truth) == int(np.sum(cc.tp)) / 40

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            confusion(np.array([0, 1]), np.array([0, 1, 2]), 3)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            confusion(np.array([], dtype=int), np.array([], dtype=int), 3)

    def test_labels_out_of_range(self):
        with pytest.raises(InvalidConfigError):
            confusion(np.array([0, 3]), np.array([0, 1]), 3)
        with pytest.raises(InvalidConfigError):
            confusion(np.array([0, 1]), np.array([0, -1]), 3)
        # fractions used to truncate to a class, NaN to warn at the cast
        for pred, truth in (([1.9, 0], [0, 1]), ([np.nan, 0], [0, 1]),
                            ([1, 0], [0, -np.inf])):
            with pytest.raises(InvalidConfigError, match="whole numbers"):
                confusion(pred, truth, 2)
        for n_classes in (1, 2.5, True):
            with pytest.raises(InvalidConfigError, match="n_classes"):
                confusion(np.array([0, 1]), np.array([0, 1]), n_classes)

    def test_labels_that_are_not_numbers(self):
        with pytest.raises(InvalidConfigError, match="pred must be whole numbers"):
            confusion(["a", "b"], [0, 1], 2)
        with pytest.raises(InvalidConfigError, match="truth must be whole numbers"):
            confusion([0, 1], [None, 1], 2)

    def test_counts_validation(self):
        with pytest.raises(InvalidConfigError):
            ConfusionCounts(tp=[1], fp=[0], tn=[-1], fn=[0])
        # per-class totals must agree
        with pytest.raises(InvalidConfigError):
            ConfusionCounts(tp=[1, 2], fp=[0, 0], tn=[1, 1], fn=[0, 0])

    def test_count_properties(self):
        cc = ConfusionCounts(tp=[2, 3], fp=[1, 0], tn=[6, 7], fn=[1, 0])
        assert cc.n_classes == 2
        assert cc.n_samples == 10


class TestSensitivitySpecificityYouden:
    def test_perfect_classifier(self):
        truth = np.array([0, 1, 2] * 5)
        cc = confusion(truth, truth, 3)
        for sens, spec, youden in sensitivity_specificity_youden(cc):
            assert (sens, spec, youden) == (1.0, 1.0, 1.0)

    def test_reference_row_rounds_to_0_9100(self):
        # sensitivity 1.0 with specificity 0.91 must print a Youden of 0.9100
        cc = ConfusionCounts(tp=[30], fp=[9], tn=[91], fn=[0])
        ((sens, spec, youden),) = sensitivity_specificity_youden(cc)
        assert sens == 1.0
        assert spec == 0.91
        assert format_youden(youden) == "0.9100"

    def test_matches_formula_recomputation(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            pred = rng.integers(0, 3, size=60)
            truth = rng.integers(0, 3, size=60)
            cc = confusion(pred, truth, 3)
            rows = sensitivity_specificity_youden(cc)
            for c, (sens, spec, youden) in enumerate(rows):
                assert sens == int(cc.tp[c]) / int(cc.tp[c] + cc.fn[c])
                assert spec == int(cc.tn[c]) / int(cc.tn[c] + cc.fp[c])
                np.testing.assert_allclose(youden, sens + spec - 1.0, rtol=1e-15)
                assert -1.0 <= youden <= 1.0

    def test_youden_is_one_only_for_perfect_class(self):
        cc = ConfusionCounts(tp=[5, 4], fp=[0, 1], tn=[5, 4], fn=[0, 1])
        rows = sensitivity_specificity_youden(cc)
        assert rows[0][2] == 1.0
        assert rows[1][2] < 1.0

    def test_zero_denominators_yield_none(self):
        # class 1 never occurs in truth: TP+FN = 0 -> sensitivity undefined
        cc = confusion(np.array([0, 1, 0]), np.array([0, 0, 0]), 2)
        rows = sensitivity_specificity_youden(cc)
        assert rows[1][0] is None and rows[1][2] is None
        assert rows[1][1] is not None
        # class 0 covers every sample: TN+FP = 0 -> specificity undefined
        assert rows[0][1] is None and rows[0][2] is None


def constant_model(bias, n_centers=2):
    centers = np.array([[0.2, -0.4], [0.5, 0.3]])[:, :n_centers]
    bank = KernelBank(centers, GaussianParams(1.0), CosineParams())
    return RbfModel(bank, CoFusion(), np.zeros((n_centers, 2)), bias=bias)


class TestErrorSurface:
    def test_matching_constant_model_gives_zero_surface(self):
        model = constant_model(bias=0.7)
        surf = error_surface(model, [(-1.0, 1.0), (-1.0, 1.0)], 0.5,
                             lambda v: 0.7)
        np.testing.assert_array_equal(surf.errors, 0.0)

    def test_zero_model_constant_truth_gives_ones(self):
        model = constant_model(bias=0.0)
        surf = error_surface(model, [(0.0, 1.0), (0.0, 1.0)], 0.25,
                             lambda v: 1.0)
        np.testing.assert_array_equal(surf.errors, 1.0)
        assert surf.errors.shape == (5, 5)

    def test_pointwise_oracle(self):
        rng = np.random.default_rng(55)
        bank = KernelBank(rng.normal(size=(2, 3)), GaussianParams(1.0),
                          CosineParams())
        model = RbfModel(bank, CoFusion(), rng.normal(size=(3, 2)),
                         bias=float(rng.normal()))
        truth = lambda v: float(v[0] - 2.0 * v[1])
        surf = error_surface(model, [(-1.0, 1.0), (-0.5, 0.5)], 0.5, truth)
        for i, x1 in enumerate(surf.axis1):
            for j, x2 in enumerate(surf.axis2):
                p = np.array([x1, x2])
                assert surf.errors[i, j] == truth(p) - forward(model, p)

    def test_axis_orientation(self):
        # errors[i, j] must pair axis1[i] with axis2[j], not the transpose
        model = constant_model(bias=0.0)
        surf = error_surface(model, [(0.0, 1.0), (0.0, 2.0)], 1.0,
                             lambda v: float(v[0] + 10.0 * v[1]))
        np.testing.assert_array_equal(surf.axis1, [0.0, 1.0])
        np.testing.assert_array_equal(surf.axis2, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(
            surf.errors, [[0.0, 10.0, 20.0], [1.0, 11.0, 21.0]], rtol=1e-15)

    def test_wrong_input_dimension(self):
        rng = np.random.default_rng(56)
        bank = KernelBank(rng.normal(size=(3, 2)), GaussianParams(1.0),
                          CosineParams())
        model = RbfModel(bank, CoFusion(), np.zeros((2, 2)), bias=0.0)
        with pytest.raises(DimensionMismatchError):
            error_surface(model, [(-1, 1), (-1, 1)], 0.5, lambda v: 0.0)

    def test_wrong_bounds_count(self):
        model = constant_model(bias=0.0)
        with pytest.raises(DimensionMismatchError):
            error_surface(model, [(-1, 1)], 0.5, lambda v: 0.0)

    def test_surface_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            ErrorSurface(axis1=np.arange(2.0), axis2=np.arange(3.0),
                         errors=np.zeros((3, 2)))


class TestFormatting:
    def test_percent(self):
        assert format_percent(0.9771) == "97.71"
        assert format_percent(1.0) == "100.00"
        assert format_percent(0.0) == "0.00"
        assert format_percent(None) == "NA"

    def test_youden(self):
        assert format_youden(0.91) == "0.9100"
        assert format_youden(1.0) == "1.0000"
        assert format_youden(None) == "NA"

    def test_metric_table_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [("co", "testing", "all", 0.9771, 0.0123),
                ("manual", "training", "1", None, None)]
        write_metric_table(path, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "architecture,phase,class,mean,std"
        assert lines[1] == "co,testing,all,97.71,1.23"
        assert lines[2] == "manual,training,1,NA,NA"

    def test_metric_table_youden_formatter(self, tmp_path):
        path = tmp_path / "youden.csv"
        write_metric_table(path, [("co", "testing", "2", 0.91, 0.0302)],
                           formatter=format_youden)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "co,testing,2,0.9100,0.0302"
