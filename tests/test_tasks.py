import math

import numpy as np
import pytest

from corbf.errors import DataFormatError, InvalidConfigError
from corbf.tasks import (DEFAULT_FUNAPPROX_TARGET, FUNAPPROX_TARGETS,
                         IRIS_ENV_VAR, LabeledDataset, funapprox_target,
                         gen_function_approx, gen_sysid, load_iris,
                         plant_response, square_wave)


class TestLoadIris:
    def test_split_sizes(self):
        for seed in (0, 1, 99):
            train, test = load_iris(seed=seed)
            assert train.n_samples == 120
            assert test.n_samples == 30
            assert train.X.shape == (4, 120)
            for c in range(3):
                assert int(np.sum(train.y == c)) == 40
                assert int(np.sum(test.y == c)) == 10

    def test_split_is_a_partition(self):
        # multiset equality against an independent parse of the vendored CSV;
        # the classic table has one duplicated row, so sets would undercount
        import csv
        from collections import Counter
        from importlib import resources

        train, test = load_iris(seed=3)
        emitted = Counter()
        for ds in (train, test):
            for j in range(ds.n_samples):
                emitted[tuple(ds.X[:, j]) + (int(ds.y[j]),)] += 1

        expected = Counter()
        order: list[str] = []
        path = resources.files("corbf").joinpath("data/iris.csv")
        with open(str(path), encoding="utf-8", newline="") as fh:
            for rec in csv.reader(fh):
                if not rec:
                    continue
                try:
                    feats = tuple(float(v) for v in rec[:4])
                except ValueError:
                    continue  # header
                name = rec[4].strip()
                if name not in order:
                    order.append(name)
                expected[feats + (order.index(name),)] += 1

        assert sum(expected.values()) == 150
        assert emitted == expected
        assert train.class_labels == test.class_labels
        assert len(train.class_labels) == 3

    def test_same_seed_identical(self):
        a_train, a_test = load_iris(seed=11)
        b_train, b_test = load_iris(seed=11)
        np.testing.assert_array_equal(a_train.X, b_train.X)
        np.testing.assert_array_equal(a_train.y, b_train.y)
        np.testing.assert_array_equal(a_test.X, b_test.X)

    def test_different_seeds_differ(self):
        hits = 0
        for seed in range(10):
            a, _ = load_iris(seed=seed)
            b, _ = load_iris(seed=seed + 100)
            if not np.array_equal(a.X, b.X):
                hits += 1
        assert hits == 10

    def test_features_unscaled(self):
        train, test = load_iris(seed=0)
        allx = np.concatenate([train.X, test.X], axis=1)
        # raw centimeter units, not normalized to [0, 1] or zero mean
        assert allx.max() > 7.0
        assert allx.min() > 0.0

    def test_env_var_override(self, monkeypatch, tmp_path):
        bogus = tmp_path / "nope.csv"
        monkeypatch.setenv(IRIS_ENV_VAR, str(bogus))
        with pytest.raises(DataFormatError) as exc:
            load_iris()
        assert str(bogus) in str(exc.value)

    def test_explicit_path_beats_env(self, monkeypatch, tmp_path):
        # the env override points nowhere, so an explicit good path must win
        from importlib import resources
        monkeypatch.setenv(IRIS_ENV_VAR, str(tmp_path / "ignored.csv"))
        good = str(resources.files("corbf").joinpath("data/iris.csv"))
        train, test = load_iris(path=good, seed=0)
        assert train.n_samples == 120 and test.n_samples == 30

    def test_bad_field_count_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3,4,a\n5,6,7\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as exc:
            load_iris(path=str(p))
        assert exc.value.line == 2

    def test_non_numeric_feature_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3,4,a\n5,x,7,8,b\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as exc:
            load_iris(path=str(p))
        assert exc.value.line == 2

    def test_wrong_row_count(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("1,2,3,4,a\n" * 10, encoding="utf-8")
        with pytest.raises(DataFormatError) as exc:
            load_iris(path=str(p))
        assert "150" in str(exc.value)

    def test_header_autodetected(self, tmp_path):
        rows = ["f1,f2,f3,f4,label"]
        for c in ("a", "b", "c"):
            rows.extend(f"1,2,3,{i},{c}" for i in range(50))
        p = tmp_path / "with_header.csv"
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        train, test = load_iris(path=str(p))
        assert train.n_samples == 120
        assert train.class_labels == ("a", "b", "c")


class TestLabeledDataset:
    def test_shape_validation(self):
        with pytest.raises(Exception):
            LabeledDataset(np.zeros((2, 3)), np.zeros(4), "train")


class TestFunctionApprox:
    def test_sizes(self):
        train, test = gen_function_approx()
        assert train.n_samples == 121
        assert test.n_samples == 100

    def test_default_target_at_origin(self):
        fn = funapprox_target(DEFAULT_FUNAPPROX_TARGET)
        assert fn(np.zeros(2)) == 1.0

    def test_exact_lattices(self):
        train, test = gen_function_approx()
        train_axis = np.array([-1.0 + 0.2 * k for k in range(11)])
        test_axis = np.array([-0.9 + 0.2 * k for k in range(10)])
        np.testing.assert_array_equal(np.unique(train.X[0]), train_axis)
        np.testing.assert_array_equal(np.unique(train.X[1]), train_axis)
        np.testing.assert_array_equal(np.unique(test.X[0]), test_axis)
        np.testing.assert_array_equal(np.unique(test.X[1]), test_axis)

    def test_targets_match_function(self):
        train, _ = gen_function_approx()
        fn = funapprox_target()
        for j in range(0, 121, 13):
            p = train.X[:, j]
            assert train.y[j] == fn(p)
            np.testing.assert_allclose(
                train.y[j], math.exp(p[0] ** 2 - p[1] ** 2), rtol=1e-15)

    def test_constant_target(self):
        assert "constant-one" in FUNAPPROX_TARGETS
        train, test = gen_function_approx(funapprox_target("constant-one"))
        np.testing.assert_array_equal(train.y, 1.0)
        np.testing.assert_array_equal(test.y, 1.0)

    def test_custom_truth_fn(self):
        train, _ = gen_function_approx(lambda p: float(p[0]))
        np.testing.assert_array_equal(train.y, train.X[0])

    def test_unknown_target_name(self):
        with pytest.raises(InvalidConfigError):
            funapprox_target("no-such-target")


class TestSquareWave:
    def test_unit_amplitude_and_duty_cycle(self):
        u = square_wave(400, 40)
        assert u.shape == (400,)
        assert set(np.unique(u)) == {-1.0, 1.0}
        np.testing.assert_array_equal(u[:20], 1.0)
        np.testing.assert_array_equal(u[20:40], -1.0)
        assert int(np.sum(u == 1.0)) == 200

    def test_period_repeats(self):
        u = square_wave(120, 40)
        np.testing.assert_array_equal(u[:40], u[40:80])
        np.testing.assert_array_equal(u[:40], u[80:120])

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            square_wave(0, 40)
        with pytest.raises(InvalidConfigError):
            square_wave(10, 3)
        with pytest.raises(InvalidConfigError):
            square_wave(10, 0)
        # integers only: 4.5 samples used to give 5
        with pytest.raises(InvalidConfigError, match="n_samples"):
            square_wave(4.5, 2)
        with pytest.raises(InvalidConfigError, match="period"):
            square_wave(4, 4.0)


class TestPlantResponse:
    def test_constant_one_input(self):
        y = plant_response(np.ones(10))
        steady = 2.0 - 0.5 - 0.1 - 0.7 * (math.cos(3.0) + math.exp(-1.0))
        np.testing.assert_allclose(y[2:], steady, rtol=1e-15)
        # zero-padded history shortens the taps at the start
        np.testing.assert_allclose(
            y[0], 2.0 - 0.7 * (math.cos(3.0) + math.exp(-1.0)), rtol=1e-15)
        np.testing.assert_allclose(
            y[1], 2.0 - 0.5 - 0.7 * (math.cos(3.0) + math.exp(-1.0)), rtol=1e-15)

    def test_zero_input(self):
        y = plant_response(np.zeros(6))
        np.testing.assert_allclose(y, -1.4, rtol=1e-15)

    def test_scalar_recurrence_oracle(self):
        rng = np.random.default_rng(57)
        u = rng.normal(size=12)
        y = plant_response(u)
        for t in range(12):
            u1 = u[t - 1] if t >= 1 else 0.0
            u2 = u[t - 2] if t >= 2 else 0.0
            expected = (2.0 * u[t] - 0.5 * u1 - 0.1 * u2
                        - 0.7 * (math.cos(3.0 * u[t]) + math.exp(-abs(u[t]))))
            np.testing.assert_allclose(y[t], expected, rtol=1e-12)


class TestGenSysid:
    def test_default_shapes(self):
        sig = gen_sysid(seed=0)
        assert sig.n_samples == 400
        assert sig.u.shape == sig.y_clean.shape == sig.y_noisy.shape

    def test_clean_channel_recomputes_bit_identically(self):
        sig = gen_sysid(seed=5)
        np.testing.assert_array_equal(sig.y_clean, plant_response(sig.u))

    def test_noise_variance_in_band(self):
        for seed in range(5):
            sig = gen_sysid(seed=seed)
            resid = sig.y_noisy - sig.y_clean
            var = float(np.var(resid))
            assert 0.15 <= var <= 0.25
            assert sig.noise_variance == 0.2

    def test_seed_determinism(self):
        a = gen_sysid(seed=9)
        b = gen_sysid(seed=9)
        c = gen_sysid(seed=10)
        np.testing.assert_array_equal(a.y_noisy, b.y_noisy)
        assert not np.array_equal(a.y_noisy, c.y_noisy)

    def test_zero_variance_noise_free(self):
        sig = gen_sysid(seed=0, noise_variance=0.0)
        np.testing.assert_array_equal(sig.y_noisy, sig.y_clean)

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidConfigError):
            gen_sysid(noise_variance=-0.1)
        # an infinite variance used to give infinite targets
        with pytest.raises(InvalidConfigError, match="noise_variance"):
            gen_sysid(noise_variance=np.inf)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
@pytest.mark.parametrize("make", [load_iris, gen_sysid], ids=["iris", "sysid"])
def test_seed_must_be_an_integer_at_least_zero(make, seed):
    # unchecked, -1 and 1.5 raised NumPy's ValueError and TypeError, and True
    # was taken as seed 1
    with pytest.raises(InvalidConfigError, match="seed"):
        make(seed=seed)
