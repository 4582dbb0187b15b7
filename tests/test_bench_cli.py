import dataclasses
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import corbf
from corbf import bench, cli
from corbf.bench import (ARCHITECTURES, IRIS_INFLUENCE, MANIFEST_NAME,
                         TASK_DEFAULTS, TASKS, ExperimentConfig, bound_probe,
                         compare_report, config_from_manifest, curve_name,
                         expected_artifacts, mean_curve_name,
                         read_surface_csv, read_test_errors_csv,
                         run_experiment)
from corbf.errors import (DataFormatError, DivergenceError, InvalidConfigError,
                          MissingArtifactsError, _read_csv)
from corbf.metrics import write_metric_table
from corbf.model import AdaptiveFusion, CoFusion, FixedFusion, MultiHeadRbfModel
from corbf.tasks import plant_response
from corbf.trainer import TrainTrace, read_trace_csv, write_trace_csv

from helpers import run_corbf, run_python


@pytest.fixture(scope="module")
def tiny_funapprox(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_funapprox")
    cfg = ExperimentConfig(task="funapprox", runs=2, epochs=3, out_dir=str(out))
    assert run_experiment(cfg) == 0
    return out


@pytest.fixture(scope="module")
def tiny_iris(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_iris")
    cfg = ExperimentConfig(task="iris", runs=1, epochs=5, out_dir=str(out))
    assert run_experiment(cfg) == 0
    return out


def _clone(directory, tmp_path, **manifest_fields):
    """A copy of an experiment directory, its manifest edited by the fields."""
    clone = tmp_path / "clone"
    shutil.copytree(directory, clone)
    path = clone / MANIFEST_NAME
    manifest = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**manifest, **manifest_fields}), encoding="utf-8")
    return clone


def _write_curve(path, db, acc=None):
    """A crafted curve with the given dB values and, when acc is given, that
    train and test accuracy at every epoch."""
    db = np.asarray(db, dtype=np.float64)
    accs = None if acc is None else np.full(db.shape, acc)
    write_trace_csv(TrainTrace(epochs=np.arange(1, db.size + 1),
                               mse_linear=10.0 ** (db / 10.0), mse_db=db,
                               train_acc=accs, test_acc=accs, final_model=None), path)


class TestExperimentConfig:
    def test_defaults_match_published_settings(self):
        assert TASK_DEFAULTS["iris"]["eta"] == 5e-3
        assert TASK_DEFAULTS["iris"]["epochs"] == 2000
        assert TASK_DEFAULTS["iris"]["sigma"] == 1.0
        assert TASK_DEFAULTS["funapprox"]["eta"] == 1e-3
        assert TASK_DEFAULTS["sysid"]["eta"] == 1e-4
        assert IRIS_INFLUENCE == 0.2
        assert TASKS == ("iris", "funapprox", "sysid")
        assert ARCHITECTURES == ("manual", "adaptive", "co")

    def test_construction_fills_task_defaults(self, tiny_iris, tmp_path):
        cfg = ExperimentConfig(task="iris")
        assert cfg.epochs == 2000 and cfg.eta == 5e-3
        explicit = ExperimentConfig(task="iris", epochs=7, eta=0.1)
        assert explicit.epochs == 7 and explicit.eta == 0.1
        # the Gaussian width and presentation order are not settings; the
        # manifest records the ones the task fixes
        sysid = ExperimentConfig(task="sysid", architectures=("co",), runs=1, epochs=1,
                                 out_dir=str(tmp_path))
        assert run_experiment(sysid) == 0
        for out, sigma, shuffle in ((tiny_iris, 1.0, True), (tmp_path, 0.5, False)):
            man = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
            assert (man["sigma"], man["shuffle"]) == (sigma, shuffle)

    def test_validation(self):
        bad = [dict(task="nope"),
               dict(architectures=()),
               dict(architectures=("co", "co")),
               dict(architectures=("bogus",)),
               dict(runs=0),
               dict(jobs=0),
               dict(epochs=0),
               dict(eta=0.0),
               dict(eta=-1.0),
               dict(eta=float("inf")),
               dict(eta=float("nan")),
               dict(runs="2"),
               dict(seed="0"),
               dict(seed=-1),
               dict(epochs=2.5),
               dict(eta="0.1"),
               dict(eta=10**400),
               dict(jobs=True),
               dict(architectures=2),
               dict(funapprox_target="nope"),
               dict(sysid_centers="nope"),
               dict(sysid_centers=["symmetric"]),
               dict(architectures="manual")]
        for overrides in bad:
            kwargs = dict(task="iris")
            kwargs.update(overrides)
            with pytest.raises(InvalidConfigError):
                ExperimentConfig(**kwargs)
        # every named setting refuses an empty, missing, bare or nested name,
        # and says which setting it refused
        for key in ("task", "architectures", "funapprox_target", "sysid_centers"):
            for value in ((), None, "gaussian", [["gaussian"]]):
                with pytest.raises(InvalidConfigError, match=key):
                    ExperimentConfig(**{"task": "iris", key: value})

    def test_unwritable_out_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        cfg = ExperimentConfig(task="funapprox", runs=1, epochs=1,
                               out_dir=str(blocker / "sub"))
        with pytest.raises(InvalidConfigError):
            run_experiment(cfg)

    def test_writability_probe_keeps_existing_files(self, tmp_path):
        keep = tmp_path / ".writable"
        keep.write_text("keep", encoding="utf-8")
        cfg = ExperimentConfig(task="sysid", runs=1, epochs=2, out_dir=str(tmp_path))
        assert run_experiment(cfg) == 0
        assert keep.read_text(encoding="utf-8") == "keep"
        # and the probe leaves nothing behind
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert sorted(os.listdir(tmp_path)) == sorted(manifest["artifacts"] + [".writable"])


class TestFunapproxArtifacts:
    def test_all_expected_artifacts_exist(self, tiny_funapprox):
        for name in expected_artifacts("funapprox", ARCHITECTURES):
            assert (tiny_funapprox / name).is_file(), name
        for arch in ARCHITECTURES:
            for r in range(2):
                assert (tiny_funapprox / curve_name("funapprox", arch, r)).is_file()

    def test_manifest_contents(self, tiny_funapprox):
        with open(tiny_funapprox / MANIFEST_NAME, encoding="utf-8") as fh:
            man = json.load(fh)
        assert man["format"] == "corbf-manifest/1"
        assert man["version"] == corbf.__version__
        assert man["task"] == "funapprox"
        assert man["runs"] == 2 and man["epochs"] == 3
        assert man["run_seeds"] == [0, 1]
        assert man["divergence_count"] == 0
        assert man["artifacts"] == sorted(man["artifacts"])
        for name in expected_artifacts("funapprox", ARCHITECTURES):
            assert name in man["artifacts"]
        # the environment the curves depend on (the BLAS thread variables
        # are null when unset)
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        assert man["environment"] == {
            "python": ".".join(map(str, sys.version_info[:3])), "numpy": np.__version__,
            "corbf": corbf.__version__, "cpu_count": os.cpu_count(),
            **{key: os.environ.get(key) for key in threads}}

    def test_curve_rows_match_epochs(self, tiny_funapprox):
        for arch in ARCHITECTURES:
            per_run = read_trace_csv(tiny_funapprox / curve_name("funapprox", arch, 0))
            mean = read_trace_csv(tiny_funapprox / mean_curve_name("funapprox", arch))
            assert per_run["epoch"].shape == (3,)
            assert mean["epoch"].shape == (3,)
            assert per_run["train_acc"] is None  # regression task

    def test_mean_curve_recomputes_from_run_curves(self, tiny_funapprox):
        # fixture oracle: the emitted mean curve must equal an epoch-wise mean
        # of the emitted per-run curves (CSV floats round-trip losslessly)
        for arch in ARCHITECTURES:
            runs = [read_trace_csv(tiny_funapprox / curve_name("funapprox", arch, r))
                    for r in range(2)]
            mean = read_trace_csv(tiny_funapprox / mean_curve_name("funapprox", arch))
            np.testing.assert_array_equal(
                mean["mse_db"], np.stack([t["mse_db"] for t in runs]).mean(axis=0))
            np.testing.assert_array_equal(
                mean["mse_linear"],
                np.stack([t["mse_linear"] for t in runs]).mean(axis=0))

    def test_surface_csvs_parse(self, tiny_funapprox):
        train = read_surface_csv(tiny_funapprox / "funapprox_co_train_surface.csv")
        test = read_surface_csv(tiny_funapprox / "funapprox_co_test_surface.csv")
        assert train["error"].shape == (121,)
        assert test["error"].shape == (100,)
        assert train["x1"].min() == -1.0 and train["x1"].max() == 1.0
        assert test["x1"].min() == -0.9 and test["x1"].max() == 0.9

    def test_test_errors_csv_parses(self, tiny_funapprox):
        errs = read_test_errors_csv(tiny_funapprox / "funapprox_co_test_errors.csv")
        assert sorted(errs) == [0, 1]
        assert errs[0].shape == (100,)

    def test_report_runs_without_reference_rows_missing(self, tiny_funapprox):
        text = compare_report(tiny_funapprox)
        assert "funapprox final train MSE dB (co)" in text
        assert "ordering check" in text
        assert text.endswith("diverged runs: 0\n")

    def test_report_on_synthetic_curves(self, tiny_funapprox, tmp_path):
        # fixture oracle: crafted mean curves and test errors with known values
        # must surface verbatim in the report
        clone = _clone(tiny_funapprox, tmp_path)
        crafted = {"manual": ([-1.0, -4.0, -8.25], [0.2, -0.01, 0.03]),
                   "adaptive": ([-1.0, -6.0, -9.0], [-3.5, 0.25, 4.25]),
                   "co": ([-1.0, -5.0, -9.5], [0.1, -0.151, -0.0625])}
        for arch, (db, errors) in crafted.items():
            _write_curve(clone / mean_curve_name("funapprox", arch), db)
            (clone / f"funapprox_{arch}_test_errors.csv").write_text(
                "run,index,error\n0,0,%r\n0,1,%r\n1,0,%r\n" % tuple(errors),
                encoding="utf-8")
        assert compare_report(clone) == """\
experiment: funapprox | architectures: manual, adaptive, co | runs: 2 | epochs: 3 | eta: 0.001

quantity                                               measured           reported
----------------------------------------------------------------------------------
funapprox final train MSE dB (manual)                     -8.25             -36.53
funapprox final train MSE dB (adaptive)                   -9.00             -20.50
funapprox final train MSE dB (co)                         -9.50             -39.83
funapprox max |test error| (manual)                       0.200      [-0.15, 0.15]
funapprox max |test error| (adaptive)                     4.250        [-3.0, 4.5]
funapprox max |test error| (co)                           0.151        [-0.1, 0.1]

citations:
  reported final training MSE (dB) and test instantaneous-error bands at epoch 2000, \
function-approximation benchmark (stated target reduces to a constant; not comparable \
to the shipped default target)

acceptance checks:
  ordering check (co final lowest): PASS (co -9.50, manual -8.25, adaptive -9.00 dB)
  test-error band check (co within ±0.15): FAIL (max 0.151)
  ordering check (co final <= adaptive final): PASS (co -9.50 vs adaptive -9.00 dB)

diverged runs: 0
"""


class TestIrisArtifacts:
    def test_metric_tables_exist_and_parse(self, tiny_iris):
        for name in ("accuracy", "sensitivity", "specificity", "youden"):
            path = tiny_iris / f"iris_{name}.csv"
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == "architecture,phase,class,mean,std"
            assert len(lines) > 1
        acc_lines = (tiny_iris / "iris_accuracy.csv").read_text(
            encoding="utf-8").splitlines()[1:]
        seen = {tuple(l.split(",")[:3]) for l in acc_lines}
        for arch in ARCHITECTURES:
            assert (arch, "training", "all") in seen
            assert (arch, "testing", "all") in seen
        for line in acc_lines:
            mean_cell = line.split(",")[3]
            if mean_cell != "NA":
                assert 0.0 <= float(mean_cell) <= 100.0

    def test_report_contains_reference_accuracy_cells(self, tiny_iris):
        text = compare_report(tiny_iris)
        assert "98.35 ± 0.12" in text
        assert "99.13 ± 1.47" in text
        assert "citations:" in text

    def test_report_on_synthetic_curves(self, tiny_iris, tmp_path):
        # fixture oracle: a crafted accuracy table, 240-epoch mean curves and
        # two runs' final test accuracies must surface verbatim in the report
        clone = _clone(tiny_iris, tmp_path, runs=2, epochs=240)
        finals = {"manual": (-15.0, (0.95, 0.97)), "adaptive": (-33.0, (0.9, 1.0)),
                  "co": (-32.0, (0.95, 1.0))}
        for arch, (final, accs) in finals.items():
            db = np.linspace(-1.0, final, 240)
            _write_curve(clone / mean_curve_name("iris", arch), db)
            for run, acc in enumerate(accs):
                _write_curve(clone / curve_name("iris", arch, run), db, acc)
        write_metric_table(clone / "iris_accuracy.csv", [
            ("manual", "training", "all", 0.98, 0.01),
            ("manual", "testing", "all", 0.96, 0.0141),
            ("adaptive", "training", "all", 0.99, None),
            ("adaptive", "testing", "all", 0.95, 0.0707),
            ("co", "training", "all", 0.9875, 0.0025)])
        # co@160 = -1 - 31 * 159 / 239; co's mean test accuracy 0.975 >= manual's 0.96
        assert compare_report(clone) == """\
experiment: iris | architectures: manual, adaptive, co | runs: 2 | epochs: 240 | eta: 0.005

quantity                                               measured           reported
----------------------------------------------------------------------------------
iris training accuracy % (manual)                  98.00 ± 1.00       97.71 ± 0.61
iris testing accuracy % (manual)                   96.00 ± 1.41       97.00 ± 1.01
iris training accuracy % (adaptive)                  99.00 ± NA       98.59 ± 1.12
iris testing accuracy % (adaptive)                 95.00 ± 7.07       98.50 ± 4.68
iris training accuracy % (co)                      98.75 ± 0.25       98.35 ± 0.12
iris testing accuracy % (co)                                 NA       99.13 ± 1.47
iris final train MSE dB (manual)                         -15.00             -33.33
iris final train MSE dB (adaptive)                       -33.00             -33.33
iris final train MSE dB (co)                             -32.00             -35.39

citations:
  reported mean classification accuracy (percent, 100-run protocol), iris benchmark
  reported training-MSE milestones (dB), iris benchmark: -30.17 dB reached at epoch \
160 by the co architecture vs epoch 240 by both baselines; final -35.39 dB vs -33.33 dB \
at epoch 2000

acceptance checks:
  accuracy check (co testing >= 96.5% and >= manual): PASS
  final-MSE check (co mean <= -31 dB): PASS (measured -32.00 dB)
  early-convergence check (co@160 <= baselines@240): FAIL (co@160 -21.62 vs -33.00 dB)
  ordering check (co final <= adaptive final): FAIL (co -32.00 vs adaptive -33.00 dB)

diverged runs: 0
"""

    @pytest.mark.parametrize("co,manual,co_cell", [
        pytest.param((0.96, 0.969902), (0.95, 0.95), "96.50", id="co-below-96.5"),
        pytest.param((0.96996, 0.96996), (0.97004, 0.97004), "97.00",
                     id="co-below-manual")])
    def test_accuracy_check_reads_unrounded_run_accuracies(self, tiny_iris, tmp_path,
                                                           co, manual, co_cell):
        # criterion 5 takes the mean of each run's final test accuracy; the
        # table rounds it to two decimals, where co passes both clauses
        clone = _clone(tiny_iris, tmp_path, runs=2)
        rows = []
        for arch, accs in (("co", co), ("manual", manual), ("adaptive", (1.0, 1.0))):
            for run, acc in enumerate(accs):
                _write_curve(clone / curve_name("iris", arch, run), [-1.0] * 5, acc)
            rows.append((arch, "testing", "all", float(np.mean(accs)), 0.0))
        write_metric_table(clone / "iris_accuracy.csv", rows)
        text = compare_report(clone)
        row = next(l for l in text.splitlines() if l.startswith("iris testing accuracy % (co)"))
        assert f" {co_cell} ± 0.00 " in row
        assert "accuracy check (co testing >= 96.5% and >= manual): FAIL" in text

    def test_curves_record_accuracies(self, tiny_iris):
        trace = read_trace_csv(tiny_iris / curve_name("iris", "co", 0))
        assert trace["train_acc"] is not None and trace["test_acc"] is not None
        assert trace["train_acc"].shape == (5,)
        assert np.all((trace["test_acc"] >= 0.0) & (trace["test_acc"] <= 1.0))


class TestSysidArtifacts:
    @pytest.fixture()
    def tiny_sysid(self, tmp_path):
        cfg = ExperimentConfig(task="sysid", runs=1, epochs=3, out_dir=str(tmp_path))
        assert run_experiment(cfg) == 0
        return tmp_path

    def test_trace_pairs_use_clean_plant_output(self, tiny_sysid):
        lines = (tiny_sysid / "sysid_co_trace.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == "t,input,actual,predicted"
        assert len(lines) == 1 + 400
        cols = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        np.testing.assert_array_equal(cols[:, 0], np.arange(400))
        np.testing.assert_array_equal(cols[:, 2], plant_response(cols[:, 1]))

    def test_report_on_synthetic_curves(self, tiny_sysid):
        # fixture oracle: hand-crafted mean curves with known dB values must
        # surface verbatim in the report's measured column and checks
        crafted = {"co": [-1.0, -5.8, -6.0],
                   "adaptive": [-1.0, -3.0, -5.6],
                   "manual": [-1.0, -2.0, -5.1]}
        for arch, db in crafted.items():
            _write_curve(tiny_sysid / mean_curve_name("sysid", arch), db)
        # co reaches -6.0 + 0.5 = -5.5 first at epoch 2; spread = -5.1 - (-6.0)
        assert compare_report(tiny_sysid) == """\
experiment: sysid | architectures: manual, adaptive, co | runs: 1 | epochs: 3 | eta: 0.0001

quantity                                               measured           reported
----------------------------------------------------------------------------------
sysid final train MSE dB (manual)                         -5.10              ±3.48
sysid epochs to final+0.5 dB (manual)                         3        fastest: co
sysid final train MSE dB (adaptive)                       -5.60              ±3.48
sysid epochs to final+0.5 dB (adaptive)                       3        fastest: co
sysid final train MSE dB (co)                             -6.00              ±3.48
sysid epochs to final+0.5 dB (co)                             2        fastest: co

citations:
  reported minimum MSE magnitude (dB) on the system-identification benchmark; sign \
inconsistent between sections, all three architectures quoted identical

acceptance checks:
  convergence-speed check (co fastest to final+0.5 dB): PASS
  final-MSE agreement check (spread <= 1 dB): PASS (spread 0.900 dB)
  ordering check (co final <= adaptive final): PASS (co -6.00 vs adaptive -5.60 dB)

diverged runs: 0
"""

    def test_battery_ordering_recomputed_from_csvs(self, sysid_battery):
        finals = {}
        reach = {}
        for arch in ARCHITECTURES:
            db = np.asarray(sysid_battery.mean_db[arch])
            finals[arch] = float(db[-1])
            reach[arch] = int(np.nonzero(db <= finals[arch] + 0.5)[0][0]) + 1
        assert max(finals.values()) - min(finals.values()) <= 1.0
        assert reach["co"] < reach["manual"]
        assert reach["co"] < reach["adaptive"]


def _report_verdicts(directory) -> dict[str, bool]:
    """{check name: passed} from a report's acceptance checks."""
    block = compare_report(directory).split("acceptance checks:\n")[1].split("\n\n")[0]
    names_verdicts = (line.strip().split(": ", 1) for line in block.splitlines())
    return {name: verdict.startswith("PASS") for name, verdict in names_verdicts}


ORDERING_CHECK = "ordering check (co final <= adaptive final)"


class TestReportAgreesWithCriteria:
    """Each acceptance check of the report on a Tier-1 battery directory
    reaches the verdict of the criterion clause it mirrors, evaluated on the
    same Battery the acceptance suite evaluates."""

    def test_iris(self, iris_battery):
        acc = {a: float(np.mean(iris_battery.final_test_acc[a])) for a in ("co", "manual")}
        db, finals = iris_battery.mean_db, iris_battery.final_db
        assert _report_verdicts(iris_battery.directory) == {
            "accuracy check (co testing >= 96.5% and >= manual)":
                acc["co"] >= 0.965 - 1e-9 and acc["co"] >= acc["manual"],
            "final-MSE check (co mean <= -31 dB)": finals["co"] <= -31.0,
            "early-convergence check (co@160 <= baselines@240)":
                float(db["co"][159]) <= min(float(db["manual"][239]),
                                            float(db["adaptive"][239])),
            ORDERING_CHECK: finals["co"] <= finals["adaptive"]}

    def test_funapprox(self, funapprox_battery):
        finals = funapprox_battery.final_db
        errs = read_test_errors_csv(
            funapprox_battery.directory / "funapprox_co_test_errors.csv")
        max_abs = max(float(np.max(np.abs(e))) for e in errs.values())
        assert _report_verdicts(funapprox_battery.directory) == {
            "ordering check (co final lowest)":
                finals["co"] <= min(finals["manual"], finals["adaptive"]),
            "test-error band check (co within ±0.15)": max_abs <= 0.15,
            ORDERING_CHECK: finals["co"] <= finals["adaptive"]}

    def test_sysid(self, sysid_battery):
        finals = sysid_battery.final_db
        reach = {arch: int(np.nonzero(db <= finals[arch] + 0.5)[0][0]) + 1
                 for arch, db in sysid_battery.mean_db.items()}
        assert _report_verdicts(sysid_battery.directory) == {
            "convergence-speed check (co fastest to final+0.5 dB)":
                reach["co"] < reach["manual"] and reach["co"] < reach["adaptive"],
            "final-MSE agreement check (spread <= 1 dB)":
                max(finals.values()) - min(finals.values()) <= 1.0,
            ORDERING_CHECK: finals["co"] <= finals["adaptive"]}


# (arch, run) -> whether that run diverges; the exit status run returns
DIVERGENCE_SCENARIOS = {
    "none": (lambda arch, run: False, 0),
    "run0": (lambda arch, run: run == 0, 0),
    "co": (lambda arch, run: arch == "co", 0),
    "all": (lambda arch, run: True, 1),
}
ARCH_OF_MODE = {FixedFusion: "manual", AdaptiveFusion: "adaptive", CoFusion: "co"}


class TestReportReadsEveryRunDirectory:
    @pytest.mark.parametrize("scenario", DIVERGENCE_SCENARIOS)
    @pytest.mark.parametrize("task", TASKS)
    def test_report_reads_what_run_wrote(self, task, scenario, monkeypatch, tmp_path):
        diverges, status = DIVERGENCE_SCENARIOS[scenario]
        real_fit = bench.fit

        def fit(model, X, D, train, **kwargs):
            # the root seed is 0, so a run's seed is its index
            head = model.heads[0] if isinstance(model, MultiHeadRbfModel) else model
            if diverges(ARCH_OF_MODE[type(head.mode)], train.seed):
                raise DivergenceError(epoch=1, sample=1, error_value=1e13)
            return real_fit(model, X, D, train, **kwargs)

        monkeypatch.setattr(bench, "fit", fit)
        out = tmp_path / "out"
        assert cli.main(["run", task, "--runs", "3", "--epochs", "3", "--jobs", "1",
                         "--out", str(out)]) == status
        manifest = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert sorted(os.listdir(out)) == manifest["artifacts"]
        # besides the curves of its completed runs, run writes what it promises
        ran = tuple(a for a in ARCHITECTURES if not all(diverges(a, r) for r in range(3)))
        curves = {curve_name(task, a, r) for a in ARCHITECTURES for r in range(3)}
        assert (sorted(set(manifest["artifacts"]) - curves)
                == sorted(expected_artifacts(task, ran)))
        text = compare_report(out)
        for arch in ARCHITECTURES:
            all_diverged = all(diverges(arch, run) for run in range(3))
            assert (f"{arch}: all runs diverged" in text) == all_diverged, arch
        if scenario == "run0" and task != "iris":
            # run 1 is the first completed run, the same seeded run as run 0
            # of a --seed 1 experiment
            monkeypatch.setattr(bench, "fit", real_fit)
            ref = tmp_path / "seed1"
            assert cli.main(["run", task, "--runs", "1", "--epochs", "3", "--seed", "1",
                             "--out", str(ref)]) == 0
            names = [n for n in manifest["artifacts"] if n.endswith(("surface.csv",
                                                                    "trace.csv"))]
            assert len(names) == (6 if task == "funapprox" else 3)
            for name in names:
                assert (out / name).read_bytes() == (ref / name).read_bytes(), name


class TestCompareReportErrors:
    def test_empty_directory(self, tmp_path):
        with pytest.raises(MissingArtifactsError) as exc:
            compare_report(tmp_path)
        assert exc.value.missing == [MANIFEST_NAME]

    def test_missing_artifact_listed(self, tiny_funapprox, tmp_path):
        clone = tmp_path / "clone"
        shutil.copytree(tiny_funapprox, clone)
        victim = "funapprox_adaptive_test_errors.csv"
        os.remove(clone / victim)
        with pytest.raises(MissingArtifactsError) as exc:
            compare_report(clone)
        assert exc.value.missing == [victim]

    def test_iris_checks_without_run_curves(self, tiny_iris, tmp_path):
        # the accuracy check reads the runs' curves; with none left it has
        # nothing to read, which is a missing artifact and not a FAIL
        clone = _clone(tiny_iris, tmp_path)
        os.remove(clone / curve_name("iris", "manual", 0))
        with pytest.raises(MissingArtifactsError) as exc:
            compare_report(clone)
        assert exc.value.missing == [curve_name("iris", "manual", 0)]

    def test_run_curve_missing_without_divergence_record(self, tiny_iris, tmp_path,
                                                         capsys):
        # the manifest records two runs and no divergence, so each run left a
        # curve; the accuracy check must not average the one run left
        clone = _clone(tiny_iris, tmp_path, runs=2)
        with pytest.raises(MissingArtifactsError) as exc:
            compare_report(clone)
        assert exc.value.missing == sorted(curve_name("iris", a, 1) for a in ARCHITECTURES)
        assert cli.main(["report", str(clone)]) == 2
        assert curve_name("iris", "co", 1) in capsys.readouterr().err

    def test_diverged_runs_need_no_curve(self, tiny_iris, tmp_path):
        record = {"run": 1, "epoch": 1, "sample": 1, "error_value": 1e13}
        clone = _clone(tiny_iris, tmp_path, runs=2, divergence_count=3,
                       divergences={a: [record] for a in ARCHITECTURES})
        assert "diverged runs: 3" in compare_report(clone)

    @pytest.mark.parametrize("archs", ["manual,co", "manual,adaptive,co"])
    def test_architecture_whose_runs_all_diverged(self, archs, tmp_path, capsys):
        # at this eta every co run diverges in epoch 1 and the run succeeds;
        # the report expects no co artifact, says co diverged and builds no
        # three-architecture check, but still misses a completed one's file
        out = tmp_path / "out"
        assert cli.main(["run", "sysid", "--arch", archs, "--runs", "2", "--epochs", "5",
                         "--eta", "0.5", "--out", str(out)]) == 0
        manifest = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert [r["run"] for r in manifest["divergences"]["co"]] == [0, 1]
        assert not manifest["divergences"]["manual"]
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "co: all runs diverged" in text
        assert "(co)" not in text and "acceptance checks" not in text
        assert "sysid final train MSE dB (manual)" in text
        os.remove(out / "sysid_manual_trace.csv")
        assert cli.main(["report", str(out)]) == 2
        assert "missing: sysid_manual_trace.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda m: {k: v for k, v in m.items() if k != "sysid_centers"},
                     "manifest lacks the key 'sysid_centers'", id="missing-key"),
        pytest.param(lambda m: [1, 2], "manifest is not a JSON object",
                     id="not-an-object"),
        pytest.param(lambda m: {**m, "runs": "2"},
                     "manifest holds an invalid setting: "
                     "runs must be an integer >= 1, got '2'", id="runs-string"),
        pytest.param(lambda m: {**m, "seed": "0"},
                     "manifest holds an invalid setting: "
                     "seed must be an integer >= 0, got '0'", id="seed-string"),
        pytest.param(lambda m: {**m, "shuffle": "yes"},
                     "manifest records shuffle 'yes', but this version runs False",
                     id="shuffle-string"),
        pytest.param(lambda m: {**m, "sigma": 0.7},
                     "manifest records sigma 0.7, but this version runs 1.0",
                     id="sigma-not-run"),
        pytest.param(lambda m: {**m, "divergence_count": "many"},
                     "manifest records divergence_count 'many' for 0 divergence records",
                     id="divergence-count-string"),
        pytest.param(lambda m: {**m, "divergence_count": 1},
                     "manifest records divergence_count 1 for 0 divergence records",
                     id="divergence-count-disagrees"),
        pytest.param(lambda m: {**m, "divergences": {"co": [{"epoch": 1}]},
                                "divergence_count": 1},
                     "manifest records divergence_count 1 for malformed divergence records",
                     id="divergence-record-without-run"),
        pytest.param(lambda m: {**m, "divergences": {**m["divergences"], "manual": [{"run": 7}]},
                                "divergence_count": 1},
                     "manifest records divergence_count 1 for malformed divergence records",
                     id="divergence-run-out-of-range"),
        pytest.param(lambda m: {**m, "divergences": {**m["divergences"], "bogus": []}},
                     "manifest records divergence_count 0 for malformed divergence records",
                     id="divergence-key-not-an-architecture"),
        pytest.param(lambda m: {**m, "divergences": {**m["divergences"],
                                                     "co": [{"run": 1}, {"run": 1}]},
                                "divergence_count": 2},
                     "manifest records divergence_count 2 for malformed divergence records",
                     id="divergence-run-twice")])
    def test_report_on_malformed_manifest_exits_2(self, tiny_funapprox, tmp_path,
                                                   capsys, edit, message):
        clone = tmp_path / "clone"
        shutil.copytree(tiny_funapprox, clone)
        manifest = clone / MANIFEST_NAME
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text(
            encoding="utf-8")))), encoding="utf-8")
        assert cli.main(["report", str(clone)]) == 2
        assert f"{manifest}: {message}" in capsys.readouterr().err


# reader, header, a good row, a short row, a row with a non-numeric field
READERS = {
    "trace": (read_trace_csv, "epoch,mse_linear,mse_db,train_acc,test_acc",
              "1,0.5,-3.0,NA,NA", "1,0.5,-3.0", "1,0.5,x,NA,NA"),
    "surface": (read_surface_csv, "x1,x2,error", "0.1,0.2,0.3", "0.1,0.2",
                "0.1,zz,0.3"),
    "test-errors": (read_test_errors_csv, "run,index,error", "0,0,0.5", "0,0",
                    "0,1,nope"),
    "sysid-trace": (lambda p: _read_csv(p, bench._SYSID_TRACE_CSV),
                    "t,input,actual,predicted", "0,1.0,2.0,2.5", "1,1.0,2.0",
                    "1,1.0,2.0,x"),
    "metric-table": (bench._read_metric_table, "architecture,phase,class,mean,std",
                     "co,testing,all,97.50,1.20", "co,testing,all,97.50",
                     "co,testing,all,abc,1.20"),
}


class TestArtifactReaders:
    @pytest.mark.parametrize("fmt", READERS)
    def test_malformed_rows_raise_data_format_error(self, fmt, tmp_path):
        read, header, good, short, bad = READERS[fmt]
        path = tmp_path / "artifact.csv"
        path.write_text(f"{header}\n{good}\n", encoding="utf-8")
        read(path)
        for text, line in ((f"{header},extra\n{good}\n", 1),
                           (f"{header}\n{good}\n{short}\n", 3),
                           (f"{header}\n{good}\n{bad}\n", 3)):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataFormatError) as exc:
                read(path)
            assert (exc.value.path, exc.value.line) == (str(path), line)

    def test_report_on_malformed_test_errors_exits_2(self, tiny_funapprox, tmp_path,
                                                     capsys):
        clone = tmp_path / "clone"
        shutil.copytree(tiny_funapprox, clone)
        (clone / "funapprox_co_test_errors.csv").write_text(
            "run,index,error\n0,0\n", encoding="utf-8")
        assert cli.main(["report", str(clone)]) == 2
        assert "funapprox_co_test_errors.csv:2: expected 3 fields" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("name,text,message", [
        pytest.param("funapprox_co_test_errors.csv", "run,index,error\n",
                      "no test errors", id="test-errors-header-only"),
        pytest.param("funapprox_co_mean_curve.csv",
                     "epoch,mse_linear,mse_db,train_acc,test_acc\n",
                     "expected 3 epochs, got 0", id="mean-curve-header-only"),
        pytest.param("funapprox_co_mean_curve.csv",
                     "epoch,mse_linear,mse_db,train_acc,test_acc\n1,0.5,-3.0,NA,NA\n",
                     "expected 3 epochs, got 1", id="mean-curve-short")])
    def test_report_on_artifact_without_rows_exits_2(self, tiny_funapprox, tmp_path,
                                                      capsys, name, text, message):
        # the report reads the last epoch of every mean curve and the largest
        # test error of every architecture, so rows missing there are malformed
        clone = tmp_path / "clone"
        shutil.copytree(tiny_funapprox, clone)
        (clone / name).write_text(text, encoding="utf-8")
        assert cli.main(["report", str(clone)]) == 2
        assert f"{name}: {message}" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("task", TASKS)
    def test_jobs_do_not_change_artifacts(self, task, tmp_path):
        # iris results carry metric dicts and sysid results trace arrays across
        # the process boundary
        serial, pooled = tmp_path / "jobs1", tmp_path / "jobs2"
        for out, jobs in ((serial, 1), (pooled, 2)):
            cfg = ExperimentConfig(task=task, runs=2, epochs=3, out_dir=str(out),
                                   jobs=jobs)
            assert run_experiment(cfg) == 0
        assert sorted(os.listdir(serial)) == sorted(os.listdir(pooled))
        for name in os.listdir(serial):
            if name == MANIFEST_NAME:
                a = json.loads((serial / name).read_text(encoding="utf-8"))
                b = json.loads((pooled / name).read_text(encoding="utf-8"))
                for drop in ("wall_clock_sec", "jobs"):
                    a.pop(drop), b.pop(drop)
                assert a == b
            else:
                assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name

    def test_import_loads_no_process_pool(self):
        # only --jobs > 1 uses the pool; importing it (and multiprocessing)
        # would cost every fresh `import corbf`
        out = run_python("-c", "import sys, corbf; print(sorted(m for m in sys.modules "
                         "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_workers_capped_at_run_count(self, monkeypatch, tmp_path):
        # the pool forks all its workers at the first submit; a fake that maps
        # in this process records how many were asked for
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", InProcessPool)
        cfg = ExperimentConfig(task="sysid", architectures=("co",), runs=2, epochs=2,
                               out_dir=str(tmp_path), jobs=64)
        assert run_experiment(cfg) == 0
        assert asked == [2]

    @pytest.mark.parametrize("task", TASKS)
    def test_manifest_round_trip_reproduces_curves(self, task, tmp_path):
        # iris is the one shuffled task: its rerun must shuffle too
        first, rerun_dir = tmp_path / "first", tmp_path / "rerun"
        assert run_experiment(ExperimentConfig(task=task, runs=2, epochs=3,
                                               out_dir=str(first))) == 0
        cfg = config_from_manifest(first / MANIFEST_NAME)
        assert run_experiment(dataclasses.replace(cfg, out_dir=str(rerun_dir))) == 0
        assert sorted(os.listdir(first)) == sorted(os.listdir(rerun_dir))
        for name in os.listdir(first):
            if name != MANIFEST_NAME:
                assert (first / name).read_bytes() == (rerun_dir / name).read_bytes(), name

    def test_config_from_manifest_reads_a_manifest_without_environment(self, tmp_path):
        # a manifest as written before it recorded its environment, by
        # `corbf run sysid --runs 2 --epochs 300`
        manifest = {
            "alpha_eta": None, "architectures": ["manual", "adaptive", "co"],
            "artifacts": ["manifest.json"] + [
                f"sysid_{arch}_{name}.csv" for arch in ("adaptive", "co", "manual")
                for name in ("mean_curve", "run00_curve", "run01_curve", "trace")],
            "divergence_count": 0, "divergences": {"adaptive": [], "co": [], "manual": []},
            "epochs": 300, "eta": 0.0001, "format": "corbf-manifest/1",
            "funapprox_target": "exp-x1sq-minus-x2sq", "init": "uniform",
            "init_scale": 0.1, "jobs": 1, "run_seeds": [0, 1], "runs": 2, "seed": 0,
            "shuffle": False, "sigma": 0.5, "sysid_centers": "symmetric", "task": "sysid",
            "version": "0.1.0", "wall_clock_sec": 1.972}
        path = tmp_path / MANIFEST_NAME
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
        assert config_from_manifest(path) == ExperimentConfig(
            task="sysid", runs=2, epochs=300, out_dir=str(tmp_path))


class TestBoundProbe:
    def test_sysid_default_respects_bound(self):
        probe = bound_probe("sysid")
        assert probe["task"] == "sysid"
        assert probe["eta"] == 1e-4
        assert probe["bound"] > probe["eta"]
        assert probe["respects"] is True

    def test_eta_override_can_violate(self):
        probe = bound_probe("sysid", eta=5.0)
        assert probe["respects"] is False

    def test_eta_and_seed_validated(self):
        for kwargs in (dict(eta=-1.0), dict(eta=0.0), dict(seed=-1), dict(seed=1.5)):
            with pytest.raises(InvalidConfigError):
                bound_probe("sysid", **kwargs)

    def test_unknown_task(self):
        with pytest.raises(InvalidConfigError):
            bound_probe("nope")
        with pytest.raises(InvalidConfigError):
            bound_probe("sysid", sysid_centers="nope")
        with pytest.raises(InvalidConfigError):
            bound_probe("funapprox", funapprox_target_name="nope")


class TestCli:
    def test_run_writes_curve_with_epoch_rows(self, tmp_path, capsys):
        out = tmp_path / "r"
        rc = cli.main(["run", "iris", "--arch", "co", "--runs", "1",
                       "--epochs", "10", "--out", str(out)])
        assert rc == 0
        assert "wrote artifacts to" in capsys.readouterr().out
        lines = (out / curve_name("iris", "co", 0)).read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == 1 + 10

    def test_report_command(self, tiny_iris, capsys):
        rc = cli.main(["report", str(tiny_iris)])
        assert rc == 0
        assert "98.35" in capsys.readouterr().out

    def test_bound_command(self, capsys):
        rc = cli.main(["bound", "sysid"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "learning-rate bound" in out
        assert "respects the bound" in out

    def test_invalid_config_exits_2(self, capsys):
        for args in (["iris", "--runs", "0"], ["sysid", "--eta", "inf", "--runs", "1"]):
            rc = cli.main(["run", *args])
            assert rc == 2
            assert capsys.readouterr().err.startswith("error:")

    def test_report_on_empty_dir_exits_2(self, tmp_path, capsys):
        rc = cli.main(["report", str(tmp_path)])
        assert rc == 2
        assert "is missing: manifest.json" in capsys.readouterr().err

    def test_all_diverged_exits_1(self, tmp_path, capsys):
        rc = cli.main(["run", "funapprox", "--arch", "co", "--runs", "1",
                       "--epochs", "2", "--eta", "10", "--out", str(tmp_path)])
        assert rc == 1
        assert "diverged" in capsys.readouterr().err
        with open(tmp_path / MANIFEST_NAME, encoding="utf-8") as fh:
            man = json.load(fh)
        assert man["divergence_count"] == 1
        assert man["divergences"]["co"][0]["epoch"] >= 1

    def test_module_entry_point_returns_main_status(self, tmp_path):
        res = run_corbf("bound", "sysid")
        assert res.returncode == 0
        assert "respects the bound" in res.stdout
        res = run_corbf("report", tmp_path)
        assert res.returncode == 2
        assert "is missing: manifest.json" in res.stderr

    def test_custom_target_alias(self, tmp_path):
        rc = cli.main(["run", "funapprox", "--arch", "co", "--runs", "1",
                       "--epochs", "2", "--funapprox-target", "custom",
                       "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / MANIFEST_NAME, encoding="utf-8") as fh:
            assert json.load(fh)["funapprox_target"] == "constant-one"


class TestBenchmarkTracer:
    @pytest.fixture
    def spans(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return importlib.import_module("spans")

    def test_every_trace_target_resolves_to_a_callable(self, spans):
        # the benchmark's traced run wraps these names and stops at a missing
        # one, so a rename must fail here as well
        assert spans.TARGETS
        for _layer, target, _count in spans.TARGETS:
            module_name, attr_path = target.split(":")
            obj = importlib.import_module(module_name)
            for name in attr_path.split("."):
                obj = getattr(obj, name, None)
            assert callable(obj), target

    def test_install_wraps_and_uninstall_restores(self, spans):
        # the traced run installs the tracer in the process it measures
        original = bench.fit
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert bench.fit is not original
            assert bench.fit.__wrapped__ is original
        finally:
            tracer.uninstall()
        assert bench.fit is original

    @pytest.mark.parametrize("task", TASKS)
    def test_traced_round_reaches_every_required_layer(self, spans, task, tmp_path, capsys):
        # a tiny round as the benchmark traces it: a call moved off the name
        # a wrapper sits on records no span, and layer_metrics raises
        tracer = spans.Tracer()
        tracer.install()
        try:
            for arch in ARCHITECTURES:
                with tracer.span("bench.battery", arch=arch):
                    assert cli.main(["run", task, "--arch", arch, "--runs", "1",
                                     "--epochs", "2", "--jobs", "1",
                                     "--out", str(tmp_path / arch)]) == 0
            for arch in ARCHITECTURES:
                with tracer.span("bench.report", arch=arch):
                    compare_report(tmp_path / arch)
            with tracer.span("bench.probe"):
                bound_probe(task)
        finally:
            tracer.uninstall()
        layers = spans.layer_metrics(tracer.spans, task)
        assert all(layers[f"trainer.updates.{arch}"] > 0 for arch in ARCHITECTURES)
