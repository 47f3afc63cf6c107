import json
import hashlib
import inspect
import os
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from idscale import cli, datagen, estimators
from idscale.adaptive import EstimatorConfig, babide
from idscale.cli import load_dataset, main, run_benchmark, save_dataset_csv
from idscale.errors import InvalidArgumentError, ParseError
from idscale.geometry import Dataset, build_neighbor_graph


@pytest.fixture()
def runner():
    return CliRunner(mix_stderr=False) if "mix_stderr" in CliRunner.__init__.__code__.co_varnames else CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadDataset:
    def test_plain_table(self, tmp_path):
        path = write(tmp_path, "a.csv", "0,0\n1,0\n0,1\n")
        ds = load_dataset(path)
        assert ds.n == 3 and ds.ambient_dim == 2

    def test_header_skipped(self, tmp_path):
        path = write(tmp_path, "b.csv", "x,y\n0,0\n1,0\n0,1\n")
        ds = load_dataset(path)
        assert ds.n == 3 and ds.ambient_dim == 2

    def test_ragged_row_reports_line(self, tmp_path):
        path = write(tmp_path, "c.csv", "1,2\n3\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 2

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "d.csv", "1,2\n3,oops\n5,6\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 2

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path, "e.csv", "1,2\nnan,4\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_single_period_broadcast(self, tmp_path):
        path = write(tmp_path, "f.csv", "0.1,0.2\n0.9,0.8\n0.5,0.5\n")
        ds = load_dataset(path, periodic=[1.0])
        assert np.array_equal(ds.periods, np.ones(2))

    def test_round_trip_with_save(self, tmp_path):
        ds = datagen.gen_sine_toy(n=50, seed=0)
        path = str(tmp_path / "rt.csv")
        save_dataset_csv(ds, path)
        again = load_dataset(path)
        assert np.allclose(again.points, ds.points, atol=0)


class TestEstimateCommand:
    def _torus_csv(self, tmp_path, n=600):
        ds = datagen.gen_uniform_hypercube_periodic(n=n, d=2, seed=0)
        path = str(tmp_path / "torus.csv")
        save_dataset_csv(ds, path)
        return path, ds

    def test_twonn_report(self, runner, tmp_path):
        path, ds = self._torus_csv(tmp_path)
        result = invoke(runner, [
            "estimate", "--method", "twonn", "--input", path, "--periodic", "1",
        ])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["schema_version"] == 1
        assert report["method"] == "twonn"
        assert report["dataset"]["n"] == ds.n
        assert report["dataset"]["metric"] == "periodic"
        assert len(report["dataset"]["content_hash"]) == 64
        assert 1.6 <= report["estimate"]["d"] <= 2.4
        assert "graph_s" in report["timing"]

    def test_abide_sine_toy(self, runner, tmp_path):
        ds = datagen.gen_sine_toy(n=1000, seed=0)
        path = str(tmp_path / "sine.csv")
        save_dataset_csv(ds, path)
        result = invoke(runner, ["estimate", "--method", "abide", "--input", path])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["converged"] is True
        assert 0.9 <= report["estimate"]["d"] <= 1.2
        assert report["k_star"]["mean"] >= 2.0
        assert len(report["estimate"]["trace"]) >= 2

    def test_degenerate_scale_exit_code(self, runner, tmp_path):
        path, _ = self._torus_csv(tmp_path)
        result = invoke(runner, [
            "estimate", "--method", "bide-r", "--input", path, "--periodic", "1",
            "--tb", "1e-9", "--tau", "0.5",
        ])
        assert result.exit_code == 5
        err = json.loads(result.stderr if hasattr(result, "stderr") and result.stderr else result.output)
        assert err["error"] == "degenerate-scale"

    @staticmethod
    def _near_duplicates_csv(tmp_path, offset, spread):
        # 300 Gaussian points in 10-D, the first three within about ``spread`` of ``offset``
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(300, 10))
        pts[:3] = offset + spread * rng.normal(size=(3, 10))
        path = str(tmp_path / "near.csv")
        save_dataset_csv(Dataset(pts), path)
        return ["estimate", "--method", "abide", "--kmax", "60", "--input", path]

    def test_near_duplicates_estimate(self, runner, tmp_path):
        # 1e-7 apart at offset 100: distances from coordinate differences stay positive
        result = invoke(runner, self._near_duplicates_csv(tmp_path, 100.0, 1e-7))
        assert result.exit_code == 0, result.output
        assert 0 < json.loads(result.stdout)["estimate"]["d"] < np.inf

    def test_near_duplicates_exit_code(self, runner, tmp_path):
        # 1e-170 apart: the squared differences underflow to zero distances
        result = invoke(runner, self._near_duplicates_csv(tmp_path, 0.0, 1e-170))
        assert result.exit_code == 3
        err = json.loads(result.stderr if hasattr(result, "stderr") and result.stderr else result.output)
        assert err["error"] == "degenerate-dataset"

    @pytest.mark.parametrize("args, clamped", [
        (["estimate", "--method", "abide"], True),
        (["estimate", "--method", "bide-r", "--tb", "0.5", "--tau", "0.5"], False),
        (["scan", "--mode", "k"], True),
    ])
    def test_depth_from_distinct_points(self, runner, tmp_path, args, clamped):
        # 300 rows, the last 10 exact copies: depth and k_max follow the 290 distinct
        pts = np.random.default_rng(3).normal(size=(290, 3))
        path = str(tmp_path / "dup.csv")
        save_dataset_csv(Dataset(np.vstack([pts, pts[:10]])), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = invoke(runner, args + ["--input", path])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert report["dataset"]["n"] == 290
        assert ("k_max clamped to 288 for n=290" in [str(w.message) for w in caught]) == clamped
        if args[0] == "scan":
            assert report["entries"][-1]["k"] == 288

    def test_parse_error_exit_code(self, runner, tmp_path):
        path = write(tmp_path, "bad.csv", "1,2\n3\n")
        result = invoke(runner, ["estimate", "--method", "twonn", "--input", path])
        assert result.exit_code == 9

    def test_missing_required_option(self, runner, tmp_path):
        path, _ = self._torus_csv(tmp_path)
        result = invoke(runner, ["estimate", "--method", "bide-k", "--input", path])
        assert result.exit_code == 2

    def test_output_file(self, runner, tmp_path):
        path, _ = self._torus_csv(tmp_path)
        out = str(tmp_path / "report.json")
        result = invoke(runner, [
            "estimate", "--method", "twonn", "--input", path, "--output", out,
        ])
        assert result.exit_code == 0
        report = json.loads(open(out).read())
        assert report["method"] == "twonn"


class TestScanCommand:
    def test_degenerate_scales_become_error_entries(self, runner, tmp_path):
        ds = datagen.gen_uniform_hypercube_periodic(n=500, d=2, seed=1)
        path = str(tmp_path / "torus.csv")
        save_dataset_csv(ds, path)
        result = invoke(runner, [
            "scan", "--mode", "radius", "--input", path, "--periodic", "1",
            "--grid-size", "6", "--tb-min", "1e-8", "--kmax", "60",
        ])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["mode"] == "radius"
        kinds = [("error" in e, "d" in e) for e in report["entries"]]
        assert any(has_err for has_err, _ in kinds)
        assert any(has_d for _, has_d in kinds)
        for entry in report["entries"]:
            assert ("error" in entry) != ("d" in entry)
        assert report["abide_ref"]["mean_k_star"] >= 2.0

    def test_fixed_k_grid(self, runner, tmp_path):
        ds = datagen.gen_uniform_hypercube_periodic(n=500, d=2, seed=2)
        path = str(tmp_path / "torus.csv")
        save_dataset_csv(ds, path)
        result = invoke(runner, [
            "scan", "--mode", "k", "--input", path, "--periodic", "1",
            "--grid-size", "5", "--k-min", "5", "--k-max-scan", "40", "--kmax", "60",
        ])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        ks = [e["k"] for e in report["entries"]]
        assert ks == sorted(ks)
        for entry in report["entries"]:
            if "d" in entry:
                assert 1.0 <= entry["d"] <= 3.0

    def test_grid_intervals_follow_beta_ci(self, runner, tmp_path):
        ds = datagen.gen_uniform_hypercube_periodic(n=500, d=2, seed=2)
        path = str(tmp_path / "torus.csv")
        save_dataset_csv(ds, path)

        def entries(beta_ci):
            result = invoke(runner, [
                "scan", "--mode", "k", "--input", path, "--periodic", "1", "--grid-size",
                "3", "--k-min", "5", "--k-max-scan", "40", "--kmax", "60", "--beta-ci", beta_ci,
            ])
            assert result.exit_code == 0
            return json.loads(result.stdout)["entries"]

        for wide, narrow in zip(entries("0.05"), entries("0.5")):
            assert wide["d"] == narrow["d"]
            assert wide["ci"][0] < narrow["ci"][0] < narrow["ci"][1] < wide["ci"][1]

    @pytest.mark.parametrize("option", ["--tb", "--k", "--alpha0", "--beta0"])
    def test_unused_options_are_rejected(self, runner, tmp_path, option):
        path = write(tmp_path, "a.csv", "0,0\n1,0\n0,1\n")
        result = invoke(runner, ["scan", "--mode", "k", "--input", path, option, "3"])
        assert result.exit_code == 2
        assert "No such option" in result.output + getattr(result, "stderr", "")


class TestBenchmarkCommand:
    def test_single_replica_matches_direct_estimate(self):
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=400, d=2, seed=0)
        summary = run_benchmark(spec, "twonn", replicas=1, threads=1)
        seed = summary["per_replica"][0]["seed"]
        ds = datagen.gen_uniform_hypercube_periodic(n=400, d=2, seed=seed)
        graph = build_neighbor_graph(ds, K=2)
        assert summary["per_replica"][0]["d"] == estimators.twonn_estimate(graph).d
        assert summary["quantiles"]["q50"] == summary["per_replica"][0]["d"]

    def test_replica_determinism_across_thread_counts(self):
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=300, d=2, seed=4)
        serial = run_benchmark(spec, "twonn", replicas=4, threads=1)
        parallel = run_benchmark(spec, "twonn", replicas=4, threads=2)
        assert [r["d"] for r in serial["per_replica"]] == [r["d"] for r in parallel["per_replica"]]

    def test_normality_requires_d_true(self):
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=300, d=2, seed=5)
        with pytest.raises(Exception):
            run_benchmark(spec, "twonn", replicas=2, threads=1, normality=True)

    @pytest.mark.parametrize("method, d_true", [("abide", None), ("twonn", 2.0)])
    def test_normality_checked_before_replicas(self, monkeypatch, method, d_true):
        def no_replica(payload):
            raise AssertionError("a replica ran before the --normality checks")

        monkeypatch.setattr(cli, "_benchmark_replica", no_replica)
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=300, d=2, seed=5)
        with pytest.raises(InvalidArgumentError):
            run_benchmark(spec, method, replicas=2, threads=1, normality=True, d_true=d_true)

    def test_normality_without_fisher_info_exit_code(self, runner):
        result = invoke(runner, [
            "benchmark", "--generator", "uniform_hypercube_periodic", "--n", "200",
            "--d", "2", "--method", "twonn", "--replicas", "2", "--threads", "1",
            "--normality", "--d-true", "2",
        ])
        assert result.exit_code == 2
        err = json.loads(result.stderr if hasattr(result, "stderr") and result.stderr else result.output)
        assert err["error"] == "invalid-argument"

    def test_normality_payload(self):
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=400, d=2, seed=6)
        summary = run_benchmark(
            spec, "bide-k", replicas=3, threads=1, normality=True, d_true=2.0,
            estimator_cfg={"k": 20, "tau": 0.45},
        )
        assert len(summary["normality"]["z"]) == 3
        assert 0.0 <= summary["normality"]["ks_p_value"] <= 1.0

    def test_cli_wrapper(self, runner):
        result = invoke(runner, [
            "benchmark", "--generator", "uniform_hypercube_periodic", "--n", "300",
            "--d", "2", "--method", "twonn", "--replicas", "2", "--threads", "1",
        ])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["replicas"] == 2
        assert len(report["per_replica"]) == 2

    def test_threads_env_override(self, monkeypatch):
        monkeypatch.setenv("IDSCALE_THREADS", "3")
        assert cli._threads_from(8) == 3
        monkeypatch.delenv("IDSCALE_THREADS")
        assert cli._threads_from(8) == 8

    @pytest.mark.parametrize("env, option", [
        ("abc", None), ("0", None), ("-2", "4"), ("1.5", None), (None, "0"), (None, "-1"),
    ])
    def test_bad_thread_count_exit_code(self, runner, monkeypatch, env, option):
        monkeypatch.delenv("IDSCALE_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("IDSCALE_THREADS", env)
        args = ["benchmark", "--generator", "uniform_hypercube_periodic", "--n", "200",
                "--d", "2", "--method", "twonn", "--replicas", "2"]
        result = invoke(runner, args + (["--threads", option] if option else []))
        assert result.exit_code == 2
        err = json.loads(result.stderr if hasattr(result, "stderr") and result.stderr else result.output)
        assert err["error"] == "invalid-argument"


class TestEstimatorDefaults:
    """Every estimator default of the commands comes from EstimatorConfig."""

    @staticmethod
    def expected():
        cfg = EstimatorConfig()
        prior = inspect.signature(babide).parameters
        flag = {mode: name for name, mode in cli._THRESHOLD_MODES.items()}
        return {
            "alpha": cfg.alpha, "kmax": cfg.k_max, "max_iter": cfg.max_iter,
            "tol": cfg.delta, "beta_ci": cfg.beta_ci,
            "threshold_mode": flag[cfg.threshold_mode], "seed": cfg.seed,
            "alpha0": prior["alpha0"].default, "beta0": prior["beta0"].default,
        }

    @pytest.mark.parametrize("command", ["estimate", "scan", "benchmark"])
    def test_click_defaults(self, command):
        defaults = {p.name: p.default for p in main.commands[command].params}
        expected = self.expected()
        if command == "scan":  # the reference is abide, which takes no Beta prior
            del expected["alpha0"], expected["beta0"]
        for key, value in expected.items():
            assert defaults[key] == value, key

    def test_run_benchmark_defaults(self, monkeypatch):
        seen = []

        def capture(payload):
            seen.append(payload["config"])
            return {"replica": payload["replica"], "d": 2.0}

        monkeypatch.setattr(cli, "_benchmark_replica", capture)
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=300, d=2, seed=5)
        run_benchmark(spec, "abide", replicas=1, threads=1)
        expected = self.expected()
        del expected["seed"]  # replicas take their seeds from the generator spec
        assert {key: seen[0][key] for key in expected} == expected


class TestGenerateCommand:
    def test_sine_toy_shape(self, runner, tmp_path):
        out = str(tmp_path / "sine.csv")
        result = invoke(runner, [
            "generate", "--generator", "sine_toy", "--n", "100", "--output", out,
        ])
        assert result.exit_code == 0
        data = np.loadtxt(out, delimiter=",")
        assert data.shape == (100, 2)
        sidecar = json.loads(open(out + ".json").read())
        assert sidecar["generator"] == "sine_toy"
        assert sidecar["n"] == 100 and sidecar["seed"] == 0

    def test_moebius_shape(self, runner, tmp_path):
        out = str(tmp_path / "mob.csv")
        result = invoke(runner, [
            "generate", "--generator", "moebius", "--n", "200",
            "--ambient-dim", "20", "--sigma-eps", "1e-3", "--output", out,
        ])
        assert result.exit_code == 0
        assert np.loadtxt(out, delimiter=",").shape == (200, 20)

    def test_regeneration_reproduces_identical_file(self, runner, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        args = ["generate", "--generator", "noisy_gaussian", "--n", "150", "--d", "2",
                "--ambient-dim", "5", "--sigma-eps", "1e-3", "--seed", "9"]
        assert invoke(runner, args + ["--output", out1]).exit_code == 0
        assert invoke(runner, args + ["--output", out2]).exit_code == 0
        h1 = hashlib.sha256(open(out1, "rb").read()).hexdigest()
        h2 = hashlib.sha256(open(out2, "rb").read()).hexdigest()
        assert h1 == h2

    def test_invalid_generator_args(self, runner, tmp_path):
        out = str(tmp_path / "x.csv")
        result = invoke(runner, [
            "generate", "--generator", "noisy_gaussian", "--n", "100", "--d", "5",
            "--ambient-dim", "2", "--output", out,
        ])
        assert result.exit_code == 2
