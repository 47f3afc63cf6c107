import dataclasses
import io
import json
import hashlib
import http.client
import os
import subprocess
import sys
import textwrap
import urllib.error
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

import idscale
from idscale import cli, datagen, estimators
from idscale.adaptive import METHOD_OPTIONS, METHODS, EstimatorConfig, run_method
from idscale.cli import load_dataset, main, run_benchmark, save_dataset_csv
from idscale.errors import InvalidArgumentError, ParseError
from idscale.geometry import Dataset, build_neighbor_graph


@pytest.fixture()
def runner():
    return CliRunner(mix_stderr=False) if "mix_stderr" in CliRunner.__init__.__code__.co_varnames else CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def error_json(result):
    return json.loads(result.stderr if hasattr(result, "stderr") and result.stderr else result.output)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def tight_clusters_csv(tmp_path):
    """50 clusters of 3 points, 1e-6 wide, on [0, 100)^2: at tau = 0.5 every
    inner ball of a fixed-scale estimate holds its whole outer ball."""
    rng = np.random.default_rng(0)
    centres = rng.uniform(0.0, 100.0, size=(50, 2))
    pts = np.repeat(centres, 3, axis=0) + 1e-6 * rng.normal(size=(150, 2))
    path = str(tmp_path / "clusters.csv")
    save_dataset_csv(Dataset(pts), path)
    return path


class TestLoadDataset:
    def test_plain_table(self, tmp_path):
        path = write(tmp_path, "a.csv", "0,0\n1,0\n0,1\n")
        ds = load_dataset(path)
        assert ds.n == 3 and ds.ambient_dim == 2

    def test_header_skipped(self, tmp_path):
        path = write(tmp_path, "b.csv", "x,y\n0,0\n1,0\n0,1\n")
        ds = load_dataset(path)
        assert ds.n == 3 and ds.ambient_dim == 2

    def test_header_after_blank_line_skipped(self, tmp_path):
        # the header check applies to the first non-blank line, not file line 1
        path = write(tmp_path, "b2.csv", "\nx,y\n0,0\n1,0\n0,1\n")
        ds = load_dataset(path)
        assert ds.n == 3 and ds.ambient_dim == 2
        assert ds.points[0].tolist() == [0.0, 0.0]

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

    @pytest.mark.parametrize("text", ["", "\n  \n\n", "x,y\n"], ids=["empty", "blank", "header"])
    def test_no_rows_is_a_parse_error(self, runner, tmp_path, text):
        path = write(tmp_path, "empty.csv", text)
        with pytest.raises(ParseError, match="empty file") as exc:
            load_dataset(path)
        assert exc.value.line == 1
        result = invoke(runner, ["estimate", "--method", "twonn", "--input", path])
        assert result.exit_code == 9
        assert error_json(result) == {"error": "parse-error", "message": "empty file", "line": 1}

    def test_single_period_broadcast(self, tmp_path):
        path = write(tmp_path, "f.csv", "0.1,0.2\n0.9,0.8\n0.5,0.5\n")
        ds = load_dataset(path, periodic=[1.0])
        assert np.array_equal(ds.periods, np.ones(2))

    def test_period_per_column(self, tmp_path):
        path = write(tmp_path, "f.csv", "0.1,0.2\n0.9,0.8\n0.5,0.5\n")
        assert load_dataset(path, periodic=[1.0, 2.0]).periods.tolist() == [1.0, 2.0]
        with pytest.raises(InvalidArgumentError, match="--periodic needs 1 or 2 values, got 3"):
            load_dataset(path, periodic=[1.0, 2.0, 3.0])

    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        # spreadsheet exports start a headerless CSV with a UTF-8 BOM
        path = tmp_path / "bom.csv"
        path.write_bytes("0.5,0\n1,0\n0,1\n2,2\n".encode("utf-8-sig"))
        ds = load_dataset(str(path))
        assert ds.n == 4
        assert ds.points[0].tolist() == [0.5, 0.0]

    def test_round_trip_with_save(self, tmp_path):
        ds = datagen.gen_sine_toy(n=50, sigma_eps=0.025, seed=0)
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
        ds = datagen.gen_sine_toy(n=1000, sigma_eps=0.025, seed=0)
        path = str(tmp_path / "sine.csv")
        save_dataset_csv(ds, path)
        result = invoke(runner, ["estimate", "--method", "abide", "--input", path])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["converged"] is True
        assert 0.9 <= report["estimate"]["d"] <= 1.2
        assert report["k_star"]["mean"] >= 2.0
        assert len(report["estimate"]["trace"]) >= 2

    @pytest.mark.parametrize("method, extra", [
        ("abide", []), ("bide-k", ["--k", "10", "--tau", "0.5"]),
    ])
    def test_trace_entries_hold_d_and_mean_k_star(self, runner, tmp_path, method, extra):
        path, _ = self._torus_csv(tmp_path)
        result = invoke(runner, [
            "estimate", "--method", method, "--input", path, "--periodic", "1", *extra,
        ])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["estimate"]["trace"]
        for entry in report["estimate"]["trace"]:
            assert set(entry) == {"d", "mean_k_star"}

    def test_degenerate_scale_exit_code(self, runner, tmp_path):
        path, _ = self._torus_csv(tmp_path)
        result = invoke(runner, [
            "estimate", "--method", "bide-r", "--input", path, "--periodic", "1",
            "--tb", "1e-9", "--tau", "0.5",
        ])
        assert result.exit_code == 5
        err = json.loads(result.stderr if hasattr(result, "stderr") and result.stderr else result.output)
        assert err["error"] == "degenerate-scale"

    @pytest.mark.parametrize("power", [520, -540])
    @pytest.mark.parametrize("args", [
        ["--method", "twonn"], ["--method", "abide", "--kmax", "60"],
    ], ids=["twonn", "abide"])
    def test_far_scales_give_the_unit_scale_estimate(self, runner, tmp_path, args, power):
        # coordinates near 1e157 overflowed the squared distances, and near
        # 1e-163 underflowed them; a power of two leaves every ratio as it was
        ds = datagen.gen_noisy_gaussian(n=300, d=2, ambient_dim=5, seed=0)
        ests = []
        for scale in (0, power):
            path = str(tmp_path / f"scaled{scale}.csv")
            save_dataset_csv(Dataset(np.ldexp(ds.points, scale)), path)
            result = invoke(runner, ["estimate", "--input", path, *args])
            assert result.exit_code == 0, result.output
            ests.append(json.loads(result.stdout)["estimate"])
        assert ests[0]["d"] == ests[1]["d"]
        assert np.isfinite(ests[1]["d"])

    @pytest.mark.parametrize("args", [
        ["--method", "bide-k", "--k", "3", "--tau", "0.5"],
        ["--method", "bide-r", "--tb", "0.5", "--tau", "0.5"],
    ])
    def test_zero_estimate_exit_code(self, runner, tmp_path, args):
        path = tight_clusters_csv(tmp_path)
        result = invoke(runner, ["estimate", "--input", path, *args])
        assert result.exit_code == 5
        assert error_json(result)["error"] == "degenerate-scale"

    def test_graph_shallower_than_k_exit_code(self, runner, tmp_path):
        # 20 points hold 19 neighbour orders, fewer than --k asks for
        path, _ = self._torus_csv(tmp_path, n=20)
        result = invoke(runner, ["estimate", "--input", path, "--periodic", "1",
                                 "--method", "bide-k", "--k", "50", "--tau", "0.5"])
        assert result.exit_code == 4
        assert error_json(result) == {
            "error": "insufficient-graph-depth", "message": "graph depth 19 < k=50",
        }

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
        if clamped and args[0] == "estimate":
            # the k_max the loop ran with, which k_star.saturation_fraction reads
            assert report["config"]["kmax"] == 288
        if args[0] == "scan":
            assert report["entries"][-1]["k"] == 288

    @pytest.mark.parametrize("method", METHODS)
    def test_config_echoes_the_options_the_method_read(self, runner, tmp_path, method):
        path, _ = self._torus_csv(tmp_path, n=300)
        result = invoke(runner, [
            "estimate", "--method", method, "--input", path, "--periodic", "1", "--kmax", "60",
            "--tb", "0.1", "--tau", "0.5", "--k", "10", "--threshold-mode", "bonf-h",
        ])
        assert result.exit_code == 0, result.output
        config = json.loads(result.stdout)["config"]
        flags = {cli._FLAG_NAMES.get(name, name) for name in METHOD_OPTIONS[method]}
        assert set(config) == flags | {"periodic"}
        assert config["periodic"] == "1"
        if "threshold_mode" in config:
            assert config["threshold_mode"] == "bonf-h"

    def test_parse_error_exit_code(self, runner, tmp_path):
        path = write(tmp_path, "bad.csv", "1,2\n3\n")
        result = invoke(runner, ["estimate", "--method", "twonn", "--input", path])
        assert result.exit_code == 9

    def test_bad_periodic_exit_code(self, runner, tmp_path):
        path, _ = self._torus_csv(tmp_path)
        result = invoke(runner, [
            "estimate", "--method", "twonn", "--input", path, "--periodic", "abc",
        ])
        assert result.exit_code == 2
        assert error_json(result)["error"] == "invalid-argument"

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

    @pytest.mark.parametrize("mode", ["k", "radius"])
    def test_zero_estimates_become_error_entries(self, runner, tmp_path, mode):
        path = tight_clusters_csv(tmp_path)
        result = invoke(runner, ["scan", "--mode", mode, "--kmax", "20", "--input", path])
        assert result.exit_code == 0, result.output
        errors = [e.get("error") for e in json.loads(result.stdout)["entries"]]
        assert "degenerate-scale" in errors

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

    @pytest.mark.parametrize("args, depth", [
        (["--mode", "k"], 61),
        (["--mode", "k", "--k-max-scan", "40"], 61),
        (["--mode", "k", "--k-max-scan", "100"], 100),
        (["--mode", "radius"], 61),
        (["--mode", "radius", "--k-max-scan", "120"], 120),
    ], ids=["k", "k-max-scan-40", "k-max-scan-100", "radius", "radius-k-max-scan-120"])
    def test_graph_depth(self, runner, tmp_path, monkeypatch, args, depth):
        # both modes read up to kmax + 1 orders, or --k-max-scan where deeper
        built = []

        def recording(dataset, K):
            built.append(K)
            return build_neighbor_graph(dataset, K)

        monkeypatch.setattr(cli, "build_neighbor_graph", recording)
        path = str(tmp_path / "torus.csv")
        save_dataset_csv(datagen.gen_uniform_hypercube_periodic(n=300, d=2, seed=2), path)
        result = invoke(runner, [
            "scan", *args, "--input", path, "--periodic", "1", "--grid-size", "3", "--kmax", "60",
        ])
        assert result.exit_code == 0, result.output
        assert built == [depth]

    @pytest.mark.parametrize("grid_size", ["-1", "0"])
    def test_bad_grid_size_checked_before_graph(self, runner, tmp_path, monkeypatch, grid_size):
        def no_graph(*args):
            raise AssertionError("the graph was built before the --grid-size check")

        monkeypatch.setattr(cli, "build_neighbor_graph", no_graph)
        path = write(tmp_path, "a.csv", "0,0\n1,0\n0,1\n")
        result = invoke(runner, ["scan", "--mode", "k", "--input", path, "--grid-size", grid_size])
        assert result.exit_code == 2
        assert error_json(result)["error"] == "invalid-argument"

    @pytest.mark.parametrize("option", ["--tb", "--k", "--alpha0", "--beta0"])
    def test_unused_options_are_rejected(self, runner, tmp_path, option):
        path = write(tmp_path, "a.csv", "0,0\n1,0\n0,1\n")
        result = invoke(runner, ["scan", "--mode", "k", "--input", path, option, "3"])
        assert result.exit_code == 2
        err = error_json(result)
        assert err["error"] == "invalid-argument"
        assert f"No such option '{option}'" in err["message"]


class TestBenchmarkCommand:
    def test_single_replica_matches_direct_estimate(self):
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=400, d=2, seed=0)
        summary = run_benchmark(spec, "twonn", replicas=1, threads=1)
        seed = summary["per_replica"][0]["seed"]
        ds = datagen.gen_uniform_hypercube_periodic(n=400, d=2, seed=seed)
        graph = build_neighbor_graph(ds, K=2)
        assert summary["per_replica"][0]["d"] == estimators.twonn_estimate(graph).d
        assert summary["quantiles"]["q50"] == summary["per_replica"][0]["d"]

    def test_replica_matches_direct_run(self):
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=400, d=2, seed=1)
        cfg = {"k": 20, "tau": 0.45}
        rep = run_benchmark(spec, "bide-k", replicas=1, threads=1, estimator_cfg=cfg)["per_replica"][0]
        ds = datagen.generate(dataclasses.replace(spec, seed=rep["seed"]))
        direct = run_method("bide-k", build_neighbor_graph(ds, 20), EstimatorConfig(**cfg)).estimate
        assert rep["validation_p"] == direct.validation_p and rep["d"] == direct.d

    def test_replica_determinism_across_thread_counts(self):
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=300, d=2, seed=4)
        serial = run_benchmark(spec, "twonn", replicas=4, threads=1)
        parallel = run_benchmark(spec, "twonn", replicas=4, threads=2)
        assert [r["d"] for r in serial["per_replica"]] == [r["d"] for r in parallel["per_replica"]]

    def test_pool_sized_by_replicas(self, monkeypatch):
        sizes = []

        class InlinePool:
            """Records its size and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=200, d=2, seed=4)
        summary = run_benchmark(spec, "twonn", replicas=3, threads=8)
        assert sizes == [3]
        assert [r["replica"] for r in summary["per_replica"]] == [0, 1, 2]

    def test_threads_default_to_the_cores_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._threads_from(None) == 1
        assert cli._threads_from(3) == 3

    @pytest.mark.parametrize("method, d_true", [("twonn", 2.0)])
    def test_normality_checked_before_replicas(self, monkeypatch, method, d_true):
        def no_replica(payload):
            raise AssertionError("a replica ran before the --d-true check")

        monkeypatch.setattr(cli, "_benchmark_replica", no_replica)
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=300, d=2, seed=5)
        with pytest.raises(InvalidArgumentError):
            run_benchmark(spec, method, replicas=2, threads=1, d_true=d_true)

    @pytest.mark.parametrize("replicas", [0, -3])
    def test_bad_replica_count_checked_before_replicas(self, runner, monkeypatch, replicas):
        def no_replica(payload):
            raise AssertionError("a replica ran before the --replicas check")

        monkeypatch.setattr(cli, "_benchmark_replica", no_replica)
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=300, d=2, seed=5)
        with pytest.raises(InvalidArgumentError):
            run_benchmark(spec, "twonn", replicas=replicas, threads=1)
        result = invoke(runner, [
            "benchmark", "--generator", "uniform_hypercube_periodic", "--n", "200",
            "--d", "2", "--method", "twonn", "--replicas", str(replicas), "--threads", "1",
        ])
        assert result.exit_code == 2
        assert error_json(result)["error"] == "invalid-argument"

    def test_normality_without_fisher_info_exit_code(self, runner):
        result = invoke(runner, [
            "benchmark", "--generator", "uniform_hypercube_periodic", "--n", "200",
            "--d", "2", "--method", "twonn", "--replicas", "2", "--threads", "1",
            "--d-true", "2",
        ])
        assert result.exit_code == 2
        err = json.loads(result.stderr if hasattr(result, "stderr") and result.stderr else result.output)
        assert err["error"] == "invalid-argument"
        assert "twonn" in err["message"] and "fisher_info" in err["message"]

    def test_normality_payload(self):
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=400, d=2, seed=6)
        summary = run_benchmark(
            spec, "bide-k", replicas=3, threads=1, d_true=2.0,
            estimator_cfg={"k": 20, "tau": 0.45},
        )
        z = [np.sqrt(r["n"] * r["fisher_info"]) * (r["d"] - 2.0) for r in summary["per_replica"]]
        assert summary["normality"]["z"] == z
        assert summary["normality"]["ks_p_value"] == stats.kstest(z, "norm").pvalue

    def test_no_normality_without_d_true(self):
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=300, d=2, seed=6)
        summary = run_benchmark(spec, "abide", replicas=2, threads=1, estimator_cfg={"k_max": 60})
        assert "normality" not in summary

    def test_cli_wrapper(self, runner):
        result = invoke(runner, [
            "benchmark", "--generator", "uniform_hypercube_periodic", "--n", "300",
            "--d", "2", "--method", "twonn", "--replicas", "2", "--threads", "1",
        ])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["replicas"] == 2
        assert len(report["per_replica"]) == 2

    @pytest.mark.parametrize("option", ["0", "-1"])
    def test_bad_thread_count_exit_code(self, runner, option):
        result = invoke(runner, [
            "benchmark", "--generator", "uniform_hypercube_periodic", "--n", "200",
            "--d", "2", "--method", "twonn", "--replicas", "2", "--threads", option,
        ])
        assert result.exit_code == 2
        err = json.loads(result.stderr if hasattr(result, "stderr") and result.stderr else result.output)
        assert err["error"] == "invalid-argument"


class TestEstimatorDefaults:
    """Every estimator option of the commands is an EstimatorConfig field,
    with the field's default."""

    SCAN_SKIPS = {"tb", "k", "alpha0", "beta0"}  # the abide reference and grid leave them unused

    @pytest.mark.parametrize("command", ["estimate", "scan", "benchmark"])
    def test_click_defaults(self, command):
        params = {p.name: p for p in main.commands[command].params}
        for field in dataclasses.fields(EstimatorConfig):
            if command == "scan" and field.name in self.SCAN_SKIPS:
                assert field.name not in params
                continue
            default = params[field.name].default
            if field.name == "threshold_mode":
                default = cli._THRESHOLD_MODES[default]
            assert default == field.default, field.name

    @pytest.mark.parametrize("command", ["estimate", "scan"])
    def test_no_seed_option(self, command):
        # the fit check draws from one fixed stream, so an estimate is a function
        # of the graph and the config alone
        assert "seed" not in {p.name for p in main.commands[command].params}

    def test_run_benchmark_defaults(self, monkeypatch):
        seen = []

        def capture(payload):
            seen.append(payload["config"])
            return {"replica": payload["replica"], "d": 2.0}

        monkeypatch.setattr(cli, "_benchmark_replica", capture)
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=300, d=2, seed=5)
        run_benchmark(spec, "abide", replicas=1, threads=1)
        run_benchmark(spec, "bide-k", replicas=1, threads=1, estimator_cfg={"k": 20, "tau": 0.45})
        assert seen == [EstimatorConfig(), EstimatorConfig(k=20, tau=0.45)]


class TestOptionsCheckedBeforeGraph:
    """Bad estimator options and a fixed-scale method's missing options end
    in exit 2, and too few points for twonn or an adaptive method in exit 3,
    before any graph is built or replica runs."""

    @pytest.fixture()
    def no_graph(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the graph was built before the option check")

        monkeypatch.setattr(cli, "build_neighbor_graph", fail)

    @pytest.mark.parametrize("args", [
        ["scan", "--mode", "radius", "--tb-min", "0"],
        ["scan", "--mode", "radius", "--tb-min", "-1"],
        ["scan", "--mode", "radius", "--tb-max", "0"],
        ["scan", "--mode", "k", "--k-max-scan", "1"],
        ["scan", "--mode", "k", "--tau", "2"],
        ["estimate", "--method", "babide", "--alpha0", "-1"],
        ["estimate", "--method", "bide-r", "--tau", "0.5"],
        ["estimate", "--method", "bide-k", "--k", "5", "--tau", "1.5"],
        ["estimate", "--method", "twonn", "--periodic", "1,2,3"],
        ["estimate", "--method", "abide", "--tol", "nan"],
        ["estimate", "--method", "bide-r", "--tb", "nan", "--tau", "0.5"],
        ["estimate", "--method", "babide", "--alpha0", "nan"],
        ["estimate", "--method", "babide", "--beta0", "inf"],
    ], ids=" ".join)
    def test_cli_exit_code(self, runner, tmp_path, no_graph, args):
        path = write(tmp_path, "a.csv", "0,0\n1,0\n0,1\n")
        result = invoke(runner, args + ["--input", path])
        assert result.exit_code == 2
        assert error_json(result)["error"] == "invalid-argument"

    @pytest.mark.parametrize("method", ["abide", "agride", "babide"])
    def test_adaptive_method_on_three_points(self, runner, tmp_path, no_graph, method):
        path = write(tmp_path, "a.csv", "0,0\n1,0\n0,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = invoke(runner, ["estimate", "--method", method, "--input", path])
        assert result.exit_code == 3
        assert error_json(result) == {
            "error": "degenerate-dataset",
            "message": f"{method} needs at least 4 distinct points, got 3",
        }

    def test_twonn_on_two_points(self, runner, tmp_path, no_graph):
        path = write(tmp_path, "a.csv", "0,0\n1,0\n1,0\n")
        result = invoke(runner, ["estimate", "--method", "twonn", "--input", path])
        assert result.exit_code == 3
        assert error_json(result) == {
            "error": "degenerate-dataset",
            "message": "twonn needs at least 3 distinct points, got 2",
        }

    @pytest.mark.parametrize("args, cfg", [
        (["--method", "bide-k", "--k", "20"], {"k": 20}),
        (["--method", "babide", "--beta0", "0"], {"beta0": 0.0}),
    ], ids=["bide-k without tau", "babide beta0 0"])
    def test_benchmark_exit_code(self, runner, monkeypatch, args, cfg):
        def no_replica(payload):
            raise AssertionError("a replica ran before the option check")

        monkeypatch.setattr(cli, "_benchmark_replica", no_replica)
        spec = datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=300, d=2, seed=5)
        method = args[1]
        with pytest.raises(InvalidArgumentError):
            run_benchmark(spec, method, replicas=2, threads=1, estimator_cfg=cfg)
        result = invoke(runner, [
            "benchmark", "--generator", "uniform_hypercube_periodic", "--n", "200",
            "--d", "2", "--replicas", "2", "--threads", "1",
        ] + args)
        assert result.exit_code == 2
        assert error_json(result)["error"] == "invalid-argument"


class TestUsageErrors:
    """A value, flag or command that click itself rejects ends in the same
    JSON error as any other bad argument: ``invalid-argument``, exit 2."""

    @pytest.mark.parametrize("args, names", [
        (["benchmark", "--generator", "noisy_gaussian", "--n", "300", "--d", "2",
          "--ambient-dim", "10", "--method", "abide", "--threads", "1.5"], "--threads"),
        (["estimate", "--method", "abide", "--alpha", "abc"], "--alpha"),
        (["estimate", "--method", "nope"], "--method"),
        (["estimate", "--method", "twonn", "--input", "no/such/file.csv"], "--input"),
        (["estimate"], "--method"),
        (["nosuch"], "nosuch"),
        ([], "Missing command"),
    ], ids=["threads 1.5", "alpha abc", "unknown method", "missing input file",
            "missing method", "unknown command", "no command"])
    def test_ends_in_json(self, runner, tmp_path, args, names):
        path = write(tmp_path, "a.csv", "0,0\n1,0\n0,1\n1,1\n")
        if args[:1] == ["estimate"] and "--input" not in args:
            args = args + ["--input", path]
        result = invoke(runner, args)
        assert result.exit_code == 2
        err = error_json(result)
        assert err["error"] == "invalid-argument"
        assert names in err["message"]

    @pytest.mark.parametrize("command", [
        [], ["estimate"], ["scan"], ["benchmark"], ["generate"], ["fetch-optdigits"],
    ], ids=lambda v: " ".join(v) or "main")
    def test_help_exits_zero(self, runner, command):
        result = invoke(runner, command + ["--help"])
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage:")


class TestFileErrors:
    """A path that cannot be read or written ends in a typed error: a
    directory as input or an unwritable output is ``invalid-argument``
    (exit 2), and a CSV that is not UTF-8 a ``parse-error`` (exit 9)."""

    @pytest.fixture()
    def torus_csv(self, tmp_path):
        path = str(tmp_path / "torus.csv")
        save_dataset_csv(datagen.gen_uniform_hypercube_periodic(n=200, d=2, seed=1), path)
        return path

    @pytest.mark.parametrize("command", [["estimate", "--method", "twonn"], ["scan", "--mode", "k"]],
                             ids=lambda v: v[0])
    def test_directory_as_input(self, runner, tmp_path, command):
        result = invoke(runner, command + ["--input", str(tmp_path)])
        assert result.exit_code == 2
        err = error_json(result)
        assert err["error"] == "invalid-argument" and "--input" in err["message"]

    def test_not_utf8_is_a_parse_error(self, runner, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,\u00e9t\u00e9\n0,0\n1,0\n0,1\n".encode("latin-1"))
        with pytest.raises(ParseError, match="not UTF-8 text"):
            load_dataset(str(path))
        result = invoke(runner, ["estimate", "--method", "twonn", "--input", str(path)])
        assert result.exit_code == 9
        assert error_json(result)["error"] == "parse-error"

    @pytest.mark.parametrize("command", [
        ["estimate", "--method", "twonn"],
        ["scan", "--mode", "k", "--kmax", "30", "--grid-size", "2"],
        ["benchmark", "--generator", "sine_toy", "--n", "100", "--method", "twonn",
         "--threads", "1", "--replicas", "4"],
        ["generate", "--generator", "sine_toy", "--n", "100"],
    ], ids=lambda v: v[0])
    def test_output_in_missing_directory(self, runner, monkeypatch, tmp_path, torus_csv, command):
        # the output is checked before any data set, graph or replica is made
        calls = []
        for owner, name in [(cli, "_benchmark_replica"), (cli, "build_neighbor_graph"),
                            (cli.datagen, "generate")]:
            monkeypatch.setattr(owner, name, lambda *a, name=name, **kw: calls.append(name))
        if command[0] in ("estimate", "scan"):
            command = command + ["--input", torus_csv, "--periodic", "1"]
        out = str(tmp_path / "missing" / "out.json")
        result = invoke(runner, command + ["--output", out])
        assert result.exit_code == 2
        err = error_json(result)
        assert err["error"] == "invalid-argument" and out in err["message"]
        assert calls == []

    @pytest.mark.parametrize("command", [
        ["generate", "--generator", "sine_toy", "--n", "20"], ["fetch-optdigits"],
    ], ids=lambda v: v[0])
    def test_stdout_is_no_file_output(self, runner, monkeypatch, tmp_path, command):
        # generate and fetch-optdigits write files only: "-" is no file, and
        # is rejected before a data set is made or a download starts
        calls = []
        monkeypatch.setattr(cli.datagen, "generate", lambda spec: calls.append("generate"))
        monkeypatch.setattr(cli.urllib.request, "urlopen",
                            lambda url, timeout: calls.append("urlopen"))
        monkeypatch.chdir(tmp_path)
        result = invoke(runner, command + ["--output", "-"])
        assert result.exit_code == 2
        err = error_json(result)
        assert err["error"] == "invalid-argument" and "--output must name a file" in err["message"]
        assert calls == [] and os.listdir(tmp_path) == []

    def test_unwritable_sidecar(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        (tmp_path / "g.csv.json").mkdir()
        result = invoke(runner, [
            "generate", "--generator", "sine_toy", "--n", "100", "--output", str(out),
        ])
        assert result.exit_code == 2
        err = error_json(result)
        assert err["error"] == "invalid-argument" and str(out) + ".json" in err["message"]
        assert not out.exists()


class TestFetchOptdigits:
    """The download is replaced by three rows of the OptDigits layout (the
    last column is the label), so these run offline."""

    ROWS = "0,1,6,15,7\n0,0,10,16,3\n2,5,13,9,8\n"

    @pytest.fixture()
    def fake_url(self, monkeypatch):
        calls = []

        def urlopen(url, timeout):
            calls.append(url)
            return io.BytesIO(self.ROWS.encode("utf-8"))

        monkeypatch.setattr(cli.urllib.request, "urlopen", urlopen)
        return calls

    def test_writes_the_points_without_labels(self, runner, tmp_path, fake_url):
        out = tmp_path / "digits.csv"
        result = invoke(runner, ["fetch-optdigits", "--output", str(out)])
        assert result.exit_code == 0 and fake_url == [cli.OPTDIGITS_URL]
        assert "wrote 3 x 4 points" in result.output
        assert out.read_text() == "0,1,6,15\n0,0,10,16\n2,5,13,9\n"

    def test_output_in_missing_directory(self, runner, tmp_path, fake_url):
        out = str(tmp_path / "missing" / "digits.csv")
        result = invoke(runner, ["fetch-optdigits", "--output", out])
        assert result.exit_code == 2
        err = error_json(result)
        assert err["error"] == "invalid-argument" and out in err["message"]
        assert fake_url == []

    @pytest.mark.parametrize("failure", [
        urllib.error.URLError(ConnectionRefusedError(111, "Connection refused")),
        urllib.error.HTTPError(cli.OPTDIGITS_URL, 404, "Not Found", None, None),
        TimeoutError("timed out"),
        http.client.IncompleteRead(b"0,1,6", 1000),
        ValueError("unknown url type: 'nope'"),
    ], ids=["refused", "http 404", "timeout", "truncated", "bad url"])
    def test_failed_download_is_invalid_argument(self, runner, monkeypatch, tmp_path, failure):
        def urlopen(url, timeout):
            raise failure

        monkeypatch.setattr(cli.urllib.request, "urlopen", urlopen)
        out = tmp_path / "digits.csv"
        result = invoke(runner, ["fetch-optdigits", "--output", str(out)])
        assert result.exit_code == 2
        err = error_json(result)
        assert err["error"] == "invalid-argument"
        assert err["message"].startswith(f"cannot download {cli.OPTDIGITS_URL}: ")
        assert str(getattr(failure, "reason", failure)) in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("body, line, message", [
        (b"0,1,6,15,7\n0,0,10,16\n", 2, "ragged row"),
        (b"0,1,6,15,7\n0,0,x,16,3\n", 2, "non-numeric cell"),
        (b"0,1,6,15,7\n\n0,0,10,inf,3\n", 3, "non-finite value"),
        (b"0,1,6,15,7\n\xe9,0,10,16,3\n", None, "not UTF-8 text"),
        (b"", 1, "empty file"),
    ], ids=["ragged", "non-numeric", "non-finite", "not utf-8", "empty"])
    def test_bad_body_is_a_parse_error(self, runner, monkeypatch, tmp_path, body, line, message):
        monkeypatch.setattr(cli.urllib.request, "urlopen", lambda url, timeout: io.BytesIO(body))
        out = tmp_path / "digits.csv"
        result = invoke(runner, ["fetch-optdigits", "--output", str(out)])
        assert result.exit_code == 9
        err = error_json(result)
        assert err["error"] == "parse-error" and message in err["message"]
        assert err.get("line") == line
        assert not out.exists()


class TestImportFootprint:
    """``import idscale.cli`` loads neither scipy.stats nor scipy.optimize:
    each is imported at its one call site (``kstest`` behind ``benchmark
    --d-true``, ``brentq`` behind ``agride``). Run in a fresh interpreter,
    since this test process has loaded both."""

    SCRIPT = textwrap.dedent("""
        import json
        import sys
        from idscale import cli

        def loaded():
            return sorted(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules)

        path, out = sys.argv[1:]
        steps = {"import": loaded()}
        for method, flags in [("abide", []), ("babide", []), ("twonn", []),
                              ("bide-k", ["--k", "10", "--tau", "0.5"]),
                              ("bide-r", ["--tb", "0.3", "--tau", "0.5"]), ("agride", [])]:
            cli.main(["estimate", "--method", method, "--input", path, "--periodic", "1",
                      "--output", out, *flags], standalone_mode=False)
            steps[method] = loaded()
        cli.main(["benchmark", "--generator", "uniform_hypercube_periodic", "--n", "200",
                  "--d", "2", "--method", "bide-k", "--k", "10", "--tau", "0.5",
                  "--replicas", "2", "--threads", "1", "--d-true", "2", "--output", out],
                 standalone_mode=False)
        steps["benchmark --d-true"] = loaded()
        print(json.dumps(steps))
    """)

    def test_scipy_stats_and_optimize_load_only_where_called(self, tmp_path):
        path = str(tmp_path / "torus.csv")
        save_dataset_csv(datagen.gen_uniform_hypercube_periodic(n=300, d=2, seed=1), path)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(idscale.__file__))}
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, path, str(tmp_path / "out.json")],
            env=env, capture_output=True, text=True, check=True,
        )
        steps = json.loads(done.stdout.strip().splitlines()[-1])
        assert steps == {
            "import": [], "abide": [], "babide": [], "twonn": [], "bide-k": [], "bide-r": [],
            "agride": ["scipy.optimize"],
            "benchmark --d-true": ["scipy.optimize", "scipy.stats"],
        }


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

    @pytest.mark.parametrize("command", ["benchmark", "generate"])
    def test_option_defaults_are_spec_defaults(self, command):
        defaults = {p.name: p.default for p in main.commands[command].params}
        expected = {f.name: f.default for f in dataclasses.fields(datagen.GeneratorSpec)
                    if f.default is not dataclasses.MISSING}
        assert {key: defaults[key] for key in expected} == expected

    def test_sidecar_echoes_spec(self, runner, tmp_path):
        out = str(tmp_path / "g.csv")
        result = invoke(runner, [
            "generate", "--generator", "noisy_gaussian", "--n", "50", "--d", "2",
            "--ambient-dim", "4", "--sigma-eps", "0.5", "--seed", "3", "--output", out,
        ])
        assert result.exit_code == 0
        assert json.loads(open(out + ".json").read()) == {
            "schema_version": 1, "generator": "noisy_gaussian", "n": 50, "d": 2,
            "ambient_dim": 4, "sigma_s": 1.0, "sigma_eps": 0.5, "ratio": 1.0, "seed": 3,
            "periodic": None,
        }

    @pytest.mark.parametrize("command", [
        ["generate"], ["benchmark", "--method", "twonn", "--threads", "1"],
    ], ids=lambda v: v[0])
    @pytest.mark.parametrize("args, message", [
        (["--generator", "noisy_gaussian", "--d", "-1", "--ambient-dim", "3"], "nonnegative"),
        (["--generator", "uniform_hypercube_periodic", "--d", "-2"], "nonnegative"),
        (["--generator", "density_step_1d", "--ratio", "nan"], "ratio"),
    ], ids=["d", "torus d", "ratio nan"])
    def test_bad_spec_values_exit_code(self, runner, tmp_path, command, args, message):
        out = tmp_path / "x.csv"
        result = invoke(runner, command + args + ["--n", "20", "--output", str(out)])
        assert result.exit_code == 2
        err = error_json(result)
        assert err["error"] == "invalid-argument" and message in err["message"]
        assert not out.exists()

    def test_invalid_generator_args(self, runner, tmp_path):
        out = str(tmp_path / "x.csv")
        result = invoke(runner, [
            "generate", "--generator", "noisy_gaussian", "--n", "100", "--d", "5",
            "--ambient-dim", "2", "--output", out,
        ])
        assert result.exit_code == 2
