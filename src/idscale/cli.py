"""Command-line interface: estimation runs, scale scans, Monte Carlo
benchmarks and dataset generation, all emitting machine-readable JSON."""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import urllib.request
import warnings
from concurrent.futures import ProcessPoolExecutor

import click
import numpy as np
from scipy import stats as scipy_stats

from . import adaptive as adaptive_mod
from . import datagen, estimators
from .errors import IdscaleError, InvalidArgumentError, ParseError
from .geometry import Dataset, build_neighbor_graph

SCHEMA_VERSION = 1

METHODS = ("twonn", "bide-r", "bide-k", "abide", "agride", "babide")
ADAPTIVE_METHODS = ("abide", "agride", "babide")

_THRESHOLD_MODES = {
    "fixed": "fixed",
    "bonf-h": "bonferroni_h",
    "bonf-n": "bonferroni_n",
    "bonf-nh": "bonferroni_nh",
}

OPTDIGITS_URL = (
    "https://archive.ics.uci.edu/ml/machine-learning-databases/optdigits/optdigits.tra"
)


# ---------------------------------------------------------------------------
# dataset I/O


def load_dataset(path: str, periodic: list[float] | None = None) -> Dataset:
    """Read a CSV point cloud (rows = points); a single non-numeric header
    row is skipped automatically."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if lineno == 1:
                try:
                    float(cells[0])
                except ValueError:
                    width = len(cells)
                    continue
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ParseError(f"ragged row: expected {width} columns", line=lineno)
            try:
                values = [float(c) for c in cells]
            except ValueError as err:
                raise ParseError(f"non-numeric cell: {err}", line=lineno) from err
            if not all(np.isfinite(values)):
                raise ParseError("non-finite value", line=lineno)
            rows.append(values)
    if not rows:
        raise ParseError("empty file", line=1)
    pts = np.array(rows, dtype=np.float64)
    periods = None
    if periodic is not None:
        if len(periodic) == 1:
            periods = np.full(pts.shape[1], periodic[0])
        elif len(periodic) == pts.shape[1]:
            periods = np.asarray(periodic, dtype=np.float64)
        else:
            raise InvalidArgumentError(
                f"--periodic needs 1 or {pts.shape[1]} values, got {len(periodic)}"
            )
    return Dataset(pts, periods=periods)


def save_dataset_csv(dataset: Dataset, path: str) -> None:
    np.savetxt(path, dataset.points, delimiter=",", fmt="%.17g")


def dataset_fingerprint(dataset: Dataset) -> dict:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dataset.points).tobytes())
    if dataset.periods is not None:
        h.update(np.ascontiguousarray(dataset.periods).tobytes())
    return {
        "n": dataset.n,
        "ambient_dim": dataset.ambient_dim,
        "metric": dataset.metric_name,
        "content_hash": h.hexdigest(),
    }


# ---------------------------------------------------------------------------
# report plumbing


def _estimate_dict(est: estimators.IdEstimate) -> dict:
    return {
        "d": est.d,
        "tau": est.tau,
        "ci": list(est.ci) if est.ci is not None else None,
        "mean_kb": est.mean_kb,
        "validation_p": est.validation_p,
        "fisher_info": est.fisher_info,
        "trace": [
            {"d": r.d, "mean_k_star": r.mean_k_star, "validation_p": r.validation_p}
            for r in est.trace
        ],
    }


def _k_star_summary(state: adaptive_mod.AdaptiveState) -> dict:
    ks = state.k_star
    hist_vals, hist_edges = np.histogram(ks, bins=min(30, max(2, int(ks.max() - ks.min() + 1))))
    return {
        "mean": float(ks.mean()),
        "quantiles": {
            "q05": float(np.quantile(ks, 0.05)),
            "q50": float(np.quantile(ks, 0.50)),
            "q95": float(np.quantile(ks, 0.95)),
        },
        "histogram": {"counts": hist_vals.tolist(), "edges": hist_edges.tolist()},
        "saturation_fraction": state.saturation_fraction,
        "mean_t_b": float(state.t_b.mean()),
        "mean_t_a": float(state.t_a.mean()),
    }


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, allow_nan=True)
    if output is None or output == "-":
        click.echo(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _fail(err: Exception) -> None:
    kind = getattr(err, "kind", "error")
    code = getattr(err, "exit_code", 1)
    payload = {"error": kind, "message": str(err)}
    line = getattr(err, "line", None)
    if line is not None:
        payload["line"] = line
    click.echo(json.dumps(payload), err=True)
    sys.exit(code)


def _threads_from(option_value: int | None) -> int:
    env = os.environ.get("IDSCALE_THREADS")
    if env:
        return max(1, int(env))
    if option_value:
        return max(1, option_value)
    return os.cpu_count() or 1


def _config_from(alpha, kmax, max_iter, tol, threshold_mode, beta_ci, seed, n):
    kmax_eff = min(kmax, n - 2)
    if kmax_eff < kmax:
        warnings.warn(f"k_max clamped to {kmax_eff} for n={n}")
    return adaptive_mod.EstimatorConfig(
        alpha=alpha,
        threshold_mode=_THRESHOLD_MODES[threshold_mode],
        k_max=kmax_eff,
        max_iter=max_iter,
        delta=tol,
        beta_ci=beta_ci,
        seed=seed,
    )


def _required_depth(method, n, k, kmax, depth):
    if method == "twonn":
        return 2
    if method == "bide-k":
        if k is None:
            raise InvalidArgumentError("--k is required for method bide-k")
        return min(n - 1, max(k, 2))
    if method == "bide-r":
        return min(n - 1, depth)
    return min(n - 1, min(kmax, n - 2) + 1)


def _run_method(method, graph, *, config=None, tau=None, tb=None, k=None,
                alpha0=1.0, beta0=1.0, beta_ci=0.05, seed=0):
    """Dispatch shared by the estimate command and the benchmark workers."""
    if method == "twonn":
        est = estimators.twonn_estimate(graph, beta=beta_ci)
        return est, None, None, None
    if method == "bide-r":
        if tb is None:
            raise InvalidArgumentError("--tb is required for method bide-r")
        if tau is None:
            raise InvalidArgumentError("--tau is required for method bide-r")
        est = estimators.bide_fixed_radius(graph, tb, tau, beta=beta_ci, seed=seed)
        return est, None, None, None
    if method == "bide-k":
        if k is None:
            raise InvalidArgumentError("--k is required for method bide-k")
        if tau is None:
            raise InvalidArgumentError("--tau is required for method bide-k")
        est = estimators.bide_fixed_k(graph, k, tau, beta=beta_ci, seed=seed)
        return est, None, None, None
    if method == "abide":
        res = adaptive_mod.abide(graph, config)
    elif method == "agride":
        res = adaptive_mod.agride(graph, config)
    elif method == "babide":
        res = adaptive_mod.babide(graph, config, alpha0=alpha0, beta0=beta0)
    else:
        raise InvalidArgumentError(f"unknown method {method!r}")
    return res.estimate, res.state, res.iterations_run, res.converged


_PERIODIC_HELP = "comma-separated periods, one per column (or one value for all)"


def _parse_periodic(text):
    if text is None:
        return None
    return [float(x) for x in text.split(",")]


# ---------------------------------------------------------------------------
# commands


@click.group()
def main():
    """Scale-adaptive intrinsic dimension estimation."""


def _estimator_options(fn):
    opts = [
        click.option("--alpha", type=float, default=0.01, show_default=True),
        click.option("--kmax", type=int, default=350, show_default=True),
        click.option("--max-iter", type=int, default=5, show_default=True),
        click.option("--tol", type=float, default=1e-4, show_default=True),
        click.option("--tau", type=float, default=None),
        click.option("--tb", type=float, default=None),
        click.option("--k", type=int, default=None),
        click.option("--alpha0", type=float, default=1.0, show_default=True),
        click.option("--beta0", type=float, default=1.0, show_default=True),
        click.option("--beta-ci", type=float, default=0.05, show_default=True),
        click.option("--threshold-mode", type=click.Choice(list(_THRESHOLD_MODES)),
                     default="fixed", show_default=True),
        click.option("--depth", type=int, default=512, show_default=True,
                     help="stored neighbour orders for bide-r"),
        click.option("--seed", type=int, default=0, show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@main.command()
@click.option("--method", type=click.Choice(list(METHODS)), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--periodic", type=str, default=None, help=_PERIODIC_HELP)
@click.option("--output", type=str, default=None, help="report path or - for stdout")
@_estimator_options
def estimate(method, input_path, periodic, output, alpha, kmax, max_iter, tol, tau,
             tb, k, alpha0, beta0, beta_ci, threshold_mode, depth, seed):
    """Run one estimator on a CSV dataset and emit a JSON report."""
    try:
        dataset = load_dataset(input_path, _parse_periodic(periodic))
        t0 = time.perf_counter()
        graph = build_neighbor_graph(
            dataset, _required_depth(method, dataset.n, k, kmax, depth)
        )
        graph_s = time.perf_counter() - t0
        config = None
        if method in ADAPTIVE_METHODS:
            config = _config_from(alpha, kmax, max_iter, tol, threshold_mode,
                                  beta_ci, seed, graph.n_points)
        t0 = time.perf_counter()
        est, state, iterations, converged = _run_method(
            method, graph, config=config, tau=tau, tb=tb, k=k,
            alpha0=alpha0, beta0=beta0, beta_ci=beta_ci, seed=seed,
        )
        estimate_s = time.perf_counter() - t0
    except IdscaleError as err:
        _fail(err)
        return
    report = {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "dataset": dataset_fingerprint(graph.dataset),
        "config": {
            "alpha": alpha, "kmax": kmax, "max_iter": max_iter, "tol": tol,
            "tau": tau, "tb": tb, "k": k, "alpha0": alpha0, "beta0": beta0,
            "beta_ci": beta_ci, "threshold_mode": threshold_mode,
            "periodic": periodic, "seed": seed,
        },
        "estimate": _estimate_dict(est),
        "timing": {"graph_s": graph_s, "estimate_s": estimate_s},
    }
    if state is not None:
        report["k_star"] = _k_star_summary(state)
        report["iterations_run"] = iterations
        report["converged"] = converged
    _emit(report, output)


@main.command()
@click.option("--mode", type=click.Choice(["radius", "k"]), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--periodic", type=str, default=None, help=_PERIODIC_HELP)
@click.option("--grid-size", type=int, default=16, show_default=True)
@click.option("--tb-min", type=float, default=None)
@click.option("--tb-max", type=float, default=None)
@click.option("--k-min", type=int, default=2, show_default=True)
@click.option("--k-max-scan", type=int, default=None)
@click.option("--output", type=str, default=None)
@_estimator_options
def scan(mode, input_path, periodic, grid_size, tb_min, tb_max, k_min, k_max_scan,
         output, alpha, kmax, max_iter, tol, tau, tb, k, alpha0, beta0, beta_ci,
         threshold_mode, depth, seed):
    """Sweep fixed-radius or fixed-k estimates across a grid, with the
    adaptive estimate as the starred reference."""
    try:
        dataset = load_dataset(input_path, _parse_periodic(periodic))
        need = max(min(kmax, dataset.n - 2) + 1, min(dataset.n - 1, depth))
        t0 = time.perf_counter()
        graph = build_neighbor_graph(dataset, need)
        graph_s = time.perf_counter() - t0
        config = _config_from(alpha, kmax, max_iter, tol, threshold_mode, beta_ci,
                              seed, graph.n_points)
        ref = adaptive_mod.abide(graph, config)
        tau_eff = tau if tau is not None else estimators.optimal_tau(ref.estimate.d)
    except IdscaleError as err:
        _fail(err)
        return

    entries = []
    if mode == "radius":
        lo = tb_min if tb_min is not None else float(np.median(graph.distances[:, 0]))
        hi = tb_max if tb_max is not None else float(graph.distances[:, -1].min())
        grid = np.geomspace(lo, hi, grid_size)
        for t_b in grid:
            entry = {"t_b": float(t_b)}
            try:
                est = estimators.bide_fixed_radius(graph, float(t_b), tau_eff, seed=seed)
                entry.update(d=est.d, ci=list(est.ci), validation_p=est.validation_p)
            except IdscaleError as err:
                entry.update(error=err.kind, message=str(err))
            entries.append(entry)
    else:
        hi = k_max_scan if k_max_scan is not None else min(config.k_max, graph.depth)
        grid = np.unique(np.geomspace(max(2, k_min), hi, grid_size).astype(int))
        for k_val in grid:
            entry = {"k": int(k_val)}
            try:
                est = estimators.bide_fixed_k(graph, int(k_val), tau_eff, seed=seed)
                entry.update(d=est.d, ci=list(est.ci), validation_p=est.validation_p)
            except IdscaleError as err:
                entry.update(error=err.kind, message=str(err))
            entries.append(entry)

    _emit({
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "dataset": dataset_fingerprint(graph.dataset),
        "tau": tau_eff,
        "entries": entries,
        "abide_ref": {
            "d": ref.estimate.d,
            "validation_p": ref.estimate.validation_p,
            "mean_t_b": float(ref.state.t_b.mean()),
            "mean_k_star": float(ref.state.k_star.mean()),
        },
        "timing": {"graph_s": graph_s},
    }, output)


def _generator_spec(generator, n, d, ambient_dim, sigma_s, sigma_eps, ratio, seed):
    return datagen.GeneratorSpec(
        kind=generator, n=n, d=d, ambient_dim=ambient_dim,
        sigma_s=sigma_s, sigma_eps=sigma_eps, ratio=ratio, seed=seed,
    )


def _generator_options(fn):
    opts = [
        click.option("--generator", type=click.Choice(list(datagen.GENERATOR_KINDS)),
                     required=True),
        click.option("--n", type=int, required=True),
        click.option("--d", type=int, default=0),
        click.option("--ambient-dim", type=int, default=0),
        click.option("--sigma-s", type=float, default=1.0, show_default=True),
        click.option("--sigma-eps", type=float, default=0.0, show_default=True),
        click.option("--ratio", type=float, default=1.0, show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _benchmark_replica(payload: dict) -> dict:
    """One seeded replica: generate, build the graph, run the method."""
    spec = datagen.GeneratorSpec(**payload["spec"])
    dataset = datagen.generate(spec)
    method = payload["method"]
    cfg = payload["config"]
    t0 = time.perf_counter()
    graph = build_neighbor_graph(
        dataset,
        _required_depth(method, dataset.n, cfg.get("k"), cfg["kmax"], cfg["depth"]),
    )
    graph_s = time.perf_counter() - t0
    config = None
    if method in ADAPTIVE_METHODS:
        config = _config_from(cfg["alpha"], cfg["kmax"], cfg["max_iter"], cfg["tol"],
                              cfg["threshold_mode"], cfg["beta_ci"], spec.seed,
                              graph.n_points)
    t0 = time.perf_counter()
    est, state, iterations, converged = _run_method(
        method, graph, config=config, tau=cfg.get("tau"), tb=cfg.get("tb"),
        k=cfg.get("k"), alpha0=cfg["alpha0"], beta0=cfg["beta0"],
        beta_ci=cfg["beta_ci"], seed=spec.seed,
    )
    out = {
        "replica": payload["replica"],
        "seed": spec.seed,
        "n": graph.n_points,
        "d": est.d,
        "fisher_info": est.fisher_info,
        "validation_p": est.validation_p,
        "timing": {"graph_s": graph_s, "estimate_s": time.perf_counter() - t0},
    }
    if state is not None:
        out["mean_k_star"] = float(state.k_star.mean())
        out["converged"] = converged
        out["iterations_run"] = iterations
    return out


def run_benchmark(spec: datagen.GeneratorSpec, method: str, replicas: int,
                  threads: int = 1, normality: bool = False, d_true: float | None = None,
                  estimator_cfg: dict | None = None) -> dict:
    """Seeded Monte Carlo replicas of one generator/method pair."""
    cfg = {
        "alpha": 0.01, "kmax": 350, "max_iter": 5, "tol": 1e-4,
        "threshold_mode": "fixed", "beta_ci": 0.05, "alpha0": 1.0, "beta0": 1.0,
        "tau": None, "tb": None, "k": None, "depth": 512,
    }
    cfg.update(estimator_cfg or {})
    if normality:
        if d_true is None:
            raise InvalidArgumentError("--normality requires --d-true")
        if method == "twonn":
            raise InvalidArgumentError(
                "--normality needs a method that reports fisher_info, not twonn"
            )
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(spec.seed).spawn(replicas)]
    payloads = []
    for r, s in enumerate(seeds):
        spec_r = {
            "kind": spec.kind, "n": spec.n, "d": spec.d, "ambient_dim": spec.ambient_dim,
            "sigma_s": spec.sigma_s, "sigma_eps": spec.sigma_eps, "ratio": spec.ratio,
            "seed": s,
        }
        payloads.append({"spec": spec_r, "method": method, "config": cfg, "replica": r})
    if threads > 1 and replicas > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_benchmark_replica, payloads))
    else:
        results = [_benchmark_replica(p) for p in payloads]
    results.sort(key=lambda r: r["replica"])

    ds = np.array([r["d"] for r in results])
    summary = {
        "schema_version": SCHEMA_VERSION,
        "generator": spec.kind,
        "method": method,
        "replicas": replicas,
        "per_replica": results,
        "quantiles": {
            "q005": float(np.quantile(ds, 0.005)),
            "q50": float(np.quantile(ds, 0.5)),
            "q995": float(np.quantile(ds, 0.995)),
        },
    }
    if normality:
        z = np.array([
            np.sqrt(r["n"] * r["fisher_info"]) * (r["d"] - d_true) for r in results
        ])
        summary["normality"] = {
            "z": z.tolist(),
            "ks_p_value": float(scipy_stats.kstest(z, "norm").pvalue),
        }
    return summary


@main.command()
@_generator_options
@click.option("--method", type=click.Choice(list(METHODS)), required=True)
@click.option("--replicas", type=int, default=1, show_default=True)
@click.option("--threads", type=int, default=None, help="defaults to available cores")
@click.option("--normality", is_flag=True, default=False)
@click.option("--d-true", type=float, default=None)
@click.option("--output", type=str, default=None)
@_estimator_options
def benchmark(generator, n, d, ambient_dim, sigma_s, sigma_eps, ratio, method,
              replicas, threads, normality, d_true, output, alpha, kmax, max_iter,
              tol, tau, tb, k, alpha0, beta0, beta_ci, threshold_mode, depth, seed):
    """Monte Carlo benchmark with deterministic per-replica seed streams."""
    try:
        spec = _generator_spec(generator, n, d, ambient_dim, sigma_s, sigma_eps, ratio, seed)
        summary = run_benchmark(
            spec, method, replicas, threads=_threads_from(threads),
            normality=normality, d_true=d_true,
            estimator_cfg={
                "alpha": alpha, "kmax": kmax, "max_iter": max_iter, "tol": tol,
                "threshold_mode": threshold_mode, "beta_ci": beta_ci,
                "alpha0": alpha0, "beta0": beta0, "tau": tau, "tb": tb, "k": k,
                "depth": depth,
            },
        )
    except IdscaleError as err:
        _fail(err)
        return
    _emit(summary, output)


@main.command()
@_generator_options
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=str, required=True)
def generate(generator, n, d, ambient_dim, sigma_s, sigma_eps, ratio, seed, output):
    """Materialize a generator spec to CSV plus a JSON sidecar."""
    try:
        spec = _generator_spec(generator, n, d, ambient_dim, sigma_s, sigma_eps, ratio, seed)
        dataset = datagen.generate(spec)
    except IdscaleError as err:
        _fail(err)
        return
    save_dataset_csv(dataset, output)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "generator": spec.kind,
        "n": spec.n, "d": spec.d, "ambient_dim": spec.ambient_dim,
        "sigma_s": spec.sigma_s, "sigma_eps": spec.sigma_eps, "ratio": spec.ratio,
        "seed": spec.seed,
        "periodic": dataset.periods.tolist() if dataset.periods is not None else None,
    }
    with open(output + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
    click.echo(f"wrote {dataset.n} x {dataset.ambient_dim} points to {output}")


@main.command("fetch-optdigits")
@click.option("--output", type=str, required=True)
@click.option("--url", type=str, default=OPTDIGITS_URL, show_default=True)
def fetch_optdigits(output, url):
    """Download the OptDigits training matrix (3823 x 64, label column dropped)."""
    with urllib.request.urlopen(url, timeout=60) as resp:
        raw = resp.read().decode("utf-8")
    rows = [line.split(",")[:-1] for line in raw.strip().splitlines()]
    pts = np.array(rows, dtype=np.float64)
    np.savetxt(output, pts, delimiter=",", fmt="%.17g")
    click.echo(f"wrote {pts.shape[0]} x {pts.shape[1]} points to {output}")


if __name__ == "__main__":
    main()
