"""Command-line interface: estimation runs, scale scans, Monte Carlo
benchmarks and dataset generation, all emitting machine-readable JSON."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import typing
import urllib.request
from concurrent.futures import ProcessPoolExecutor

import click
import numpy as np
from scipy import stats as scipy_stats

from . import adaptive as adaptive_mod
from . import datagen, estimators, geometry
from .adaptive import METHODS, THRESHOLD_MODES
from .errors import IdscaleError, InvalidArgumentError, ParseError
from .geometry import Dataset, build_neighbor_graph

SCHEMA_VERSION = 1

# the CLI's own names: the flags that differ from their EstimatorConfig
# field, and the flag spellings of the threshold modes
_FLAG_NAMES = {"k_max": "kmax", "delta": "tol"}
_THRESHOLD_FLAGS = {mode: mode.replace("bonferroni_", "bonf-") for mode in THRESHOLD_MODES}
_THRESHOLD_MODES = {flag: mode for mode, flag in _THRESHOLD_FLAGS.items()}

OPTDIGITS_URL = (
    "https://archive.ics.uci.edu/ml/machine-learning-databases/optdigits/optdigits.tra"
)


# ---------------------------------------------------------------------------
# dataset I/O


def load_dataset(path: str, periodic: list[float] | None = None) -> Dataset:
    """Read a CSV point cloud (rows = points); a single non-numeric header
    row, the first non-blank line, is skipped automatically."""
    rows = []
    width = None
    # utf-8-sig drops the byte-order mark that spreadsheet exports write
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                # the first non-blank line sets the width; a header row is skipped
                width = len(cells)
                try:
                    float(cells[0])
                except ValueError:
                    continue
            elif len(cells) != width:
                raise ParseError(f"ragged row: expected {width} columns", line=lineno)
            try:
                values = [float(c) for c in cells]
            except ValueError as err:
                raise ParseError(f"non-numeric cell: {err}", line=lineno) from err
            if not all(map(math.isfinite, values)):
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


def _fail(err: IdscaleError) -> None:
    """Print the error JSON on stderr and exit with the error's code."""
    payload = {"error": err.kind, "message": str(err)}
    if getattr(err, "line", None) is not None:
        payload["line"] = err.line
    click.echo(json.dumps(payload), err=True)
    sys.exit(err.exit_code)


def _threads_from(option_value: int | None) -> int:
    """Replica workers: --threads, else the cores this process may use."""
    if option_value:
        return option_value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_and_run(method: str, dataset: Dataset, config: adaptive_mod.EstimatorConfig,
                   depth: int = 0):
    """Run ``method`` on a graph deep enough for it and for ``depth``
    neighbour orders, both capped at the number of distinct points - 1.

    Returns the graph, the ``AbideResult`` and the graph and estimate wall
    times.
    """
    t0 = time.perf_counter()
    dataset = geometry.deduplicate(dataset)
    graph = build_neighbor_graph(dataset, max(
        adaptive_mod.required_depth(method, dataset.n, config), min(depth, dataset.n - 1)
    ))
    t1 = time.perf_counter()
    res = adaptive_mod.run_method(method, graph, config)
    return graph, res, {"graph_s": t1 - t0, "estimate_s": time.perf_counter() - t1}


_PERIODIC_HELP = "comma-separated periods, one per column (or one value for all)"


def _parse_periodic(text):
    if text is None:
        return None
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise InvalidArgumentError(
            f"--periodic needs comma-separated numbers, got {text!r}"
        ) from None


# ---------------------------------------------------------------------------
# commands


class _Group(click.Group):
    """Ends any command's ``IdscaleError`` in its JSON error and exit code,
    and a value, flag or missing command that click rejects as
    ``invalid-argument``."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except IdscaleError as err:
            _fail(err)
        except click.UsageError as err:
            _fail(InvalidArgumentError(err.format_message()))


# without a command click would print the help during parsing, before invoke
@click.group(cls=_Group, no_args_is_help=False)
def main():
    """Scale-adaptive intrinsic dimension estimation."""


def _estimator_options(*skip):
    """Decorator adding a flag per ``EstimatorConfig`` field, less the
    fields named in ``skip``, with the field's default; ``--threshold-mode``
    takes the flag spellings."""

    def decorate(fn):
        hints = typing.get_type_hints(adaptive_mod.EstimatorConfig)
        for field in reversed(dataclasses.fields(adaptive_mod.EstimatorConfig)):
            if field.name in skip:
                continue
            hint, default, extra = hints[field.name], field.default, {}
            kind = (typing.get_args(hint) or (hint,))[0]  # float | None -> float
            if field.name == "threshold_mode":
                kind, default = click.Choice(list(_THRESHOLD_MODES)), _THRESHOLD_FLAGS[default]
                extra["callback"] = lambda _ctx, _param, flag: _THRESHOLD_MODES[flag]
            elif field.name == "depth":
                extra["help"] = "stored neighbour orders for bide-r"
            fn = click.option(
                "--" + _FLAG_NAMES.get(field.name, field.name).replace("_", "-"), field.name,
                type=kind, default=default, show_default=True, **extra,
            )(fn)
        return fn

    return decorate


@main.command()
@click.option("--method", type=click.Choice(list(METHODS)), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--periodic", type=str, default=None, help=_PERIODIC_HELP)
@click.option("--output", type=str, default=None, help="report path or - for stdout")
@_estimator_options()
def estimate(method, input_path, periodic, output, **opts):
    """Run one estimator on a CSV dataset and emit a JSON report."""
    config = adaptive_mod.EstimatorConfig(**opts)
    dataset = load_dataset(input_path, _parse_periodic(periodic))
    graph, res, timing = _build_and_run(method, dataset, config)
    echo = {_FLAG_NAMES.get(name, name): value for name, value in dataclasses.asdict(config).items()
            if name != "depth"}
    report = {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "dataset": dataset_fingerprint(graph.dataset),
        "config": {**echo, "threshold_mode": _THRESHOLD_FLAGS[config.threshold_mode],
                   "periodic": periodic},
        "estimate": dataclasses.asdict(res.estimate),
        "timing": timing,
    }
    if res.state is not None:
        report["k_star"] = _k_star_summary(res.state)
        report["iterations_run"] = res.iterations_run
        report["converged"] = res.converged
    _emit(report, output)


@main.command()
@click.option("--mode", type=click.Choice(["radius", "k"]), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--periodic", type=str, default=None, help=_PERIODIC_HELP)
@click.option("--grid-size", type=click.IntRange(min=1), default=16, show_default=True)
@click.option("--tb-min", type=click.FloatRange(min=0, min_open=True), default=None)
@click.option("--tb-max", type=click.FloatRange(min=0, min_open=True), default=None)
@click.option("--k-min", type=int, default=2, show_default=True)
@click.option("--k-max-scan", type=click.IntRange(min=2), default=None)
@click.option("--output", type=str, default=None)
@_estimator_options("tb", "k", "alpha0", "beta0")
def scan(mode, input_path, periodic, grid_size, tb_min, tb_max, k_min, k_max_scan,
         output, **opts):
    """Sweep fixed-radius or fixed-k estimates across a grid, with the
    adaptive estimate as the starred reference."""
    config = adaptive_mod.EstimatorConfig(**opts)
    dataset = load_dataset(input_path, _parse_periodic(periodic))
    # one graph for the abide reference and a bide-r depth of grid radii
    graph, ref, timing = _build_and_run("abide", dataset, config, depth=config.depth)
    tau = config.tau if config.tau is not None else estimators.optimal_tau(ref.estimate.d)
    if mode == "radius":
        lo = tb_min if tb_min is not None else float(np.median(graph.distances[:, 0]))
        hi = tb_max if tb_max is not None else float(graph.distances[:, -1].min())
        method, key, field, grid = "bide-r", "t_b", "tb", np.geomspace(lo, hi, grid_size)
    else:
        hi = k_max_scan if k_max_scan is not None else min(ref.state.k_max, graph.depth)
        method, key, field = "bide-k", "k", "k"
        grid = np.unique(np.geomspace(max(2, k_min), hi, grid_size).astype(int))
    entries = []
    for scale in grid.tolist():
        entry = {key: scale}
        try:
            entry_config = dataclasses.replace(config, tau=tau, **{field: scale})
            est = adaptive_mod.run_method(method, graph, entry_config).estimate
            entry.update(d=est.d, ci=list(est.ci), validation_p=est.validation_p)
        except IdscaleError as err:
            entry.update(error=err.kind, message=str(err))
        entries.append(entry)

    _emit({
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "dataset": dataset_fingerprint(graph.dataset),
        "tau": tau,
        "entries": entries,
        "abide_ref": {
            "d": ref.estimate.d,
            "validation_p": ref.estimate.validation_p,
            "mean_t_b": float(ref.state.t_b.mean()),
            "mean_k_star": float(ref.state.k_star.mean()),
        },
        "timing": {"graph_s": timing["graph_s"]},
    }, output)


# GeneratorSpec's field defaults; MISSING for the required kind and n
_SPEC_DEFAULTS = {f.name: f.default for f in dataclasses.fields(datagen.GeneratorSpec)}


def _generator_options(fn):
    """Decorator adding ``--generator`` (the spec's kind), ``--n`` and an
    option per other ``GeneratorSpec`` field, with the field's default
    (shown in --help for the float fields and the seed)."""
    for name, default in reversed(_SPEC_DEFAULTS.items()):
        if default is not dataclasses.MISSING:
            fn = click.option(
                "--" + name.replace("_", "-"), type=type(default), default=default,
                show_default=isinstance(default, float) or name == "seed",
            )(fn)
    fn = click.option("--n", type=int, required=True)(fn)
    return click.option("--generator", "kind", type=click.Choice(list(datagen.GENERATOR_KINDS)),
                        required=True)(fn)


def _benchmark_replica(payload: dict) -> dict:
    """One seeded replica: generate, build the graph, run the method."""
    spec = payload["spec"]
    graph, res, timing = _build_and_run(payload["method"], datagen.generate(spec), payload["config"])
    est = res.estimate
    out = {
        "replica": payload["replica"],
        "seed": spec.seed,
        "n": graph.n_points,
        "d": est.d,
        "fisher_info": est.fisher_info,
        "validation_p": est.validation_p,
        "timing": timing,
    }
    if res.state is not None:
        out["mean_k_star"] = float(res.state.k_star.mean())
        out["converged"] = res.converged
        out["iterations_run"] = res.iterations_run
    return out


def run_benchmark(spec: datagen.GeneratorSpec, method: str, replicas: int,
                  threads: int = 1, normality: bool = False, d_true: float | None = None,
                  estimator_cfg: dict | None = None) -> dict:
    """Seeded Monte Carlo replicas of one generator/method pair;
    ``estimator_cfg`` maps ``EstimatorConfig`` fields to values, and every
    replica runs with that one config on its own generator seed."""
    config = adaptive_mod.EstimatorConfig(**(estimator_cfg or {}))
    adaptive_mod.check_options(method, config)
    if replicas < 1:
        raise InvalidArgumentError(f"--replicas must be >= 1, got {replicas}")
    if normality:
        if d_true is None:
            raise InvalidArgumentError("--normality requires --d-true")
        if method == "twonn":
            raise InvalidArgumentError(
                "--normality needs a method that reports fisher_info, not twonn"
            )
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(spec.seed).spawn(replicas)]
    payloads = [
        {"spec": dataclasses.replace(spec, seed=s), "method": method, "config": config, "replica": r}
        for r, s in enumerate(seeds)
    ]
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
@click.option("--threads", type=click.IntRange(min=1), default=None,
              help="defaults to available cores")
@click.option("--normality", is_flag=True, default=False)
@click.option("--d-true", type=float, default=None)
@click.option("--output", type=str, default=None)
@_estimator_options()
def benchmark(kind, n, d, ambient_dim, sigma_s, sigma_eps, ratio, seed, method,
              replicas, threads, normality, d_true, output, **opts):
    """Monte Carlo benchmark with deterministic per-replica seed streams."""
    spec = datagen.GeneratorSpec(kind, n, d, ambient_dim, sigma_s, sigma_eps, ratio, seed)
    _emit(run_benchmark(
        spec, method, replicas, threads=_threads_from(threads),
        normality=normality, d_true=d_true, estimator_cfg=opts,
    ), output)


@main.command()
@_generator_options
@click.option("--output", type=str, required=True)
def generate(output, **fields):
    """Materialize a generator spec to CSV plus a JSON sidecar."""
    spec = datagen.GeneratorSpec(**fields)
    dataset = datagen.generate(spec)
    save_dataset_csv(dataset, output)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "generator": spec.kind,
        **{key: value for key, value in dataclasses.asdict(spec).items() if key != "kind"},
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
