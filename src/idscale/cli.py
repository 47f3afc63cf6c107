"""Command-line interface: estimation runs, scale scans, Monte Carlo
benchmarks and dataset generation, all emitting machine-readable JSON."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor

import click
import numpy as np

from . import adaptive as adaptive_mod
from . import datagen, geometry
from .adaptive import METHODS, THRESHOLD_MODES
from .errors import (
    DegenerateScaleError,
    IdscaleError,
    InvalidArgumentError,
    ParseError,
    require_integer,
)
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


def _parse_rows(lines) -> np.ndarray:
    """The CSV text ``lines`` as an n x D array, by ``load_dataset``'s rules."""
    rows = []
    width = None
    try:
        for lineno, line in enumerate(lines, start=1):
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
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8 text: {err}") from None
    if not rows:
        raise ParseError("empty file", line=1)
    return np.array(rows, dtype=np.float64)


def load_dataset(path: str, periodic: list[float] | None = None) -> Dataset:
    """Read a CSV point cloud (rows = points); a single non-numeric header
    row, the first non-blank line, is skipped automatically."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports write
    with open(path, "r", encoding="utf-8-sig") as fh:
        pts = _parse_rows(fh)
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


def _open_output(path: str):
    """Open ``path`` for writing; one in a missing directory is a bad argument."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as err:
        raise InvalidArgumentError(f"cannot write {path}: {err.strerror}") from None


def _check_output(*paths: str | None) -> None:
    """Fail on an output path that is a directory or whose directory is
    missing or read-only (``None`` and ``-`` are stdout), before a
    command's work; the files are opened only after it, so a failed run
    leaves none behind."""
    for path in paths:
        if path is None or path == "-":
            continue
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise InvalidArgumentError(f"cannot write {path}: it is a directory")
        if not os.access(folder, os.W_OK):
            raise InvalidArgumentError(f"cannot write {path}: no writable directory {folder}")


def _check_file_output(*paths: str) -> None:
    """``_check_output`` for a command that writes only files, where ``-``
    (stdout) is no place to write."""
    if "-" in paths:
        raise InvalidArgumentError("--output must name a file; this command cannot write to stdout")
    _check_output(*paths)


def save_dataset_csv(dataset: Dataset, path: str) -> None:
    with _open_output(path) as fh:
        np.savetxt(fh, dataset.points, delimiter=",", fmt="%.17g")


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
        "mean_t_a": float((state.counts.tau * state.t_b).mean()),
    }


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, allow_nan=True)
    if output is None or output == "-":
        click.echo(text)
    else:
        with _open_output(output) as fh:
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
    """Run ``method`` on a graph of the orders it reads (``required_depth``),
    or of ``depth`` orders where deeper (at most n - 1); return the graph,
    the ``AbideResult`` and the graph and estimate wall times."""
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
            fn = click.option(
                "--" + _FLAG_NAMES.get(field.name, field.name).replace("_", "-"), field.name,
                type=kind, default=default, show_default=True, **extra,
            )(fn)
        return fn

    return decorate


@main.command()
@click.option("--method", type=click.Choice(list(METHODS)), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--periodic", type=str, default=None, help=_PERIODIC_HELP)
@click.option("--output", type=str, default=None, help="report path or - for stdout")
@_estimator_options()
def estimate(method, input_path, periodic, output, **opts):
    """Run one estimator on a CSV dataset and emit a JSON report."""
    _check_output(output)
    config = adaptive_mod.EstimatorConfig(**opts)
    dataset = load_dataset(input_path, _parse_periodic(periodic))
    graph, res, timing = _build_and_run(method, dataset, config)
    # the options the method read, with the k_max the adaptive loop ran with
    values = {**dataclasses.asdict(config), "threshold_mode": _THRESHOLD_FLAGS[config.threshold_mode]}
    if res.state is not None:
        values["k_max"] = res.state.k_max
    echo = {_FLAG_NAMES.get(name, name): values[name] for name in adaptive_mod.METHOD_OPTIONS[method]}
    report = {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "dataset": dataset_fingerprint(graph.dataset),
        "config": {**echo, "periodic": periodic},
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
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--periodic", type=str, default=None, help=_PERIODIC_HELP)
@click.option("--grid-size", type=click.IntRange(min=1), default=16, show_default=True)
@click.option("--tb-min", type=click.FloatRange(min=0, min_open=True), default=None)
@click.option("--tb-max", type=click.FloatRange(min=0, min_open=True), default=None)
@click.option("--k-min", type=click.IntRange(min=2), default=2, show_default=True)
@click.option("--k-max-scan", type=click.IntRange(min=2), default=None,
              help="top of the k grid; both modes read this many orders if abide reads fewer")
@click.option("--output", type=str, default=None)
@_estimator_options("tb", "k", "alpha0", "beta0")
def scan(mode, input_path, periodic, grid_size, tb_min, tb_max, k_min, k_max_scan,
         output, **opts):
    """Sweep fixed-radius or fixed-k estimates across a grid, with the
    adaptive estimate as the starred reference."""
    _check_output(output)
    config = adaptive_mod.EstimatorConfig(**opts)
    if mode == "k" and k_min > (k_max_scan or config.k_max):
        raise InvalidArgumentError(
            f"--k-min {k_min} is above the top of the k grid, --k-max-scan or else --kmax "
            f"({k_max_scan or config.k_max})"
        )
    dataset = load_dataset(input_path, _parse_periodic(periodic))
    # one graph for the abide reference and the grid, deepened by --k-max-scan
    graph, ref, timing = _build_and_run("abide", dataset, config, depth=k_max_scan or 0)
    tau = config.tau if config.tau is not None else ref.estimate.tau
    if mode == "radius":
        lo = tb_min if tb_min is not None else float(np.median(graph.distances[:, 0]))
        hi = tb_max if tb_max is not None else float(graph.distances[:, -1].min())
        method, key, field, grid = "bide-r", "t_b", "tb", np.geomspace(lo, hi, grid_size)
    else:
        hi = k_max_scan or ref.state.k_max
        if k_min > hi:
            raise InvalidArgumentError(
                f"--k-min {k_min} is above the top of the k grid, the k_max "
                f"{hi} that abide ran with on {graph.n_points} distinct points"
            )
        method, key, field = "bide-k", "k", "k"
        grid = np.unique(np.rint(np.geomspace(k_min, hi, grid_size)).astype(int))
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
        "ci": est.ci,
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
                  threads: int = 1, d_true: float | None = None,
                  estimator_cfg: dict | None = None) -> dict:
    """Seeded Monte Carlo replicas of one generator/method pair, each with
    ``estimator_cfg`` (``EstimatorConfig`` fields) on its own generator seed;
    ``d_true`` adds the pivot normality check."""
    config = adaptive_mod.EstimatorConfig(**(estimator_cfg or {}))
    adaptive_mod.check_options(method, config)
    for name, value in (("replicas", replicas), ("threads", threads)):
        require_integer(name, value)
        if value < 1:
            raise InvalidArgumentError(f"--{name} must be >= 1, got {value}")
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(spec.seed).spawn(replicas)]
    payloads = [
        {"spec": dataclasses.replace(spec, seed=s), "method": method, "config": config, "replica": r}
        for r, s in enumerate(seeds)
    ]
    if threads > 1 and replicas > 1:
        if spec.kind not in datagen.PERIODIC_KINDS:
            # loaded once here, before the workers fork, rather than by each
            # new worker at its first Euclidean graph (0.3 s apiece); imported,
            # not called, so no distance call is made outside a replica
            import scipy.spatial.distance  # noqa: F401

        # the pool starts all its workers at once, so no more than there are replicas
        with ProcessPoolExecutor(max_workers=min(threads, replicas)) as pool:
            results = list(pool.map(_benchmark_replica, payloads))
    else:
        results = [_benchmark_replica(p) for p in payloads]

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
    if d_true is not None:
        for r in results:
            if r["fisher_info"] is None:
                raise DegenerateScaleError(
                    f"replica {r['replica']} (seed {r['seed']}) reports no fisher_info, "
                    "so it has no normality pivot"
                )
        z = np.array([
            np.sqrt(r["n"] * r["fisher_info"]) * (r["d"] - d_true) for r in results
        ])
        # imported here, its one use: scipy.stats and the scipy.optimize it
        # loads take about 34 MB and 0.5 s, which no other command pays
        from scipy import stats

        summary["normality"] = {
            "z": z.tolist(),
            "ks_p_value": float(stats.kstest(z, "norm").pvalue),
        }
    return summary


@main.command()
@_generator_options
@click.option("--method", type=click.Choice(list(METHODS)), required=True)
@click.option("--replicas", type=int, default=1, show_default=True)
@click.option("--threads", type=click.IntRange(min=1), default=None,
              help="defaults to available cores")
@click.option("--d-true", type=float, default=None,
              help="true ID: adds the pivot normality check")
@click.option("--output", type=str, default=None)
@_estimator_options()
def benchmark(method, replicas, threads, d_true, output, **opts):
    """Monte Carlo benchmark with deterministic per-replica seed streams."""
    _check_output(output)
    # the generator options are the spec's fields, the rest EstimatorConfig's
    spec = datagen.GeneratorSpec(**{name: opts.pop(name) for name in _SPEC_DEFAULTS})
    _emit(run_benchmark(spec, method, replicas, threads=_threads_from(threads), d_true=d_true,
                        estimator_cfg=opts), output)


@main.command()
@_generator_options
@click.option("--output", type=str, required=True)
def generate(output, **fields):
    """Materialize a generator spec to CSV plus a JSON sidecar."""
    # both paths first, so an unwritable sidecar leaves no CSV behind
    _check_file_output(output, output + ".json")
    spec = datagen.GeneratorSpec(**fields)
    dataset = datagen.generate(spec)
    save_dataset_csv(dataset, output)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "generator": spec.kind,
        **{key: value for key, value in dataclasses.asdict(spec).items() if key != "kind"},
        "periodic": dataset.periods.tolist() if dataset.periods is not None else None,
    }
    with _open_output(output + ".json") as fh:
        json.dump(sidecar, fh, indent=2)
    click.echo(f"wrote {dataset.n} x {dataset.ambient_dim} points to {output}")


@main.command("fetch-optdigits")
@click.option("--output", type=str, required=True)
@click.option("--url", type=str, default=OPTDIGITS_URL, show_default=True)
def fetch_optdigits(output, url):
    """Download the OptDigits training matrix (3823 x 64, label column dropped)."""
    _check_file_output(output)
    # imported here, their one use: they load ssl, which no other command needs
    import http.client
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=60) as resp:
            body = resp.read()
    except (OSError, ValueError, http.client.HTTPException) as err:
        # URLError and timeouts are OSErrors, an unknown scheme a ValueError
        reason = getattr(err, "reason", None) or err
        raise InvalidArgumentError(f"cannot download {url}: {reason}") from None
    # the last column is the digit label
    points = _parse_rows(io.TextIOWrapper(io.BytesIO(body), encoding="utf-8-sig"))[:, :-1]
    dataset = Dataset(points)
    save_dataset_csv(dataset, output)
    click.echo(f"wrote {dataset.n} x {dataset.ambient_dim} points to {output}")


if __name__ == "__main__":
    main()
