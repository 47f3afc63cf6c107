"""Span tracer that measures idscale's layers from outside the package.

Each public function is wrapped under the module attribute its caller
looks it up by (``from .geometry import build_neighbor_graph`` in
``cli`` means the CLI's lookup is ``cli.build_neighbor_graph``).  A
wrapper records a span ``[name, start, end, parent, op]`` in memory and,
for some layers, counts computed from the call's arguments and result.
``Tracer.installed()`` puts the original attributes back on exit.

Process-pool workers forked while the wrappers are installed inherit
them; their spans are written to one file per replica and merged back
into the parent's op by ``Tracer.collect_worker_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from idscale import adaptive, cli, datagen, estimators, geometry, validation

_F8 = 8  # bytes per float64


# -- counts computed at the layer boundaries --------------------------------


def _count_pairwise(c, a, dist):
    nx, dim = a["x"].shape
    ny = a["y"].shape[0]
    pairs = nx * ny
    # inputs + output, plus the largest temporaries of each branch:
    # Euclidean: cross term and squared distances; periodic: two n x m x D
    # delta tensors and the squared distances
    temps = 2 * pairs if a["periods"] is None else 2 * pairs * dim + pairs
    c["geometry.pairwise_distances_calls"] += 1
    c["geometry.pair_count"] += pairs
    c["geometry.pairwise_bytes_computed"] += _F8 * ((nx + ny) * dim + temps + pairs)


def _count_graph(c, a, graph):
    c["graph_builds"] += 1
    c["sort_useful_sum"] += (a["K"] + 1) / graph.n_points


def _count_k_star(c, a, k_star):
    k_max = a["config"].k_max
    c["adaptive.select_k_star_calls"] += 1
    c["adaptive.lrt_evals"] += a["graph"].n_points * (k_max - 1)
    c["lrt_useful_sum"] += float(np.mean((k_star - 1) / (k_max - 1)))


def _count_adaptive(c, a, res):
    c["adaptive_runs"] += 1
    c["adaptive.iterations"] += res.iterations_run
    c["converged_sum"] += int(res.converged)
    c["k_star_sum"] += float(res.state.k_star.mean())
    c["saturation_sum"] += res.state.saturation_fraction


def _count_validation(c, a, report):
    c["validation.calls"] += 1


def _count_mixture(c, a, draws):
    c["validation.synthetic_draws"] += a["m"]


def _count_load(c, a, dataset):
    c["cli.load_dataset_bytes"] += os.path.getsize(a["path"])


# (module, attribute, span name, counter)
TARGETS = [
    (datagen, "generate", "datagen.generate", None),
    (cli, "load_dataset", "cli.load_dataset", _count_load),
    (cli, "build_neighbor_graph", "geometry.build_neighbor_graph", _count_graph),
    (geometry, "build_neighbor_graph", "geometry.build_neighbor_graph", _count_graph),
    (geometry, "deduplicate", "geometry.deduplicate", None),
    (geometry, "pairwise_distances", "geometry.pairwise_distances", _count_pairwise),
    (adaptive, "abide", "adaptive.abide", _count_adaptive),
    (adaptive, "babide", "adaptive.babide", _count_adaptive),
    (adaptive, "agride", "adaptive.agride", _count_adaptive),
    (adaptive, "select_k_star_all", "adaptive.select_k_star_all", _count_k_star),
    (adaptive, "counts_within_open_balls", "adaptive.counts_within_open_balls", None),
    (adaptive, "bide_closed_form", "adaptive.update", None),
    (adaptive, "beta_posterior", "adaptive.update", None),
    (adaptive, "gride_update_from_k_star", "adaptive.update", None),
    (adaptive, "twonn_estimate", "estimators.twonn_estimate", None),
    (adaptive, "validate_model", "validation.validate_model", _count_validation),
    (estimators, "twonn_estimate", "estimators.twonn_estimate", None),
    (estimators, "bide_fixed_k", "estimators.bide_fixed_k", None),
    (estimators, "validate_model", "validation.validate_model", _count_validation),
    (validation, "sample_mixture", "validation.sample_mixture", _count_mixture),
    (validation, "epps_singleton", "specfun.epps_singleton", None),
]

# per-layer self-time metric -> span name
SELF_TIME_METRICS = {
    "datagen.generate_s": "datagen.generate",
    "cli.load_dataset_s": "cli.load_dataset",
    "geometry.deduplicate_s": "geometry.deduplicate",
    "geometry.pairwise_distances_s": "geometry.pairwise_distances",
    "geometry.neighbor_select_s": "geometry.build_neighbor_graph",
    "adaptive.select_k_star_s": "adaptive.select_k_star_all",
    "adaptive.counts_s": "adaptive.counts_within_open_balls",
    "adaptive.update_s": "adaptive.update",
    "estimators.twonn_s": "estimators.twonn_estimate",
    "estimators.bide_fixed_k_s": "estimators.bide_fixed_k",
    "validation.validate_model_s": "validation.validate_model",
    "validation.sample_mixture_s": "validation.sample_mixture",
    "specfun.epps_singleton_s": "specfun.epps_singleton",
}

COUNT_METRICS = (
    "cli.load_dataset_bytes",
    "geometry.pairwise_distances_calls",
    "geometry.pair_count",
    "geometry.pairwise_bytes_computed",
    "adaptive.select_k_star_calls",
    "adaptive.lrt_evals",
    "adaptive.iterations",
    "validation.calls",
    "validation.synthetic_draws",
)


class Tracer:
    """In-memory spans and counts, keyed by the op that caused them."""

    def __init__(self, worker_dir: Path):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = None
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._worker_dir = worker_dir

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts[self.op], bound.arguments, result)
            return result

        return wrapper

    def _wrap_replica(self, fn):
        """Pool workers reset the inherited trace, run the replica, and
        write their spans to a file the parent merges after the op."""

        @functools.wraps(fn)
        def wrapper(payload):
            in_worker = os.getpid() != self._pid
            if in_worker:
                self.spans, self._stack = [], []
                self.counts = defaultdict(lambda: defaultdict(float))
            with self.span("cli.benchmark_replica"):
                out = fn(payload)
            if in_worker:
                path = self._worker_dir / f"worker-{os.getpid()}-{payload['replica']}.json"
                path.write_text(json.dumps({
                    "spans": self.spans,
                    "counts": {op: dict(c) for op, c in self.counts.items()},
                }))
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for module, attr, name, counter in TARGETS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(getattr(module, attr), name, counter))
            saved.append((cli, "_benchmark_replica", cli._benchmark_replica))
            cli._benchmark_replica = self._wrap_replica(cli._benchmark_replica)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def collect_worker_spans(self) -> int:
        """Merge the span files of finished pool workers into the current op."""
        files = sorted(self._worker_dir.glob("worker-*.json"))
        for path in files:
            data = json.loads(path.read_text())
            offset = len(self.spans)
            for name, start, end, parent, _ in data["spans"]:
                self.spans.append([name, start, end,
                                   None if parent is None else parent + offset, self.op])
            for counts in data["counts"].values():
                for key, value in counts.items():
                    self.counts[self.op][key] += value
            path.unlink()
        return len(files)

    # -- analysis -----------------------------------------------------------

    def self_times(self, ops) -> dict:
        """Total self time per span name over the given ops: a span's
        duration minus the part covered by its direct children."""
        ops = set(ops)
        child = defaultdict(float)
        for _, start, end, parent, op in self.spans:
            if parent is not None and op in ops:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op in ops:
                totals[name] += end - start - child[i]
        return totals


def layer_metrics(tracer: Tracer, traced_ops, per_dataset_op, setup_ops) -> dict:
    """Per-layer metrics: self seconds per traced op, counts per op.

    Counts come from one traced op per input dataset (``per_dataset_op``),
    so they repeat exactly however many ops fit in the run.
    """
    n_ops = len(traced_ops)
    selfs = tracer.self_times(traced_ops)
    out = {m: selfs.get(span, 0.0) / n_ops for m, span in SELF_TIME_METRICS.items()}
    out["adaptive.loop_s"] = sum(
        selfs.get(f"adaptive.{m}", 0.0) for m in ("abide", "babide", "agride")
    ) / n_ops

    counts = defaultdict(float)
    for op in per_dataset_op:
        for key, value in tracer.counts[op].items():
            counts[key] += value
    n_data = len(per_dataset_op)
    for key in COUNT_METRICS:
        out[key] = counts[key] / n_data

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    out["geometry.sort_useful_frac"] = ratio("sort_useful_sum", "graph_builds")
    out["adaptive.lrt_useful_frac"] = ratio("lrt_useful_sum", "adaptive.select_k_star_calls")
    out["adaptive.converged_frac"] = ratio("converged_sum", "adaptive_runs")
    out["adaptive.mean_k_star"] = ratio("k_star_sum", "adaptive_runs")
    out["adaptive.saturation_frac"] = ratio("saturation_sum", "adaptive_runs")

    setup = tracer.self_times(setup_ops)
    n_setup = max(1, len(setup_ops))
    out["setup.datagen.generate_s"] = setup.get("datagen.generate", 0.0) / n_setup
    out["setup.geometry_s"] = sum(
        v for k, v in setup.items() if k.startswith("geometry.")
    ) / n_setup
    return out
