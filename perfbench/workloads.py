"""The benchmark's workloads: inputs made from a seed, one timed operation
(an *op*), and the summary of its output that the check compares.

Every run makes a pool of datasets from sub-seeds of ``--seed`` and cycles
its ops over them, so a run's median does not hang on one draw.  An op's
summary maps an estimate label to ``{"d": ...}`` plus the solver counts
(mean k*, iterations) or, for a typed error, ``{"error": kind}``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from idscale import adaptive, cli, datagen, estimators, geometry
from idscale.errors import IdscaleError

REFERENCE_REL_TOL = 1e-9  # room for ulp-level drift in d; all other fields exact


@dataclass
class Workload:
    name: str
    params: dict
    prepare: Callable  # (params, sub_seeds, workdir) -> list of op inputs
    op: Callable  # (params, input, workdir) -> (summary, info)
    bands: dict  # estimate-label prefix -> (low, high) allowed d
    smoke: dict = field(default_factory=dict)  # parameter overrides for --smoke


def sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _spec(p: dict, seed: int) -> datagen.GeneratorSpec:
    return datagen.GeneratorSpec(
        kind=p["generator"], n=p["n"], d=p.get("d", 0), ambient_dim=p.get("D", 0),
        sigma_eps=p.get("sigma_eps", 0.0), seed=seed,
    )


def _adaptive_summary(res) -> dict:
    return {
        "d": res.estimate.d,
        "mean_k_star": float(res.state.k_star.mean()),
        "iterations": res.iterations_run,
    }


def _invoke_cli(args: list[str]) -> None:
    """Run one ``idscale`` command in-process; a non-zero exit raises."""
    try:
        cli.main.main(args=args, prog_name="idscale", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise RuntimeError(f"idscale {args[0]} exited with code {exc.code}") from exc


# -- torus-periodic ----------------------------------------------------------


def _generate(p, seeds, workdir):
    return [datagen.generate(_spec(p, s)) for s in seeds]


def _torus_op(p, dataset, workdir):
    graph = geometry.build_neighbor_graph(dataset, p["K"])
    res = adaptive.abide(graph, adaptive.EstimatorConfig(k_max=p["K"] - 1))
    return {"abide": _adaptive_summary(res)}, {"points": graph.n_points}


# -- moebius-cli -------------------------------------------------------------


def _moebius_prepare(p, seeds, workdir):
    paths = []
    for j, dataset in enumerate(_generate(p, seeds, workdir)):
        path = workdir / f"moebius-{j}.csv"
        cli.save_dataset_csv(dataset, str(path))
        paths.append(path)
    return paths


def _moebius_op(p, path, workdir):
    out = workdir / "estimate.json"
    _invoke_cli(["estimate", "--method", "abide", "--kmax", str(p["K"] - 1),
                 "--input", str(path), "--output", str(out)])
    report = json.loads(out.read_text())
    summary = {"abide": {
        "d": report["estimate"]["d"],
        "mean_k_star": report["k_star"]["mean"],
        "iterations": report["iterations_run"],
    }}
    timing = report["timing"]
    return summary, {"points": report["dataset"]["n"],
                     "harness_s": timing["graph_s"] + timing["estimate_s"]}


# -- graph-reuse -------------------------------------------------------------


def _reuse_prepare(p, seeds, workdir):
    return [geometry.build_neighbor_graph(ds, p["K"]) for ds in _generate(p, seeds, workdir)]


def _reuse_op(p, graph, workdir):
    config = adaptive.EstimatorConfig(k_max=p["K"] - 1)
    summary = {
        "abide": _adaptive_summary(adaptive.abide(graph, config)),
        "babide": _adaptive_summary(adaptive.babide(graph, config)),
        "agride": _adaptive_summary(adaptive.agride(graph, config)),
        "twonn": {"d": estimators.twonn_estimate(graph).d},
    }
    tau = estimators.optimal_tau(summary["abide"]["d"])
    # the grid of `idscale scan --mode k`
    grid = np.unique(np.geomspace(2, p["K"] - 1, p["scan_points"]).astype(int))
    for k in grid:
        try:
            entry = {"d": estimators.bide_fixed_k(graph, int(k), tau).d}
        except IdscaleError as err:
            entry = {"error": err.kind}
        summary[f"bide_k{int(k):03d}"] = entry
    return summary, {"points": graph.n_points}


# -- montecarlo --------------------------------------------------------------


def _montecarlo_prepare(p, seeds, workdir):
    return list(seeds)


def _montecarlo_op(p, seed, workdir):
    out = workdir / "benchmark.json"
    saved = os.environ.pop("IDSCALE_THREADS", None)
    try:
        _invoke_cli([
            "benchmark", "--generator", p["generator"], "--n", str(p["n"]),
            "--d", str(p["d"]), "--ambient-dim", str(p["D"]),
            "--sigma-eps", repr(p["sigma_eps"]), "--method", "abide",
            "--kmax", str(p["K"] - 1), "--replicas", str(p["replicas"]),
            "--threads", str(p["threads"]), "--seed", str(seed), "--output", str(out),
        ])
    finally:
        if saved is not None:
            os.environ["IDSCALE_THREADS"] = saved
    report = json.loads(out.read_text())
    summary = {}
    for rep in report["per_replica"]:
        summary[f"replica{rep['replica']}"] = {
            "d": rep["d"], "mean_k_star": rep["mean_k_star"], "iterations": rep["iterations_run"],
        }
    busy = sum(r["timing"]["graph_s"] + r["timing"]["estimate_s"] for r in report["per_replica"])
    return summary, {"points": sum(r["n"] for r in report["per_replica"]), "busy_s": busy}


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "torus-periodic",
            {"generator": "uniform_hypercube_periodic", "n": 1200, "d": 5, "K": 351,
             "datasets": 16},
            prepare=_generate, op=_torus_op, bands={"abide": (4.0, 6.0)},
            smoke={"n": 300, "K": 61, "datasets": 2},
        ),
        Workload(
            "moebius-cli",
            {"generator": "moebius", "n": 1000, "D": 20, "sigma_eps": 1e-3, "K": 351,
             "datasets": 12},
            prepare=_moebius_prepare, op=_moebius_op, bands={"abide": (1.0, 3.0)},
            smoke={"n": 300, "K": 61, "datasets": 2},
        ),
        Workload(
            "graph-reuse",
            {"generator": "noisy_gaussian", "n": 700, "d": 2, "D": 20, "sigma_eps": 1e-3,
             "K": 351, "scan_points": 16, "datasets": 12},
            prepare=_reuse_prepare, op=_reuse_op,
            bands={"abide": (1.6, 2.4), "babide": (1.6, 2.4), "agride": (1.6, 2.4),
                   "twonn": (1.3, 2.7), "bide_k": (1.0, 3.0)},
            smoke={"n": 300, "K": 61, "datasets": 2},
        ),
        Workload(
            "montecarlo",
            {"generator": "noisy_gaussian", "n": 600, "d": 2, "D": 100, "sigma_eps": 1e-3,
             "K": 351, "replicas": 4, "threads": 2, "datasets": 12},
            prepare=_montecarlo_prepare, op=_montecarlo_op,
            bands={"replica": (1.5, 2.5)},
            smoke={"n": 200, "K": 61, "replicas": 2, "datasets": 2},
        ),
    ]
}


def check(workload: Workload, summary: dict) -> list[str]:
    """Problems with one op's summary: every d finite and inside the band
    around the generator's known ID."""
    problems = []
    for label, entry in summary.items():
        if "error" in entry:
            continue
        band = next(b for prefix, b in workload.bands.items() if label.startswith(prefix))
        d = entry["d"]
        if not (np.isfinite(d) and band[0] <= d <= band[1]):
            problems.append(f"{label}: d={d!r} outside {band}")
    return problems


def compare(summary: dict, expected: dict, rel_tol: float) -> list[str]:
    """Problems against an expected summary: d within ``rel_tol``
    relative, every other field (mean k*, iterations, error kinds) exact."""
    problems = []
    if set(summary) != set(expected):
        return [f"labels {sorted(summary)} != expected {sorted(expected)}"]
    for label, want in expected.items():
        got = summary[label]
        if set(got) != set(want):
            problems.append(f"{label}: fields {sorted(got)} != {sorted(want)}")
            continue
        for key, value in want.items():
            if key == "d":
                ok = abs(got[key] - value) <= rel_tol * abs(value)
            else:
                ok = got[key] == value
            if not ok:
                problems.append(f"{label}.{key}: {got[key]!r} != expected {value!r}")
    return problems


class OpLog:
    """Checks every op's output: the band around the known ID, equality
    with the first output on the same dataset, and the committed reference."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, j: int, summary: dict | None, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            found = [error]
        else:
            found = check(self.workload, summary)
            found += compare(summary, self.first.setdefault(j, summary), rel_tol=0.0)
            if self.reference is not None:
                found += compare(summary, self.reference[j], REFERENCE_REL_TOL)
        self.problems += [f"dataset {j}: {p}" for p in found]
        self.failed += bool(found)
