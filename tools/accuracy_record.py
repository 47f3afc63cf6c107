#!/usr/bin/env python3
"""Accuracy record: bias, spread and CI coverage of each estimator on a
fixed grid of data sets, one ``cli.run_benchmark`` call per cell.

Run from the root of a checkout:

    python3 tools/accuracy_record.py [OUTPUT]     # default ACCURACY_baseline.json

Every cell is 24 seeded replicas (generator seed 0, so the replica seeds
are those of ``idscale benchmark --seed 0 --replicas 24``) on up to 2 pool
workers, with ``d_true``: the path behind ``benchmark --d-true``.
Coverage and the half-width are read off each replica's ``ci``.  The file
is a record, not a gate: nothing reads it back.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from idscale import cli, datagen  # noqa: E402
from idscale.estimators import BETA_CI  # noqa: E402

REPLICAS = 24
SEED = 0
METHODS = ("abide", "babide", "agride", "twonn")
# (label, generator spec fields, true intrinsic dimension)
GRID = [
    (f"torus_n{n}", dict(kind="uniform_hypercube_periodic", n=n, d=5), 5.0) for n in (1200, 2000)
] + [
    (f"moebius_n{n}", dict(kind="moebius", n=n, ambient_dim=20, sigma_eps=1e-3), 2.0)
    for n in (1000, 2000, 5000)
] + [
    (f"noisy_gaussian_sigma{s:g}", dict(kind="noisy_gaussian", n=2000, d=2, ambient_dim=20, sigma_eps=s), 2.0)
    for s in (1e-3, 1e-2, 3e-2)
]


def _summary(replicas: list[dict], d_true: float, z: np.ndarray) -> dict:
    d = np.array([r["d"] for r in replicas])
    lo, hi = np.array([r["ci"] for r in replicas]).T
    out = {
        "mean_d": float(d.mean()),
        "sd_d": float(d.std(ddof=1)),
        "mean_ci_half_width": float(((hi - lo) / 2.0).mean()),
        "coverage": float(np.mean((lo <= d_true) & (d_true <= hi))),
        "mean_z": float(z.mean()),
        "sd_z": float(z.std(ddof=1)),
    }
    # the fit check and k* exist only for the count-based and adaptive methods
    if replicas[0]["validation_p"] is not None:
        out["median_validation_p"] = float(np.median([r["validation_p"] for r in replicas]))
    if "mean_k_star" in replicas[0]:
        out["mean_k_star"] = float(np.mean([r["mean_k_star"] for r in replicas]))
        out["converged_frac"] = float(np.mean([r["converged"] for r in replicas]))
    return out


def record_cell(fields: dict, d_true: float, method: str, threads: int) -> dict:
    spec = datagen.GeneratorSpec(**fields, seed=SEED)
    call = (f"cli.run_benchmark(datagen.GeneratorSpec({', '.join(f'{k}={v!r}' for k, v in fields.items())}, "
            f"seed={SEED}), {method!r}, {REPLICAS}, threads={threads}, d_true={d_true!r})")
    start = time.perf_counter()
    result = cli.run_benchmark(spec, method, REPLICAS, threads=threads, d_true=d_true)
    wall = time.perf_counter() - start
    z = np.array(result["normality"]["z"])
    return {"call": call, "seed": SEED, "d_true": d_true, "wall_s": round(wall, 3),
            **_summary(result["per_replica"], d_true, z)}


def _commit() -> str | None:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(output: str) -> None:
    threads = min(2, len(os.sched_getaffinity(0)))
    cells = {}
    for label, fields, d_true in GRID:
        for method in METHODS:
            cells[f"{label}/{method}"] = record_cell(fields, d_true, method, threads)
            print(f"{label}/{method}: {cells[f'{label}/{method}']}", file=sys.stderr)
    record = {
        "commit": _commit(),
        "replicas": REPLICAS,
        "beta_ci": BETA_CI,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "workers": threads,
            "python": platform.python_version(),
            **{lib: metadata.version(lib) for lib in ("numpy", "scipy", "click")},
        },
        "cells": cells,
    }
    Path(output).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "ACCURACY_baseline.json")
