#!/usr/bin/env python3
"""idscale benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke            # every workload, tiny n, both modes
    python3 perfbench/run.py --make-reference   # rewrite perfbench/reference.json

One run makes its inputs from ``--seed``, sets up three times (the median
is ``setup_s``), then runs ops in a closed loop from this one process for
``--seconds`` and checks every op's output.  The last stdout line is the
result: ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` declares for the mode (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).  The line before it is a report with the
environment, workload parameters and tail percentile.  A traced run also
writes its spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEEDS = range(10)
SETUP_PASSES = 3
TAIL_BEYOND = 10


def _import_program() -> None:
    """Import idscale from this checkout's sources, never from elsewhere."""
    pkg = ROOT / "src" / "idscale"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no idscale sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import idscale

    if Path(idscale.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported idscale from {idscale.__file__}, not {pkg}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    from importlib import metadata

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": metadata.version("click"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        **{var: os.environ.get(var)
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "IDSCALE_THREADS")},
    }


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND ops beyond it, and
    that percentile; the maximum (percentile 100) when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def load_reference(name: str, seed: int) -> list | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))


def workload_params(workload, smoke: bool) -> dict:
    params = dict(workload.params, **(workload.smoke if smoke else {}))
    if "threads" in params:
        params["threads"] = min(params["threads"], nproc())
    return params


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """One benchmark run; returns (metrics, log, report)."""
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, OpLog, sub_seeds

    workload = WORKLOADS[name]
    params = workload_params(workload, smoke)
    seeds = sub_seeds(seed, params["datasets"])
    n_data = len(seeds)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(workdir) if trace else None
    log = OpLog(workload, None if smoke else load_reference(name, seed))

    def call(inp, op_id):
        """One op, traced when ``op_id`` is given: (summary, info, wall, error)."""
        traced = tracer is not None and op_id is not None
        with contextlib.ExitStack() as stack:
            if traced:
                tracer.op = op_id
                stack.enter_context(tracer.installed())
                stack.enter_context(tracer.span("op"))
            t0 = time.perf_counter()
            try:
                summary, info = workload.op(params, inp, workdir)
                error = None
            except Exception as exc:  # an op that raises counts as failed
                summary, info, error = None, {}, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        if traced:
            tracer.collect_worker_spans()
        return summary, info, wall, error

    try:
        setup_times = []
        for p in range(1 if smoke else SETUP_PASSES):
            inputs = None  # so the peak RSS holds one input pool, not two
            t0 = time.perf_counter()
            with contextlib.ExitStack() as stack:
                if trace:
                    tracer.op = f"setup{p}"
                    stack.enter_context(tracer.installed())
                inputs = workload.prepare(params, seeds, workdir)
            # warm-up op: lazy imports and allocator caches fill before timing
            summary, _, _, error = call(inputs[0], f"setup{p}" if trace else None)
            setup_times.append(time.perf_counter() - t0)
            log.record(0, summary, error)

        # closed loop; a traced run pairs an untraced and a traced op per dataset
        ops = []
        min_ops = 2 * n_data if trace else n_data
        start = time.perf_counter()
        while len(ops) < min_ops or time.perf_counter() - start < seconds:
            i = len(ops)
            j = (i // 2) % n_data if trace else i % n_data
            traced = trace and i % 2 == 1
            cpu0 = _cpu_s()
            summary, info, wall, error = call(inputs[j], i if traced else None)
            cpu = _cpu_s() - cpu0
            log.record(j, summary, error)
            ops.append({"i": i, "j": j, "traced": traced, "wall": wall, "cpu": cpu, **info})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [op for op in ops if not op["traced"]]
    walls = [op["wall"] for op in plain]
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s_p50": statistics.median(walls),
        "op_s_tail": tail_s,
        "points_per_s": sum(op.get("points", 0) for op in plain) / sum(walls),
        "cpu_s_per_op": sum(op["cpu"] for op in plain) / len(plain),
        "peak_rss_mb": _peak_rss_mb(),
        "failed_frac": log.failed / log.attempted,
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "params": params, "environment": environment(),
        "ops": len(plain), "op_s_tail_percentile": tail_pct,
        "setup_passes_s": setup_times,
        "reference_checked": log.reference is not None,
        "problems": log.problems[:20],
    }
    if trace:
        traced = [op for op in ops if op["traced"]]
        first_traced = {}
        for op in traced:
            first_traced.setdefault(op["j"], op["i"])
        metrics.update(layer_metrics(
            tracer, [op["i"] for op in traced], list(first_traced.values()),
            [f"setup{p}" for p in range(len(setup_times))]))
        metrics.update(_harness_metrics(tracer, ops, params))
        report["ops_traced"] = len(traced)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"spans-{name}-seed{seed}.json").write_text(json.dumps({
            "report": report,
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": tracer.spans,
        }))
    return metrics, log, report


def _harness_metrics(tracer, ops, params) -> dict:
    """Metrics taken from the program's own reports and the op pairs."""
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    load = tracer.self_times([op["i"] for op in traced]).get("cli.load_dataset", 0.0)
    out = {"cli.report_s": 0.0, "cli.replica_busy_s": 0.0, "cli.pool_idle_frac": 0.0}
    if "harness_s" in ops[0]:
        # op wall minus the report's own graph and estimate timings and the load
        out["cli.report_s"] = (
            sum(op["wall"] - op["harness_s"] for op in traced) - load) / len(traced)
    if "busy_s" in ops[0]:
        out["cli.replica_busy_s"] = statistics.fmean(op["busy_s"] for op in plain)
        out["cli.pool_idle_frac"] = statistics.fmean(
            1.0 - op["busy_s"] / (params["threads"] * op["wall"]) for op in plain)
    # op i (untraced) and op i + 1 (traced) run on the same dataset
    ratios = [op["wall"] / ops[op["i"] - 1]["wall"] for op in traced]
    out["trace_overhead_frac"] = statistics.median(ratios) - 1.0
    return out


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(metrics: dict, log, trace: bool) -> dict:
    return {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared_metrics(trace).items()},
    }


def make_reference() -> None:
    """Record the reference summaries for REFERENCE_SEEDS, one per dataset."""
    from workloads import WORKLOADS, sub_seeds

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    data = {}
    try:
        for name, workload in WORKLOADS.items():
            params = workload_params(workload, smoke=False)
            per_seed = data[name] = {}
            for seed in REFERENCE_SEEDS:
                inputs = workload.prepare(params, sub_seeds(seed, params["datasets"]), workdir)
                per_seed[str(seed)] = [workload.op(params, inp, workdir)[0] for inp in inputs]
                print(f"reference {name} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write_reference(data)


def write_reference(data: dict) -> None:
    """One line per workload and seed keeps the file small and its diffs readable."""
    lines = ["{"]
    names = list(data)
    for name in names:
        per_seed = data[name]
        rows = [f'  "{seed}": {json.dumps(s, separators=(",", ":"))}' for seed, s in per_seed.items()]
        close = " }," if name != names[-1] else " }"
        lines += [f' "{name}": {{', ",\n".join(rows), close]
    lines.append("}")
    REFERENCE.write_text("\n".join(lines) + "\n")


def smoke() -> bool:
    """Every workload at tiny n, untraced then traced; True if all correct."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            metrics, log, _ = run(name, seed=0, seconds=0.0, trace=trace, smoke=True)
            ok &= log.failed == 0
            print(json.dumps({"workload": name, "trace": trace,
                              "attempted": log.attempted, "failed": log.failed,
                              "problems": log.problems[:5], "metrics": metrics}))
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args()

    _import_program()
    sys.path.insert(0, str(HERE))
    if args.make_reference:
        make_reference()
        return 0
    if args.smoke:
        return 0 if smoke() else 1
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    metrics, log, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result_line(metrics, log, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
