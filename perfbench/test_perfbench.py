"""Tests of the benchmark itself, at the tiny sizes of ``--smoke``.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

import pytest

import run

run._import_program()

from idscale import cli  # noqa: E402
from tracer import COUNT_METRICS, TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT = COUNT_METRICS + (
    "geometry.sort_useful_frac",
    "adaptive.lrt_useful_frac",
    "adaptive.converged_frac",
    "adaptive.mean_k_star",
    "adaptive.saturation_frac",
)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_and_tracing_changes_no_estimate(name):
    def wrapped():
        return [getattr(module, attr) for module, attr, _, _ in TARGETS] + [
            cli._benchmark_replica]

    originals = wrapped()
    first, log_a, _ = run.run(name, seed=3, seconds=0.0, trace=True, smoke=True)
    second, log_b, _ = run.run(name, seed=3, seconds=0.0, trace=True, smoke=True)
    _, plain_log, _ = run.run(name, seed=3, seconds=0.0, trace=False, smoke=True)

    assert log_a.failed == log_b.failed == plain_log.failed == 0, log_a.problems
    for key in EXACT:
        assert first[key] == second[key], key
    # traced and untraced runs give bit-identical estimates
    assert log_a.first == plain_log.first
    # every wrapper was taken off again
    assert wrapped() == originals


def test_tail_has_ten_ops_beyond_it():
    times = [float(t) for t in range(40)]
    value, percentile = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert percentile == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_result_line_declares_every_metric():
    for trace in (False, True):
        declared = run.declared_metrics(trace)
        metrics, log, _ = run.run("torus-periodic", seed=0, seconds=0.0, trace=trace,
                                  smoke=True)
        line = run.result_line(metrics, log, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(declared)
