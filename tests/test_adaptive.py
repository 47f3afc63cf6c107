import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy import special
from scipy.stats import chi2

from idscale import adaptive as adaptive_mod
from idscale import estimators
from idscale.adaptive import (
    K_MIN,
    METHODS,
    AbideResult,
    AdaptiveState,
    EstimatorConfig,
    abide,
    agride,
    babide,
    check_options,
    gride_update_from_k_star,
    required_depth,
    run_method,
    select_k_star_all,
)
from idscale.datagen import (
    gen_density_step_1d,
    gen_sine_toy,
    gen_uniform_hypercube_periodic,
)
from idscale.errors import (
    DegenerateDatasetError,
    InsufficientGraphDepthError,
    InvalidArgumentError,
)
from idscale.estimators import twonn_estimate
from idscale.geometry import Dataset, NeighborGraph, build_neighbor_graph
from idscale.validation import validate_model

# frozen by direct evaluation of -2*(log 2 + log 4 - 2 log 6 + log 4)
LRT_UNIT_EXAMPLE = 0.2355660713127670


@pytest.fixture(scope="module")
def torus_small():
    ds = gen_uniform_hypercube_periodic(n=2000, d=2, seed=5)
    return build_neighbor_graph(ds, K=101)


def small_config(**kw):
    kw.setdefault("k_max", 100)
    return EstimatorConfig(**kw)


def alpha_for(d_thr):
    """The alpha whose fixed-mode rejection threshold is ``d_thr``."""
    return float(special.gammaincc(0.5, d_thr / 2))


_LOG4 = float(np.log(4.0))


def lrt_statistic(d, k, log_r_i_k, log_r_j_k):
    """Wilks statistic comparing equal vs distinct Poisson intensities at a
    point and at its (k+1)-th neighbour.

    Ball volumes enter only through d * log r (the unit-ball constant
    cancels), so the statistic is computed with log-sum-exp and is exactly
    scale invariant.  The k* selection reads the same test off the
    rejection onsets and never calls this; it is kept as the reference the
    tests check the onsets against.
    """
    if np.any(np.asarray(d) <= 0):
        raise InvalidArgumentError("dimension must be positive")
    x1 = d * np.asarray(log_r_i_k, dtype=np.float64)
    x2 = d * np.asarray(log_r_j_k, dtype=np.float64)
    stat = -2.0 * np.asarray(k) * (x1 + x2 - 2.0 * np.logaddexp(x1, x2) + _LOG4)
    return np.maximum(stat, 0.0)


class TestLrtStatistic:
    def test_equal_volumes_give_zero(self):
        assert lrt_statistic(2.0, 5, np.log(0.3), np.log(0.3)) == pytest.approx(0.0, abs=1e-12)

    def test_unit_example(self):
        # d=1, k=1, radii 1 and 2
        got = lrt_statistic(1.0, 1, 0.0, np.log(2.0))
        assert got == pytest.approx(LRT_UNIT_EXAMPLE, abs=1e-10)
        assert got == pytest.approx(-2.0 * np.log(32.0 / 36.0), abs=1e-12)

    def test_depends_only_on_d_log_r(self):
        d1, r1, r2 = 2.0, 0.7, 1.3
        d2 = 5.0
        # rescale radii so d * log r is preserved
        s1, s2 = np.log(r1) * d1 / d2, np.log(r2) * d1 / d2
        a = lrt_statistic(d1, 7, np.log(r1), np.log(r2))
        b = lrt_statistic(d2, 7, s1, s2)
        assert a == pytest.approx(b, rel=1e-12)

    def test_nonnegative_and_vectorized(self):
        rng = np.random.default_rng(0)
        lr1 = rng.normal(size=50)
        lr2 = lr1 + rng.normal(scale=0.2, size=50)
        stats = lrt_statistic(2.5, np.arange(1, 51), lr1, lr2)
        assert stats.shape == (50,)
        assert np.all(stats >= 0)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(InvalidArgumentError):
            lrt_statistic(0.0, 1, 0.0, 0.0)


class TestEstimatorConfig:
    def test_defaults(self):
        cfg = EstimatorConfig()
        assert cfg.alpha == 0.01
        assert cfg.k_max == 350
        assert cfg.max_iter == 5
        assert cfg.delta == 1e-4
        assert cfg.beta_ci == 0.05
        assert cfg.threshold_mode == "fixed"

    def test_fixed_threshold_is_chi2_quantile(self):
        assert EstimatorConfig().rejection_threshold(10_000) == pytest.approx(6.635, abs=1e-3)

    def test_bonferroni_modes(self):
        n = 500
        cfg = EstimatorConfig(k_max=100)
        h = 100 - K_MIN + 1
        assert EstimatorConfig(k_max=100, threshold_mode="bonferroni_h").rejection_threshold(n) == pytest.approx(
            chi2.isf(0.01 / h, 1), rel=1e-12
        )
        assert EstimatorConfig(k_max=100, threshold_mode="bonferroni_n").rejection_threshold(n) == pytest.approx(
            chi2.isf(0.01 / n, 1), rel=1e-12
        )
        assert EstimatorConfig(k_max=100, threshold_mode="bonferroni_nh").rejection_threshold(n) == pytest.approx(
            chi2.isf(0.01 / (n * h), 1), rel=1e-12
        )
        assert cfg.rejection_threshold(n) < EstimatorConfig(
            k_max=100, threshold_mode="bonferroni_nh"
        ).rejection_threshold(n)

    @pytest.mark.parametrize("alpha", [1e-12, 1e-6])
    def test_tiny_tail_matches_scipy_isf(self, alpha):
        n, h = 100_000, EstimatorConfig().k_max - K_MIN + 1
        cfg = EstimatorConfig(alpha=alpha, threshold_mode="bonferroni_nh")
        assert cfg.rejection_threshold(n) == pytest.approx(chi2.isf(alpha / (n * h), 1), rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            EstimatorConfig(alpha=0.0)
        with pytest.raises(InvalidArgumentError):
            EstimatorConfig(threshold_mode="nope")
        with pytest.raises(InvalidArgumentError):
            EstimatorConfig(k_max=1)

    @pytest.mark.parametrize("field, value, message", [
        ("tau", 0.0, "tau must lie in"), ("tau", 1.0, "tau must lie in"),
        ("tb", 0.0, "t_b must be positive"), ("tb", -1.0, "t_b must be positive"),
        ("k", 0, "k must be >= 1"), ("alpha0", 0.0, "prior parameters"),
        ("beta0", -1.0, "prior parameters"), ("depth", 0, "depth must be >= 1"),
    ])
    def test_method_option_validation(self, field, value, message):
        with pytest.raises(InvalidArgumentError, match=message):
            EstimatorConfig(**{field: value})


class TestSelectKStar:
    def test_uniform_grid_interior_never_rejects(self):
        pts = np.arange(101, dtype=np.float64)[:, None]
        g = build_neighbor_graph(Dataset(pts), K=25)
        cfg = EstimatorConfig(k_max=20)
        # interior point: equal shell volumes at every k, D identically 0
        assert select_k_star_all(g, 1.0, cfg)[50] == 20

    def test_density_step_shrinks_neighbourhoods(self):
        ds = gen_density_step_1d(n=5000, ratio=10.0, seed=1)
        g = build_neighbor_graph(ds, K=101)
        cfg = small_config()
        k_star = select_k_star_all(g, 1.0, cfg)
        x = g.dataset.points[:, 0]
        near_step = np.abs(x - 1.0) < 0.01
        assert near_step.sum() > 20
        assert np.median(k_star[near_step]) < cfg.k_max / 2
        assert np.all(k_star[near_step] < cfg.k_max)
        assert np.mean(k_star[near_step]) < np.mean(k_star[~near_step])

    def test_larger_alpha_gives_smaller_neighbourhoods(self, torus_small):
        loose = select_k_star_all(torus_small, 2.0, small_config(alpha=0.05))
        strict = select_k_star_all(torus_small, 2.0, small_config(alpha=0.001))
        assert np.all(loose <= strict)

    def test_raising_threshold_never_shrinks_k_star(self, torus_small):
        low = select_k_star_all(torus_small, 2.0, small_config(alpha=alpha_for(4.0)))
        high = select_k_star_all(torus_small, 2.0, small_config(alpha=alpha_for(12.0)))
        assert np.all(high >= low)

    def test_bounds_respected(self, torus_small):
        cfg = small_config()
        k_star = select_k_star_all(torus_small, 2.0, cfg)
        assert np.all(k_star >= K_MIN)
        assert np.all(k_star <= cfg.k_max)

    def test_insufficient_depth(self, torus_small):
        with pytest.raises(InsufficientGraphDepthError):
            select_k_star_all(torus_small, 2.0, EstimatorConfig(k_max=torus_small.depth))

    @pytest.mark.parametrize("d", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_invalid_dimension(self, torus_small, d):
        with pytest.raises(InvalidArgumentError):
            select_k_star_all(torus_small, d, small_config())


def reference_k_star(graph, d, cfg):
    """First rejection of the sequential test, evaluated with lrt_statistic."""
    ks = np.arange(K_MIN, cfg.k_max + 1)
    log_r_i = np.log(graph.distances[:, ks - 1])
    log_r_j = np.log(graph.distances[graph.indices[:, ks], ks - 1])
    reject = lrt_statistic(d, ks, log_r_i, log_r_j) >= cfg.rejection_threshold(graph.n_points)
    return np.where(reject.any(axis=1), ks[np.argmax(reject, axis=1)], cfg.k_max)


THRESHOLD_CASES = [
    pytest.param({"threshold_mode": mode}, id=mode)
    for mode in ("fixed", "bonferroni_h", "bonferroni_n", "bonferroni_nh")
] + [pytest.param({"alpha": alpha_for(2.5)}, id="2.5")]


@pytest.fixture(scope="module")
def onset_graphs():
    rng = np.random.default_rng(11)
    lattice = np.argwhere(np.ones((30, 30))).astype(np.float64)
    euclidean = build_neighbor_graph(Dataset(rng.normal(size=(600, 3))), K=81)
    # zero radii, as near-duplicates can produce: a gap is +inf where one of
    # the two radii is zero and NaN where both are
    zeroed = euclidean.distances.copy()
    zeroed[::2, :3] = 0.0
    return {
        "euclidean": euclidean,
        "zero_radii": NeighborGraph(zeroed, euclidean.indices, euclidean.dataset),
        "periodic": build_neighbor_graph(gen_uniform_hypercube_periodic(n=600, d=2, seed=2), K=81),
        "lattice": build_neighbor_graph(Dataset(lattice), K=81),
        "periodic_lattice": build_neighbor_graph(Dataset(lattice, periods=np.full(2, 30.0)), K=81),
    }


class TestRejectionOnsets:
    @pytest.mark.parametrize(
        "graph_name", ["euclidean", "zero_radii", "periodic", "lattice", "periodic_lattice"]
    )
    @pytest.mark.parametrize("thr", THRESHOLD_CASES)
    def test_matches_lrt_reference(self, onset_graphs, graph_name, thr):
        graph = onset_graphs[graph_name]
        cfg = EstimatorConfig(k_max=80, **thr)
        grid = list(np.geomspace(0.2, 20.0, 25))
        if graph_name in ("euclidean", "periodic"):  # two-NN diverges on the others
            grid += [t.d for t in abide(graph, cfg).estimate.trace]
        with np.errstate(divide="ignore", invalid="ignore"):  # log of zero radii
            for d in grid:
                np.testing.assert_array_equal(
                    select_k_star_all(graph, d, cfg), reference_k_star(graph, d, cfg)
                )

    def test_zero_gaps_never_reject(self, onset_graphs):
        # every point of a periodic lattice sees the same sorted distances,
        # so every gap is exactly zero and no threshold or d can reject
        graph = onset_graphs["periodic_lattice"]
        cfg = EstimatorConfig(k_max=80, alpha=alpha_for(1e-6))
        for d in (0.1, 2.0, 1e3):
            assert np.all(select_k_star_all(graph, d, cfg) == cfg.k_max)


class TestAbide:
    def test_sine_toy_trajectory(self):
        ds = gen_sine_toy(n=1000, sigma_eps=0.025, seed=0)
        g = build_neighbor_graph(ds, K=351)
        res = abide(g)
        assert abs(res.estimate.trace[0].d - 2.0) < 0.4
        assert 0.9 <= res.estimate.d <= 1.2
        assert res.converged
        assert res.iterations_run <= 5

    def test_state_invariants(self, torus_small):
        res = abide(torus_small, small_config())
        st = res.state
        assert np.all(st.k_star >= K_MIN) and np.all(st.k_star <= st.k_max)
        assert np.all(st.ka_star >= 0) and np.all(st.ka_star <= st.kb_star)
        assert np.all(st.t_a < st.t_b)
        assert st.k_max == 100
        assert 0.0 <= st.saturation_fraction <= 1.0
        assert 1.85 <= res.estimate.d <= 2.15
        assert res.estimate.ci[0] < res.estimate.d < res.estimate.ci[1]

    def test_trace_starts_at_twonn(self, torus_small):
        res = abide(torus_small, small_config())
        assert res.estimate.trace[0].d == twonn_estimate(torus_small).d
        assert res.estimate.trace[0].mean_k_star == 2.0
        assert len(res.estimate.trace) == res.iterations_run + 1

    def test_determinism(self, torus_small):
        r1 = abide(torus_small, small_config())
        r2 = abide(torus_small, small_config())
        assert r1.estimate.d == r2.estimate.d
        assert [t.d for t in r1.estimate.trace] == [t.d for t in r2.estimate.trace]
        assert r1.estimate.validation_p == r2.estimate.validation_p

    def test_converged_fixed_point_residual(self, torus_small):
        cfg = small_config()
        res = abide(torus_small, cfg)
        if res.converged:
            assert abs(res.estimate.trace[-1].d - res.estimate.trace[-2].d) < cfg.delta

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(800, 3))
        g1 = build_neighbor_graph(Dataset(pts), K=101)
        g2 = build_neighbor_graph(Dataset(pts * 5.0), K=101)
        r1 = abide(g1, small_config())
        r2 = abide(g2, small_config())
        assert r1.estimate.d == pytest.approx(r2.estimate.d, abs=1e-12)

    def test_small_sample_warning(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(60, 2))
        g = build_neighbor_graph(Dataset(pts), K=31)
        with pytest.warns(UserWarning, match="unreliable"):
            abide(g, EstimatorConfig(k_max=30))

    def test_insufficient_depth(self, torus_small):
        with pytest.raises(InsufficientGraphDepthError):
            abide(torus_small, EstimatorConfig(k_max=torus_small.depth + 10))


class TestBabideAndAgride:
    def test_babide_close_to_abide(self, torus_small):
        cfg = small_config()
        da = abide(torus_small, cfg).estimate.d
        db = babide(torus_small, cfg).estimate.d
        assert abs(da - db) < 0.02

    def test_agride_on_torus(self, torus_small):
        res = agride(torus_small, small_config())
        assert 1.85 <= res.estimate.d <= 2.15

    def test_forced_order_two_reduces_to_twonn(self, torus_small):
        k_star = np.full(torus_small.n_points, 2, dtype=np.int64)
        d = gride_update_from_k_star(torus_small, k_star)
        assert abs(d - twonn_estimate(torus_small).d) < 1e-8

    def test_adaptive_orders_are_halved(self, torus_small):
        res = agride(torus_small, small_config())
        # per-point generalized-ratio orders derive from the final k*
        k_star = res.state.k_star
        n1 = np.maximum(1, k_star // 2)
        assert np.all(n1 >= 1) and np.all(n1 < k_star)


ADAPTIVE = ("abide", "agride", "babide")
# the default config with the options of the fixed-scale methods set
FIXED_SCALE = EstimatorConfig(tau=0.5, tb=0.1, k=10)


@pytest.fixture(scope="module")
def torus_150():
    return gen_uniform_hypercube_periodic(n=150, d=2, seed=3)


@pytest.fixture(scope="module")
def relabelled_gaussian():
    """A K = 101 graph of 300 Gaussian points, the graph of the same points
    in permuted order, the permutation, and a config for every method."""
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(300, 3))
    perm = rng.permutation(300)
    graph = build_neighbor_graph(Dataset(pts), K=101)
    config = EstimatorConfig(k_max=100, tau=0.5, k=20,
                             tb=float(np.median(graph.distances[:, 19])))
    return graph, build_neighbor_graph(Dataset(pts[perm]), K=101), perm, config


class TestFitCheck:
    @pytest.mark.parametrize("max_iter", [1, 5])
    @pytest.mark.parametrize("method", [abide, babide, agride])
    def test_one_check_at_the_terminal_state(self, torus_small, monkeypatch, method, max_iter):
        calls = []

        def counting(*args):
            calls.append(args)
            return validate_model(*args)

        # the loop's own lookup too, so a per-iterate check would be counted
        monkeypatch.setattr(estimators, "validate_model", counting)
        monkeypatch.setattr(adaptive_mod, "validate_model", counting)
        res = method(torus_small, small_config(max_iter=max_iter))
        assert len(calls) == 1
        st, est = res.state, res.estimate
        assert est.validation_p == validate_model(st.ka_star, st.kb_star, est.d, est.tau).p_value


class TestRunMethod:
    @pytest.mark.parametrize("method", METHODS)
    def test_result_at_required_depth(self, torus_150, method):
        depth = required_depth(method, torus_150.n, FIXED_SCALE)
        graph = build_neighbor_graph(torus_150, depth)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run_method(method, graph, FIXED_SCALE)
        assert isinstance(res, AbideResult)
        assert np.isfinite(res.estimate.d) and res.estimate.d > 0
        adaptive = method in ADAPTIVE
        assert (res.state is not None) == adaptive
        assert (res.iterations_run is not None) == (res.converged is not None) == adaptive
        # the default k_max = 350 is capped at n - 2 for the adaptive methods only
        clamps = [w for w in caught if "k_max clamped to 148 for n=150" in str(w.message)]
        assert len(clamps) == adaptive
        if adaptive:
            assert res.state.k_max == 148 and FIXED_SCALE.k_max == 350
            assert depth == 149

    @pytest.mark.parametrize("method", ["twonn", "bide-r", "bide-k"])
    def test_fixed_scale_methods_read_the_config(self, torus_150, method):
        graph = build_neighbor_graph(torus_150, 149)

        def run(**cfg):
            return run_method(method, graph, replace(FIXED_SCALE, **cfg))

        wide, narrow = run(beta_ci=0.05).estimate, run(beta_ci=0.5).estimate
        assert wide.d == narrow.d
        assert wide.ci[0] < narrow.ci[0] < narrow.ci[1] < wide.ci[1]

    @pytest.mark.parametrize("method", METHODS)
    def test_relabelling_is_bit_exact(self, relabelled_gaussian, method):
        graph, permuted_graph, perm, config = relabelled_gaussian
        base = run_method(method, graph, config)
        permuted = run_method(method, permuted_graph, config)
        # d, ci, fisher_info, validation_p and the whole trace
        assert asdict(permuted.estimate) == asdict(base.estimate)
        if base.state is not None:
            assert np.array_equal(permuted.state.k_star, base.state.k_star[perm])
            assert np.array_equal(permuted.state.ka_star, base.state.ka_star[perm])

    @pytest.mark.parametrize("method, missing", [
        ("bide-r", "tb"), ("bide-r", "tau"), ("bide-k", "k"), ("bide-k", "tau"),
    ])
    def test_missing_parameter(self, torus_150, method, missing):
        graph = build_neighbor_graph(torus_150, 149)
        config = replace(FIXED_SCALE, **{missing: None})
        with pytest.raises(InvalidArgumentError, match=f"--{missing} is required"):
            run_method(method, graph, config)
        with pytest.raises(InvalidArgumentError, match=f"--{missing} is required"):
            check_options(method, config)

    def test_bide_k_depth_needs_k(self):
        with pytest.raises(InvalidArgumentError, match="--k is required"):
            required_depth("bide-k", 150, replace(FIXED_SCALE, k=None))

    @pytest.mark.parametrize("method", ADAPTIVE)
    def test_adaptive_needs_four_points(self, method):
        graph = build_neighbor_graph(Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), 2)
        message = f"{method} needs at least 4 distinct points, got 3"
        with pytest.raises(DegenerateDatasetError, match=message):
            run_method(method, graph, FIXED_SCALE)
        with pytest.raises(DegenerateDatasetError, match=message):
            required_depth(method, 3, FIXED_SCALE)
        assert required_depth(method, 4, FIXED_SCALE) == 3

    def test_unknown_method(self, torus_150):
        graph = build_neighbor_graph(torus_150, 149)
        with pytest.raises(InvalidArgumentError, match="unknown method"):
            run_method("mle", graph, FIXED_SCALE)
        with pytest.raises(InvalidArgumentError, match="unknown method"):
            required_depth("mle", 150, FIXED_SCALE)

    def test_babide_reads_the_prior(self, torus_150):
        graph = build_neighbor_graph(torus_150, 149)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            flat = run_method("babide", graph, FIXED_SCALE)
            strong = run_method("babide", graph, replace(FIXED_SCALE, alpha0=50.0))
        # the first update is the posterior mean, which the prior moves
        assert flat.estimate.trace[1].d != strong.estimate.trace[1].d
