import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import special
from hypothesis import strategies as st

from idscale import estimators
from idscale.adaptive import EstimatorConfig, abide, select_k_star_all
from idscale.datagen import gen_uniform_hypercube_periodic
from idscale.errors import (
    DegenerateDatasetError,
    DegenerateScaleError,
    EstimateUnboundedError,
    InsufficientGraphDepthError,
    InvalidArgumentError,
)
from idscale.estimators import (
    C_STAR,
    BinomialCounts,
    _normal_interval,
    beta_posterior,
    bide_closed_form,
    bide_fixed_k,
    bide_fixed_radius,
    fisher_information,
    gride_mle,
    gride_mle_from_ratios,
    optimal_tau,
    pair_overlap_factor,
    shared_pair_counts,
    twonn_equivalent_tau,
    twonn_estimate,
)
from idscale.geometry import Dataset, NeighborGraph, build_neighbor_graph, counts_within_open_balls


def gride_log_likelihood(mu, d, n1, n2):
    """Log-likelihood of distance ratios mu = r_{n2}/r_{n1} at dimension d
    (additive Beta-function constant dropped).

    The estimators find the maximum as a root of the score and never call
    this; it is kept as the reference the tests check the maximizer against.
    """
    mu = np.asarray(mu, dtype=np.float64)
    n1 = np.asarray(n1, dtype=np.float64)
    n2 = np.asarray(n2, dtype=np.float64)
    log_mu = np.log(mu)
    x = d * log_mu
    # log(mu^d - 1) without overflow
    log_pow_m1 = np.where(x > 30.0, x + np.log1p(-np.exp(-np.minimum(x, 700.0))),
                          np.log(np.expm1(np.minimum(x, 30.0))))
    terms = np.log(d) + (n2 - n1 - 1.0) * log_pow_m1 - (d * (n2 - 1.0) + 1.0) * log_mu
    return float(terms.sum())


def graph_from_distances(rows):
    """Fabricate a graph with prescribed neighbour distance rows."""
    rows = np.asarray(rows, dtype=np.float64)
    n, k = rows.shape
    indices = np.tile((np.arange(n)[:, None] + np.arange(1, k + 1)) % n, 1)
    ds = Dataset(np.arange(n, dtype=np.float64)[:, None])
    return NeighborGraph(distances=rows, indices=indices.astype(np.int64), dataset=ds)


@pytest.fixture(scope="module")
def torus_2d():
    """5000 uniform points on the unit 2-torus, shared by the MC checks."""
    ds = gen_uniform_hypercube_periodic(n=5000, d=2, seed=42)
    return build_neighbor_graph(ds, K=80)


class TestTwoNN:
    def test_two_points_equal_ratios(self):
        g = graph_from_distances([[1.0, np.e], [1.0, np.e]])
        assert twonn_estimate(g).d == pytest.approx(1.0, abs=1e-12)

    def test_ten_points_fifth_root_ratios(self):
        g = graph_from_distances([[1.0, np.exp(0.2)]] * 10)
        assert twonn_estimate(g).d == pytest.approx(5.0, abs=1e-10)

    def test_torus_self_consistency(self, torus_2d):
        assert 1.9 <= twonn_estimate(torus_2d).d <= 2.1

    def test_all_unit_ratios_diverge(self):
        g = graph_from_distances([[1.0, 1.0]] * 4)
        with pytest.raises(EstimateUnboundedError):
            twonn_estimate(g)

    def test_ci_brackets_estimate(self, torus_2d):
        est = twonn_estimate(torus_2d)
        assert est.ci is not None and est.ci[0] < est.d < est.ci[1]
        assert len(est.trace) == 1

    def test_zero_first_distance_is_degenerate(self):
        # r1 = 0 alone used to give d = 0 without an error
        g = graph_from_distances([[0.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        with pytest.raises(DegenerateDatasetError, match="^1 points"):
            twonn_estimate(g)

    @staticmethod
    def near_duplicate_graph(offset, spread):
        # 300 Gaussian points in 10-D, the first three moved to within
        # about ``spread`` of ``offset``
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(300, 10))
        pts[:3] = offset + spread * rng.normal(size=(3, 10))
        return build_neighbor_graph(Dataset(pts), K=61)

    def test_near_duplicates_get_finite_estimates(self):
        # distinct points 1e-7 apart at offset 100: the expanded-form
        # distance |x|^2 + |y|^2 - 2 x.y rounded r1 = r2 = 0 for all three
        g = self.near_duplicate_graph(100.0, 1e-7)
        assert np.all(g.distances > 0)
        assert 0 < twonn_estimate(g).d < np.inf
        assert 0 < abide(g, EstimatorConfig(k_max=60)).estimate.d < np.inf

    def test_near_duplicates_are_degenerate(self):
        # distinct points 1e-170 apart: their squared differences underflow
        # to 0, so three points have r1 = r2 = 0
        g = self.near_duplicate_graph(0.0, 1e-170)
        assert np.count_nonzero(g.distances == 0) == 6
        with pytest.raises(DegenerateDatasetError, match="^3 points"):
            twonn_estimate(g)
        # abide raises before any log of the zero radii, so without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDatasetError, match="^3 points"):
                abide(g, EstimatorConfig(k_max=60))

    def test_depth_error_precedes_degenerate(self):
        with pytest.raises(InsufficientGraphDepthError):
            abide(self.near_duplicate_graph(0.0, 1e-170), EstimatorConfig(k_max=61))


class TestBideClosedForm:
    def test_direct_substitution(self):
        counts = BinomialCounts(k_a=np.array([10]), k_b=np.array([40]), tau=0.5)
        assert bide_closed_form(counts) == pytest.approx(2.0, abs=1e-14)

    def test_equal_sums_give_zero(self):
        counts = BinomialCounts(k_a=np.array([7, 3]), k_b=np.array([7, 3]), tau=0.3)
        assert bide_closed_form(counts) == pytest.approx(0.0, abs=1e-14)

    def test_optimal_ratio_recovers_dimension(self):
        # count ratio equal to the optimal inner-ball fraction at d=2
        counts = BinomialCounts(
            k_a=np.array([2032]), k_b=np.array([10000]), tau=C_STAR ** 0.5
        )
        assert bide_closed_form(counts) == pytest.approx(2.0, abs=1e-12)

    def test_empty_inner_balls_diverge(self):
        counts = BinomialCounts(k_a=np.array([0, 0]), k_b=np.array([3, 4]), tau=0.5)
        with pytest.raises(EstimateUnboundedError):
            bide_closed_form(counts)

    @given(
        sum_a=st.integers(min_value=1, max_value=50),
        extra=st.integers(min_value=0, max_value=200),
        tau=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_outer_count(self, sum_a, extra, tau):
        base = BinomialCounts(k_a=np.array([sum_a]), k_b=np.array([sum_a + extra]), tau=tau)
        bigger = BinomialCounts(k_a=np.array([sum_a]), k_b=np.array([sum_a + extra + 1]), tau=tau)
        assert bide_closed_form(bigger) > bide_closed_form(base)

    def test_counts_invariants(self):
        with pytest.raises(InvalidArgumentError):
            BinomialCounts(k_a=np.array([5]), k_b=np.array([4]), tau=0.5)
        with pytest.raises(InvalidArgumentError):
            BinomialCounts(k_a=np.array([0]), k_b=np.array([0]), tau=0.5)
        with pytest.raises(InvalidArgumentError):
            BinomialCounts(k_a=np.array([1]), k_b=np.array([2]), tau=1.0)


def tight_clusters_graph(K):
    """50 clusters of 3 points, 1e-6 wide, on [0, 100)^2: every inner ball
    at tau = 0.5 holds its whole outer ball."""
    rng = np.random.default_rng(0)
    centres = rng.uniform(0.0, 100.0, size=(50, 2))
    pts = np.repeat(centres, 3, axis=0) + 1e-6 * rng.normal(size=(150, 2))
    return build_neighbor_graph(Dataset(pts), K=K)


class TestZeroEstimate:
    # the closed form gives 0 there (see test_equal_sums_give_zero), and
    # the interval would divide by p(1 - p) = 0
    def test_fixed_k(self):
        with pytest.raises(DegenerateScaleError, match="whole outer ball"):
            bide_fixed_k(tight_clusters_graph(3), 3, 0.5)

    def test_fixed_radius(self):
        with pytest.raises(DegenerateScaleError, match="whole outer ball"):
            bide_fixed_radius(tight_clusters_graph(3), 0.5, 0.5)


class TestBideFixedRadius:
    def test_integer_lattice_matches_counting_oracle(self):
        pts = np.arange(1001, dtype=np.float64)[:, None]
        g = build_neighbor_graph(Dataset(pts), K=25)
        t_b, tau = 10.5, 0.5
        est = bide_fixed_radius(g, t_b, tau)

        # independent oracle: exhaustive per-point interval counting
        sum_b = sum(
            np.sum((np.abs(pts[:, 0] - x) < t_b) & (np.abs(pts[:, 0] - x) > 0))
            for x in pts[:, 0]
        )
        sum_a = sum(
            np.sum((np.abs(pts[:, 0] - x) < tau * t_b) & (np.abs(pts[:, 0] - x) > 0))
            for x in pts[:, 0]
        )
        oracle = np.log(sum_a / sum_b) / np.log(tau)
        assert est.d == pytest.approx(oracle, abs=1e-12)
        assert est.d == pytest.approx(1.0, abs=0.05)

    def test_radius_below_first_neighbour(self):
        pts = np.arange(20, dtype=np.float64)[:, None]
        g = build_neighbor_graph(Dataset(pts), K=5)
        with pytest.raises(DegenerateScaleError):
            bide_fixed_radius(g, 0.5, 0.5)

    def test_torus_at_moderate_scale(self, torus_2d):
        est = bide_fixed_radius(torus_2d, 0.05, 0.5)
        assert 1.85 <= est.d <= 2.15
        assert est.ci[0] < est.d < est.ci[1]


class TestBideFixedK:
    def test_k_one_is_degenerate(self, torus_2d):
        with pytest.raises(DegenerateScaleError):
            bide_fixed_k(torus_2d, 1, 0.5)

    @pytest.mark.parametrize("k", [2.5, 30.0, np.float64(30.0), "30"],
                             ids=["2.5", "30.0", "float64-30.0", "str-30"])
    def test_k_must_be_an_integer(self, torus_2d, k):
        with pytest.raises(InvalidArgumentError, match="k must be an integer"):
            bide_fixed_k(torus_2d, k, 0.5)

    def test_numpy_integer_k(self, torus_2d):
        assert bide_fixed_k(torus_2d, np.int64(30), 0.5).d == bide_fixed_k(torus_2d, 30, 0.5).d

    def test_torus_k30(self, torus_2d):
        est = bide_fixed_k(torus_2d, 30, optimal_tau(2.0))
        assert 1.85 <= est.d <= 2.15

    def test_scale_invariance_bit_exact(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(400, 2))
        g1 = build_neighbor_graph(Dataset(pts), K=31)
        g2 = build_neighbor_graph(Dataset(7.0 * pts), K=31)
        e1 = bide_fixed_k(g1, 30, 0.5)
        e2 = bide_fixed_k(g2, 30, 0.5)
        assert e1.d == e2.d

    def test_twonn_equivalence_at_special_tau(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(500, 3))
        g = build_neighbor_graph(Dataset(pts), K=3)
        d_hat = twonn_estimate(g).d
        tau_eq, counts = twonn_equivalent_tau(g, d_hat)
        assert bide_closed_form(counts) == pytest.approx(d_hat, abs=1e-10)


def independent_count_interval(d, tau, kb, beta):
    """The reported interval for independent outer counts ``kb``: normal,
    from the information of all len(kb) points."""
    return _normal_interval(d, len(kb) * fisher_information(d, tau, kb), beta)


class TestFisherInterval:
    def test_hand_computed_example(self):
        lo, hi = independent_count_interval(1.0, 0.5, [1], beta=0.05)
        info = (np.log(0.5) ** 2) * 0.5 * 1.0 / 0.5
        half = 1.959964 / np.sqrt(info)
        assert hi - 1.0 == pytest.approx(half, abs=1e-4)
        assert (hi - lo) / 2 == pytest.approx(2.8277, abs=1e-3)

    def test_doubling_counts_halves_squared_width(self):
        lo1, hi1 = independent_count_interval(2.0, 0.4, [3, 5, 7], beta=0.05)
        lo2, hi2 = independent_count_interval(2.0, 0.4, [6, 10, 14], beta=0.05)
        assert (hi1 - lo1) ** 2 / (hi2 - lo2) ** 2 == pytest.approx(2.0, rel=1e-10)

    def test_width_scales_with_dimension_at_optimal_tau(self):
        # at the optimal ratio the half-width is proportional to d / sqrt(sum kB)
        kb = [20] * 100
        widths = []
        for d in (2.0, 4.0):
            lo, hi = independent_count_interval(d, optimal_tau(d), kb, beta=0.05)
            widths.append(hi - lo)
        assert widths[1] / widths[0] == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("beta", [0.05, 1e-6, 1e-17, 1e-300])
    def test_small_beta_keeps_the_quantile(self, beta):
        # 1 - beta/2 rounds to 1 below beta ~ 1e-16, where its quantile is inf
        lo, hi = independent_count_interval(1.0, 0.5, [1], beta=beta)
        info = (np.log(0.5) ** 2) * 0.5 * 1.0 / 0.5
        assert np.isfinite(lo) and np.isfinite(hi)
        quantile = np.sqrt(2.0) * special.erfcinv(beta)
        assert (hi - 1.0) * np.sqrt(info) == pytest.approx(quantile, rel=1e-13)
        assert (1.0 - lo) * np.sqrt(info) == pytest.approx(quantile, rel=1e-13)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, 2.0])
    def test_beta_outside_unit_interval(self, beta):
        # beta in [1, 2) would give a zero-width or reversed interval
        g = build_neighbor_graph(gen_uniform_hypercube_periodic(n=400, d=2, seed=0), K=20)
        message = rf"beta must lie in \(0, 1\), got {beta}"
        with pytest.raises(InvalidArgumentError, match=message):
            independent_count_interval(1.0, 0.5, [1], beta=beta)
        with pytest.raises(InvalidArgumentError, match=message):
            twonn_estimate(g, beta=beta)
        with pytest.raises(InvalidArgumentError, match=message):
            bide_fixed_k(g, 20, 0.5, beta=beta)
        with pytest.raises(InvalidArgumentError, match=message):
            bide_fixed_radius(g, 0.05, 0.5, beta=beta)

    def test_beta_whose_half_underflows(self):
        # the smallest subnormal halves to 0, where the normal quantile is
        # infinite: a bad argument, not an interval of (-inf, inf)
        g = build_neighbor_graph(gen_uniform_hypercube_periodic(n=400, d=2, seed=0), K=20)
        message = "beta = 5e-324 is too small: beta/2 underflows to 0"
        for estimate in (lambda beta: independent_count_interval(1.0, 0.5, [1], beta=beta),
                         lambda beta: twonn_estimate(g, beta=beta),
                         lambda beta: bide_fixed_k(g, 20, 0.5, beta=beta),
                         lambda beta: bide_fixed_radius(g, 0.05, 0.5, beta=beta)):
            with pytest.raises(InvalidArgumentError, match=message):
                estimate(5e-324)
        # twice that halves exactly, and its quantile is finite
        for ci in (independent_count_interval(1.0, 0.5, [1], beta=1e-323),
                   twonn_estimate(g, beta=1e-323).ci, bide_fixed_k(g, 20, 0.5, beta=1e-323).ci):
            assert np.isfinite(ci).all() and ci[0] < ci[1]

    @pytest.mark.parametrize("beta", [7.0, np.nan, 0.0])
    def test_twonn_checks_beta_without_an_interval(self, beta):
        # four points on the 2-torus: no inner ball is occupied, so two-NN
        # builds no interval, and beta is still checked
        g = build_neighbor_graph(gen_uniform_hypercube_periodic(n=4, d=2, seed=0), K=2)
        assert twonn_equivalent_tau(g, twonn_estimate(g).d) is None
        with pytest.raises(InvalidArgumentError, match="beta must lie in"):
            twonn_estimate(g, beta=beta)

    def test_fixed_scale_checks_beta_before_counting(self, monkeypatch):
        g = build_neighbor_graph(gen_uniform_hypercube_periodic(n=400, d=2, seed=0), K=20)

        def unreached(*args):
            raise AssertionError("counted before beta was checked")

        monkeypatch.setattr(estimators, "counts_within_open_balls", unreached)
        monkeypatch.setattr(estimators, "pair_overlap_factor", unreached)
        monkeypatch.setattr(estimators, "validate_model", unreached)
        with pytest.raises(InvalidArgumentError, match="beta must lie in"):
            bide_fixed_k(g, 20, 0.5, beta=1.5)
        with pytest.raises(InvalidArgumentError, match="beta must lie in"):
            bide_fixed_radius(g, 0.05, 0.5, beta=np.nan)


class TestBetaPosterior:
    def test_digamma_recurrence_example(self):
        counts = BinomialCounts(k_a=np.array([1]), k_b=np.array([1]), tau=0.5)
        summary = beta_posterior(counts, 1.0, 1.0)
        assert summary.alpha_star == 2.0 and summary.beta_star == 1.0
        assert summary.mean == pytest.approx(1.0 / (2 * np.log(2)), abs=1e-10)
        assert summary.mean == pytest.approx(0.72135, abs=1e-5)
        # trigamma(2) - trigamma(3) = 1/4
        assert summary.variance == pytest.approx(0.25 / np.log(2) ** 2, rel=1e-12)

    def test_variance_positive(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            kb = rng.integers(1, 50, size=30)
            ka = rng.binomial(kb, 0.3)
            if ka.sum() == 0:
                continue
            counts = BinomialCounts(k_a=ka, k_b=kb, tau=0.5)
            assert beta_posterior(counts).variance > 0

    def test_asymptotic_agreement_with_closed_form(self):
        tau = 0.5
        n = 100_000
        n_hits = int(round(tau ** 2 * n))
        k_a = np.concatenate([np.ones(n_hits, dtype=int), np.zeros(n - n_hits, dtype=int)])
        counts = BinomialCounts(k_a=k_a, k_b=np.ones(n, dtype=int), tau=tau)
        assert abs(beta_posterior(counts).mean - bide_closed_form(counts)) < 1e-3

    def test_prior_validation(self):
        counts = BinomialCounts(k_a=np.array([1]), k_b=np.array([2]), tau=0.5)
        with pytest.raises(InvalidArgumentError):
            beta_posterior(counts, 0.0, 1.0)


class TestGride:
    def test_single_pareto_ratio(self):
        assert gride_mle_from_ratios(np.array([np.e]), 1.0, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_reduces_to_twonn(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(400, 3))
        g = build_neighbor_graph(Dataset(pts), K=4)
        assert abs(gride_mle(g, 1, 2).d - twonn_estimate(g).d) < 1e-8

    def test_torus_n1_2_n2_4(self, torus_2d):
        assert 1.85 <= gride_mle(torus_2d, 2, 4).d <= 2.15

    def test_local_maximum_certificate(self, torus_2d):
        mu = torus_2d.distances[:, 3] / torus_2d.distances[:, 1]
        d_hat = gride_mle_from_ratios(mu, 2.0, 4.0)
        at_hat = gride_log_likelihood(mu, d_hat, 2.0, 4.0)
        assert at_hat > gride_log_likelihood(mu, d_hat * 1.01, 2.0, 4.0)
        assert at_hat > gride_log_likelihood(mu, d_hat * 0.99, 2.0, 4.0)

    def test_dropped_constant_does_not_move_argmax(self):
        # adding any constant to the log-likelihood leaves the maximizer
        # unchanged; verified by maximizing from two different n1 encodings
        rng = np.random.default_rng(12)
        mu = 1.0 + rng.exponential(0.3, size=500)
        d1 = gride_mle_from_ratios(mu, 1.0, 3.0)
        grid = d1 * np.array([0.9, 0.95, 1.0, 1.05, 1.1])
        vals = [gride_log_likelihood(mu, d, 1.0, 3.0) for d in grid]
        assert np.argmax(vals) == 2

    def test_unit_ratios_dropped_with_warning(self):
        mu = np.array([1.0, np.e, np.e])
        with pytest.warns(UserWarning, match="dropping 1"):
            d = gride_mle_from_ratios(mu, 1.0, 2.0)
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_argument_validation(self, torus_2d):
        with pytest.raises(InvalidArgumentError):
            gride_mle(torus_2d, 2, 2)
        with pytest.raises(InvalidArgumentError), pytest.warns(UserWarning):
            gride_mle_from_ratios(np.array([1.0]), 1.0, 2.0)


class TestPairOverlap:
    @staticmethod
    def pair_oracle(graph, k_a, k_b):
        """M, C1, C11 from explicit neighbour sets."""
        outer = [set(graph.indices[i, : k_b[i]].tolist()) for i in range(graph.n_points)]
        inner = [set(graph.indices[i, : k_a[i]].tolist()) for i in range(graph.n_points)]
        m = c1 = c11 = 0
        for i, ball in enumerate(outer):
            for j in ball:
                if i in outer[j]:
                    m += 1
                    c1 += j in inner[i]
                c11 += j in inner[i] and i in inner[j]
        return m, c1, c11

    def test_fixed_radius_every_pair_is_mutual(self):
        # at a common radius j is in i's ball iff i is in j's, inner and
        # outer alike, so V = 2 (S_A (1-p)^2 + (S_B - S_A) p^2)
        rng = np.random.default_rng(15)
        g = build_neighbor_graph(Dataset(rng.normal(size=(400, 3))), K=60)
        t_b, tau = 0.6, 0.5
        est = bide_fixed_radius(g, t_b, tau)
        radii = np.full(g.n_points, t_b)
        k_b = counts_within_open_balls(g, radii)
        k_a = counts_within_open_balls(g, tau * radii)
        s_a, s_b = int(k_a.sum()), int(k_b.sum())
        assert shared_pair_counts(g, k_a, k_b) == (s_b, s_a, s_a)
        p = tau ** est.d
        v = 2.0 * (s_a * (1 - p) ** 2 + (s_b - s_a) * p ** 2)
        counts = BinomialCounts(k_a=k_a, k_b=k_b, tau=tau)
        factor = pair_overlap_factor(g, counts, est.d)
        assert factor == pytest.approx(v / (s_b * p * (1 - p)), rel=1e-12)
        # at the closed-form estimate S_A / S_B = p, so the factor is 2
        assert factor == pytest.approx(2.0, rel=1e-9)
        assert est.fisher_info == pytest.approx(fisher_information(est.d, tau, k_b) / 2.0, rel=1e-9)

    @pytest.mark.parametrize("case", ["gaussian", "lattice", "periodic_lattice"])
    def test_counts_match_pair_oracle(self, case):
        rng = np.random.default_rng(16)
        grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0)), -1).reshape(-1, 2)
        ds = {
            "gaussian": Dataset(rng.normal(size=(200, 3))),
            # integer grids: many equidistant neighbours, split by index
            "lattice": Dataset(grid),
            "periodic_lattice": Dataset(grid, periods=np.array([12.0, 12.0])),
        }[case]
        g = build_neighbor_graph(ds, K=30)
        k = rng.integers(2, 31, size=g.n_points)
        k_b = k - 1
        k_a = counts_within_open_balls(g, 0.6 * g.distances[np.arange(g.n_points), k - 1])
        assert shared_pair_counts(g, k_a, k_b) == self.pair_oracle(g, k_a, k_b)

    @pytest.mark.parametrize("case", ["gaussian", "lattice", "periodic_lattice"])
    def test_counts_over_several_blocks_match_pair_oracle(self, case):
        # 900 rows of k_b ~ U[1, 350] make about 158,000 memberships, at
        # least 3 blocks; on the lattices equidistant neighbours, split by
        # index, straddle every block cut
        rng = np.random.default_rng(18)
        grid = np.argwhere(np.ones((30, 30))).astype(np.float64)
        ds = {
            "gaussian": Dataset(rng.normal(size=(900, 3))),
            "lattice": Dataset(grid),
            "periodic_lattice": Dataset(grid, periods=np.array([30.0, 30.0])),
        }[case]
        g = build_neighbor_graph(ds, K=351)
        k_b = rng.integers(1, 351, size=g.n_points)
        k_b[::97] = g.depth - 1
        k_a = rng.integers(0, k_b + 1)
        k_a[::13] = 0
        assert k_b.sum() > 2 * estimators._PAIR_MEMBERSHIPS
        assert shared_pair_counts(g, k_a, k_b) == self.pair_oracle(g, k_a, k_b)

    def test_fixed_radius_with_empty_balls_over_several_blocks(self):
        # a dense cloud far from sparse outliers, which hold no neighbour
        # within t_b, so k_b = 0 on those rows
        rng = np.random.default_rng(19)
        pts = np.vstack([rng.normal(size=(1000, 2)), 1e3 * rng.normal(size=(60, 2)) + 1e4])
        g = build_neighbor_graph(Dataset(pts), K=450)
        t_b, tau = 1.0, 0.6
        radii = np.full(g.n_points, t_b)
        k_b = counts_within_open_balls(g, radii)
        k_a = counts_within_open_balls(g, tau * radii)
        assert np.count_nonzero(k_b == 0) >= 50 and k_b.sum() > 2 * estimators._PAIR_MEMBERSHIPS
        assert shared_pair_counts(g, k_a, k_b) == self.pair_oracle(g, k_a, k_b)
        est = bide_fixed_radius(g, t_b, tau)
        factor = pair_overlap_factor(g, BinomialCounts(k_a=k_a, k_b=k_b, tau=tau), est.d)
        assert est.fisher_info == fisher_information(est.d, tau, k_b) / factor

    def test_working_memory_is_bounded(self):
        # the unblocked count held about 14 MB of membership-sized arrays here
        g = build_neighbor_graph(gen_uniform_hypercube_periodic(n=1200, d=5, seed=0), K=351)
        k_b = np.full(g.n_points, 350)
        k_a = counts_within_open_balls(g, 0.7 * g.distances[:, 349])
        tracemalloc.start()
        try:
            shared_pair_counts(g, k_a, k_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("method", ["bide_k", "abide"])
    def test_reported_information_and_ci(self, method):
        rng = np.random.default_rng(17)
        g = build_neighbor_graph(Dataset(rng.normal(size=(300, 2))), K=31)
        if method == "bide_k":
            est = bide_fixed_k(g, 20, 0.5)
            counts = BinomialCounts(
                k_a=counts_within_open_balls(g, 0.5 * g.distances[:, 19]),
                k_b=np.full(g.n_points, 19), tau=0.5,
            )
        else:
            res = abide(g, EstimatorConfig(k_max=30))
            est = res.estimate
            counts = res.state.counts
        factor = pair_overlap_factor(g, counts, est.d)
        assert factor > 1.0
        assert est.fisher_info == fisher_information(est.d, est.tau, counts.k_b) / factor
        half = 1.959963984540054 / np.sqrt(g.n_points * est.fisher_info)
        assert est.ci[1] - est.d == pytest.approx(half, rel=1e-9)
        assert est.d - est.ci[0] == pytest.approx(half, rel=1e-9)


class TestInvariances:
    def test_index_dtype_changes_nothing(self):
        # a hand-built graph keeps int64 indices; build_neighbor_graph's are int32
        rng = np.random.default_rng(20)
        g64 = graph_from_distances(np.cumsum(rng.exponential(size=(300, 41)), axis=1))
        g32 = NeighborGraph(g64.distances, g64.indices.astype(np.int32), g64.dataset)
        assert g64.indices.dtype == np.int64
        cfg = EstimatorConfig(k_max=40)
        for d in (0.5, 1.0, 2.0, 4.0):
            np.testing.assert_array_equal(
                select_k_star_all(g64, d, cfg), select_k_star_all(g32, d, cfg)
            )
        radii = 0.7 * g64.distances[:, 20]
        k_a = counts_within_open_balls(g64, radii)
        np.testing.assert_array_equal(k_a, counts_within_open_balls(g32, radii))
        k_b = rng.integers(k_a, 41)
        assert shared_pair_counts(g64, k_a, k_b) == shared_pair_counts(g32, k_a, k_b)

    def test_permutation_bit_exact(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(300, 2))
        perm = rng.permutation(300)
        g1 = build_neighbor_graph(Dataset(pts), K=31)
        g2 = build_neighbor_graph(Dataset(pts[perm]), K=31)
        assert twonn_estimate(g1).d == twonn_estimate(g2).d
        assert gride_mle(g1, 1, 3).d == gride_mle(g2, 1, 3).d
        e1 = bide_fixed_k(g1, 20, 0.5)
        e2 = bide_fixed_k(g2, 20, 0.5)
        assert e1.d == e2.d and e1.ci == e2.ci

    def test_scaling_near_exact(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(300, 2))
        g1 = build_neighbor_graph(Dataset(pts), K=31)
        g2 = build_neighbor_graph(Dataset(pts * 1e3), K=31)
        assert twonn_estimate(g1).d == pytest.approx(twonn_estimate(g2).d, abs=1e-12)
        assert gride_mle(g1, 2, 4).d == pytest.approx(gride_mle(g2, 2, 4).d, abs=1e-9)
