import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idscale.adaptive import EstimatorConfig, abide
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
    beta_posterior,
    bide_closed_form,
    bide_fixed_k,
    bide_fixed_radius,
    fisher_information,
    fisher_interval,
    gride_log_likelihood,
    gride_mle,
    gride_mle_from_ratios,
    optimal_tau,
    pair_overlap_factor,
    shared_pair_counts,
    twonn_equivalent_tau,
    twonn_estimate,
)
from idscale.geometry import Dataset, NeighborGraph, build_neighbor_graph, counts_within_open_balls


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
        with pytest.raises(EstimateUnboundedError) as exc:
            bide_closed_form(counts)
        assert exc.value.estimate == np.inf

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


class TestBideFixedRadius:
    def test_integer_lattice_matches_counting_oracle(self):
        pts = np.arange(1001, dtype=np.float64)[:, None]
        g = build_neighbor_graph(Dataset(pts), K=25)
        t_b, tau = 10.5, 0.5
        est = bide_fixed_radius(g, t_b, tau, with_validation=False)

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
        est = bide_fixed_radius(torus_2d, 0.05, 0.5, seed=0)
        assert 1.85 <= est.d <= 2.15
        assert est.ci[0] < est.d < est.ci[1]


class TestBideFixedK:
    def test_k_one_is_degenerate(self, torus_2d):
        with pytest.raises(DegenerateScaleError):
            bide_fixed_k(torus_2d, 1, 0.5)

    def test_torus_k30(self, torus_2d):
        est = bide_fixed_k(torus_2d, 30, optimal_tau(2.0), seed=0)
        assert 1.85 <= est.d <= 2.15

    def test_scale_invariance_bit_exact(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(400, 2))
        g1 = build_neighbor_graph(Dataset(pts), K=31)
        g2 = build_neighbor_graph(Dataset(7.0 * pts), K=31)
        e1 = bide_fixed_k(g1, 30, 0.5, with_validation=False)
        e2 = bide_fixed_k(g2, 30, 0.5, with_validation=False)
        assert e1.d == e2.d

    def test_twonn_equivalence_at_special_tau(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(500, 3))
        g = build_neighbor_graph(Dataset(pts), K=3)
        d_hat = twonn_estimate(g).d
        tau_eq, counts = twonn_equivalent_tau(g, d_hat)
        assert bide_closed_form(counts) == pytest.approx(d_hat, abs=1e-10)


class TestFisherInterval:
    def test_hand_computed_example(self):
        lo, hi = fisher_interval(1.0, 0.5, [1], beta=0.05)
        info = (np.log(0.5) ** 2) * 0.5 * 1.0 / 0.5
        half = 1.959964 / np.sqrt(info)
        assert hi - 1.0 == pytest.approx(half, abs=1e-4)
        assert (hi - lo) / 2 == pytest.approx(2.8277, abs=1e-3)

    def test_doubling_counts_halves_squared_width(self):
        lo1, hi1 = fisher_interval(2.0, 0.4, [3, 5, 7], beta=0.05)
        lo2, hi2 = fisher_interval(2.0, 0.4, [6, 10, 14], beta=0.05)
        assert (hi1 - lo1) ** 2 / (hi2 - lo2) ** 2 == pytest.approx(2.0, rel=1e-10)

    def test_width_scales_with_dimension_at_optimal_tau(self):
        # at the optimal ratio the half-width is proportional to d / sqrt(sum kB)
        kb = [20] * 100
        widths = []
        for d in (2.0, 4.0):
            lo, hi = fisher_interval(d, optimal_tau(d), kb, beta=0.05)
            widths.append(hi - lo)
        assert widths[1] / widths[0] == pytest.approx(2.0, rel=1e-6)

    def test_degenerate_counts(self):
        with pytest.raises(DegenerateScaleError):
            fisher_interval(1.0, 0.5, [0, 0], beta=0.05)


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
        est = bide_fixed_radius(g, t_b, tau, with_validation=False)
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

    @pytest.mark.parametrize("method", ["bide_k", "abide"])
    def test_reported_information_and_ci(self, method):
        rng = np.random.default_rng(17)
        g = build_neighbor_graph(Dataset(rng.normal(size=(300, 2))), K=31)
        if method == "bide_k":
            est = bide_fixed_k(g, 20, 0.5, with_validation=False)
            counts = BinomialCounts(
                k_a=counts_within_open_balls(g, 0.5 * g.distances[:, 19]),
                k_b=np.full(g.n_points, 19), tau=0.5,
            )
        else:
            res = abide(g, EstimatorConfig(k_max=30))
            est = res.estimate
            counts = BinomialCounts(k_a=res.state.ka_star, k_b=res.state.kb_star, tau=est.tau)
        factor = pair_overlap_factor(g, counts, est.d)
        assert factor > 1.0
        assert est.fisher_info == fisher_information(est.d, est.tau, counts.k_b) / factor
        half = 1.959963984540054 / np.sqrt(g.n_points * est.fisher_info)
        assert est.ci[1] - est.d == pytest.approx(half, rel=1e-9)
        assert est.d - est.ci[0] == pytest.approx(half, rel=1e-9)


class TestInvariances:
    def test_permutation_bit_exact(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(300, 2))
        perm = rng.permutation(300)
        g1 = build_neighbor_graph(Dataset(pts), K=31)
        g2 = build_neighbor_graph(Dataset(pts[perm]), K=31)
        assert twonn_estimate(g1).d == twonn_estimate(g2).d
        assert gride_mle(g1, 1, 3).d == gride_mle(g2, 1, 3).d
        e1 = bide_fixed_k(g1, 20, 0.5, with_validation=False)
        e2 = bide_fixed_k(g2, 20, 0.5, with_validation=False)
        assert e1.d == e2.d and e1.ci == e2.ci

    def test_scaling_near_exact(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(300, 2))
        g1 = build_neighbor_graph(Dataset(pts), K=31)
        g2 = build_neighbor_graph(Dataset(pts * 1e3), K=31)
        assert twonn_estimate(g1).d == pytest.approx(twonn_estimate(g2).d, abs=1e-12)
        assert gride_mle(g1, 2, 4).d == pytest.approx(gride_mle(g2, 2, 4).d, abs=1e-9)
