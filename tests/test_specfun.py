import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.stats import chi2, epps_singleton_2samp

from idscale.errors import DegenerateSampleError, InvalidArgumentError
from idscale.specfun import (
    chi2_quantile_1df,
    chi2_sf,
    epps_singleton,
    std_normal_quantile,
)
from idscale.specfun import _histogram, _pooled_semi_iqr

def quadrature_quantile(pdf, prob, lo, hi, tol=1e-12):
    """Independent quantile oracle: bisection on a quadrature CDF."""
    def cdf(x):
        return quad(pdf, 0.0 if lo == 0.0 else -np.inf, x, limit=200)[0]

    a, b = lo + tol, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        if cdf(mid) < prob:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def chi2_1_pdf(x):
    return np.exp(-0.5 * x) / np.sqrt(2 * np.pi * x)


def normal_pdf(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)


class TestChi2:
    def test_threshold_at_one_percent(self):
        assert chi2_quantile_1df(0.99) == pytest.approx(6.635, abs=1e-3)

    def test_median_matches_quadrature_oracle(self):
        oracle = quadrature_quantile(chi2_1_pdf, 0.5, 0.0, 10.0)
        assert chi2_quantile_1df(0.5) == pytest.approx(oracle, abs=1e-8)
        assert chi2_quantile_1df(0.5) == pytest.approx(0.4549, abs=1e-4)

    def test_small_prob_limit(self):
        assert chi2_quantile_1df(1e-12) < 1e-10

    def test_out_of_range(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(InvalidArgumentError):
                chi2_quantile_1df(p)

    def test_round_trip(self):
        for p in (0.01, 0.3, 0.5, 0.9, 0.99, 0.999):
            cdf = special.gammainc(0.5, 0.5 * chi2_quantile_1df(p))
            assert cdf == pytest.approx(p, abs=1e-8)

    def test_sf_df4_against_quadrature(self):
        def chi2_4_pdf(x):
            return 0.25 * x * np.exp(-0.5 * x)

        for x in (0.5, 3.0, 9.488):
            oracle = 1.0 - quad(chi2_4_pdf, 0.0, x)[0]
            assert float(chi2_sf(x, 4)) == pytest.approx(oracle, abs=1e-10)


class TestNormal:
    def test_symmetry(self):
        assert std_normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("prob,expected", [(0.975, 1.959964), (0.995, 2.575829)])
    def test_matches_quadrature_oracle(self, prob, expected):
        oracle = quadrature_quantile(normal_pdf, prob, -10.0, 10.0)
        assert std_normal_quantile(prob) == pytest.approx(oracle, abs=1e-8)
        assert std_normal_quantile(prob) == pytest.approx(expected, abs=1e-6)

    def test_round_trip(self):
        for p in (0.01, 0.25, 0.5, 0.8, 0.999):
            assert special.ndtr(std_normal_quantile(p)) == pytest.approx(p, abs=1e-8)

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            std_normal_quantile(1.0)


class TestEppsSingleton:
    def test_identical_samples(self):
        a = np.array([1, 2, 2, 3, 5, 8, 9, 9])
        res = epps_singleton(a, a.copy())
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0, abs=1e-12)
        assert res.df == 4

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(1)
        a = rng.binomial(20, 0.3, size=400)
        b = rng.binomial(20, 0.35, size=300)
        r1 = epps_singleton(a, b)
        r2 = epps_singleton(b, a)
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.binomial(30, 0.4, size=500).astype(float)
        b = rng.binomial(30, 0.45, size=500).astype(float)
        base = epps_singleton(a, b)
        shifted = epps_singleton(a + 1000.0, b + 1000.0)
        assert shifted.statistic == pytest.approx(base.statistic, rel=1e-6)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            epps_singleton(np.full(40, 3.0), np.full(40, 3.0))

    def test_calibration_under_the_null(self):
        # same Binomial(20, 0.2) law for both samples: the level-0.05
        # rejection rate over 200 replicas should be near nominal
        rng = np.random.default_rng(3)
        rejections = 0
        for _ in range(200):
            a = rng.binomial(20, 0.2, size=5000)
            b = rng.binomial(20, 0.2, size=5000)
            if epps_singleton(a, b).p_value < 0.05:
                rejections += 1
        assert 0.02 <= rejections / 200 <= 0.09

    def test_separation_of_distinct_laws(self):
        rng = np.random.default_rng(4)
        a = rng.binomial(20, 0.2, size=5000)
        b = rng.binomial(20, 0.5, size=5000)
        assert epps_singleton(a, b).p_value < 1e-6

    def test_small_sample_correction_shrinks_statistic(self):
        rng = np.random.default_rng(5)
        a = rng.binomial(20, 0.2, size=20)
        b = rng.binomial(20, 0.5, size=2000)
        res = epps_singleton(a, b)
        assert res.statistic >= 0.0
        assert 0.0 <= res.p_value <= 1.0

    def test_empty_sample(self):
        with pytest.raises(InvalidArgumentError):
            epps_singleton(np.array([]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample(self, bad):
        a = np.random.default_rng(6).binomial(20, 0.3, size=50).astype(float)
        a[17] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            epps_singleton(a, np.arange(50.0))
        with pytest.raises(InvalidArgumentError, match="finite"):
            epps_singleton(np.arange(50.0), a)


def _oracle_cases():
    rng = np.random.default_rng(7)
    x = rng.normal(size=900)
    return {
        # the validation shape: a large synthetic mixture against observed counts
        "binomial-mixture": (rng.binomial(rng.choice(np.arange(40, 351), 7700), 0.2),
                             rng.binomial(rng.choice(np.arange(40, 351), 770), 0.2)),
        "binomial-ties": (rng.binomial(12, 0.3, size=400), rng.binomial(12, 0.35, size=300)),
        "binomial-small": (rng.binomial(30, 0.4, size=25), rng.binomial(30, 0.4, size=31)),
        "continuous": (rng.normal(size=500), rng.standard_t(5, size=650)),
        "shifted": (x[:450], x[450:] + 0.4),
        # the small-sample correction applies only when both samples are small
        "poisson-20-2000": (rng.poisson(3, size=20), rng.poisson(3, size=2000)),
        "poisson-20-20": (rng.poisson(3, size=20), rng.poisson(3, size=20)),
    }


def assert_sigma_is_percentile(a, b):
    q75, q25 = np.percentile(np.concatenate([a, b]).astype(float), [75, 25])
    sigma = _pooled_semi_iqr(_histogram(a), _histogram(b))
    assert sigma == 0.5 * (q75 - q25)
    return sigma


def projected_reference(a, b, rtol=1e-9):
    """Per-draw ES statistic on the covariance's numerical column space.

    Eigenvalues below ``rtol`` times the largest are the rounding noise of
    null directions.  scipy's per-draw covariance carries such noise, which
    its ``pinv`` cut-off sometimes keeps: on two samples of 500 draws from
    {0, 1, 2}, scipy's rank is 3 instead of 2 in 7 of 200 pairs.
    """
    n_a, n_b = len(a), len(b)
    q75, q25 = np.percentile(np.concatenate([a, b]).astype(float), [75, 25])
    ts = np.array([0.4, 0.8]) / (0.5 * (q75 - q25))

    def features(x):
        tx = np.outer(x, ts)
        return np.hstack([np.cos(tx), np.sin(tx)])

    g_a, g_b = features(a), features(b)
    n = n_a + n_b
    cov = (n / n_a) * np.cov(g_a.T, bias=True) + (n / n_b) * np.cov(g_b.T, bias=True)
    lam, vec = np.linalg.eigh(cov)
    keep = lam > rtol * lam.max()
    z = vec[:, keep].T @ (g_a.mean(axis=0) - g_b.mean(axis=0))
    w = n * float(np.sum(z ** 2 / lam[keep]))
    df = int(keep.sum())
    return w, df, float(chi2.sf(w, df))


class TestEppsSingletonOracle:
    """scipy's per-draw ``epps_singleton_2samp`` is the reference for the
    histogram computation, and ``projected_reference`` where samples with
    at most 4 distinct values make the covariance rank-deficient; the
    chi-square df is then that rank.  The small-sample correction applies,
    as in scipy, only when both samples hold fewer than 25 draws."""

    @pytest.mark.parametrize("case", sorted(_oracle_cases()))
    def test_matches_scipy(self, case):
        a, b = _oracle_cases()[case]
        ours = epps_singleton(a, b)
        ref = epps_singleton_2samp(a, b)
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-8)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-8)

    @pytest.mark.parametrize("case", sorted(_oracle_cases()))
    def test_sigma_bit_equal_to_percentile(self, case):
        assert_sigma_is_percentile(*_oracle_cases()[case])

    def test_sigma_interpolates_like_numpy(self):
        # few, widely spread values: interpolating from the wrong end of
        # a quartile's bracket differs from numpy in the last bit
        rng = np.random.default_rng(8)
        for _ in range(200):
            assert_sigma_is_percentile(rng.lognormal(sigma=3, size=rng.integers(1, 8)),
                                       rng.normal(scale=10, size=rng.integers(1, 8)))

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.lists(st.integers(0, 40), min_size=25, max_size=120),
        b=st.lists(st.integers(0, 45), min_size=25, max_size=120),
    )
    def test_random_integer_samples(self, a, b):
        a, b = np.array(a), np.array(b)
        sigma = assert_sigma_is_percentile(a, b)
        # a sample with few distinct values makes the covariance (near)
        # singular, where pinv amplifies any rounding difference
        assume(sigma > 0 and min(np.unique(a).size, np.unique(b).size) >= 5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref = epps_singleton_2samp(a, b)
        assume(not caught)  # scipy then lowers the chi-square df below 4
        ours = epps_singleton(a, b)
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-8)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-8)

    @pytest.mark.parametrize("values, rank", [
        ([0, 1], 1), ([0, 1, 2], 2), ([0, 1, 2, 3], 3), ([2, 5, 6, 11], 3), ([0, 1, 2, 3, 4], 4),
    ])
    def test_matches_projected_reference(self, values, rank):
        rng = np.random.default_rng(rank)
        for _ in range(20):
            a = rng.choice(values, rng.integers(25, 800))
            b = rng.choice(values, rng.integers(25, 800))
            ours = epps_singleton(a, b)
            w, df, p = projected_reference(a, b)
            assert ours.df == df == rank
            assert ours.statistic == pytest.approx(w, rel=1e-8)
            assert ours.p_value == pytest.approx(p, rel=1e-8)

    def test_calibration_on_three_values(self):
        # same uniform law on {0, 1, 2}: with df = 4 instead of 2 the
        # level-0.05 rejection rate was 0 %
        rng = np.random.default_rng(9)
        rejections = sum(
            epps_singleton(rng.integers(0, 3, 500), rng.integers(0, 3, 500)).p_value < 0.05
            for _ in range(200)
        )
        assert 0.02 <= rejections / 200 <= 0.09

    def test_constant_samples_at_different_values(self):
        # sigma = 0.5, but both covariances vanish: rank 0 leaves no test
        with pytest.raises(DegenerateSampleError, match="constant"):
            epps_singleton(np.zeros(40), np.ones(40))
