"""The fit check of ``idscale.validation``, and the special functions behind
the library's numbers, tested at the call sites that use them: the
Epps-Singleton test of ``idscale.validation`` against its references
(scipy's ``epps_singleton_2samp``, and a projected per-draw statistic where
the covariance is rank-deficient), the chi-square(1) rejection threshold of
``EstimatorConfig`` and the standard normal quantile behind every reported
confidence interval."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.stats import chi2, epps_singleton_2samp

from idscale.adaptive import EstimatorConfig
from idscale import validation
from idscale.errors import DegenerateSampleError, InvalidArgumentError
from idscale.estimators import _normal_interval, _upper_normal_quantile, fisher_information
from idscale.validation import (
    SYNTHETIC_CAP,
    _histogram,
    _pooled_semi_iqr,
    epps_singleton,
    sample_mixture,
    validate_model,
)


class TestSampleMixture:
    def test_certain_success(self):
        draws = sample_mixture([5, 5, 5], d=1.0, tau=1.0, m=200, seed=0)
        assert np.all(draws == 5)

    def test_certain_failure(self):
        draws = sample_mixture([5, 5, 5], d=1.0, tau=0.0, m=200, seed=0)
        assert np.all(draws == 0)

    def test_binomial_moments(self):
        # outer count 20 with success probability 0.25: mean 5, variance 3.75
        draws = sample_mixture([20], d=1.0, tau=0.25, m=100_000, seed=1)
        assert draws.mean() == pytest.approx(5.0, abs=0.05)
        assert draws.var() == pytest.approx(3.75, abs=0.15)

    def test_deterministic_under_seed(self):
        a = sample_mixture([3, 7, 9], d=2.0, tau=0.5, m=1000, seed=42)
        b = sample_mixture([3, 7, 9], d=2.0, tau=0.5, m=1000, seed=42)
        assert np.array_equal(a, b)

    def test_order_of_outer_counts_is_irrelevant(self):
        a = sample_mixture([3, 7, 9], d=2.0, tau=0.5, m=1000, seed=7)
        b = sample_mixture([9, 3, 7], d=2.0, tau=0.5, m=1000, seed=7)
        assert np.array_equal(a, b)

    def test_argument_validation(self):
        with pytest.raises(InvalidArgumentError):
            sample_mixture([], d=1.0, tau=0.5, m=10, seed=0)
        with pytest.raises(InvalidArgumentError):
            sample_mixture([5], d=1.0, tau=0.5, m=0, seed=0)
        with pytest.raises(InvalidArgumentError):
            sample_mixture([5], d=1.0, tau=2.0, m=10, seed=0)


class TestValidateModel:
    def _well_specified(self, n, seed):
        rng = np.random.default_rng(seed)
        kb = rng.integers(10, 60, size=n)
        tau, d = 0.5, 2.0
        ka = rng.binomial(kb, tau ** d)
        return ka, kb, d, tau

    def _mixture_calls(self, monkeypatch, n, data_seed, seed):
        # the synthetic sample size and seed validate_model passes on
        calls = []

        def spy(kb_values, d, tau, m, seed):
            calls.append((m, seed))
            return sample_mixture(kb_values, d, tau, m, seed)

        monkeypatch.setattr(validation, "sample_mixture", spy)
        ka, kb, d, tau = self._well_specified(n, data_seed)
        report = validate_model(ka, kb, d, tau, seed=seed)
        return calls, report

    def test_report_fields(self, monkeypatch):
        calls, report = self._mixture_calls(monkeypatch, 500, 0, 3)
        assert calls == [(5000, 3)]
        assert 0.0 <= report.p_value <= 1.0
        assert report.statistic >= 0.0
        assert 1 <= report.df <= 4

    def test_synthetic_size_capped(self, monkeypatch):
        calls, _ = self._mixture_calls(monkeypatch, 20_000, 1, 0)
        assert calls == [(SYNTHETIC_CAP, 0)]

    def test_well_specified_counts_fit(self):
        ka, kb, d, tau = self._well_specified(2000, 2)
        assert validate_model(ka, kb, d, tau, seed=0).p_value > 1e-3

    def test_gross_misspecification_rejected(self):
        rng = np.random.default_rng(3)
        kb = rng.integers(10, 60, size=2000)
        # inner counts equal to outer counts cannot come from tau^d = 0.25
        assert validate_model(kb, kb, 2.0, 0.5, seed=0).p_value < 1e-6

    def test_deterministic_under_seed(self):
        ka, kb, d, tau = self._well_specified(800, 4)
        p1 = validate_model(ka, kb, d, tau, seed=9).p_value
        p2 = validate_model(ka, kb, d, tau, seed=9).p_value
        assert p1 == p2

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            validate_model([1, 2], [3, 4, 5], 2.0, 0.5)


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


def chi2_threshold(tail):
    """The fixed-mode rejection threshold at level ``tail``: the chi-square(1)
    quantile with upper tail ``tail``."""
    return EstimatorConfig(alpha=tail).rejection_threshold(1000)


def normal_quantile(prob):
    """The standard normal quantile at ``prob``, read off the half-width of
    the reported interval at level 1 - beta = 2 prob - 1.  At d = 1,
    tau = 1/2 and one outer count the information is (log 2)^2, so the
    half-width is the quantile over log 2."""
    lo, hi = _normal_interval(1.0, fisher_information(1.0, 0.5, [1]), beta=2.0 * (1.0 - prob))
    return 0.5 * (hi - lo) * np.log(2.0)


class TestChi2:
    def test_threshold_at_one_percent(self):
        assert chi2_threshold(0.01) == pytest.approx(6.635, abs=1e-3)

    def test_median_matches_quadrature_oracle(self):
        oracle = quadrature_quantile(chi2_1_pdf, 0.5, 0.0, 10.0)
        assert chi2_threshold(0.5) == pytest.approx(oracle, abs=1e-8)
        assert chi2_threshold(0.5) == pytest.approx(0.4549, abs=1e-4)

    def test_small_prob_limit(self):
        # a lower-tail probability of 1e-12
        assert chi2_threshold(1.0 - 1e-12) < 1e-10

    def test_out_of_range(self):
        for tail in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(InvalidArgumentError):
                chi2_threshold(tail)

    def test_round_trip(self):
        for tail in (0.99, 0.7, 0.5, 0.1, 0.01, 0.001):
            sf = special.gammaincc(0.5, 0.5 * chi2_threshold(tail))
            assert sf == pytest.approx(tail, abs=1e-8)

    def test_sf_df4_against_quadrature(self):
        # the Epps-Singleton p-value is the chi-square tail at the statistic
        def chi2_4_pdf(x):
            return 0.25 * x * np.exp(-0.5 * x)

        rng = np.random.default_rng(10)
        for p in (0.3, 0.32, 0.36):
            res = epps_singleton(rng.binomial(20, 0.3, size=500), rng.binomial(20, p, size=400))
            assert res.df == 4
            oracle = 1.0 - quad(chi2_4_pdf, 0.0, res.statistic)[0]
            assert res.p_value == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("df", [1, 2, 3, 4])
    def test_closed_form_tail_matches_gammaincc(self, df):
        # the fit check's p-value, in closed form, against scipy's
        # regularized upper incomplete gamma Q(df/2, w/2)
        ws = np.concatenate([[0.0], np.geomspace(1e-12, 1400.0, 400)])
        tails = [validation._chi2_tail(w, df) for w in ws.tolist()]
        np.testing.assert_allclose(tails, special.gammaincc(0.5 * df, 0.5 * ws), rtol=1e-12, atol=0)
        assert tails[0] == 1.0

    @pytest.mark.parametrize("df", [0, 5])
    def test_closed_form_tail_only_for_df_one_to_four(self, df):
        with pytest.raises(InvalidArgumentError, match="1 <= df <= 4"):
            validation._chi2_tail(1.0, df)


class TestNormal:
    def test_symmetry(self):
        lo, hi = _normal_interval(1.5, 3 * fisher_information(1.5, 0.4, [3, 5, 7]), beta=0.05)
        assert hi - 1.5 == pytest.approx(1.5 - lo, rel=1e-12)

    @pytest.mark.parametrize("prob,expected", [(0.975, 1.959964), (0.995, 2.575829)])
    def test_matches_quadrature_oracle(self, prob, expected):
        oracle = quadrature_quantile(normal_pdf, prob, -10.0, 10.0)
        assert normal_quantile(prob) == pytest.approx(oracle, abs=1e-8)
        assert normal_quantile(prob) == pytest.approx(expected, abs=1e-6)

    def test_round_trip(self):
        for p in (0.51, 0.6, 0.8, 0.975, 0.999):
            assert special.ndtr(normal_quantile(p)) == pytest.approx(p, abs=1e-8)

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            normal_quantile(1.0)

    @pytest.mark.parametrize("beta", [0.5, 0.05, 1e-6, 1e-17, 1e-300])
    def test_quantile_matches_ndtri(self, beta):
        # the interval's quantile at the half-tail beta/2, against scipy
        assert _upper_normal_quantile(beta / 2.0) == pytest.approx(
            -special.ndtri(beta / 2.0), rel=1e-15)


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
        a = rng.binomial(30, 0.4, size=500)
        b = rng.binomial(30, 0.45, size=500)
        base = epps_singleton(a, b)
        shifted = epps_singleton(a + 1000, b + 1000)
        assert shifted.statistic == pytest.approx(base.statistic, rel=1e-6)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            epps_singleton(np.full(40, 3), np.full(40, 3))

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
        # only a float array holds a non-finite value, and it holds no counts
        a = np.random.default_rng(6).binomial(20, 0.3, size=50).astype(float)
        a[17] = bad
        with pytest.raises(InvalidArgumentError, match="non-negative integer counts"):
            epps_singleton(a, np.arange(50))
        with pytest.raises(InvalidArgumentError, match="non-negative integer counts"):
            epps_singleton(np.arange(50), a)

    @pytest.mark.parametrize("sample", [
        np.arange(50.0), np.linspace(0.0, 20.0, 50), np.arange(-1, 49), [3, 1, -2, 5],
    ], ids=["integral-floats", "floats", "negative", "negative-list"])
    def test_non_count_sample(self, sample):
        counts = np.random.default_rng(6).binomial(20, 0.3, size=50)
        with pytest.raises(InvalidArgumentError, match="non-negative integer counts"):
            epps_singleton(sample, counts)
        with pytest.raises(InvalidArgumentError, match="non-negative integer counts"):
            epps_singleton(counts, sample)


def assert_sigma_is_percentile(a, b):
    q75, q25 = np.percentile(np.concatenate([a, b]).astype(float), [75, 25])
    sigma = _pooled_semi_iqr(_histogram(a), _histogram(b))
    assert sigma == 0.5 * (q75 - q25)
    return sigma


def _oracle_cases():
    rng = np.random.default_rng(7)
    x = np.rint(1000 + 100 * rng.normal(size=900)).astype(np.int64)
    return {
        # the validation shape: a large synthetic mixture against observed counts
        "binomial-mixture": (rng.binomial(rng.choice(np.arange(40, 351), 7700), 0.2),
                             rng.binomial(rng.choice(np.arange(40, 351), 770), 0.2)),
        "binomial-ties": (rng.binomial(12, 0.3, size=400), rng.binomial(12, 0.35, size=300)),
        "binomial-small": (rng.binomial(30, 0.4, size=25), rng.binomial(30, 0.4, size=31)),
        # continuous laws on a fine grid: hundreds of distinct counts
        "continuous": (np.rint(1000 + 100 * rng.normal(size=500)).astype(np.int64),
                       np.rint(1000 + 100 * rng.standard_t(5, size=650)).astype(np.int64)),
        "shifted": (x[:450], x[450:] + 40),
        # the small-sample correction applies only when both samples are small
        "poisson-20-2000": (rng.poisson(3, size=20), rng.poisson(3, size=2000)),
        "poisson-20-20": (rng.poisson(3, size=20), rng.poisson(3, size=20)),
    }


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
    histogram computation, and numpy's ``percentile`` for its pooled
    semi-IQR.  The small-sample correction applies, as in scipy, only when
    both samples hold fewer than 25 draws.  ``projected_reference`` is the
    reference where samples with at most 4 distinct values make the
    covariance rank-deficient; the chi-square df is then that rank."""

    @pytest.mark.parametrize("case", sorted(_oracle_cases()))
    def test_matches_scipy(self, case):
        a, b = _oracle_cases()[case]
        ours = epps_singleton(a, b)
        ref = epps_singleton_2samp(a, b)
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-8)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-8)

    def test_calibration_on_three_values(self):
        # same uniform law on {0, 1, 2}: with df = 4 instead of 2 the
        # level-0.05 rejection rate was 0 %
        rng = np.random.default_rng(9)
        rejections = sum(
            epps_singleton(rng.integers(0, 3, 500), rng.integers(0, 3, 500)).p_value < 0.05
            for _ in range(200)
        )
        assert 0.02 <= rejections / 200 <= 0.09

    @pytest.mark.parametrize("case", sorted(_oracle_cases()))
    def test_sigma_bit_equal_to_percentile(self, case):
        assert_sigma_is_percentile(*_oracle_cases()[case])

    def test_sigma_interpolates_like_numpy(self):
        # few, widely spread counts: each quartile lies a quarter, half or
        # three quarters of the way between two of them, so the plain
        # interpolation is exact, as numpy's two-sided one is
        rng = np.random.default_rng(8)
        for _ in range(200):
            assert_sigma_is_percentile(rng.integers(0, 2 ** 40, size=rng.integers(1, 8)),
                                       rng.integers(0, 10 ** rng.integers(1, 12), size=rng.integers(1, 8)))

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

    def test_constant_samples_at_different_values(self):
        # sigma = 0.5, but both covariances vanish: rank 0 leaves no test
        with pytest.raises(DegenerateSampleError, match="constant"):
            epps_singleton(np.zeros(40, dtype=np.int64), np.ones(40, dtype=np.int64))
