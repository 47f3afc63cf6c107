"""The Epps-Singleton test of ``idscale.validation`` against its
references: scipy's ``epps_singleton_2samp`` and a projected per-draw
statistic where the covariance is rank-deficient.  The comparison on the
fixed cases and the calibration on three values are in
``test_validation.py``."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, epps_singleton_2samp

from test_validation import _oracle_cases

from idscale.errors import DegenerateSampleError
from idscale.validation import _histogram, _pooled_semi_iqr, epps_singleton


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

    def test_constant_samples_at_different_values(self):
        # sigma = 0.5, but both covariances vanish: rank 0 leaves no test
        with pytest.raises(DegenerateSampleError, match="constant"):
            epps_singleton(np.zeros(40), np.ones(40))
