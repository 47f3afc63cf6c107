"""The Epps-Singleton test of ``idscale.validation`` against its
references: scipy's ``epps_singleton_2samp`` and a projected per-draw
statistic where the covariance is rank-deficient.  The comparison on the
fixed cases and on random integer samples, the calibration on three values
and the pooled semi-IQR checks are in ``test_validation.py``."""

import numpy as np
import pytest
from scipy.stats import chi2

from idscale.errors import DegenerateSampleError
from idscale.validation import epps_singleton


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
    """``projected_reference`` is the reference where samples with at most
    4 distinct values make the covariance rank-deficient; the chi-square df
    is then that rank."""

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
