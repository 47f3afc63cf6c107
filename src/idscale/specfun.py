"""Special functions and the two-sample characteristic-function test.

Quantiles are thin wrappers over scipy.special (with explicit domain
checks so callers get the library's error kinds); the Epps-Singleton test
is implemented here following the original 1986 construction with the
small-sample correction of Goerg & Kaiser.

The test works on value histograms: each sample is reduced to its distinct
values and their counts, the pooled quartiles are read off the merged
cumulative counts (numpy's ``linear`` rule, bit for bit), and the features,
means and biased covariances are count-weighted sums over distinct values.
It is the same statistic as a per-draw evaluation up to rounding, and
costs O(distinct values) after one sort per sample instead of O(draws)
transcendental evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegenerateSampleError, InvalidArgumentError

# evaluation points of the ES test, in units of the combined semi-interquartile range
_ES_POINTS = (0.4, 0.8)


@dataclass(frozen=True)
class EppsSingletonResult:
    statistic: float
    p_value: float
    df: int


def chi2_quantile_1df(prob: float) -> float:
    """Quantile of the chi-square distribution with one degree of freedom."""
    if not 0.0 < prob < 1.0:
        raise InvalidArgumentError(f"prob must lie in (0, 1), got {prob}")
    return float(2.0 * special.gammaincinv(0.5, prob))


def chi2_sf(x, df: int):
    """Upper tail of the chi-square distribution with ``df`` degrees of freedom."""
    return special.gammaincc(0.5 * df, 0.5 * np.asarray(x))


def std_normal_quantile(prob: float) -> float:
    """Inverse CDF of the standard normal distribution."""
    if not 0.0 < prob < 1.0:
        raise InvalidArgumentError(f"prob must lie in (0, 1), got {prob}")
    return float(special.ndtri(prob))


def _histogram(sample) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values (ascending) of a sample and how often each occurs."""
    x = np.asarray(sample, dtype=np.float64).ravel()
    if x.size == 0:
        raise InvalidArgumentError("both samples must be non-empty")
    values, counts = np.unique(x, return_counts=True)
    # unique sorts -inf first and inf, nan last
    if not np.isfinite(values[[0, -1]]).all():
        raise InvalidArgumentError("samples must be finite")
    return values, counts


def _pooled_semi_iqr(hist_a, hist_b) -> float:
    """Half the 25-75 % interquartile range of two samples pooled, read off
    their merged histogram; bit-equal to ``np.percentile``'s ``linear``
    rule on the concatenated draws."""
    values = np.union1d(hist_a[0], hist_b[0])
    counts = np.zeros(values.size, dtype=np.int64)
    for v, c in (hist_a, hist_b):
        counts[np.searchsorted(values, v)] += c
    cum = np.cumsum(counts)
    n = int(cum[-1])

    def order_stat(j):
        return float(values[np.searchsorted(cum, j, side="right")])

    def quantile(q):
        h = (n - 1) * q
        j = int(np.floor(h))
        lo, hi = order_stat(j), order_stat(min(j + 1, n - 1))
        g = h - j
        # numpy's _lerp: interpolate from the nearer end
        return hi - (hi - lo) * (1.0 - g) if g >= 0.5 else lo + (hi - lo) * g

    return 0.5 * (quantile(0.75) - quantile(0.25))


def epps_singleton(sample_a, sample_b) -> EppsSingletonResult:
    """Two-sample Epps-Singleton ES2 test.

    Compares the empirical characteristic functions of the two samples at
    the points ``(0.4, 0.8)`` scaled by the combined semi-interquartile
    range; valid for discrete data.  Each sample is reduced to its value
    histogram first, so the features, means and covariances cost one
    evaluation per distinct value rather than per draw.  When both
    samples hold fewer than 25 draws, the statistic is shrunk by the usual
    small-sample correction factor.  The p-value comes from the chi-square
    tail with as many degrees of freedom as the pseudo-inverted covariance
    has rank (4 unless the samples take few distinct values).  Both rules
    are those of ``scipy.stats.epps_singleton_2samp``.
    """
    va, ca = hist_a = _histogram(sample_a)
    vb, cb = hist_b = _histogram(sample_b)
    n_a, n_b = int(ca.sum()), int(cb.sum())
    n = n_a + n_b

    sigma = _pooled_semi_iqr(hist_a, hist_b)
    if sigma <= 0:
        raise DegenerateSampleError("combined semi-interquartile range is zero")

    ts = np.asarray(_ES_POINTS) / sigma

    def moments(values, counts, size):
        # per-value (cos t1 x, cos t2 x, sin t1 x, sin t2 x), weighted by count
        tx = ts[None, :] * values[:, None]
        g = np.hstack([np.cos(tx), np.sin(tx)])
        weights = counts / size
        mean = weights @ g
        g -= mean
        return mean, (g.T * weights) @ g

    mean_a, cov_a = moments(va, ca, n_a)
    mean_b, cov_b = moments(vb, cb, n_b)
    diff = mean_a - mean_b
    cov_inv = np.linalg.pinv((n / n_a) * cov_a + (n / n_b) * cov_b)
    df = int(np.linalg.matrix_rank(cov_inv))
    if df == 0:
        raise DegenerateSampleError("both samples are constant; the covariance is zero")
    w = float(n * diff @ cov_inv @ diff)
    w = max(w, 0.0)
    if max(n_a, n_b) < 25:
        w *= 1.0 / (1.0 + n ** -0.45 + 10.1 * (n_a ** -1.7 + n_b ** -1.7))
    return EppsSingletonResult(statistic=w, p_value=float(chi2_sf(w, df)), df=df)
