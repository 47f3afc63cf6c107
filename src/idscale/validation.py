"""Goodness-of-fit check of the binomial count model.

The fitted (d, tau) and the observed outer counts define a binomial
mixture for the inner counts; a large synthetic sample from that mixture
is compared to the observed inner counts with the Epps-Singleton test.
The resulting p-value is a relative measure of fit, never a hard gate.

The test follows the original 1986 construction with the small-sample
correction of Goerg & Kaiser, and works on histograms of integer counts:
each sample is reduced to its distinct values and their counts, the pooled
quartiles are read off the merged cumulative counts (exactly, so equal to
numpy's ``linear`` rule), and the features, means and biased covariances are
count-weighted sums over distinct values.  It is the same statistic as a
per-draw evaluation up to rounding, and costs O(distinct values) after
one sort per sample instead of O(draws) transcendental evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, InvalidArgumentError

SYNTHETIC_CAP = 100_000

# evaluation points of the ES test, in units of the combined semi-interquartile range
_ES_POINTS = (0.4, 0.8)


@dataclass(frozen=True)
class ValidationReport:
    statistic: float
    p_value: float
    df: int


def _histogram(sample) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values (ascending) of a sample of counts and how often each occurs."""
    x = np.asarray(sample).ravel()
    if x.size == 0:
        raise InvalidArgumentError("both samples must be non-empty")
    if not np.issubdtype(x.dtype, np.integer) or x.min() < 0:
        raise InvalidArgumentError("samples must be non-negative integer counts")
    return np.unique(x, return_counts=True)


def _pooled_semi_iqr(hist_a, hist_b) -> float:
    """Half the 25-75 % interquartile range of two samples pooled, read off
    their merged histogram.  A quartile lies 0, 1/4, 1/2 or 3/4 of the way
    between two integers, so it is exact: ``np.percentile`` on the draws."""
    values = np.union1d(hist_a[0], hist_b[0])
    counts = np.zeros(values.size, dtype=np.int64)
    for v, c in (hist_a, hist_b):
        counts[np.searchsorted(values, v)] += c
    cum = np.cumsum(counts)
    h = (cum[-1] - 1) * np.array([0.25, 0.75])
    j = h.astype(np.int64)
    # both samples are non-empty, so j + 1 is at most the last draw's index
    lo, hi = values[np.searchsorted(cum, [j, j + 1], side="right")]
    q25, q75 = lo + (hi - lo) * (h - j)
    return 0.5 * float(q75 - q25)


def epps_singleton(sample_a, sample_b) -> ValidationReport:
    """Two-sample Epps-Singleton ES2 test.

    Compares the empirical characteristic functions of the two samples at
    the points ``(0.4, 0.8)`` scaled by the combined semi-interquartile
    range; both must be samples of non-negative integer counts.  Each is
    reduced to its value histogram first, so the features, means and
    covariances cost one evaluation per distinct value rather than per
    draw.  When both samples hold fewer than 25 draws, the statistic is
    shrunk by the usual small-sample correction factor.  The p-value comes from the chi-square
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
    p_value = _chi2_tail(w, df)
    return ValidationReport(statistic=w, p_value=p_value, df=df)


def _chi2_tail(w: float, df: int) -> float:
    """P(X > w) for X ~ chi-square(df), df = 1 to 4, in closed form: the
    regularized upper incomplete gamma Q(df/2, w/2)."""
    x = 0.5 * w
    if df == 1:
        return math.erfc(math.sqrt(x))
    if df == 2:
        return math.exp(-x)
    if df == 3:
        return math.erfc(math.sqrt(x)) + math.sqrt(4.0 * x / math.pi) * math.exp(-x)
    if df == 4:
        return (1.0 + x) * math.exp(-x)
    raise InvalidArgumentError(f"chi-square tail needs 1 <= df <= 4, got {df}")


def sample_mixture(kb_values, d: float, tau: float, m: int, seed: int) -> np.ndarray:
    """Draw m counts from the binomial mixture: resample an outer count from
    the empirical list, then draw Binomial(outer, tau^d)."""
    kb = np.asarray(kb_values, dtype=np.int64)
    if kb.size == 0:
        raise InvalidArgumentError("empty outer count list")
    if m < 1:
        raise InvalidArgumentError(f"sample size must be >= 1, got {m}")
    p = tau ** d
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"tau^d = {p} outside [0, 1]")
    rng = np.random.default_rng(seed)
    # sorted list: draws do not depend on how the counts were ordered
    outer = rng.choice(np.sort(kb), size=m, replace=True)
    return rng.binomial(outer, p)


def validate_model(ka_values, kb_values, d: float, tau: float, seed: int = 0) -> ValidationReport:
    """Epps-Singleton comparison of observed inner counts against the
    theoretical binomial mixture implied by (d, tau, outer counts)."""
    ka = np.asarray(ka_values, dtype=np.int64)
    kb = np.asarray(kb_values, dtype=np.int64)
    if ka.shape != kb.shape:
        raise InvalidArgumentError("count arrays must have equal length")
    return epps_singleton(sample_mixture(kb, d, tau, min(10 * ka.size, SYNTHETIC_CAP), seed), ka)
