"""Closed-form and likelihood-based intrinsic-dimension estimators.

All estimators work on distance ratios and neighbour counts only, so they
are invariant under global rescaling of Euclidean coordinates and under
relabelling of the points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateDatasetError,
    DegenerateScaleError,
    EstimateUnboundedError,
    InsufficientGraphDepthError,
    InvalidArgumentError,
    OptimizationFailureError,
    require_integer,
)
from .geometry import NeighborGraph, counts_within_open_balls
from .validation import validate_model

# optimal inner/outer radius ratio is C_STAR ** (1/d)
C_STAR = 0.2032

# reported confidence intervals have level 1 - BETA_CI
BETA_CI = 0.05

# default alpha0 and beta0 of the Bayesian estimator's Beta prior on tau^d
BETA_PRIOR = 1.0

_D_MIN, _D_MAX = 1e-3, 1e3

# absolute and relative tolerance on the root, and step limit, of _brent_root
_BRENT_XTOL, _BRENT_RTOL, _BRENT_MAXITER = 1e-12, 1e-14, 100

# memberships per block of shared_pair_counts: about 2.5 MB of working arrays
_PAIR_MEMBERSHIPS = 1 << 16


@dataclass(frozen=True)
class BinomialCounts:
    """Per-point counts in two concentric open balls with radius ratio tau."""

    k_a: np.ndarray
    k_b: np.ndarray
    tau: float

    def __post_init__(self):
        k_a = np.asarray(self.k_a, dtype=np.int64)
        k_b = np.asarray(self.k_b, dtype=np.int64)
        if k_a.shape != k_b.shape:
            raise InvalidArgumentError("count arrays must have equal length")
        if np.any(k_a < 0) or np.any(k_a > k_b):
            raise InvalidArgumentError("need 0 <= k_a <= k_b per point")
        if k_b.sum() <= 0:
            raise InvalidArgumentError("sum of outer counts must be positive")
        if not 0.0 < self.tau < 1.0:
            raise InvalidArgumentError(f"tau must lie in (0, 1), got {self.tau}")
        object.__setattr__(self, "k_a", k_a)
        object.__setattr__(self, "k_b", k_b)


@dataclass
class IterationRecord:
    """One iterate of an estimate: its d and, where a k* exists, mean k*."""

    d: float
    mean_k_star: float | None = None


@dataclass
class IdEstimate:
    """One estimate with its diagnostics.

    ``fisher_info`` is the per-point information behind ``ci``, so
    sqrt(n * fisher_info) * (d - d_true) is the pivot.  For the
    count-based estimators (``bide_fixed_radius``, ``bide_fixed_k`` and the
    adaptive loop) it is already divided by ``pair_overlap_factor``; for
    two-NN it is the order-2 binomial information at ``tau``, and None
    with ``ci`` where ``twonn_equivalent_tau`` finds no ratio.  ``validation_p``
    is the fit check of the reported d at its counts, made once per
    estimate; ``trace`` holds d and mean k* per iterate.
    """

    d: float
    tau: float | None = None
    ci: tuple[float, float] | None = None
    mean_kb: float | None = None
    validation_p: float | None = None
    fisher_info: float | None = None
    trace: list[IterationRecord] = field(default_factory=list)


@dataclass(frozen=True)
class PosteriorSummary:
    mean: float
    variance: float
    alpha_star: float
    beta_star: float


def optimal_tau(d: float) -> float:
    """Variance-minimizing radius ratio for the binomial estimator."""
    return C_STAR ** (1.0 / d)


def bide_closed_form(counts: BinomialCounts) -> float:
    """Maximum-likelihood ID from binomial ball counts: log of the count
    ratio over log tau."""
    sum_a = int(counts.k_a.sum())
    sum_b = int(counts.k_b.sum())
    if sum_a == 0:
        raise EstimateUnboundedError("no points in any inner ball; estimate diverges")
    return float(np.log(sum_a / sum_b) / np.log(counts.tau))


def _check_level(value, name="beta"):
    """Check a two-sided tail probability: 0 < value < 1, and value/2,
    where its normal quantile is read, above 0 (the smallest subnormal
    halves to 0)."""
    if not 0.0 < value < 1.0:
        raise InvalidArgumentError(f"{name} must lie in (0, 1), got {value}")
    if value / 2.0 == 0.0:
        raise InvalidArgumentError(f"{name} = {value} is too small: {name}/2 underflows to 0")


def _upper_normal_quantile(tail: float) -> float:
    """z with P(Z > z) = tail for a standard normal Z, for 0 < tail < 1.
    Read off the lower tail: 1 - tail rounds to 1 for a tail below about
    1e-16, and loses digits well before that."""
    return -NormalDist().inv_cdf(tail)


def _normal_interval(d_star, total_info, beta):
    _check_level(beta)
    half = _upper_normal_quantile(beta / 2.0) / np.sqrt(total_info)
    return (float(d_star - half), float(d_star + half))


def fisher_information(d_star, tau, kb_values) -> float:
    """Per-point Fisher information of the binomial count model,
    I(d*) = (log tau)^2 tau^d* mean(k_B) / (1 - tau^d*).

    This treats the n per-point counts as independent binomials.
    """
    kb = np.asarray(kb_values, dtype=np.float64)
    td = tau ** d_star
    return float((np.log(tau) ** 2) * td * kb.mean() / (1.0 - td))


def shared_pair_counts(graph: NeighborGraph, k_a: np.ndarray, k_b: np.ndarray) -> tuple[int, int, int]:
    """Counts of neighbour pairs that enter both points' balls.

    Point i's outer ball is the first ``k_b[i]`` columns of its graph row and
    its inner ball the first ``k_a[i]``.  Over the ordered memberships
    (i, j), j in i's outer ball, returns

    - M: how many have i in j's outer ball as well,
    - C1: how many of those have j in i's inner ball,
    - C11: how many have the inner ball hold in both directions.

    Rows are sorted by (distance, index) and distances are symmetric, so i
    lies in j's first m columns exactly when (r_ij, i) sorts before row j's
    column m; the check reads r_ij from i's own row and needs no search.
    The memberships are visited in blocks of consecutive rows, cut where
    the running sum of ``k_b`` crosses a multiple of ``_PAIR_MEMBERSHIPS``,
    so its membership-sized arrays hold about that many entries whatever n
    and k are.  Needs every ``k_b[i]`` below the graph depth.
    """
    k_a = np.asarray(k_a, dtype=np.int64)
    k_b = np.asarray(k_b, dtype=np.int64)
    rows = np.arange(graph.n_points)
    # the first entry past each point's outer and inner ball, once per call
    edge_b = graph.distances[rows, k_b], graph.indices[rows, k_b]
    edge_a = graph.distances[rows, k_a], graph.indices[rows, k_a]

    def in_ball_of_j(edge, i, j, r):
        # (r, i) against the first entry past j's ball
        r_edge = edge[0][j]
        inside = r < r_edge
        tie = np.flatnonzero(r == r_edge)
        inside[tie] = i[tie] < edge[1][j[tie]]
        return inside

    ends = np.cumsum(k_b)
    cuts = np.searchsorted(ends, np.arange(_PAIR_MEMBERSHIPS, ends[-1], _PAIR_MEMBERSHIPS), "right")
    m = c1 = c11 = 0
    for start, stop in zip([0, *cuts], [*cuts, graph.n_points]):
        kb = k_b[start:stop]
        cols = np.arange(int(kb.max(initial=0)))
        in_b = cols < kb[:, None]
        i = np.repeat(rows[start:stop], kb)
        # as intp, since numpy gathers by an int32 index array about 3x slower
        j = graph.indices[start:stop, : cols.size][in_b].astype(np.intp, copy=False)
        r = graph.distances[start:stop, : cols.size][in_b]
        mutual = in_ball_of_j(edge_b, i, j, r)
        # C11 needs the reverse test only where j is in i's inner ball
        inner = np.flatnonzero(mutual & (cols < k_a[start:stop, None])[in_b])
        both = in_ball_of_j(edge_a, i[inner], j[inner], r[inner])
        m += int(np.count_nonzero(mutual))
        c1 += inner.size
        c11 += int(np.count_nonzero(both))
    return m, c1, c11


def pair_overlap_factor(graph: NeighborGraph, counts: BinomialCounts, d: float) -> float:
    """Variance of S_A = sum k_A over its independent-count value.

    A pair {i, j} with each point in the other's outer ball enters S_A
    twice.  Taking unordered neighbour pairs as clusters, the
    cluster-robust variance of S_A at p = tau^d is

        V = S_A (1-p)^2 + (S_B - S_A) p^2 + C11 - 2p C1 + p^2 M

    with M, C1 and C11 from ``shared_pair_counts``.  The factor is
    V / (S_B p (1-p)): 1 for independent counts at the closed-form
    estimate, 2 when every pair is mutual with symmetric inner indicators.
    It uses integer counts only, so it is bit-exact under relabelling.
    """
    s_a = int(counts.k_a.sum())
    s_b = int(counts.k_b.sum())
    m, c1, c11 = shared_pair_counts(graph, counts.k_a, counts.k_b)
    p = counts.tau ** d
    v = s_a * (1.0 - p) ** 2 + (s_b - s_a) * p ** 2 + c11 - 2.0 * p * c1 + p * p * m
    return float(v / (s_b * p * (1.0 - p)))


def twonn_equivalent_tau(graph: NeighborGraph, d_hat: float) -> tuple[float, BinomialCounts] | None:
    """The radius ratio at which the binomial closed form reproduces the
    two-NN estimate, together with the order-2 counts it was derived from.

    Counts are assembled at the optimal ratio for ``d_hat``; solving the
    closed form for tau then gives
    tau = exp(log(sum k_A / sum k_B) / d_hat).  Returns None when no inner
    ball is occupied.
    """
    r1 = graph.distances[:, 0]
    r2 = graph.distances[:, 1]
    tau0 = optimal_tau(d_hat)
    k_a = (r1 < tau0 * r2).astype(np.int64)
    k_b = np.ones(graph.n_points, dtype=np.int64)
    if k_a.sum() == 0:
        return None
    tau_eq = float(np.exp(np.log(k_a.sum() / k_b.sum()) / d_hat))
    if not 0.0 < tau_eq < 1.0:
        return None
    return tau_eq, BinomialCounts(k_a=k_a, k_b=k_b, tau=tau_eq)


def twonn_estimate(graph: NeighborGraph, beta: float = BETA_CI) -> IdEstimate:
    """Closed-form two-NN estimator: n over the summed log distance ratios."""
    _check_level(beta)
    if graph.depth < 2:
        raise InsufficientGraphDepthError("two-NN needs at least 2 stored neighbours")
    r1 = graph.distances[:, 0]
    r2 = graph.distances[:, 1]
    # distinct points closer than the distance arithmetic resolves
    zero = int(np.count_nonzero(r1 == 0))
    if zero:
        raise DegenerateDatasetError(
            f"{zero} points have a zero first-neighbour distance; two-NN ratios are undefined"
        )
    log_ratios = np.log(r2 / r1)
    # sorted reduction: bitwise identical under point relabelling
    total = np.sort(log_ratios).sum()
    if total <= 0:
        raise EstimateUnboundedError("all second/first NN ratios equal 1; estimate diverges")
    d_hat = float(graph.n_points / total)

    tau = ci = info = None
    eq = twonn_equivalent_tau(graph, d_hat)
    if eq is not None:
        tau, counts = eq
        info = fisher_information(d_hat, tau, counts.k_b)
        ci = _normal_interval(d_hat, graph.n_points * info, beta)
    return IdEstimate(
        d=d_hat,
        tau=tau,
        ci=ci,
        mean_kb=1.0,
        fisher_info=info,
        trace=[IterationRecord(d=d_hat, mean_k_star=2.0)],
    )


def bide_fixed_radius(
    graph: NeighborGraph,
    t_b: float,
    tau: float,
    beta: float = BETA_CI,
) -> IdEstimate:
    """Binomial estimator at a fixed outer radius t_b (inner radius tau * t_b).

    The reported ``fisher_info`` is already divided by
    ``pair_overlap_factor``, and ``ci`` is built from it.
    """
    _check_level(beta)
    if not 0.0 < t_b < np.inf:
        raise InvalidArgumentError(f"t_b must be positive and finite, got {t_b}")
    if not 0.0 < tau < 1.0:
        raise InvalidArgumentError(f"tau must lie in (0, 1), got {tau}")
    radii = np.full(graph.n_points, float(t_b))
    k_b = counts_within_open_balls(graph, radii)
    if k_b.sum() == 0:
        raise DegenerateScaleError(f"no neighbours within t_b={t_b} for any point")
    return _bide_at_scale(graph, radii, k_b, tau, beta)


def bide_fixed_k(
    graph: NeighborGraph,
    k: int,
    tau: float,
    beta: float = BETA_CI,
) -> IdEstimate:
    """Binomial estimator with the outer ball at each point's k-th neighbour.

    The reported ``fisher_info`` is already divided by
    ``pair_overlap_factor``, and ``ci`` is built from it.
    """
    _check_level(beta)
    require_integer("k", k)
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if graph.depth < k:
        raise InsufficientGraphDepthError(f"graph depth {graph.depth} < k={k}")
    if k == 1:
        raise DegenerateScaleError("k=1 leaves every outer shell empty")
    if not 0.0 < tau < 1.0:
        raise InvalidArgumentError(f"tau must lie in (0, 1), got {tau}")
    k_b = np.full(graph.n_points, k - 1, dtype=np.int64)
    return _bide_at_scale(graph, graph.distances[:, k - 1], k_b, tau, beta)


def _bide_at_scale(graph, t_b, k_b, tau, beta):
    """Count the inner balls at tau * t_b against outer counts k_b, and finish."""
    counts = BinomialCounts(k_a=counts_within_open_balls(graph, tau * t_b), k_b=k_b, tau=tau)
    return _finish_bide(graph, counts, bide_closed_form(counts), beta)


def _finish_bide(graph, counts, d_hat, beta):
    if d_hat <= 0:
        raise DegenerateScaleError("d = 0: every inner ball holds its whole outer ball")
    info = fisher_information(d_hat, counts.tau, counts.k_b) / pair_overlap_factor(graph, counts, d_hat)
    p_val = validate_model(counts.k_a, counts.k_b, d_hat, counts.tau).p_value
    return IdEstimate(
        d=d_hat,
        tau=counts.tau,
        ci=_normal_interval(d_hat, counts.k_b.size * info, beta),
        mean_kb=float(counts.k_b.mean()),
        validation_p=p_val,
        fisher_info=info,
        trace=[IterationRecord(d=d_hat)],
    )


def beta_posterior(counts: BinomialCounts, alpha0: float = BETA_PRIOR, beta0: float = BETA_PRIOR) -> PosteriorSummary:
    """Conjugate Beta posterior for p = tau^d, mapped to the ID scale.

    Posterior mean and variance follow from the digamma/trigamma moments of
    log p for a Beta(alpha*, beta*) law.
    """
    if not (0.0 < alpha0 < np.inf and 0.0 < beta0 < np.inf):
        raise InvalidArgumentError("prior parameters must be positive and finite")
    sum_a = float(counts.k_a.sum())
    sum_b = float(counts.k_b.sum())
    alpha_star = alpha0 + sum_a
    beta_star = beta0 + (sum_b - sum_a)
    # imported here, its one use: scipy.special takes about 20 MB and
    # 0.17 s, which only babide pays
    from scipy import special

    log_tau = np.log(counts.tau)
    mean = (special.psi(alpha_star) - special.psi(alpha_star + beta_star)) / log_tau
    variance = (special.polygamma(1, alpha_star)
                - special.polygamma(1, alpha_star + beta_star)) / log_tau ** 2
    return PosteriorSummary(
        mean=float(mean), variance=float(variance),
        alpha_star=float(alpha_star), beta_star=float(beta_star),
    )


def _gride_score(mu, d, n1, n2):
    # derivative of the log-likelihood in d; strictly decreasing in d
    log_mu = np.log(mu)
    x = d * log_mu
    dlog_pow_m1 = log_mu / (-np.expm1(-x))
    terms = 1.0 / d + (n2 - n1 - 1.0) * dlog_pow_m1 - (n2 - 1.0) * log_mu
    return float(terms.sum())


def _brent_root(f, lo, hi, f_lo, f_hi):
    """Root of ``f`` in [lo, hi], given f_lo = f(lo) and f_hi = f(hi) of
    opposite signs (or one of them 0).

    Brent's method with the steps of scipy's Brent root finder, in its
    order and arithmetic, so it returns the same float; it takes the
    end-point values from the caller instead of evaluating ``f`` there
    again.
    """
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    # x_cur is the best estimate and x_blk the other end of the bracket
    x_pre, x_cur, f_pre, f_cur = lo, hi, f_lo, f_hi
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_BRENT_MAXITER):
        if f_pre != 0 and f_cur != 0 and (f_pre < 0) != (f_cur < 0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(x_cur)) / 2
        s_bis = (x_blk - x_cur) / 2
        if f_cur == 0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - delta):
                # a short enough step: take it
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        if abs(s_cur) > delta:
            x_cur += s_cur
        else:
            x_cur += delta if s_bis > 0 else -delta
        f_cur = f(x_cur)
    raise OptimizationFailureError(
        f"root search did not converge in {_BRENT_MAXITER} steps on ({lo}, {hi})"
    )


def gride_mle_from_ratios(mu, n1, n2) -> float:
    """Numerical maximizer of the generalized-ratio likelihood.

    ``n1``/``n2`` may be scalars or per-point arrays (the adaptive variant
    uses per-point orders).  The score is strictly decreasing in d, so the
    maximizer is the unique root of the score on (1e-3, 1e3), found by
    ``_brent_root``, the package's own Brent root search.
    """
    mu = np.asarray(mu, dtype=np.float64)
    n1 = np.broadcast_to(np.asarray(n1, dtype=np.float64), mu.shape)
    n2 = np.broadcast_to(np.asarray(n2, dtype=np.float64), mu.shape)
    keep = mu > 1.0
    if not np.all(keep):
        warnings.warn(f"dropping {int((~keep).sum())} unit distance ratios", stacklevel=2)
        mu, n1, n2 = mu[keep], n1[keep], n2[keep]
    if mu.size == 0:
        raise InvalidArgumentError("no usable distance ratios (all equal to 1)")
    # sorted reduction: bitwise identical under point relabelling
    order = np.lexsort((n2, n1, mu))
    mu, n1, n2 = mu[order], n1[order], n2[order]
    lo, hi = _D_MIN, _D_MAX
    s_lo = _gride_score(mu, lo, n1, n2)
    s_hi = _gride_score(mu, hi, n1, n2)
    # also fails on a NaN score, which the root search does not check
    if not s_lo >= 0 >= s_hi:
        raise OptimizationFailureError(
            f"no interior maximum on ({lo}, {hi}): score at bounds {s_lo:.3g}, {s_hi:.3g}"
        )
    return _brent_root(lambda d: _gride_score(mu, d, n1, n2), lo, hi, s_lo, s_hi)


def gride_mle(graph: NeighborGraph, n1: int, n2: int) -> IdEstimate:
    """Generalized-ratio ID estimator from the r_{n2}/r_{n1} distance ratios."""
    require_integer("n1", n1)
    require_integer("n2", n2)
    if not n2 > n1 >= 1:
        raise InvalidArgumentError(f"need n2 > n1 >= 1, got n1={n1}, n2={n2}")
    if graph.depth < n2:
        raise InsufficientGraphDepthError(f"graph depth {graph.depth} < n2={n2}")
    mu = graph.distances[:, n2 - 1] / graph.distances[:, n1 - 1]
    d_hat = gride_mle_from_ratios(mu, float(n1), float(n2))
    return IdEstimate(d=d_hat, trace=[IterationRecord(d=d_hat)])
