"""Per-point optimal neighbourhoods and the adaptive fixed-point estimators.

For every point the largest neighbourhood with statistically constant
density is found by a sequential Wilks likelihood-ratio test on shell
volumes; the adaptive estimators alternate that selection with a global
ID update (closed-form binomial, Bayesian posterior mean, or
generalized-ratio likelihood) until the iterate stabilizes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EstimateUnboundedError,
    InsufficientGraphDepthError,
    InvalidArgumentError,
    OptimizationFailureError,
)
from .estimators import (
    BETA_CI,
    BETA_PRIOR,
    BinomialCounts,
    IdEstimate,
    IterationRecord,
    _finish_bide,
    beta_posterior,
    bide_closed_form,
    bide_fixed_k,
    bide_fixed_radius,
    gride_mle_from_ratios,
    optimal_tau,
    twonn_estimate,
)
from .geometry import NeighborGraph, counts_within_open_balls
from .specfun import chi2_quantile_1df
from .validation import validate_model

_LOG4 = float(np.log(4.0))

K_MIN = 2  # smallest tested neighbourhood; keeps k_B* = k* - 1 >= 1

THRESHOLD_MODES = ("fixed", "bonferroni_h", "bonferroni_n", "bonferroni_nh")

METHODS = ("twonn", "bide-r", "bide-k", "abide", "agride", "babide")


@dataclass
class EstimatorConfig:
    alpha: float = 0.01
    threshold_mode: str = "fixed"
    k_max: int = 350
    max_iter: int = 5
    delta: float = 1e-4
    beta_ci: float = BETA_CI
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InvalidArgumentError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise InvalidArgumentError(f"unknown threshold mode {self.threshold_mode!r}")
        if self.k_max < K_MIN:
            raise InvalidArgumentError(f"k_max must be >= {K_MIN}")
        if self.max_iter < 1 or self.delta <= 0:
            raise InvalidArgumentError("max_iter must be >= 1 and delta > 0")
        if not 0.0 < self.beta_ci < 1.0:
            raise InvalidArgumentError(f"beta_ci must lie in (0, 1), got {self.beta_ci}")

    def rejection_threshold(self, n: int) -> float:
        """D_thr for a dataset of size n, honouring the Bonferroni mode."""
        h = self.k_max - K_MIN + 1
        divisor = {"fixed": 1, "bonferroni_h": h, "bonferroni_n": n, "bonferroni_nh": n * h}[
            self.threshold_mode
        ]
        return chi2_quantile_1df(1.0 - self.alpha / divisor)


@dataclass
class AdaptiveState:
    """Per-point optimal neighbourhood and the derived ball counts/radii."""

    k_star: np.ndarray
    ka_star: np.ndarray
    t_b: np.ndarray
    t_a: np.ndarray
    k_max: int

    @property
    def kb_star(self) -> np.ndarray:
        return self.k_star - 1

    @property
    def saturation_fraction(self) -> float:
        """Fraction of points whose k* hit the cap (diagnostic only)."""
        return float(np.mean(self.k_star == self.k_max))


@dataclass
class AbideResult:
    """An estimate and, for the adaptive methods, the loop's final state;
    the fixed-scale methods leave the last three fields None."""

    estimate: IdEstimate
    state: AdaptiveState | None = None
    iterations_run: int | None = None
    converged: bool | None = None


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


def _require_depth(graph: NeighborGraph, k_max: int) -> None:
    if graph.depth < k_max + 1:
        raise InsufficientGraphDepthError(
            f"graph depth {graph.depth} < k_max + 1 = {k_max + 1}"
        )


def _rejection_onsets(graph: NeighborGraph, config: EstimatorConfig) -> np.ndarray:
    """Per point (rows), the smallest d at which some test of order
    K_MIN .. k (columns, k up to k_max) rejects.

    With delta the log-radius gap |log r_{i,k} - log r_{j,k}|, the Wilks
    statistic equals 4k log cosh(d delta / 2), which increases with d, so
    the test at order k rejects exactly when d >= u_k / delta with
    u_k = 2 arccosh(exp(D_thr / 4k)).  A zero gap never rejects (onset
    +inf).  The running minimum along k makes each row non-increasing, so
    the tests passed before the first rejection at d are the entries > d.
    """
    k_max = config.k_max
    _require_depth(graph, k_max)
    ks = np.arange(K_MIN, k_max + 1)
    t = config.rejection_threshold(graph.n_points) / (4.0 * ks)
    # arccosh(e^t) = t + log1p(sqrt(1 - e^-2t)): no cancellation, no overflow
    u = 2.0 * (t + np.log1p(np.sqrt(-np.expm1(-2.0 * t))))
    onsets = np.log(graph.distances[:, K_MIN - 1 : k_max])
    # j = index of i's (k+1)-th NN; its own k-th NN distance closes the test
    log_r_j = graph.distances[graph.indices[:, K_MIN : k_max + 1], ks - 1]
    onsets -= np.log(log_r_j, out=log_r_j)
    np.abs(onsets, out=onsets)
    # two zero radii leave a NaN gap, whose statistic is NaN and never rejects
    np.fmax(onsets, 0.0, out=onsets)
    with np.errstate(divide="ignore"):
        np.divide(u, onsets, out=onsets)
    return np.minimum.accumulate(onsets, axis=1, out=onsets)


def _k_star_from_onsets(onsets: np.ndarray, d: float, k_max: int) -> np.ndarray:
    return np.minimum(K_MIN + np.count_nonzero(onsets > d, axis=1), k_max)


def select_k_star_all(graph: NeighborGraph, d: float, config: EstimatorConfig) -> np.ndarray:
    """Per-point smallest k at which the constant-density test rejects,
    capped at k_max (k_max when no rejection occurs)."""
    if not 0.0 < d < np.inf:
        raise InvalidArgumentError(f"dimension must be positive and finite, got {d}")
    return _k_star_from_onsets(_rejection_onsets(graph, config), d, config.k_max)


def _assemble_counts(graph, k_star, tau, k_max):
    rows = np.arange(graph.n_points)
    t_b = graph.distances[rows, k_star - 1]
    t_a = tau * t_b
    ka_star = counts_within_open_balls(graph, t_a)
    state = AdaptiveState(k_star=k_star, ka_star=ka_star, t_b=t_b, t_a=t_a, k_max=k_max)
    return state, BinomialCounts(k_a=ka_star, k_b=k_star - 1, tau=tau)


def _validation_seed(config: EstimatorConfig, step: int) -> int:
    return int(np.random.SeedSequence((config.seed, step)).generate_state(1)[0])


def _adaptive_loop(graph: NeighborGraph, config: EstimatorConfig, update) -> AbideResult:
    """Shared fixed-point skeleton: start from the two-NN estimate, then
    alternate k* selection and a global ID update until |delta d| < delta."""
    n = graph.n_points
    if n < 100:
        warnings.warn(f"adaptive estimation on only {n} points is unreliable", stacklevel=3)
    # depth first, then two-NN: a degenerate graph raises before the onset build
    _require_depth(graph, config.k_max)
    d_current = twonn_estimate(graph).d
    onsets = _rejection_onsets(graph, config)
    trace = [IterationRecord(d=d_current, mean_k_star=2.0)]
    converged = False
    iterations = 0
    d_next = d_current
    for step in range(config.max_iter):
        tau = optimal_tau(d_current)
        k_star = _k_star_from_onsets(onsets, d_current, config.k_max)
        try:
            _, counts = _assemble_counts(graph, k_star, tau, config.k_max)
            d_next = update(graph, counts, k_star)
        except EstimateUnboundedError as err:
            err.trace = trace
            raise
        if not np.isfinite(d_next) or d_next <= 0:
            err = OptimizationFailureError(f"non-finite or non-positive iterate {d_next}")
            err.trace = trace
            raise err
        p_val = validate_model(
            counts.k_a, counts.k_b, d_next, tau, seed=_validation_seed(config, step)
        ).p_value
        trace.append(IterationRecord(d=d_next, mean_k_star=float(k_star.mean()), validation_p=p_val))
        iterations += 1
        if abs(d_current - d_next) < config.delta:
            converged = True
            break
        d_current = d_next

    # final state recomputed with the terminal estimate
    k_star = _k_star_from_onsets(onsets, d_next, config.k_max)
    del onsets
    state, counts = _assemble_counts(graph, k_star, optimal_tau(d_next), config.k_max)
    estimate = _finish_bide(graph, counts, d_next, config.beta_ci,
                            _validation_seed(config, config.max_iter), with_validation=True)
    return AbideResult(estimate=replace(estimate, trace=trace), state=state,
                       iterations_run=iterations, converged=converged)


def abide(graph: NeighborGraph, config: EstimatorConfig | None = None) -> AbideResult:
    """Adaptive binomial estimator (closed-form update).

    The reported ``fisher_info`` is already divided by
    ``pair_overlap_factor`` at the terminal state, and ``ci`` is built
    from it.
    """
    config = config or EstimatorConfig()

    def update(_graph, counts, _k_star):
        return bide_closed_form(counts)

    return _adaptive_loop(graph, config, update)


def babide(
    graph: NeighborGraph,
    config: EstimatorConfig | None = None,
    alpha0: float = BETA_PRIOR,
    beta0: float = BETA_PRIOR,
) -> AbideResult:
    """Bayesian variant: the iteration update is the posterior mean.

    The reported ``fisher_info`` is already divided by
    ``pair_overlap_factor`` at the terminal state, and ``ci`` is built
    from it.
    """
    config = config or EstimatorConfig()

    def update(_graph, counts, _k_star):
        return beta_posterior(counts, alpha0, beta0).mean

    return _adaptive_loop(graph, config, update)


def gride_update_from_k_star(graph: NeighborGraph, k_star: np.ndarray) -> float:
    """Generalized-ratio estimate with per-point orders n2 = k*, n1 = max(1, k*//2)."""
    n2 = np.asarray(k_star, dtype=np.int64)
    n1 = np.maximum(1, n2 // 2)
    rows = np.arange(graph.n_points)
    mu = graph.distances[rows, n2 - 1] / graph.distances[rows, n1 - 1]
    return gride_mle_from_ratios(mu, n1.astype(np.float64), n2.astype(np.float64))


def agride(graph: NeighborGraph, config: EstimatorConfig | None = None) -> AbideResult:
    """Adaptive generalized-ratio estimator.

    Same iteration skeleton as the binomial variant; tau only enters the
    reported counts and confidence interval, not the likelihood update.
    The reported ``fisher_info`` is already divided by
    ``pair_overlap_factor`` at the terminal state, and ``ci`` is built
    from it.
    """
    config = config or EstimatorConfig()

    def update(graph_, _counts, k_star):
        return gride_update_from_k_star(graph_, k_star)

    return _adaptive_loop(graph, config, update)


def _given(value, name: str, method: str):
    if value is None:
        raise InvalidArgumentError(f"--{name} is required for method {method}")
    return value


def required_depth(method: str, n: int, config: EstimatorConfig, *, k: int | None,
                   depth: int) -> int:
    """Neighbour orders ``method`` needs stored for n distinct points;
    ``depth`` is the one bide-r stores, as its radii have no natural bound."""
    if method not in METHODS:
        raise InvalidArgumentError(f"unknown method {method!r}")
    if method == "twonn":
        return 2
    if method == "bide-k":
        return min(n - 1, max(_given(k, "k", method), 2))
    return min(n - 1, depth if method == "bide-r" else min(config.k_max, n - 2) + 1)


def run_method(method: str, graph: NeighborGraph, config: EstimatorConfig, *,
               tau: float | None = None, tb: float | None = None, k: int | None = None,
               alpha0: float = BETA_PRIOR, beta0: float = BETA_PRIOR) -> AbideResult:
    """Run one of ``METHODS`` on ``graph``.

    Every method takes its CI level from ``config.beta_ci``; bide-r (which
    needs ``tb`` and ``tau``) and bide-k (``k`` and ``tau``) take their
    validation seed from ``config.seed``.  The adaptive methods cap
    ``config.k_max`` at n - 2, with a warning when that lowers it.
    """
    fixed = {"beta": config.beta_ci, "seed": config.seed}
    if method == "twonn":
        return AbideResult(twonn_estimate(graph, beta=config.beta_ci))
    if method == "bide-r":
        tb = _given(tb, "tb", method)
        return AbideResult(bide_fixed_radius(graph, tb, _given(tau, "tau", method), **fixed))
    if method == "bide-k":
        k = _given(k, "k", method)
        return AbideResult(bide_fixed_k(graph, k, _given(tau, "tau", method), **fixed))
    if method not in METHODS:
        raise InvalidArgumentError(f"unknown method {method!r}")
    k_max = min(config.k_max, graph.n_points - 2)
    if k_max < config.k_max:
        warnings.warn(f"k_max clamped to {k_max} for n={graph.n_points}")
        config = replace(config, k_max=k_max)
    if method == "abide":
        return abide(graph, config)
    if method == "agride":
        return agride(graph, config)
    return babide(graph, config, alpha0=alpha0, beta0=beta0)
