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
from scipy import special

from .errors import (
    DegenerateDatasetError,
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
# unused here: perfbench's tracer wraps adaptive.validate_model by name
from .validation import validate_model  # noqa: F401

K_MIN = 2  # smallest tested neighbourhood; keeps k_B* = k* - 1 >= 1

# rows per block of the onset build: 0.36 MB of flat positions at k_max = 350
_ONSET_ROWS = 128

THRESHOLD_MODES = ("fixed", "bonferroni_h", "bonferroni_n", "bonferroni_nh")

METHODS = ("twonn", "bide-r", "bide-k", "abide", "agride", "babide")


@dataclass
class EstimatorConfig:
    """Every estimator option, in the order of the CLI's flags."""

    alpha: float = 0.01
    k_max: int = 350
    max_iter: int = 5
    delta: float = 1e-4
    tau: float | None = None
    tb: float | None = None
    k: int | None = None
    alpha0: float = BETA_PRIOR
    beta0: float = BETA_PRIOR
    beta_ci: float = BETA_CI
    threshold_mode: str = "fixed"
    depth: int = 512

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
        if self.tau is not None and not 0.0 < self.tau < 1.0:
            raise InvalidArgumentError(f"tau must lie in (0, 1), got {self.tau}")
        if self.tb is not None and self.tb <= 0:
            raise InvalidArgumentError(f"t_b must be positive, got {self.tb}")
        if self.k is not None and self.k < 1:
            raise InvalidArgumentError(f"k must be >= 1, got {self.k}")
        if self.alpha0 <= 0 or self.beta0 <= 0:
            raise InvalidArgumentError("prior parameters must be positive")
        if self.depth < 1:
            raise InvalidArgumentError(f"depth must be >= 1, got {self.depth}")

    def rejection_threshold(self, n: int) -> float:
        """D_thr for a dataset of size n, honouring the Bonferroni mode."""
        h = self.k_max - K_MIN + 1
        divisor = {"fixed": 1, "bonferroni_h": h, "bonferroni_n": n, "bonferroni_nh": n * h}[
            self.threshold_mode
        ]
        # the chi-square(1) quantile from the upper tail, so small tails keep their digits
        return float(2.0 * special.gammainccinv(0.5, self.alpha / divisor))


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
    the fixed-scale methods leave the last three fields None.  The adaptive
    methods divide ``estimate.fisher_info`` by ``pair_overlap_factor`` at
    the terminal state and build ``estimate.ci`` from it; the one fit check,
    ``estimate.validation_p``, is made at that state too."""

    estimate: IdEstimate
    state: AdaptiveState | None = None
    iterations_run: int | None = None
    converged: bool | None = None


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
    onsets = np.empty((graph.n_points, ks.size))
    radii = graph.distances.ravel()
    flat = np.empty((min(_ONSET_ROWS, graph.n_points), ks.size), dtype=np.int64)
    # in row blocks, so the flat positions are never an n-row temporary;
    # "clip" (every position is in range) writes straight into the onsets
    for start in range(0, graph.n_points, _ONSET_ROWS):
        rows = slice(start, start + _ONSET_ROWS)
        block = onsets[rows]
        # j = index of i's (k+1)-th NN; its own k-th NN distance closes the
        # test: one gather of r_{j,k} at flat position j * depth + k - 1
        pos = np.multiply(graph.indices[rows, K_MIN : k_max + 1], graph.depth, out=flat[: len(block)])
        pos += ks - 1
        radii.take(pos, out=block, mode="clip")
        np.log(block, out=block)
        # the flat positions are spent, so their buffer takes log r_{i,k}
        log_r_i = np.log(graph.distances[rows, K_MIN - 1 : k_max], out=pos.view(np.float64))
        block -= log_r_i
        np.abs(block, out=block)
        # two zero radii leave a NaN gap, whose statistic is NaN and never rejects
        np.fmax(block, 0.0, out=block)
        with np.errstate(divide="ignore"):
            np.divide(u, block, out=block)
        np.minimum.accumulate(block, axis=1, out=block)
    return onsets


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


def _adaptive_loop(graph: NeighborGraph, config: EstimatorConfig, update) -> AbideResult:
    """Shared fixed-point skeleton: start from the two-NN estimate, then
    alternate k* selection and a global ID update until |delta d| < delta.

    The trace holds d and mean k* per iterate.  The fit check runs once,
    in ``_finish_bide`` at the terminal k*, tau and d."""
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
    for _ in range(config.max_iter):
        tau = optimal_tau(d_current)
        k_star = _k_star_from_onsets(onsets, d_current, config.k_max)
        _, counts = _assemble_counts(graph, k_star, tau, config.k_max)
        d_next = update(graph, counts, k_star)
        if not np.isfinite(d_next) or d_next <= 0:
            raise OptimizationFailureError(f"non-finite or non-positive iterate {d_next}")
        trace.append(IterationRecord(d=d_next, mean_k_star=float(k_star.mean())))
        iterations += 1
        if abs(d_current - d_next) < config.delta:
            converged = True
            break
        d_current = d_next

    # final state recomputed with the terminal estimate
    k_star = _k_star_from_onsets(onsets, d_next, config.k_max)
    del onsets
    state, counts = _assemble_counts(graph, k_star, optimal_tau(d_next), config.k_max)
    estimate = _finish_bide(graph, counts, d_next, config.beta_ci)
    return AbideResult(estimate=replace(estimate, trace=trace), state=state,
                       iterations_run=iterations, converged=converged)


def abide(graph: NeighborGraph, config: EstimatorConfig | None = None) -> AbideResult:
    """Adaptive binomial estimator (closed-form update)."""
    config = config or EstimatorConfig()

    def update(_graph, counts, _k_star):
        return bide_closed_form(counts)

    return _adaptive_loop(graph, config, update)


def babide(graph: NeighborGraph, config: EstimatorConfig | None = None) -> AbideResult:
    """Bayesian variant: the iteration update is the posterior mean under
    the Beta(``config.alpha0``, ``config.beta0``) prior."""
    config = config or EstimatorConfig()

    def update(_graph, counts, _k_star):
        return beta_posterior(counts, config.alpha0, config.beta0).mean

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
    """
    config = config or EstimatorConfig()

    def update(graph_, _counts, k_star):
        return gride_update_from_k_star(graph_, k_star)

    return _adaptive_loop(graph, config, update)


def check_options(method: str, config: EstimatorConfig) -> None:
    """Raise ``InvalidArgumentError`` for an unknown method, or for one
    whose required options ``config`` leaves unset."""
    if method not in METHODS:
        raise InvalidArgumentError(f"unknown method {method!r}")
    for name in {"bide-r": ("tb", "tau"), "bide-k": ("k", "tau")}.get(method, ()):
        if getattr(config, name) is None:
            raise InvalidArgumentError(f"--{name} is required for method {method}")


def required_depth(method: str, n: int, config: EstimatorConfig) -> int:
    """Neighbour orders ``method`` needs stored for n distinct points;
    bide-r stores ``config.depth``, as its radii have no natural bound.
    The adaptive methods need K_MIN + 2 points, else the dataset is
    degenerate."""
    check_options(method, config)
    if method == "twonn":
        return 2
    if method == "bide-k":
        return min(n - 1, max(config.k, 2))
    if method == "bide-r":
        return min(n - 1, config.depth)
    if n < K_MIN + 2:
        raise DegenerateDatasetError(
            f"{method} needs at least {K_MIN + 2} distinct points, got {n}"
        )
    # k_max capped at n - 2: a test of order k needs k + 1 neighbours
    return min(config.k_max, n - 2) + 1


def run_method(method: str, graph: NeighborGraph, config: EstimatorConfig) -> AbideResult:
    """Run one of ``METHODS`` on ``graph``.

    Every method takes its CI level from ``config.beta_ci``; bide-r also
    needs ``config.tb`` and ``config.tau``, and bide-k ``config.k`` and
    ``config.tau``.  The adaptive methods cap ``config.k_max`` at n - 2,
    with a warning when that lowers it.
    """
    check_options(method, config)
    if method == "twonn":
        return AbideResult(twonn_estimate(graph, beta=config.beta_ci))
    if method == "bide-r":
        return AbideResult(bide_fixed_radius(graph, config.tb, config.tau, config.beta_ci))
    if method == "bide-k":
        return AbideResult(bide_fixed_k(graph, config.k, config.tau, config.beta_ci))
    k_max = required_depth(method, graph.n_points, config) - 1
    if k_max < config.k_max:
        warnings.warn(f"k_max clamped to {k_max} for n={graph.n_points}")
        config = replace(config, k_max=k_max)
    if method == "abide":
        return abide(graph, config)
    if method == "agride":
        return agride(graph, config)
    return babide(graph, config)
