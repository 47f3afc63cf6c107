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
    DegenerateDatasetError,
    InsufficientGraphDepthError,
    InvalidArgumentError,
    OptimizationFailureError,
    require_integer,
)
from .estimators import (
    BETA_CI,
    BETA_PRIOR,
    BinomialCounts,
    IdEstimate,
    IterationRecord,
    _check_level,
    _finish_bide,
    _upper_normal_quantile,
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

# neighbour orders whose rejection onsets are built for every point up front;
# on curved or noisy data most k* lie within them, so few points need more
_ONSET_PREFIX = 96
# onsets per block of the onset build: 0.36 MB of flat positions
_ONSET_BLOCK = 128 * 349

THRESHOLD_MODES = ("fixed", "bonferroni_h", "bonferroni_n", "bonferroni_nh")

# the EstimatorConfig fields each method reads; a fixed-scale estimator takes
# its fields, in this order, as the arguments after the graph
_ADAPTIVE_OPTIONS = ("alpha", "k_max", "max_iter", "delta", "threshold_mode", "beta_ci")
METHOD_OPTIONS = {
    "twonn": ("beta_ci",),
    "bide-r": ("tb", "tau", "beta_ci"),
    "bide-k": ("k", "tau", "beta_ci"),
    "abide": _ADAPTIVE_OPTIONS,
    "agride": _ADAPTIVE_OPTIONS,
    "babide": _ADAPTIVE_OPTIONS + ("alpha0", "beta0"),
}
METHODS = tuple(METHOD_OPTIONS)


@dataclass
class EstimatorConfig:
    """Every estimator option, in the order of the CLI's flags; each is
    read by at least one method in ``METHOD_OPTIONS``."""

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

    def __post_init__(self):
        # every range check in positive form, so that NaN fails it
        _check_level(self.alpha, "alpha")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise InvalidArgumentError(f"unknown threshold mode {self.threshold_mode!r}")
        require_integer("k_max", self.k_max)
        if self.k_max < K_MIN:
            raise InvalidArgumentError(f"k_max must be >= {K_MIN}")
        require_integer("max_iter", self.max_iter)
        if not (self.max_iter >= 1 and 0.0 < self.delta < np.inf):
            raise InvalidArgumentError("max_iter must be >= 1 and delta > 0 and finite")
        _check_level(self.beta_ci, "beta_ci")
        if self.tau is not None and not 0.0 < self.tau < 1.0:
            raise InvalidArgumentError(f"tau must lie in (0, 1), got {self.tau}")
        if self.tb is not None and not 0.0 < self.tb < np.inf:
            raise InvalidArgumentError(f"t_b must be positive and finite, got {self.tb}")
        if self.k is not None:
            require_integer("k", self.k)
            if self.k < 1:
                raise InvalidArgumentError(f"k must be >= 1, got {self.k}")
        if not (0.0 < self.alpha0 < np.inf and 0.0 < self.beta0 < np.inf):
            raise InvalidArgumentError("prior parameters must be positive and finite")

    def rejection_threshold(self, n: int) -> float:
        """D_thr for a dataset of size n, honouring the Bonferroni mode."""
        h = self.k_max - K_MIN + 1
        divisor = {"fixed": 1, "bonferroni_h": h, "bonferroni_n": n, "bonferroni_nh": n * h}[
            self.threshold_mode
        ]
        # the chi-square(1) quantile with upper tail alpha/divisor is z^2,
        # with z the normal quantile at half that tail
        tail = self.alpha / (2 * divisor)
        if tail == 0.0:
            raise InvalidArgumentError(
                f"alpha = {self.alpha} is too small for threshold mode {self.threshold_mode!r} "
                f"at n = {n}: alpha/(2 * {divisor}) underflows to 0"
            )
        z = _upper_normal_quantile(tail)
        return z * z


@dataclass
class AdaptiveState:
    """Per-point optimal neighbourhood k*, its outer radius t_b = r_{i,k*},
    and the binomial counts there: k_B = k* - 1, and k_A inside tau * t_b."""

    k_star: np.ndarray
    t_b: np.ndarray
    counts: BinomialCounts
    k_max: int

    @property
    def saturation_fraction(self) -> float:
        """Fraction of points whose k* hit the cap (diagnostic only)."""
        return float(np.mean(self.k_star == self.k_max))


@dataclass
class AbideResult:
    """An estimate and, for the adaptive methods, the loop's final state;
    the fixed-scale methods leave the state, ``converged`` and
    ``iterations_run`` None.  The adaptive methods divide
    ``estimate.fisher_info`` by ``pair_overlap_factor`` at the terminal
    state and build ``estimate.ci`` from it; the one fit check,
    ``estimate.validation_p``, is made at that state too."""

    estimate: IdEstimate
    state: AdaptiveState | None = None
    converged: bool | None = None

    @property
    def iterations_run(self) -> int | None:
        """Updates made: one less than the trace's iterates."""
        return None if self.state is None else len(self.estimate.trace) - 1


def _require_depth(graph: NeighborGraph, k_max: int) -> None:
    if graph.depth < k_max + 1:
        raise InsufficientGraphDepthError(
            f"graph depth {graph.depth} < k_max + 1 = {k_max + 1}"
        )


def _flat_positions(indices: np.ndarray, depth: int, ks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the flat positions ``j * depth + k - 1`` of r_{j,k} in the
    raveled distances into ``out`` (int64), one per index j and order k.

    The product is taken in int64 whatever the index dtype: an int32 loop
    would wrap past 2^31 before the cast, and a "clip" gather would then
    read a wrong radius without any error."""
    np.multiply(indices, depth, out=out, dtype=np.int64)
    out += ks - 1
    return out


class _RejectionOnsets:
    """Per point, the smallest d at which some test of order K_MIN .. k
    (k up to k_max) rejects, as a non-increasing step function of k, built
    only as far as the queried values of d need.

    With delta the log-radius gap |log r_{i,k} - log r_{j,k}|, the Wilks
    statistic equals 4k log cosh(d delta / 2), which increases with d, so
    the test at order k rejects exactly when d >= u_k / delta with
    u_k = 2 arccosh(exp(D_thr / 4k)).  A zero gap never rejects (onset
    +inf).  The running minimum along k makes each row non-increasing, so
    the tests passed before the first rejection at d are the orders whose
    running minimum is > d, and k*(d) - K_MIN is the smallest column among
    the row's steps at or below d.

    Only the places where a running minimum steps down are kept, as one
    flat list in no particular order: ``values`` holds the step values,
    ``cols`` the columns k - K_MIN where they start and ``rows`` their
    points.

    The first ``_ONSET_PREFIX`` orders are built for every row at once.
    k*(d) lies past them only in a row whose smallest prefix step is above
    d, so ``k_star(d)`` first builds the rest of each such row, once per
    row, continuing its running minimum from that step; so the list holds
    exactly the steps of each row's full running minimum, none at +inf.
    Rows are built in blocks, so neither the onsets nor their flat
    positions are ever an n-row temporary.
    """

    def __init__(self, graph: NeighborGraph, config: EstimatorConfig):
        self.graph, self.k_max = graph, config.k_max
        _require_depth(graph, self.k_max)
        ks = np.arange(K_MIN, self.k_max + 1)
        t = config.rejection_threshold(graph.n_points) / (4.0 * ks)
        # arccosh(e^t) = t + log1p(sqrt(1 - e^-2t)): no cancellation, no overflow
        self._u = 2.0 * (t + np.log1p(np.sqrt(-np.expm1(-2.0 * t))))
        self._prefix = min(_ONSET_PREFIX, ks.size)
        # per row, its smallest built onset, which its running minimum goes
        # on from; -inf once the row is complete
        self._reach = np.full(graph.n_points, np.inf)
        self.values, self.cols, self.rows = self._build(np.arange(graph.n_points), 0, self._prefix)
        np.minimum.at(self._reach, self.rows, self.values)
        if self._prefix == ks.size:  # the prefix holds every order
            self._reach[:] = -np.inf

    def _build(self, rows, start, stop):
        """The steps of the running minima of ``rows`` over the columns
        ``start:stop``, each going on from the row's ``_reach``.  Returns
        the step values, their columns and their rows."""
        graph, u = self.graph, self._u[start:stop]
        ks = np.arange(K_MIN + start, K_MIN + stop)
        block_rows = max(1, _ONSET_BLOCK // ks.size)
        shape = (min(block_rows, rows.size), ks.size)
        onsets = np.empty(shape)
        flat = np.empty(shape, dtype=np.int64)
        values, cols, step_rows = [], [], []
        for first in range(0, rows.size, block_rows):
            chunk = rows[first : first + block_rows]
            m = chunk.size
            block = onsets[:m]
            # j = index of i's (k+1)-th NN; its own k-th NN distance closes the
            # test: one gather of r_{j,k}; "clip" (every position is in range)
            # writes straight into the block
            pos = _flat_positions(graph.indices[chunk, ks[0] : ks[-1] + 1], graph.depth, ks, flat[:m])
            graph.distances.take(pos, out=block, mode="clip")
            np.log(block, out=block)
            # the flat positions are spent, so their buffer takes log r_{i,k}
            block -= np.log(graph.distances[chunk, ks[0] - 1 : ks[-1]], out=pos.view(np.float64))
            np.abs(block, out=block)
            with np.errstate(divide="ignore"):
                np.divide(u, block, out=block)
            # two zero radii leave a NaN gap and onset, which fmin skips like
            # the +inf of a test that never rejects; the first column takes
            # the reach, which is never NaN, so none is left in the minima
            reach = self._reach[chunk]
            np.fmin(block[:, 0], reach, out=block[:, 0])
            np.fmin.accumulate(block, axis=1, out=block)
            # a step starts wherever the running minimum falls, from the reach on
            steps = np.column_stack((block[:, 0] < reach, block[:, 1:] < block[:, :-1]))
            at = np.flatnonzero(steps)
            row, col = np.divmod(at, ks.size)
            values.append(block.take(at))
            cols.append(col + start)
            step_rows.append(chunk[row])
        return np.concatenate(values), np.concatenate(cols), np.concatenate(step_rows)

    def k_star(self, d: float) -> np.ndarray:
        """k* at d for every point, after building the orders past the
        prefix of the rows that need them."""
        rows = np.flatnonzero(self._reach > d)
        if rows.size:
            built = self._build(rows, self._prefix, self.k_max - K_MIN + 1)
            self._reach[rows] = -np.inf
            self.values, self.cols, self.rows = (
                np.concatenate(pair) for pair in zip((self.values, self.cols, self.rows), built)
            )
        return _k_star_from_onsets((self.values, self.cols, self.rows), self.graph.n_points, d, self.k_max)


def _k_star_from_onsets(onsets, n: int, d: float, k_max: int) -> np.ndarray:
    """k* at d for n rows from the step list of ``_RejectionOnsets``:
    K_MIN plus the smallest column among each row's steps at or below d,
    and k_max where there is none."""
    values, cols, rows = onsets
    k = np.full(n, k_max - K_MIN, dtype=cols.dtype)
    np.minimum.at(k, rows, np.where(values > d, k_max - K_MIN, cols))
    return K_MIN + k


def select_k_star_all(graph: NeighborGraph, d: float, config: EstimatorConfig) -> np.ndarray:
    """Per-point smallest k at which the constant-density test rejects,
    capped at k_max (k_max when no rejection occurs)."""
    if not 0.0 < d < np.inf:
        raise InvalidArgumentError(f"dimension must be positive and finite, got {d}")
    return _RejectionOnsets(graph, config).k_star(d)


def _adaptive_loop(graph: NeighborGraph, config: EstimatorConfig, update) -> AbideResult:
    """Shared fixed-point skeleton: start from the two-NN estimate, then
    iterate d -> update(counts, k*) at the k*(d) and tau(d) of ``state_at``
    until |delta d| < delta or max_iter updates.

    The trace holds d and mean k* per iterate.  The fit check runs once,
    in ``_finish_bide`` at the terminal k*, tau and d."""
    n = graph.n_points
    if n < 100:
        warnings.warn(f"adaptive estimation on only {n} points is unreliable", stacklevel=3)
    # depth first, then two-NN: a degenerate graph raises before the onset build
    _require_depth(graph, config.k_max)
    trace = twonn_estimate(graph).trace
    onsets = _RejectionOnsets(graph, config)
    rows = np.arange(n)

    def state_at(d):
        k_star, tau = onsets.k_star(d), optimal_tau(d)
        t_b = graph.distances[rows, k_star - 1]
        counts = BinomialCounts(k_a=counts_within_open_balls(graph, tau * t_b), k_b=k_star - 1, tau=tau)
        return AdaptiveState(k_star=k_star, t_b=t_b, counts=counts, k_max=config.k_max)

    converged = False
    while not converged and len(trace) <= config.max_iter:
        state = state_at(trace[-1].d)
        d = update(state.counts, state.k_star)
        if not np.isfinite(d) or d <= 0:
            raise OptimizationFailureError(f"non-finite or non-positive iterate {d}")
        converged = abs(trace[-1].d - d) < config.delta
        trace.append(IterationRecord(d=d, mean_k_star=float(state.k_star.mean())))

    d = trace[-1].d
    state = state_at(d)
    del onsets  # spent: freed before the fit check's synthetic draws
    estimate = _finish_bide(graph, state.counts, d, config.beta_ci)
    return AbideResult(estimate=replace(estimate, trace=trace), state=state, converged=converged)


def abide(graph: NeighborGraph, config: EstimatorConfig | None = None) -> AbideResult:
    """Adaptive binomial estimator (closed-form update)."""
    config = config or EstimatorConfig()

    def update(counts, _k_star):
        return bide_closed_form(counts)

    return _adaptive_loop(graph, config, update)


def babide(graph: NeighborGraph, config: EstimatorConfig | None = None) -> AbideResult:
    """Bayesian variant: the iteration update is the posterior mean under
    the Beta(``config.alpha0``, ``config.beta0``) prior."""
    config = config or EstimatorConfig()

    def update(counts, _k_star):
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

    def update(_counts, k_star):
        return gride_update_from_k_star(graph, k_star)

    return _adaptive_loop(graph, config, update)


def check_options(method: str, config: EstimatorConfig) -> None:
    """Raise ``InvalidArgumentError`` for an unknown method, or for one
    whose required options ``config`` leaves unset."""
    if method not in METHODS:
        raise InvalidArgumentError(f"unknown method {method!r}")
    for name in METHOD_OPTIONS[method]:
        if getattr(config, name) is None:
            raise InvalidArgumentError(f"--{name} is required for method {method}")


def required_depth(method: str, n: int, config: EstimatorConfig) -> int:
    """Neighbour orders ``method`` reads for n distinct points, capped at
    n - 1: 2 for twonn, max(k, 2) for bide-k, and k_max + 1 for bide-r's
    outer ball and the adaptive tests.  Too few points for twonn's 2 or a
    test's K_MIN + 1 neighbours make the dataset degenerate."""
    check_options(method, config)
    if method == "twonn":
        need = 2
    elif method == "bide-k":
        need = max(config.k, 2)
    else:
        need = config.k_max + 1
    fewest = {"twonn": 2, "bide-r": 1, "bide-k": 1}.get(method, K_MIN + 1)
    if n <= fewest:
        raise DegenerateDatasetError(
            f"{method} needs at least {fewest + 1} distinct points, got {n}"
        )
    return min(n - 1, need)


def run_method(method: str, graph: NeighborGraph, config: EstimatorConfig) -> AbideResult:
    """Run one of ``METHODS`` on ``graph`` with the ``config`` fields that
    ``METHOD_OPTIONS`` lists for it.  The adaptive methods cap
    ``config.k_max`` at n - 2, with a warning when that lowers it.
    """
    # the orders the method reads, less one: an adaptive method's capped k_max
    k_max = required_depth(method, graph.n_points, config) - 1
    # looked up at call time, so wrappers set on this module's attributes apply
    fixed_scale = {"twonn": twonn_estimate, "bide-r": bide_fixed_radius, "bide-k": bide_fixed_k}
    if method in fixed_scale:
        args = [getattr(config, name) for name in METHOD_OPTIONS[method]]
        return AbideResult(fixed_scale[method](graph, *args))
    if k_max < config.k_max:
        warnings.warn(f"k_max clamped to {k_max} for n={graph.n_points}")
        config = replace(config, k_max=k_max)
    return {"abide": abide, "agride": agride, "babide": babide}[method](graph, config)
