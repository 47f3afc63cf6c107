"""Scale-adaptive intrinsic dimension estimation with per-point optimal
neighbourhoods."""

from .adaptive import (
    AbideResult,
    AdaptiveState,
    EstimatorConfig,
    abide,
    agride,
    babide,
    lrt_statistic,
    select_k_star_all,
)
from .estimators import (
    C_STAR,
    BinomialCounts,
    IdEstimate,
    PosteriorSummary,
    beta_posterior,
    bide_closed_form,
    bide_fixed_k,
    bide_fixed_radius,
    fisher_interval,
    gride_mle,
    optimal_tau,
    twonn_estimate,
)
from .geometry import (
    Dataset,
    NeighborGraph,
    build_neighbor_graph,
    counts_within_open_balls,
    log_ball_volume,
)
from .validation import ValidationReport, sample_mixture, validate_model

__version__ = "0.1.0"

__all__ = [
    "AbideResult",
    "AdaptiveState",
    "BinomialCounts",
    "C_STAR",
    "Dataset",
    "EstimatorConfig",
    "IdEstimate",
    "NeighborGraph",
    "PosteriorSummary",
    "ValidationReport",
    "abide",
    "agride",
    "babide",
    "beta_posterior",
    "bide_closed_form",
    "bide_fixed_k",
    "bide_fixed_radius",
    "build_neighbor_graph",
    "counts_within_open_balls",
    "fisher_interval",
    "gride_mle",
    "log_ball_volume",
    "lrt_statistic",
    "optimal_tau",
    "sample_mixture",
    "select_k_star_all",
    "twonn_estimate",
    "validate_model",
]
