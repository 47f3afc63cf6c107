"""Scale-adaptive intrinsic dimension estimation with per-point optimal
neighbourhoods."""

from .adaptive import (
    AbideResult,
    AdaptiveState,
    EstimatorConfig,
    abide,
    agride,
    babide,
    run_method,
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
    gride_mle,
    optimal_tau,
    twonn_estimate,
)
from .geometry import (
    Dataset,
    NeighborGraph,
    build_neighbor_graph,
    counts_within_open_balls,
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
    "gride_mle",
    "optimal_tau",
    "run_method",
    "sample_mixture",
    "select_k_star_all",
    "twonn_estimate",
    "validate_model",
]
