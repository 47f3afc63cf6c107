"""Exception hierarchy shared by all idscale modules, and their integer check.

Every error carries a stable machine-readable ``kind`` string, which the CLI
maps to exit codes and error JSON.
"""

import numpy as np


class IdscaleError(Exception):
    """Base class for all idscale errors."""

    kind = "error"
    exit_code = 1


class InvalidArgumentError(IdscaleError, ValueError):
    kind = "invalid-argument"
    exit_code = 2


class DegenerateDatasetError(IdscaleError):
    kind = "degenerate-dataset"
    exit_code = 3


class InsufficientGraphDepthError(IdscaleError):
    kind = "insufficient-graph-depth"
    exit_code = 4


class DegenerateScaleError(IdscaleError):
    kind = "degenerate-scale"
    exit_code = 5


class EstimateUnboundedError(IdscaleError):
    """Closed-form estimate diverges (no inner-ball counts)."""

    kind = "estimate-unbounded"
    exit_code = 6


class DegenerateSampleError(IdscaleError):
    kind = "degenerate-sample"
    exit_code = 7


class OptimizationFailureError(IdscaleError):
    kind = "optimization-failure"
    exit_code = 8


class ParseError(IdscaleError):
    kind = "parse-error"
    exit_code = 9

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


def require_integer(name, value):
    """Raise ``InvalidArgumentError`` unless ``value`` is a Python or numpy integer."""
    if not isinstance(value, (int, np.integer)):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
