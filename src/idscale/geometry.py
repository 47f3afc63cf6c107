"""Metrics, exact k-nearest-neighbour graphs and log-volume utilities.

Distances are either plain Euclidean or per-coordinate periodic
(minimal-image convention, then Euclidean aggregation), which covers
toroidal benchmarks and dihedral-angle data.  Periodic squared distances
are accumulated coordinate by coordinate, in coordinate order, into one
buffer per row block, so their rounding is fixed.  Graph construction is
exact brute force, O(D n^2): each row block keeps its K smallest entries by
partition and sorts only those, with ties between equidistant neighbours
broken by the smaller point index so results are reproducible.  A row whose
K-th distance is shared by an entry left outside the partition falls back
to a full stable sort.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import (
    DegenerateDatasetError,
    InsufficientGraphDepthError,
    InvalidArgumentError,
)

logger = logging.getLogger(__name__)

_LOG_PI = float(np.log(np.pi))


@dataclass(frozen=True)
class Dataset:
    """A point cloud together with its metric.

    ``periods`` is ``None`` for the Euclidean metric, otherwise an array of
    strictly positive per-coordinate periods.  Periodic coordinates are
    stored wrapped into ``[0, period)``.
    """

    points: np.ndarray
    periods: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise InvalidArgumentError("points must be a 2-d array (n x D)")
        n, dim = pts.shape
        if n < 2 or dim < 1:
            raise InvalidArgumentError(f"need n >= 2 and D >= 1, got {n} x {dim}")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("all coordinates must be finite")
        if self.periods is not None:
            per = np.asarray(self.periods, dtype=np.float64)
            if per.shape != (dim,):
                raise InvalidArgumentError("periods must have one entry per coordinate")
            if not np.all(per > 0) or not np.all(np.isfinite(per)):
                raise InvalidArgumentError("periods must be strictly positive and finite")
            pts = np.mod(pts, per)
            object.__setattr__(self, "periods", per)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @property
    def is_periodic(self) -> bool:
        return self.periods is not None

    @property
    def metric_name(self) -> str:
        return "periodic" if self.is_periodic else "euclidean"


@dataclass(frozen=True)
class NeighborGraph:
    """Sorted nearest-neighbour distances and indices per point.

    Row ``i`` holds the distances ``r_{i,1} <= ... <= r_{i,K}`` (the
    conventional ``r_{i,0} = 0`` is not stored) and the matching neighbour
    indices.  Immutable after construction; safe to share across readers.
    """

    distances: np.ndarray
    indices: np.ndarray
    dataset: Dataset
    duplicates_removed: int = 0

    @property
    def n_points(self) -> int:
        return self.distances.shape[0]

    @property
    def depth(self) -> int:
        return self.distances.shape[1]


def pairwise_distances(x: np.ndarray, y: np.ndarray, periods: np.ndarray | None) -> np.ndarray:
    """All-pairs distances between the rows of ``x`` and ``y``."""
    if periods is None:
        xx = np.einsum("ij,ij->i", x, x)
        yy = np.einsum("ij,ij->i", y, y)
        # einsum (not BLAS matmul): per-pair products are reduced in a fixed
        # coordinate order, so distances are bitwise stable under relabelling
        d2 = xx[:, None] + yy[None, :] - 2.0 * np.einsum("ik,jk->ij", x, y)
        np.maximum(d2, 0.0, out=d2)
    else:
        d2 = np.zeros((x.shape[0], y.shape[0]))
        delta = np.empty_like(d2)
        wrapped = np.empty_like(d2)
        # min(|dx|, p - |dx|)^2 summed over k = 0..D-1 in that order
        for k, period in enumerate(periods):
            np.subtract(x[:, k, None], y[None, :, k], out=delta)
            np.abs(delta, out=delta)
            np.subtract(period, delta, out=wrapped)
            np.minimum(delta, wrapped, out=delta)
            np.multiply(delta, delta, out=delta)
            d2 += delta
    return np.sqrt(d2, out=d2)


def deduplicate(dataset: Dataset) -> tuple[Dataset, int]:
    """Drop exact duplicate points, keeping the first occurrence of each."""
    _, first = np.unique(dataset.points, axis=0, return_index=True)
    if first.size == dataset.n:
        return dataset, 0
    if first.size < 2:
        raise DegenerateDatasetError("all points are identical")
    keep = np.sort(first)
    removed = dataset.n - keep.size
    logger.info("removed %d duplicate points before graph construction", removed)
    return Dataset(dataset.points[keep], dataset.periods), removed


def build_neighbor_graph(dataset: Dataset, K: int, chunk_rows: int = 512) -> NeighborGraph:
    """Exact K nearest neighbours per point under the dataset metric.

    Duplicate points are removed first (they make every ratio-based
    estimator degenerate).  Requires ``K <= n - 1`` after removal.
    """
    if K < 1:
        raise InvalidArgumentError(f"K must be >= 1, got {K}")
    dataset, removed = deduplicate(dataset)
    n = dataset.n
    if K > n - 1:
        raise InvalidArgumentError(f"K={K} exceeds n-1={n - 1} after duplicate removal")

    pts = dataset.points
    dist = np.empty((n, K), dtype=np.float64)
    idx = np.empty((n, K), dtype=np.int64)
    for start in range(0, n, chunk_rows):
        stop = min(start + chunk_rows, n)
        block = pairwise_distances(pts[start:stop], pts, dataset.periods)
        # self is never a neighbour (duplicates are already gone)
        rows = np.arange(stop - start)
        block[rows, start + rows] = np.inf
        _k_smallest(block, idx[start:stop], dist[start:stop])
        # free this block before the next one is computed
        del block
    return NeighborGraph(distances=dist, indices=idx, dataset=dataset, duplicates_removed=removed)


def _k_smallest(block: np.ndarray, idx: np.ndarray, dist: np.ndarray) -> None:
    """Write the column indices and values of each row's ``K = idx.shape[1]``
    smallest entries, ascending, into ``idx`` and ``dist``.

    Equal to the first K columns of a stable ``argsort`` of each row: among
    equal values the smaller column index comes first.  The outputs double
    as work space, so that no n-wide temporary outlives the partition.
    """
    K = idx.shape[1]
    idx[:] = np.argpartition(block, K - 1, axis=1)[:, :K]
    idx.sort(axis=1)
    dist[:] = np.take_along_axis(block, idx, axis=1)
    order = np.argsort(dist, axis=1, kind="stable")
    idx[:] = np.take_along_axis(idx, order, axis=1)
    dist[:] = np.take_along_axis(dist, order, axis=1)
    # an entry outside the partition that equals the K-th value may have a
    # smaller index than a kept one: redo those rows with the full sort
    tied = np.count_nonzero(block <= dist[:, -1:], axis=1) > K
    if np.any(tied):
        rows = block[tied]
        full = np.argsort(rows, axis=1, kind="stable")[:, :K]
        idx[tied] = full
        dist[tied] = np.take_along_axis(rows, full, axis=1)


def log_ball_volume(d: float, log_r: float | np.ndarray):
    """log of the volume of a ball of radius exp(log_r) in dimension d.

    Computed entirely in log space: log Omega_d + d * log_r with
    log Omega_d = (d/2) log pi - logGamma(d/2 + 1).
    """
    if d <= 0:
        raise InvalidArgumentError(f"dimension must be positive, got {d}")
    log_omega = 0.5 * d * _LOG_PI - gammaln(0.5 * d + 1.0)
    return log_omega + d * np.asarray(log_r)


def counts_within_open_balls(graph: NeighborGraph, radii: np.ndarray) -> np.ndarray:
    """Number of stored neighbours of each point strictly inside its radius
    (centre and boundary excluded), one radius per point."""
    radii = np.asarray(radii, dtype=np.float64)
    beyond = radii > graph.distances[:, -1]
    if np.any(beyond):
        i = int(np.argmax(beyond))
        raise InsufficientGraphDepthError(
            f"radius {radii[i]} exceeds stored horizon for point {i}"
        )
    return (graph.distances < radii[:, None]).sum(axis=1).astype(np.int64)
