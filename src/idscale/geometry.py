"""Metrics, exact k-nearest-neighbour graphs and open-ball counts.

Distances are either plain Euclidean or per-coordinate periodic
(minimal-image convention, then Euclidean aggregation), which covers
toroidal benchmarks and dihedral-angle data.  Both are summed from
coordinate differences, squared and added in coordinate order, so every
distance is symmetric to the bit, the same under relabelling of the
points, and free of the cancellation that makes translated or very close
points lose their distances.  Graph construction is exact brute force,
O(D n^2), over fixed blocks of rows: each block keeps its K smallest
entries per row by partition and sorts only those, with ties between
equidistant neighbours broken by the smaller point index so results are
reproducible.  A row whose K-th distance is shared by an entry left
outside the partition falls back to a full stable sort.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    DegenerateDatasetError,
    InsufficientGraphDepthError,
    InvalidArgumentError,
)

logger = logging.getLogger(__name__)

# rows per distance block; a full periodic block holds three n-wide
# temporaries per row, so this bounds the graph build's peak memory
_BLOCK_ROWS = 512


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
        d2 = cdist(x, y, "sqeuclidean")
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
    """Drop exact duplicate points, keeping the first occurrence of each.

    The result is marked as free of duplicates, so that the pass
    ``build_neighbor_graph`` makes over it again costs nothing.
    """
    if dataset.__dict__.get("_distinct"):
        return dataset, 0
    _, first = np.unique(dataset.points, axis=0, return_index=True)
    if first.size < 2:
        raise DegenerateDatasetError("all points are identical")
    removed = dataset.n - first.size
    if removed:
        logger.info("removed %d duplicate points before graph construction", removed)
    # a copy carries the mark, so the caller's dataset object is left as it was
    out = Dataset(dataset.points[np.sort(first)], dataset.periods) if removed else copy.copy(dataset)
    object.__setattr__(out, "_distinct", True)
    return out, removed


def build_neighbor_graph(dataset: Dataset, K: int) -> NeighborGraph:
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
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
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
