"""Metrics, exact k-nearest-neighbour graphs and open-ball counts.

Distances are either plain Euclidean or per-coordinate periodic
(minimal-image convention, then Euclidean aggregation), which covers
toroidal benchmarks and dihedral-angle data.  Both are summed from
coordinate differences, squared and added in coordinate order, so every
distance is symmetric to the bit, the same under relabelling of the
points, and free of the cancellation that makes translated or very close
points lose their distances.  Graph construction is exact brute force,
O(D n^2), over fixed blocks of 32 rows: each block keeps its K smallest
entries per row by partition and sorts only those, with ties between
equidistant neighbours broken by the smaller point index so results are
reproducible.  The selection partitions and sorts one uint64 key per
entry: the distance's bits with the low ceil(log2 n) bits replaced by the
column, which orders like (distance, column) wherever two distances differ
above those bits.  Exact ties are then in column order already; a row
with a near tie, two different distances that agree above those bits,
falls back to a full stable sort.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDatasetError,
    InsufficientGraphDepthError,
    InvalidArgumentError,
    require_integer,
)

logger = logging.getLogger(__name__)

# rows per distance block; a periodic block holds three n-wide temporaries
# per row, 0.9 MB at n = 1200, so they stay in a core's 2 MB L2 cache while
# the coordinates are summed into them (512 rows took 2.3x as long at
# n = 1200, and 64 rows a fifth longer at n = 3000, where they spill)
_BLOCK_ROWS = 32


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
            # np.mod rounds tiny negative values up to the period itself
            pts = np.mod(pts, per)
            pts[pts == per] = 0.0
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
    indices, int32 from ``build_neighbor_graph`` (half the bytes of int64;
    readers accept either).  A flat position formed from an index, such as
    index * depth, must be computed in int64.  Immutable after
    construction; safe to share across readers.
    """

    distances: np.ndarray
    indices: np.ndarray
    dataset: Dataset

    @property
    def n_points(self) -> int:
        return self.distances.shape[0]

    @property
    def depth(self) -> int:
        return self.distances.shape[1]


def pairwise_distances(x: np.ndarray, y: np.ndarray, periods: np.ndarray | None) -> np.ndarray:
    """All-pairs distances between the rows of ``x`` and ``y``."""
    if periods is None:
        # imported here, its one use: scipy.spatial loads scipy.special,
        # scipy.linalg and scipy.sparse (about 32 MB and 0.27 s), which a
        # periodic run never needs
        from scipy.spatial.distance import cdist

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


def deduplicate(dataset: Dataset) -> Dataset:
    """Drop exact duplicate points, keeping the first occurrence of each
    in the original order; the dataset itself when all are distinct.

    Rows are compared as raw bytes, one ``void`` item per row, which sorts
    far faster than ``np.unique(axis=0)``.  Adding 0.0 maps -0.0 to 0.0 and
    coordinates are finite, so equal bytes mean equal values; ``unique``
    sorts stably when asked for indices, so these are first occurrences.
    """
    rows = np.ascontiguousarray(dataset.points + 0.0)
    _, first = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))),
                         return_index=True)
    if first.size < 2:
        raise DegenerateDatasetError("all points are identical")
    removed = dataset.n - first.size
    if not removed:
        return dataset
    logger.info("removed %d duplicate points before graph construction", removed)
    return Dataset(dataset.points[np.sort(first)], dataset.periods)


def build_neighbor_graph(dataset: Dataset, K: int) -> NeighborGraph:
    """Exact K nearest neighbours per point under the dataset metric.

    Duplicate points are removed first (they make every ratio-based
    estimator degenerate).  Requires ``K <= n - 1`` after removal.

    Distances are computed from coordinates and periods scaled by 2^-e,
    with e the binary exponent of the largest of them, and scaled back by
    2^e: no squared difference overflows, and a square underflows only
    relative to the largest coordinate.  Where nothing over- or underflowed
    unscaled, the distances are the same to the bit.
    """
    require_integer("K", K)
    if K < 1:
        raise InvalidArgumentError(f"K must be >= 1, got {K}")
    dataset = deduplicate(dataset)
    n = dataset.n
    if K > n - 1:
        raise InvalidArgumentError(f"K={K} exceeds n-1={n - 1} after duplicate removal")

    # periodic coordinates lie below their period
    periods = dataset.periods
    e = int(np.frexp(np.abs(dataset.points).max() if periods is None else periods.max())[1])
    pts = np.ldexp(dataset.points, -e)
    periods = None if periods is None else np.ldexp(periods, -e)
    dist = np.empty((n, K), dtype=np.float64)
    idx = np.empty((n, K), dtype=np.int32)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = pairwise_distances(pts[start:stop], pts, periods)
        # self is never a neighbour (duplicates are already gone)
        rows = np.arange(stop - start)
        block[rows, start + rows] = np.inf
        _k_smallest(block, idx[start:stop], dist[start:stop])
        # free this block before the next one is computed
        del block
    with np.errstate(over="ignore"):
        np.ldexp(dist, e, out=dist)
    if not np.isfinite(dist[:, -1]).all():
        raise DegenerateDatasetError("distances between the points exceed the double range")
    return NeighborGraph(distances=dist, indices=idx, dataset=dataset)


def _k_smallest(block: np.ndarray, idx: np.ndarray, dist: np.ndarray) -> None:
    """Write the column indices and values of each row's ``K = idx.shape[1]``
    smallest entries, ascending, into ``idx`` and ``dist``.

    Equal to the first K columns of a stable ``argsort`` of each row: among
    equal values the smaller column index comes first.  Needs ``K`` below
    the row length n and entries that are non-negative doubles or ``+inf``.

    Each entry becomes one ``uint64`` key, its bit pattern with the low
    ``b = (n - 1).bit_length()`` bits replaced by its column, so that the
    selection moves values only: a partition at K, a sort of the K kept
    keys, the column as the key's low bits and the value as one gather.
    Such doubles order like their bit patterns, so key order is (value,
    column) order except between two values that agree above the low b
    bits, and those sit next to each other in key order.  Call such keys a
    group.  A group of exactly equal values is in column order already, so
    a row is exact unless a group among its first K+1 keys holds two
    different values, or the K-th key's group goes on past the K+1 kept
    keys and holds a value other than the K-th's further along the row
    (one scan of that row's bits).  Such rows are redone with the full
    stable sort.
    """
    K = idx.shape[1]
    low = np.uint64((1 << (block.shape[1] - 1).bit_length()) - 1)
    keys = block.view(np.uint64) & ~low
    keys |= np.arange(block.shape[1], dtype=np.uint64)
    keys.partition(K, axis=1)
    kept = keys[:, : K + 1]
    kept[:, :K].sort(axis=1)
    idx[:] = kept[:, :K] & low
    # one gather by flat position; every position is in range, and "clip"
    # writes straight into dist, where the default mode fills a buffer first;
    # the int64 row offsets make the positions int64 whatever idx's dtype is
    flat = idx + block.shape[1] * np.arange(len(block), dtype=np.int64)[:, None]
    block.take(flat, out=dist, mode="clip")
    # adjacent keys in one group, that is equal above the low b bits
    same = (kept[:, 1:] ^ kept[:, :-1]) <= low
    grouped = np.flatnonzero(np.any(same, axis=1))
    if grouped.size == 0:
        return
    same = same[grouped]
    # the values of the K+1 kept keys; a group of equal values is exact
    vals = np.column_stack([dist[grouped], block[grouped, kept[grouped, K] & low]])
    near = np.any(same & (vals[:, 1:] != vals[:, :-1]), axis=1)
    # an exact tie at the K-th/(K+1)-th boundary: the group may go on past
    # the kept keys, with a nearer member at a larger column
    scan = np.flatnonzero(same[:, -1] & ~near)
    if scan.size:
        bits = block[grouped[scan]].view(np.uint64)
        kth = vals[scan, K - 1 : K].view(np.uint64)
        near[scan] = np.any(((bits ^ kth) <= low) & (bits != kth), axis=1)
    tied = grouped[near]
    if tied.size:
        rows = block[tied]
        full = np.argsort(rows, axis=1, kind="stable")[:, :K]
        idx[tied] = full
        dist[tied] = np.take_along_axis(rows, full, axis=1)


def counts_within_open_balls(graph: NeighborGraph, radii: np.ndarray) -> np.ndarray:
    """Number of stored neighbours of each point strictly inside its radius
    (centre and boundary excluded), one radius per point.

    Each row is sorted, so its count is found by bisection: one gather of n
    distances per bit of the depth, ceil(log2(depth + 1)) in all.  A count
    grows by a power of two while the distance it would take in is below
    the radius, which a NaN or negative radius never lets happen."""
    radii = np.asarray(radii, dtype=np.float64)
    distances = graph.distances
    beyond = radii > distances[:, -1]
    if np.any(beyond):
        i = int(np.argmax(beyond))
        raise InsufficientGraphDepthError(
            f"radius {radii[i]} exceeds stored horizon for point {i}"
        )
    n, depth = distances.shape
    # flat position of each row's entry before its first, so row + c reads r_{i,c}
    row = np.arange(n, dtype=np.int64) * depth - 1
    count = np.zeros(n, dtype=np.int64)
    for bit in reversed(range(depth.bit_length())):
        # no radius exceeds its row's last distance, so a probe clipped to
        # the row's end never takes that entry in
        probe = np.minimum(count + (1 << bit), depth)
        np.copyto(count, probe, where=distances.take(row + probe) < radii)
    return count
