from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idscale import geometry
from idscale.errors import (
    DegenerateDatasetError,
    InsufficientGraphDepthError,
    InvalidArgumentError,
)
from idscale.estimators import twonn_estimate
from idscale.geometry import (
    Dataset,
    build_neighbor_graph,
    counts_within_open_balls,
    pairwise_distances,
)


def brute_force_distances(pts, periods=None):
    """Independent all-pairs oracle: explicit per-pair loop, no Gram trick."""
    n = len(pts)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            delta = np.abs(pts[i] - pts[j])
            if periods is not None:
                delta = np.minimum(delta, periods - delta)
            out[i, j] = np.sqrt((delta ** 2).sum())
    return out


def stable_sort_oracle(graph, K):
    """Full stable sort of the brute-force rows without self: ties between
    equal distances go to the smaller index."""
    full = brute_force_distances(graph.dataset.points, graph.dataset.periods)
    np.fill_diagonal(full, np.inf)
    order = np.argsort(full, axis=1, kind="stable")[:, :K]
    return order, np.take_along_axis(full, order, axis=1)


def build_in_blocks(ds, K, rows):
    """``build_neighbor_graph`` with distance blocks of ``rows`` rows."""
    with mock.patch.object(geometry, "_BLOCK_ROWS", rows):
        return build_neighbor_graph(ds, K=K)


def integer_lattice(side, dim, periodic):
    pts = np.argwhere(np.ones((side,) * dim)).astype(np.float64)
    return Dataset(pts, np.full(dim, float(side)) if periodic else None)


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.array([[0.0], [np.nan]]))

    def test_rejects_tiny(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.array([[1.0]]))

    def test_periodic_wraps_into_range(self):
        ds = Dataset(np.array([[7.0], [-1.0]]), periods=np.array([2 * np.pi]))
        assert np.all(ds.points >= 0) and np.all(ds.points < 2 * np.pi)

    def test_bad_periods(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.array([[0.1], [0.2]]), periods=np.array([0.0]))


class TestBuildNeighborGraph:
    def test_collinear_hand_geometry(self):
        g = build_neighbor_graph(Dataset(np.array([[0.0], [1.0], [3.0]])), K=2)
        assert np.allclose(g.distances, [[1, 3], [1, 2], [2, 3]])
        assert g.indices.tolist() == [[1, 2], [0, 2], [1, 0]]

    def test_periodic_wraparound(self):
        pts = np.array([[0.1], [2 * np.pi - 0.1]])
        g = build_neighbor_graph(Dataset(pts, periods=np.array([2 * np.pi])), K=1)
        assert np.allclose(g.distances, 0.2)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(1000, 2))
        g = build_neighbor_graph(Dataset(pts), K=12)
        full = brute_force_distances(pts)
        np.fill_diagonal(full, np.inf)
        expected = np.sort(full, axis=1)[:, :12]
        assert np.allclose(g.distances, expected, atol=1e-12)

    def test_matches_brute_force_oracle_periodic(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(150, 3))
        periods = np.ones(3)
        g = build_neighbor_graph(Dataset(pts, periods), K=8)
        full = brute_force_distances(pts, periods)
        np.fill_diagonal(full, np.inf)
        expected = np.sort(full, axis=1)[:, :8]
        assert np.allclose(g.distances, expected, atol=1e-12)

    def test_k_too_large(self):
        with pytest.raises(InvalidArgumentError):
            build_neighbor_graph(Dataset(np.zeros((5, 2)) + np.arange(5)[:, None]), K=5)

    def test_all_identical_degenerate(self):
        with pytest.raises(DegenerateDatasetError):
            build_neighbor_graph(Dataset(np.ones((4, 2))), K=1)

    def test_duplicates_removed(self):
        pts = np.array([[0.0], [0.0], [1.0], [2.0]])
        g = build_neighbor_graph(Dataset(pts), K=2)
        assert g.duplicates_removed == 1
        assert g.n_points == 3
        assert np.all(g.distances[:, 0] > 0)

    def test_tie_break_smaller_index(self):
        # point 0 is equidistant from 1 and 2; smaller index must come first
        pts = np.array([[0.0], [1.0], [-1.0], [5.0]])
        g = build_neighbor_graph(Dataset(pts), K=3)
        assert g.indices[0].tolist() == [1, 2, 3]

    def test_chunk_size_does_not_change_output(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(200, 3))
        g1 = build_in_blocks(Dataset(pts), 20, 7)
        g2 = build_in_blocks(Dataset(pts), 20, 200)
        assert np.array_equal(g1.distances, g2.distances)
        assert np.array_equal(g1.indices, g2.indices)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(120, 4))
        g1 = build_neighbor_graph(Dataset(pts), K=10)
        g2 = build_neighbor_graph(Dataset(4.0 * pts), K=10)
        assert np.array_equal(g1.indices, g2.indices)
        assert np.allclose(g2.distances, 4.0 * g1.distances, rtol=1e-12)

    def test_translation_invariance(self):
        # a 0.01-scale cloud moved to 1e4: distances summed from coordinate
        # differences move by ~3e-10 relative there, the expanded form
        # |x|^2 + |y|^2 - 2 x.y moved them by ~1e-2 and reordered neighbours
        rng = np.random.default_rng(12)
        pts = 0.01 * rng.normal(size=(500, 6))
        g1 = build_neighbor_graph(Dataset(pts), K=10)
        g2 = build_neighbor_graph(Dataset(pts + 1e4), K=10)
        assert np.array_equal(g1.indices, g2.indices)
        assert twonn_estimate(g2).d == pytest.approx(twonn_estimate(g1).d, rel=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(80, 2))
        perm = rng.permutation(80)
        g1 = build_neighbor_graph(Dataset(pts), K=6)
        g2 = build_neighbor_graph(Dataset(pts[perm]), K=6)
        inv = np.empty(80, dtype=int)
        inv[perm] = np.arange(80)
        assert np.array_equal(g2.distances, g1.distances[perm])
        assert np.array_equal(g2.indices, inv[g1.indices[perm]])


class TestNeighborSelection:
    """Partition selection keeps exactly what a full stable sort keeps."""

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("K", [1, 4, 40, 143])
    @pytest.mark.parametrize("block_rows", [7, 512])
    def test_lattice_matches_stable_sort(self, periodic, K, block_rows):
        # every row of a 12 x 12 lattice has many exactly tied distances
        g = build_in_blocks(integer_lattice(12, 2, periodic), K, block_rows)
        order, dist = stable_sort_oracle(g, K)
        assert np.array_equal(g.indices, order)
        assert np.array_equal(g.distances, dist)

    @given(
        coords=st.lists(
            st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=3, max_size=40
        ),
        dim=st.integers(1, 3),
        periodic=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_small_integer_ties(self, coords, dim, periodic, data):
        pts = np.array(coords, dtype=np.float64)[:, :dim]
        ds = Dataset(pts, np.full(dim, 4.0) if periodic else None)
        n = len(np.unique(ds.points, axis=0))
        assume(n >= 2)
        K = data.draw(st.integers(1, n - 1), label="K")
        block_rows = data.draw(st.integers(1, n), label="block_rows")
        g = build_in_blocks(ds, K, block_rows)
        order, _ = stable_sort_oracle(g, K)
        assert np.array_equal(g.indices, order)
        assert np.all(np.diff(g.distances, axis=1) >= 0)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_full_depth_never_keeps_self(self, periodic):
        rng = np.random.default_rng(8)
        for ds in (integer_lattice(6, 2, periodic),
                   Dataset(rng.uniform(size=(50, 3)), np.ones(3) if periodic else None)):
            n = ds.n
            g = build_in_blocks(ds, n - 1, 16)
            assert np.all(np.isfinite(g.distances))
            expected = np.array([np.delete(np.arange(n), i) for i in range(n)])
            assert np.array_equal(np.sort(g.indices, axis=1), expected)


class TestPeriodicDistances:
    def test_sequential_coordinate_order(self):
        # pins the summation order: min(|dx|, p - |dx|)^2 added for k = 0..D-1
        rng = np.random.default_rng(9)
        periods = rng.uniform(0.5, 3.0, size=7)
        x = rng.uniform(size=(40, 7)) * periods
        y = rng.uniform(size=(30, 7)) * periods
        d2 = np.zeros((40, 30))
        for k in range(7):
            delta = np.abs(x[:, k, None] - y[None, :, k])
            delta = np.minimum(delta, periods[k] - delta)
            d2 = d2 + delta * delta
        assert np.array_equal(pairwise_distances(x, y, periods), np.sqrt(d2))

    def test_chunk_size_does_not_change_output(self):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.uniform(size=(200, 3)), np.ones(3))
        g1 = build_in_blocks(ds, 20, 7)
        g2 = build_in_blocks(ds, 20, 200)
        assert np.array_equal(g1.distances, g2.distances)
        assert np.array_equal(g1.indices, g2.indices)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(size=(80, 3))
        perm = rng.permutation(80)
        g1 = build_neighbor_graph(Dataset(pts, np.ones(3)), K=6)
        g2 = build_neighbor_graph(Dataset(pts[perm], np.ones(3)), K=6)
        inv = np.empty(80, dtype=int)
        inv[perm] = np.arange(80)
        assert np.array_equal(g2.distances, g1.distances[perm])
        assert np.array_equal(g2.indices, inv[g1.indices[perm]])


class TestMetricProperties:
    @pytest.mark.parametrize("periods", [None, np.array([1.0, 1.0, 1.0])])
    def test_symmetry_and_triangle(self, periods):
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(30, 3))
        d = pairwise_distances(pts, pts, periods)
        assert np.array_equal(d, d.T)
        for _ in range(200):
            i, j, k = rng.integers(30, size=3)
            assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


class TestOpenBallCounts:
    def test_strict_comparison(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = build_neighbor_graph(Dataset(pts), K=3)
        assert counts_within_open_balls(g, np.array([2.5, 1.5, 1.5, 2.5])).tolist() == [2, 2, 2, 2]
        # boundary excluded: rows are [1, 2, 3], [1, 1, 2], [1, 1, 2], [1, 2, 3]
        assert counts_within_open_balls(g, np.full(4, 2.0)).tolist() == [1, 2, 2, 1]

    def test_beyond_horizon(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        g = build_neighbor_graph(Dataset(pts), K=2)
        with pytest.raises(InsufficientGraphDepthError, match="point 0"):
            counts_within_open_balls(g, np.array([5.0, 0.5, 0.5]))

    def test_random_pairs_match_brute_force(self):
        rng = np.random.default_rng(6)
        for dim in (1, 2):
            pts = rng.normal(size=(60, dim))
            g = build_neighbor_graph(Dataset(pts), K=59)
            full = brute_force_distances(pts)
            for _ in range(3):
                radii = rng.uniform(0.01, 1.0, size=60) * g.distances[:, -1]
                # the centre (distance 0) is inside every ball but not counted
                expected = (full < radii[:, None]).sum(axis=1) - 1
                assert np.array_equal(counts_within_open_balls(g, radii), expected)
