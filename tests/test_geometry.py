from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idscale import datagen, geometry
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


def rows_stable_sort(ds, K):
    """The first K columns of a full stable sort of the all-pairs rows from
    ``pairwise_distances``, self excluded, and their distances."""
    full = pairwise_distances(ds.points, ds.points, ds.periods)
    np.fill_diagonal(full, np.inf)
    order = np.argsort(full, axis=1, kind="stable")[:, :K]
    return order, np.take_along_axis(full, order, axis=1)


def assert_graph_is_stable_sort(ds, K):
    g = build_neighbor_graph(ds, K=K)
    order, dist = rows_stable_sort(ds, K)
    assert np.array_equal(g.indices, order)
    assert np.array_equal(g.distances, dist)


def with_metric(pts, periodic, period=100.0):
    return Dataset(pts, np.full(pts.shape[1], period) if periodic else None)


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

    def test_tiny_negative_coordinate_wraps_to_zero(self):
        # np.mod(-1e-20, 1.0) rounds to 1.0, the same torus point as 0.0
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(300, 2))
        pts[0], pts[1] = (0.0, 0.5), (-1e-20, 0.5)
        ds = Dataset(pts, periods=np.ones(2))
        assert ds.points.max() < 1.0
        assert np.array_equal(ds.points[0], ds.points[1])
        distinct = geometry.deduplicate(ds)
        assert distinct.n == 299
        assert np.isfinite(twonn_estimate(build_neighbor_graph(distinct, 2)).d)

    def test_bad_periods(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.array([[0.1], [0.2]]), periods=np.array([0.0]))


def unique_rows_oracle(points):
    """The first occurrence of each distinct row, in the original order,
    by ``np.unique(axis=0)``."""
    _, first = np.unique(points, axis=0, return_index=True)
    return points[np.sort(first)]


class TestDeduplicate:
    @pytest.mark.parametrize("periodic", [False, True])
    def test_duplicate_heavy_integers_match_unique_rows(self, periodic):
        pts = np.random.default_rng(5).integers(0, 4, size=(500, 3)).astype(np.float64)
        ds = with_metric(pts, periodic, period=4.0)
        distinct = geometry.deduplicate(ds)
        assert np.array_equal(distinct.points, unique_rows_oracle(ds.points))
        assert distinct.n == 64

    def test_negative_zero_equals_zero(self):
        pts = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, -0.0], [2.0, 0.0], [-0.0, -0.0]])
        distinct = geometry.deduplicate(Dataset(pts))
        assert np.array_equal(distinct.points, [[0.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
        assert np.signbit(distinct.points[1, 1])

    def test_periodic_point_wrapped_from_below_zero(self):
        pts = np.array([[0.25, 0.0], [0.25, -1e-20], [0.5, 0.5]])
        distinct = geometry.deduplicate(Dataset(pts, periods=np.ones(2)))
        assert np.array_equal(distinct.points, [[0.25, 0.0], [0.5, 0.5]])

    def test_distinct_points_return_the_dataset(self):
        ds = Dataset(np.random.default_rng(6).normal(size=(50, 3)))
        assert geometry.deduplicate(ds) is ds

    @pytest.mark.parametrize("rows", [slice(50), np.r_[0:50, 0:5]], ids=["distinct", "duplicated"])
    def test_results_hold_only_their_fields(self, rows):
        ds = Dataset(np.random.default_rng(7).uniform(size=(50, 2))[rows], periods=np.ones(2))
        for out in (geometry.deduplicate(ds), build_neighbor_graph(ds, K=3).dataset, ds):
            assert set(vars(out)) == {"points", "periods"}


class TestBuildNeighborGraph:
    @pytest.mark.parametrize("K", [2.0, 2.5, np.float64(2.0), True],
                             ids=["2.0", "2.5", "float64-2.0", "True"])
    def test_depth_must_be_an_integer(self, K):
        ds = datagen.gen_uniform_hypercube_periodic(n=20, d=2, seed=0)
        with pytest.raises(InvalidArgumentError, match="K must be an integer"):
            build_neighbor_graph(ds, K=K)

    def test_collinear_hand_geometry(self):
        g = build_neighbor_graph(Dataset(np.array([[0.0], [1.0], [3.0]])), K=2)
        assert np.allclose(g.distances, [[1, 3], [1, 2], [2, 3]])
        assert g.indices.tolist() == [[1, 2], [0, 2], [1, 0]]

    @pytest.mark.parametrize("periods", [None, np.ones(2)], ids=["euclidean", "periodic"])
    def test_indices_are_int32(self, periods):
        pts = np.random.default_rng(2).uniform(size=(300, 2))
        assert build_neighbor_graph(Dataset(pts, periods), K=40).indices.dtype == np.int32

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

    def test_duplicates_removed(self, caplog):
        pts = np.array([[0.0], [0.0], [1.0], [2.0]])
        with caplog.at_level("INFO", logger="idscale.geometry"):
            g = build_neighbor_graph(Dataset(pts), K=2)
        assert "removed 1 duplicate points" in caplog.text
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

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("power", [-540, 520, 1000])
    def test_power_of_two_scales_are_exact(self, periodic, power):
        # at 2^-540 the squared differences would underflow and at 2^520
        # overflow; the graph scales the coordinates to below 1 first
        pts = np.random.default_rng(3).normal(size=(120, 4))
        g1 = build_neighbor_graph(with_metric(pts, periodic, period=16.0), K=10)
        scaled = with_metric(np.ldexp(pts, power), periodic, period=np.ldexp(16.0, power))
        g2 = build_neighbor_graph(scaled, K=10)
        assert np.array_equal(g1.indices, g2.indices)
        assert np.array_equal(np.ldexp(g1.distances, power), g2.distances)
        assert np.array_equal(g2.dataset.points, scaled.points)

    def test_distances_beyond_the_double_range(self):
        ds = Dataset(np.array([[-1e308], [1e308], [0.0]]))
        assert np.all(build_neighbor_graph(ds, K=1).distances == 1e308)
        with pytest.raises(DegenerateDatasetError, match="double range"):
            build_neighbor_graph(ds, K=2)

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
    @pytest.mark.parametrize("K", [17, 100, 299])
    def test_continuous_cloud_bit_exact(self, periodic, K):
        # n = 300 spans several blocks of the default size; the all-pairs
        # rows come from the same distance function, so the graph must
        # equal their full stable sort to the bit, indices and distances
        rng = np.random.default_rng(21)
        ds = Dataset(rng.uniform(size=(300, 3)), np.ones(3) if periodic else None)
        assert ds.n > 2 * geometry._BLOCK_ROWS
        assert_graph_is_stable_sort(ds, K)

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("ulps", [1, 4])
    @pytest.mark.parametrize("K", [1, 2, 4])
    def test_near_ties_favour_the_smaller_index(self, periodic, ulps, K):
        # point 1 lies a few ulps farther from point 0 than point 2 does, so
        # both distances agree above the 3 column bits of n = 5 and the
        # smaller column must not win; K = 1 puts the pair on the K/(K+1)
        # boundary, K = 2 and K = 4 = n - 1 keep both
        pts = np.array([[0.0], [1.0 + ulps * 2.0**-52], [1.0], [5.0], [9.0]])
        ds = with_metric(pts, periodic)
        d = pairwise_distances(ds.points[:1], ds.points[1:3], ds.periods)[0]
        high = d.view(np.uint64) >> np.uint64(3)
        assert d[0] > d[1] and high[0] == high[1]
        assert_graph_is_stable_sort(ds, K)
        assert build_neighbor_graph(ds, K=K).indices[0, 0] == 2

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("n", [64, 65])
    def test_column_field_width(self, periodic, n):
        # n - 1 fills the 6 column bits at n = 64 and needs a 7th at n = 65
        rng = np.random.default_rng(n)
        ds = with_metric(rng.uniform(size=(n, 2)), periodic, period=1.0)
        for K in (1, n // 2, n - 1):
            assert_graph_is_stable_sort(ds, K)

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("K", [1, 2, 4])
    def test_distances_that_underflow_to_zero(self, periodic, K):
        # (1e-170)^2 underflows, so distinct points sit at distance 0
        pts = np.array([[0.0], [1e-170], [2e-170], [1.0], [2.5]])
        ds = with_metric(pts, periodic, period=10.0)
        assert geometry.deduplicate(ds).n == 5
        assert pairwise_distances(ds.points[:1], ds.points[1:3], ds.periods).max() == 0.0
        assert_graph_is_stable_sort(ds, K)

    @pytest.mark.parametrize("spec", [
        datagen.GeneratorSpec(kind="uniform_hypercube_periodic", n=400, d=5),
        datagen.GeneratorSpec(kind="moebius", n=400, ambient_dim=20, sigma_eps=1e-3),
        datagen.GeneratorSpec(kind="noisy_gaussian", n=400, d=2, ambient_dim=20, sigma_eps=1e-3),
    ], ids=lambda spec: spec.kind)
    def test_continuous_data_takes_no_fallback(self, spec):
        # the full stable sort is only for exact and near ties; the
        # benchmark's kinds of data should never need it
        ds = geometry.deduplicate(datagen.generate(spec))
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            build_neighbor_graph(ds, K=351)
        assert not [c for c in spy.call_args_list if c.kwargs.get("kind") == "stable"]

    @pytest.mark.parametrize("case", ["lattice", "periodic_lattice", "integer_d64"])
    def test_exact_ties_take_no_fallback(self, case):
        # every row ties exactly, at the K-th/(K+1)-th boundary too, and the
        # packed keys already put equal distances in column order
        ds = {
            "lattice": lambda: integer_lattice(40, 2, False),
            "periodic_lattice": lambda: integer_lattice(40, 2, True),
            "integer_d64": lambda: geometry.deduplicate(Dataset(
                np.random.default_rng(22).integers(0, 17, size=(800, 64)).astype(np.float64))),
        }[case]()
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            assert_graph_is_stable_sort(ds, 351)
        # the oracle's own stable sort is the only one
        assert len([c for c in spy.call_args_list if c.kwargs.get("kind") == "stable"]) == 1

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("K", [1, 2])
    def test_boundary_tie_group_with_nearer_member_past_the_kept_keys(self, periodic, K):
        # from point 0: the K-th and (K+1)-th keys are the exact ties at
        # distance e (columns 2 and 3), and point 6, the largest column, is
        # 1 ulp nearer, so its key sorts after both and only a scan of the
        # row finds it
        e = 1.0 + 2.0**-51
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [e, 0.0], [0.0, e], [5.0, 0.0], [0.0, 9.0],
                        [0.0, e - 2.0**-52]])
        if K == 1:
            pts[1] = [7.0, 7.0]
        ds = with_metric(pts, periodic, period=20.0)
        d = pairwise_distances(ds.points[:1], ds.points, ds.periods)[0]
        high = d.view(np.uint64) >> np.uint64(3)
        assert d[2] == d[3] > d[6] and high[2] == high[3] == high[6]
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            g = build_neighbor_graph(ds, K=K)
        assert [c for c in spy.call_args_list if c.kwargs.get("kind") == "stable"]
        assert g.indices[0, K - 1] == 6
        assert_graph_is_stable_sort(ds, K)

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

    @staticmethod
    def graph_of(distances):
        """A graph holding the given sorted rows (indices are not read)."""
        n = distances.shape[0]
        return geometry.NeighborGraph(distances, np.zeros(distances.shape, dtype=np.int32),
                                      Dataset(np.zeros((n, 1))))

    @pytest.mark.parametrize("depth", [1, 2, 255, 256, 351])
    def test_bisection_matches_the_dense_count(self, depth):
        rng = np.random.default_rng(depth)
        n = 40
        # runs of tied distances: values on a coarse grid
        distances = np.sort(rng.integers(1, 12, size=(n, depth)) / 4.0, axis=1)
        g = self.graph_of(distances)
        last = distances[:, -1]
        stored = distances[np.arange(n), rng.integers(depth, size=n)]
        cases = {
            "uniform": rng.uniform(0.0, 1.0, size=n) * last,
            "stored": stored,
            "last": last,
            "just_above_stored": np.minimum(np.nextafter(stored, np.inf), last),
            "zero": np.zeros(n),
            "negative": -rng.uniform(0.1, 1.0, size=n),
            "nan": np.full(n, np.nan),
            "mixed": np.where(np.arange(n) % 3 == 0, np.nan, np.where(np.arange(n) % 3 == 1, -1.0, stored)),
        }
        for name, radii in cases.items():
            expected = (distances < radii[:, None]).sum(axis=1)
            got = counts_within_open_balls(g, radii)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected, err_msg=name)

    @pytest.mark.parametrize("depth", [1, 2, 255, 256, 351])
    def test_beyond_horizon_at_any_depth(self, depth):
        distances = np.tile(np.arange(1.0, depth + 1.0), (5, 1))
        radii = np.full(5, float(depth))
        radii[3] = np.nextafter(float(depth), np.inf)
        with pytest.raises(InsufficientGraphDepthError, match="point 3"):
            counts_within_open_balls(self.graph_of(distances), radii)

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
