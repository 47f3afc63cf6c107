import dataclasses
import inspect

import numpy as np
import pytest
from scipy import stats as scipy_stats

from idscale import datagen
from idscale.datagen import (
    GENERATOR_KINDS,
    MOEBIUS_BLOBS,
    GeneratorSpec,
    gen_density_step_1d,
    gen_moebius,
    gen_noisy_gaussian,
    gen_sine_toy,
    gen_uniform_hypercube_periodic,
    generate,
    moebius_embed,
    sample_moebius_base,
)
from idscale.errors import InvalidArgumentError


class TestDeterminism:
    @pytest.mark.parametrize("spec", [
        GeneratorSpec(kind="sine_toy", n=200, sigma_eps=0.025, seed=3),
        GeneratorSpec(kind="noisy_gaussian", n=200, d=2, ambient_dim=6, sigma_eps=1e-3, seed=3),
        GeneratorSpec(kind="moebius", n=200, ambient_dim=5, sigma_eps=1e-3, seed=3),
        GeneratorSpec(kind="uniform_hypercube_periodic", n=200, d=3, seed=3),
        GeneratorSpec(kind="density_step_1d", n=200, ratio=4.0, seed=3),
    ])
    def test_same_seed_same_points(self, spec):
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = gen_sine_toy(n=100, sigma_eps=0.025, seed=0)
        b = gen_sine_toy(n=100, sigma_eps=0.025, seed=1)
        assert not np.array_equal(a.points, b.points)


class TestSineToy:
    def test_shape_and_first_half_mean(self):
        ds = gen_sine_toy(n=1000, sigma_eps=0.025, seed=0)
        assert ds.points.shape == (1000, 2)
        # first clump of abscissas is centred at pi/2
        assert ds.points[:500, 0].mean() == pytest.approx(np.pi / 2, abs=0.15)

    def test_ordinates_track_sine(self):
        ds = gen_sine_toy(n=1000, sigma_eps=0.025, seed=1)
        resid = ds.points[:, 1] - np.sin(ds.points[:, 0])
        assert np.abs(resid).max() < 0.2
        assert resid.std() == pytest.approx(0.025, rel=0.2)


class TestNoisyGaussian:
    def test_noiseless_padding_is_zero(self):
        ds = gen_noisy_gaussian(n=300, d=2, ambient_dim=10, sigma_eps=0.0, seed=0)
        assert np.all(ds.points[:, 2:] == 0.0)

    def test_noise_coordinate_variance(self):
        sigma = 1e-3
        ds = gen_noisy_gaussian(n=5000, d=2, ambient_dim=10, sigma_eps=sigma, seed=1)
        var = ds.points[:, 7].var(ddof=1)
        assert sigma ** 2 * 0.9 <= var <= sigma ** 2 * 1.1

    def test_noise_commutes_with_generation(self):
        # adding the noise stream externally to the noiseless output must
        # reproduce the noisy output for the same seed
        n, dim, sigma = 400, 8, 1e-3
        clean = gen_noisy_gaussian(n=n, d=3, ambient_dim=dim, sigma_eps=0.0, seed=11)
        noisy = gen_noisy_gaussian(n=n, d=3, ambient_dim=dim, sigma_eps=sigma, seed=11)
        _, noise_rng = datagen._streams(11)
        noise = noise_rng.normal(0.0, 1.0, size=(n, dim)) * sigma
        assert np.allclose(clean.points + noise, noisy.points, atol=1e-15)

    def test_signal_exceeding_ambient_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gen_noisy_gaussian(n=100, d=5, ambient_dim=3)


class TestMoebius:
    def test_points_lie_on_the_strip(self):
        rng = np.random.default_rng(0)
        u, v, _ = sample_moebius_base(2000, rng)
        pts = moebius_embed(u, v)
        w = 1.0 + 0.5 * v * np.cos(0.5 * u)
        assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), np.abs(w), atol=1e-12)
        assert np.allclose(pts[:, 2], 0.5 * v * np.sin(0.5 * u), atol=1e-12)
        assert np.all(u >= 0) and np.all(u < 2 * np.pi)
        assert np.all(np.abs(v) <= 1.0)

    def test_generator_padding_and_noise(self):
        ds = gen_moebius(n=300, sigma_eps=0.0, ambient_dim=20, seed=2)
        assert ds.points.shape == (300, 20)
        assert np.all(ds.points[:, 3:] == 0.0)
        noisy = gen_moebius(n=300, sigma_eps=1e-3, ambient_dim=20, seed=2)
        delta = noisy.points - ds.points
        assert 0.0 < np.abs(delta).max() < 0.01

    def test_blob_membership_matches_weights(self):
        rng = np.random.default_rng(3)
        n = 20000
        _, _, comp = sample_moebius_base(n, rng)
        weights = np.array([MOEBIUS_BLOBS["background_weight"], *MOEBIUS_BLOBS["weights"]])
        weights = weights / weights.sum()
        counts = np.bincount(comp, minlength=len(weights))
        # each component count within 4 binomial standard deviations
        for c, w in zip(counts, weights):
            sd = np.sqrt(n * w * (1 - w))
            assert abs(c - n * w) < 4 * sd

    def test_ambient_too_small(self):
        with pytest.raises(InvalidArgumentError):
            gen_moebius(n=100, sigma_eps=1e-3, ambient_dim=2)


class TestHypercube:
    def test_range_and_periods(self):
        ds = gen_uniform_hypercube_periodic(n=500, d=4, seed=0)
        assert np.all(ds.points >= 0.0) and np.all(ds.points < 1.0)
        assert ds.is_periodic
        assert np.array_equal(ds.periods, np.ones(4))

    def test_coordinates_look_uniform(self):
        ds = gen_uniform_hypercube_periodic(n=2000, d=5, seed=0)
        p_values = [
            scipy_stats.kstest(ds.points[:, j], "uniform").pvalue for j in range(5)
        ]
        assert sum(p > 0.01 for p in p_values) >= 4


class TestDensityStep:
    def test_ratio_one_is_plain_uniform(self):
        ds = gen_density_step_1d(n=3000, ratio=1.0, seed=0)
        x = ds.points[:, 0]
        assert np.all((x >= 0) & (x < 2))
        assert scipy_stats.kstest(x / 2.0, "uniform").pvalue > 0.01

    def test_segment_occupancy_matches_ratio(self):
        n, ratio = 10000, 10.0
        ds = gen_density_step_1d(n=n, ratio=ratio, seed=1)
        right = np.sum(ds.points[:, 0] >= 1.0)
        p = ratio / (1.0 + ratio)
        sd = np.sqrt(n * p * (1 - p))
        assert abs(right - n * p) < 4 * sd

    def test_invalid_ratio(self):
        with pytest.raises(InvalidArgumentError):
            gen_density_step_1d(n=100, ratio=0.0)

    @pytest.mark.parametrize("ratio", [np.nan, np.inf])
    def test_non_finite_ratio(self, ratio):
        # a NaN or inf ratio would draw every point from [0, 1)
        with pytest.raises(InvalidArgumentError, match="ratio must be positive and finite"):
            gen_density_step_1d(n=100, ratio=ratio)


class TestGeneratorSpec:
    def test_unknown_kind(self):
        with pytest.raises(InvalidArgumentError):
            GeneratorSpec(kind="swiss_roll", n=100)

    def test_too_few_points(self):
        with pytest.raises(InvalidArgumentError):
            GeneratorSpec(kind="sine_toy", n=1)

    def test_negative_scale(self):
        with pytest.raises(InvalidArgumentError):
            GeneratorSpec(kind="sine_toy", n=100, sigma_eps=-0.1)

    @pytest.mark.parametrize("field", ["sigma_s", "sigma_eps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_scale(self, field, value):
        with pytest.raises(InvalidArgumentError, match="scales must be nonnegative and finite"):
            GeneratorSpec(kind="sine_toy", n=100, **{field: value})

    @pytest.mark.parametrize("fields", [
        {"kind": "noisy_gaussian", "d": -1, "ambient_dim": 3},
        {"kind": "noisy_gaussian", "d": 1, "ambient_dim": -3},
        {"kind": "uniform_hypercube_periodic", "d": -2},
    ], ids=["d", "ambient_dim", "torus d"])
    def test_negative_dimension(self, fields):
        with pytest.raises(InvalidArgumentError, match="d and ambient_dim must be nonnegative"):
            GeneratorSpec(n=20, **fields)

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_generator_defaults_are_the_spec_defaults(self, kind):
        # a default of its own would let gen_<kind> and the CLI's spec disagree
        spec = {f.name: f.default for f in dataclasses.fields(GeneratorSpec)}
        params = inspect.signature(getattr(datagen, "gen_" + kind)).parameters.values()
        for param in params:
            if param.default is not inspect.Parameter.empty:
                assert param.default == spec[param.name], param.name
