"""Seeded synthetic benchmark generators.

Every generator is a pure function of its parameters and the seed.  Seeds
are split into independent sub-streams (manifold sampling first, additive
noise second), so the noiseless output plus externally drawn noise equals
the noisy output for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, require_integer
from .geometry import Dataset

@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    d: int = 0
    ambient_dim: int = 0
    sigma_s: float = 1.0
    sigma_eps: float = 0.0
    ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise InvalidArgumentError(f"unknown generator kind {self.kind!r}")
        for name in ("n", "d", "ambient_dim", "seed"):
            require_integer(name, getattr(self, name))
        if self.n < 2:
            raise InvalidArgumentError("need n >= 2")
        if self.d < 0 or self.ambient_dim < 0:
            raise InvalidArgumentError("d and ambient_dim must be nonnegative")
        # in positive form, so that NaN fails it
        if not (0.0 <= self.sigma_eps < np.inf and 0.0 <= self.sigma_s < np.inf):
            raise InvalidArgumentError("scales must be nonnegative and finite")


def _streams(seed: int):
    base, noise = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(base), np.random.default_rng(noise)


def gen_sine_toy(n: int, sigma_eps: float, seed: int = 0) -> Dataset:
    """Two Gaussian clumps of abscissas pushed through y = sin(x) plus noise.

    Half the abscissas come from N(pi/2, 1), half from N(5*pi/3, 0.5^2);
    the ordinates are sin(x) + N(0, sigma_eps^2).
    """
    rng, noise_rng = _streams(seed)
    n1 = n // 2
    x = np.concatenate([
        rng.normal(np.pi / 2, 1.0, size=n1),
        rng.normal(5 * np.pi / 3, 0.5, size=n - n1),
    ])
    y = np.sin(x) + noise_rng.normal(0.0, 1.0, size=n) * sigma_eps
    return Dataset(np.column_stack([x, y]))


def gen_noisy_gaussian(
    n: int, d: int, ambient_dim: int, sigma_s: float = 1.0,
    sigma_eps: float = 0.0, seed: int = 0,
) -> Dataset:
    """d-dimensional isotropic Gaussian signal embedded in ``ambient_dim``
    coordinates, with iid Gaussian noise added to every coordinate."""
    if d > ambient_dim:
        raise InvalidArgumentError(f"d={d} exceeds ambient dimension {ambient_dim}")
    if sigma_eps == 0 and (d == 0 or sigma_s == 0):
        raise InvalidArgumentError(
            "noisy_gaussian has no spread: every point would be the origin; "
            "set d > 0 and sigma_s > 0, or sigma_eps > 0"
        )
    rng, noise_rng = _streams(seed)
    pts = np.zeros((n, ambient_dim))
    pts[:, :d] = rng.normal(0.0, 1.0, size=(n, d)) * sigma_s
    pts += noise_rng.normal(0.0, 1.0, size=(n, ambient_dim)) * sigma_eps
    return Dataset(pts)


# Base 2-d distribution for the twisted-strip benchmark: a uniform
# background on [0, 2pi) x [-1, 1] plus eight Gaussian blobs of distinct
# means and spreads.  Weights sum to 1 with 0.3 on the background.
MOEBIUS_BLOBS = {
    "background_weight": 0.3,
    "centers": [
        (0.8, -0.55), (1.6, 0.40), (2.4, -0.15), (3.1, 0.65),
        (3.9, -0.70), (4.7, 0.10), (5.4, 0.55), (6.0, -0.35),
    ],
    "sigmas": [
        (0.25, 0.10), (0.15, 0.06), (0.35, 0.14), (0.20, 0.05),
        (0.30, 0.08), (0.12, 0.12), (0.22, 0.07), (0.18, 0.09),
    ],
    "weights": [0.0875] * 8,
}


def moebius_embed(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Standard half-twist strip parametrization of (u, v) into 3-space."""
    w = 1.0 + 0.5 * v * np.cos(0.5 * u)
    return np.column_stack([w * np.cos(u), w * np.sin(u), 0.5 * v * np.sin(0.5 * u)])


def sample_moebius_base(n: int, rng: np.random.Generator):
    """Draw (u, v, component) from the inhomogeneous base distribution.

    Component 0 is the uniform background; components 1..8 are the blobs.
    Blob draws are wrapped in u and redrawn until v lands in [-1, 1].
    """
    cfg = MOEBIUS_BLOBS
    weights = np.array([cfg["background_weight"], *cfg["weights"]], dtype=np.float64)
    weights = weights / weights.sum()
    comp = rng.choice(len(weights), size=n, p=weights)
    u = np.empty(n)
    v = np.empty(n)
    bg = comp == 0
    u[bg] = rng.uniform(0.0, 2 * np.pi, size=int(bg.sum()))
    v[bg] = rng.uniform(-1.0, 1.0, size=int(bg.sum()))
    for b, ((cu, cv), (su, sv)) in enumerate(zip(cfg["centers"], cfg["sigmas"]), start=1):
        sel = np.flatnonzero(comp == b)
        if sel.size == 0:
            continue
        u[sel] = np.mod(rng.normal(cu, su, size=sel.size), 2 * np.pi)
        vv = rng.normal(cv, sv, size=sel.size)
        out = np.abs(vv) > 1.0
        while np.any(out):
            vv[out] = rng.normal(cv, sv, size=int(out.sum()))
            out = np.abs(vv) > 1.0
        v[sel] = vv
    return u, v, comp


def gen_moebius(n: int, sigma_eps: float, ambient_dim: int, seed: int = 0) -> Dataset:
    """Inhomogeneous 2-d sample wrapped on a half-twist strip, zero-padded
    to ``ambient_dim`` coordinates, with iid Gaussian noise on all of them."""
    if ambient_dim < 3:
        raise InvalidArgumentError("ambient dimension must be >= 3")
    rng, noise_rng = _streams(seed)
    u, v, _ = sample_moebius_base(n, rng)
    pts = np.zeros((n, ambient_dim))
    pts[:, :3] = moebius_embed(u, v)
    pts += noise_rng.normal(0.0, 1.0, size=(n, ambient_dim)) * sigma_eps
    return Dataset(pts)


def gen_uniform_hypercube_periodic(n: int, d: int, seed: int = 0) -> Dataset:
    """Uniform sample on the unit d-torus (periodic metric, period 1)."""
    rng, _ = _streams(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, d))
    return Dataset(pts, periods=np.ones(d))


def gen_density_step_1d(n: int, ratio: float, seed: int = 0) -> Dataset:
    """1-d sample from two abutting uniform segments, [0,1) and [1,2),
    with density ratio ``ratio`` between them."""
    if not 0.0 < ratio < np.inf:
        raise InvalidArgumentError(f"ratio must be positive and finite, got {ratio}")
    rng, _ = _streams(seed)
    p_right = ratio / (1.0 + ratio)
    right = rng.random(n) < p_right
    x = rng.uniform(0.0, 1.0, size=n) + right.astype(np.float64)
    return Dataset(x[:, None])


# kind -> (generator, the GeneratorSpec fields it takes, in argument order)
GENERATORS = {
    "sine_toy": (gen_sine_toy, ("n", "sigma_eps")),
    "noisy_gaussian": (gen_noisy_gaussian, ("n", "d", "ambient_dim", "sigma_s", "sigma_eps")),
    "moebius": (gen_moebius, ("n", "sigma_eps", "ambient_dim")),
    "uniform_hypercube_periodic": (gen_uniform_hypercube_periodic, ("n", "d")),
    "density_step_1d": (gen_density_step_1d, ("n", "ratio")),
}
GENERATOR_KINDS = tuple(GENERATORS)


def generate(spec: GeneratorSpec) -> Dataset:
    """Materialize any generator spec."""
    gen, fields = GENERATORS[spec.kind]
    return gen(*(getattr(spec, name) for name in fields), seed=spec.seed)
