"""Seeded random number generation used by every sampling site in the package.

All randomness flows through a single 64-bit seedable generator (numpy's
PCG64). Gaussian draws are produced by the Box-Muller transform over that
generator's uniforms, so the sampling algorithm is fixed and documented
rather than tied to numpy's internal normal sampler.
"""

import numpy as np


def make_rng(*seed_parts: int) -> np.random.Generator:
    """Build a PCG64 generator from one or more non-negative integers.

    Passing several parts (e.g. a base seed and an epoch number) derives an
    independent stream per combination.
    """
    for part in seed_parts:
        if part < 0:
            raise ValueError(f"seed parts must be non-negative, got {part}")
    entropy = seed_parts[0] if len(seed_parts) == 1 else list(seed_parts)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws via Box-Muller over the generator's uniforms.

    Draws pairs z0 = r*cos(2*pi*u2), z1 = r*sin(2*pi*u2) with
    r = sqrt(-2*ln(u1)), u1 in (0, 1], and lays them out cos-block first.
    """
    n = int(np.prod(shape))
    half = (n + 1) // 2
    # Each step works in place, so the peak is the output plus two halves.
    radius = rng.random(half)
    np.subtract(1.0, radius, out=radius)  # (0, 1] keeps the log finite
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = rng.random(half)
    angle *= 2.0 * np.pi
    z = np.empty(2 * half)
    np.cos(angle, out=z[:half])
    np.sin(angle, out=z[half:])
    z[:half] *= radius
    z[half:] *= radius
    return z[:n].reshape(shape)
