import tracemalloc

import numpy as np
import pytest

from hadahash.rng import make_rng, standard_normal


def _box_muller_reference(rng, shape):
    """The expression standard_normal used before it worked in place."""
    n = int(np.prod(shape))
    half = (n + 1) // 2
    u1 = 1.0 - rng.random(half)  # (0, 1] keeps the log finite
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                        radius * np.sin(2.0 * np.pi * u2)])
    return z[:n].reshape(shape)


@pytest.mark.parametrize("shape", [(1,), (3,), (7, 5), (64, 16), (1000, 33)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_standard_normal_matches_reference_bytes(shape, seed):
    z = standard_normal(make_rng(seed), shape)
    expected = _box_muller_reference(make_rng(seed), shape)
    assert z.shape == expected.shape
    assert z.dtype == expected.dtype
    assert z.tobytes() == expected.tobytes()


def test_standard_normal_peak_memory_is_about_its_output():
    tracemalloc.start()
    try:
        z = standard_normal(make_rng(0), (2 ** 20,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * z.nbytes
