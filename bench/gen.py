"""Seeded synthetic inputs for the benchmark, written as HCFS/HCLS files.

Class centres lie in the first `informative` feature dimensions only;
every item is the sum of its classes' centres plus unit noise there, and
the remaining dimensions hold class-free noise of scale `nuisance`. The
centres come from a fixed stream, so every seed poses a problem of the same
difficulty; the seed draws the items, their labels and their noise.
`separation` is the standard deviation of the centres relative to the
unit noise, so it sets how much classes overlap: small values make
neighbouring classes share items near their boundary, which keeps the
trained codes' mAP below 1. Nuisance dimensions carry most of the variance,
so random hyperplanes (the LSH baseline) spend most of their bits on them
while a trained hash layer can learn to ignore them.

The files are written here rather than with the program's own writers, so
the program receives nothing but the generated bytes.
"""

import struct
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DataSpec:
    classes: int
    items: int
    dim: int
    informative: int
    separation: float
    nuisance: float
    max_labels: int = 1  # labels per item drawn uniformly from 1..max_labels


def generate(spec: DataSpec, seed: int):
    """Return (features (N, D) float32, labels (N, C) uint8) for a seed.

    Single-label data gets exactly items / classes items per class, in a
    shuffled order. Multi-label items pick 1..max_labels distinct classes.
    """
    if spec.items % spec.classes and spec.max_labels == 1:
        raise ValueError("single-label items must divide evenly into classes")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4844]))
    fixed = np.random.default_rng(np.random.SeedSequence(0x4844))
    n, c = spec.items, spec.classes
    labels = np.zeros((n, c), dtype=np.uint8)
    if spec.max_labels == 1:
        classes = rng.permutation(np.repeat(np.arange(c), n // c))
        labels[np.arange(n), classes] = 1
    else:
        counts = rng.integers(1, spec.max_labels + 1, size=n)
        ranks = rng.random((n, c)).argsort(axis=1)
        keep = np.arange(c)[None, :] < counts[:, None]
        labels[np.nonzero(keep)[0], ranks[keep]] = 1
    centres = fixed.standard_normal((c, spec.informative))
    if c <= spec.informative:
        # Orthogonal centres of equal norm put every pair of classes at the
        # same distance, so all classes overlap alike.
        centres = np.linalg.qr(centres.T)[0].T * np.sqrt(spec.informative)
    centres *= spec.separation
    features = np.empty((n, spec.dim), dtype=np.float64)
    features[:, :spec.informative] = (labels @ centres
                                      + rng.standard_normal((n, spec.informative)))
    features[:, spec.informative:] = (
        rng.standard_normal((n, spec.dim - spec.informative)) * spec.nuisance)
    return features.astype(np.float32), labels


def write_features(values: np.ndarray, path) -> None:
    """HCFS: magic, u32 version 1, u32 rows, u32 cols, little-endian f4."""
    n, d = values.shape
    with open(path, "wb") as f:
        f.write(b"HCFS" + struct.pack("<III", 1, n, d))
        f.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def write_labels(values: np.ndarray, path) -> None:
    """HCLS: magic, u32 version 1, u32 rows, u32 classes, u8 entries."""
    n, c = values.shape
    with open(path, "wb") as f:
        f.write(b"HCLS" + struct.pack("<III", 1, n, c))
        f.write(np.ascontiguousarray(values, dtype=np.uint8).tobytes())
