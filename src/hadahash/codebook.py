"""Orthogonal, balanced class codebooks built from Hadamard matrices.

Every codeword is the sign of one row of H @ P, where H is the Sylvester
Hadamard matrix of the selected order and P maps that order down to the
code length K. When the order equals K, P is the identity, so codewords are
distinct rows (equivalently columns) of H: exactly orthogonal and exactly
zero-sum. Otherwise P is a seeded Gaussian projection and sign thresholding
keeps the codewords nearly orthogonal at a small cost in exactness.

H @ P is computed by the fast Walsh-Hadamard transform, log2(order)
butterfly passes over an order x K array, so H itself is never built;
`sylvester` is the dense reference the transform is checked against.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .io import (FileFormatError, check_end, read_array, read_header,
                 write_array, write_header)
from .rng import make_rng, standard_normal

CODEBOOK_MAGIC = b"HCCB"
CODEBOOK_VERSION = 1
# Class count, code length, seed, provenance tag.
CODEBOOK_HEADER = "IIQB"

_PROVENANCE_TO_TAG = {"direct": 0, "projected": 1}
_TAG_TO_PROVENANCE = {tag: name for name, tag in _PROVENANCE_TO_TAG.items()}

_MAX_SEED = 2**64 - 1


def sylvester(order: int) -> np.ndarray:
    """Hadamard matrix of a power-of-two order by repeated doubling.

    Returns an order x order integer matrix H with entries in {-1, +1}
    satisfying H @ H.T == order * I, with the first row and column all +1.
    """
    if order < 1 or order & (order - 1) != 0:
        raise ValueError(f"order must be a positive power of two, got {order}")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


def select_order(code_bits: int, num_classes: int) -> int:
    """Smallest power of two that is >= code_bits and >= num_classes + 1.

    The margin of one over the class count keeps enough candidates after
    the all-ones row/column (index 0) is excluded from selection.
    """
    if code_bits < 1:
        raise ValueError(f"code_bits must be >= 1, got {code_bits}")
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    order = 1
    while order < code_bits or order < num_classes + 1:
        order *= 2
    return order


@dataclass(frozen=True)
class ProjectionMatrix:
    """Gaussian projection from matrix order down to code length."""

    values: np.ndarray  # (rows, cols) float64, i.i.d. standard normal
    seed: int


def sample_projection(order: int, code_bits: int, seed: int) -> ProjectionMatrix:
    """Draw an order x code_bits standard normal projection matrix.

    Deterministic given the seed; entries come from Box-Muller over PCG64.
    """
    if order <= code_bits:
        raise ValueError(
            f"projection requires order > code_bits, got {order} <= {code_bits}")
    rng = make_rng(seed)
    values = standard_normal(rng, (order, code_bits))
    return ProjectionMatrix(values=values, seed=seed)


def hadamard_transform(values: np.ndarray) -> np.ndarray:
    """H @ values for the Sylvester matrix H of order values.shape[0].

    Runs log2(order) butterfly passes (a, b) -> (a + b, a - b) over a
    float64 copy of `values`, so H is never materialised.
    """
    out = np.array(values, dtype=np.float64, order="C")
    order = out.shape[0]
    if order < 1 or order & (order - 1) != 0:
        raise ValueError(
            f"row count must be a positive power of two, got {order}")
    half = 1
    while half < order:
        pairs = out.reshape(order // (2 * half), 2, half, -1)
        top = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(top, pairs[:, 1], out=pairs[:, 1])
        half *= 2
    return out


@dataclass(frozen=True)
class Codebook:
    """One distinct codeword of +-1 bits per class.

    Two classes that shared a codeword would share a training target, and
    retrieval could not tell them apart, so a repeated codeword is a
    ValueError.
    """

    codewords: np.ndarray  # (C, K) int8 in {-1, +1}
    provenance: str        # "direct" or "projected"
    seed: int
    selected_indices: Optional[np.ndarray]  # source row/column indices, never 0

    def __post_init__(self):
        distinct = np.unique(np.packbits(self.codewords > 0, axis=1), axis=0)
        if distinct.shape[0] < self.num_classes:
            raise ValueError(
                f"only {distinct.shape[0]} distinct codewords for "
                f"{self.num_classes} classes in {self.code_bits} bits")

    @property
    def num_classes(self) -> int:
        return self.codewords.shape[0]

    @property
    def code_bits(self) -> int:
        return self.codewords.shape[1]


def build_codebook(code_bits: int, num_classes: int, seed: int) -> Codebook:
    """Generate the class codebook for a given code length and class count.

    When the selected matrix order equals the code length, codewords are
    distinct rows of the Hadamard matrix (excluding row 0), so they are
    exactly orthogonal and zero-sum. Otherwise codewords are distinct rows
    of the sign-thresholded Gaussian projection (excluding row 0).
    Selection is uniform without replacement from the seeded generator.
    Distinct rows can still threshold to the same codeword when K is small
    against C, which `Codebook` rejects.
    """
    if code_bits < 2:
        raise ValueError(f"code_bits must be >= 2, got {code_bits}")
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")

    order = select_order(code_bits, num_classes)
    rng = make_rng(seed)
    if order == code_bits:
        projection = np.eye(code_bits)
        provenance = "direct"
    else:
        projection = sample_projection(order, code_bits, seed).values
        provenance = "projected"

    indices = rng.choice(np.arange(1, order), size=num_classes, replace=False)
    pool = hadamard_transform(projection)
    codewords = np.where(pool[indices] >= 0.0, 1, -1).astype(np.int8)
    try:
        return Codebook(codewords=codewords, provenance=provenance, seed=seed,
                        selected_indices=indices)
    except ValueError as err:
        raise ValueError(f"{err}; use more bits") from None


def target_batch(codebook: Codebook, labels: np.ndarray):
    """Vectorized targets for a whole label matrix.

    Each row is the element-wise sign of the codeword sum over its positive
    classes; bits whose sum cancels to zero are masked out, so a single
    label gives its class's codeword with a full mask. Returns (values,
    mask) with shapes (N, K) float64 and (N, K) bool.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != codebook.num_classes:
        raise ValueError(
            f"label matrix has shape {y.shape}, expected (N, {codebook.num_classes})")
    if np.any(y.sum(axis=1) == 0):
        raise ValueError("every label row needs at least one positive entry")
    # The sums are integers of magnitude at most C, exact in float64, where
    # the product runs through BLAS; an int64 product does not.
    summed = y @ codebook.codewords.astype(np.float64)
    return np.sign(summed), summed != 0


def save_codebook(codebook: Codebook, path) -> None:
    with open(path, "wb") as f:
        write_header(f, CODEBOOK_MAGIC, CODEBOOK_VERSION, CODEBOOK_HEADER,
                     codebook.num_classes, codebook.code_bits, codebook.seed,
                     _PROVENANCE_TO_TAG[codebook.provenance])
        write_array(f, codebook.codewords, np.int8)


def load_codebook(path) -> Codebook:
    """Read a codebook file; the source indices are not stored on disk.

    Codebooks come only from `build_codebook`, so the header's code length,
    class count and seed must rebuild the file's codewords and provenance:
    any other file, or a header that rebuilds nothing, is a FileFormatError
    naming the file. The rebuild holds one order x K float64 pool, as
    `build_codebook` does.
    """
    with open(path, "rb") as f:
        num_classes, code_bits, seed, tag = read_header(
            f, CODEBOOK_MAGIC, CODEBOOK_VERSION, CODEBOOK_HEADER)
        if tag not in _TAG_TO_PROVENANCE:
            raise FileFormatError(f"{path}: unknown provenance tag {tag}")
        entries = read_array(f, np.int8, num_classes * code_bits, "codewords")
        check_end(f)
    if not np.all(np.abs(entries) == 1):
        raise FileFormatError(f"{path}: codeword entries must be -1 or +1")
    codewords = entries.reshape(num_classes, code_bits)
    try:
        book = Codebook(codewords=codewords,
                        provenance=_TAG_TO_PROVENANCE[tag], seed=seed,
                        selected_indices=None)
    except ValueError as err:
        raise ValueError(f"{path}: repeated codeword: {err}") from None
    spec = f"{num_classes} classes in {code_bits} bits at seed {seed}"
    try:
        built = build_codebook(code_bits, num_classes, seed)
    except ValueError as err:
        raise FileFormatError(f"{path}: no codebook of {spec}: "
                              f"{err}") from None
    if (built.provenance != book.provenance
            or not np.array_equal(built.codewords, codewords)):
        raise FileFormatError(f"{path}: not the codebook of {spec}")
    return book
