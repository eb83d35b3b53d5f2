"""Feature/label ingestion, synthetic blob generation, and the split protocol."""

import warnings
from dataclasses import dataclass

import numpy as np

from .io import check_end, read_array, read_header, write_array, write_header
from .rng import make_rng, standard_normal

FEATURES_MAGIC = b"HCFS"
LABELS_MAGIC = b"HCLS"
FORMAT_VERSION = 1
# Both formats: item count, then feature dim or class count.
MATRIX_HEADER = "II"

_TEXT_EXTENSIONS = (".csv", ".txt")

# Candidates whose labels `split_protocol` ranks at a time. The scan stops
# once every quota is full, on scan-large (100k x 32 labels) after roughly
# 12k candidates: finding the labels of all 100k items alone takes 9 ms
# through `np.nonzero` and 2.3 ms through a flat bool `np.flatnonzero`,
# against 1.9 ms for the whole chunked split (2-core VM). 1024 was fastest
# of 256 to 4096 on all three bench workloads.
_SPLIT_CHUNK = 1024

# Matrix entries the feature and label checks test at a time. The checks
# hold at most two bools per entry of one block, or a maximum and an index
# per row of it, about 130 KB, whatever the row count.
_CHECK_BLOCK_ENTRIES = 1 << 16


def _row_blocks(values: np.ndarray):
    """The row blocks of `values`, about `_CHECK_BLOCK_ENTRIES` entries
    each; none for a matrix without rows."""
    rows = max(1, _CHECK_BLOCK_ENTRIES // max(1, values.shape[1]))
    return (values[lo:lo + rows] for lo in range(0, values.shape[0], rows))


@dataclass(frozen=True)
class FeatureSet:
    """N x D real feature matrix, 32-bit, all values finite."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.values.shape}")
        if self.values.shape[1] < 1:
            raise ValueError("features need at least one column")
        if not all(np.isfinite(block).all()
                   for block in _row_blocks(self.values)):
            raise ValueError("features contain non-finite values")

    @property
    def num_items(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelSet:
    """N x C binary label matrix; every row carries at least one class."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"labels must be 2-D, got shape {self.values.shape}")
        # Every entry is checked before any row: a matrix with both faults
        # is named by its entries.
        for block in _row_blocks(self.values):
            binary = block == 0
            binary |= block == 1
            if not binary.all():
                raise ValueError("label entries must be 0 or 1")
        # Each row's largest entry, reduced over the block's flat entries; a
        # row without classes has no positive.
        n, c = self.values.shape
        if (n and not c) or not all(
                np.maximum.reduceat(block.reshape(-1),
                                    np.arange(0, block.size, c)).all()
                for block in _row_blocks(self.values)):
            raise ValueError("every item needs at least one positive label")

    @property
    def num_items(self) -> int:
        return self.values.shape[0]

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Split:
    """Each item's role: `roles` is N uint8, 0 database only, 1 query, 2 train.

    `query` and `train` are the items of roles 1 and 2, and `database` every
    non-query item, each sorted int64 (`np.flatnonzero`): the canonical form
    that `save_split` writes and `load_split` accepts.
    """

    roles: np.ndarray

    def __post_init__(self):
        roles = self.roles
        if not (isinstance(roles, np.ndarray) and roles.ndim == 1
                and roles.dtype == np.uint8) or roles.max(initial=0) > 2:
            raise ValueError("split roles must be a 1-D uint8 array of 0, 1, 2")

    @property
    def num_items(self) -> int:
        return self.roles.size

    @property
    def query(self) -> np.ndarray:
        return np.flatnonzero(self.roles == 1)

    @property
    def train(self) -> np.ndarray:
        return np.flatnonzero(self.roles == 2)

    @property
    def database(self) -> np.ndarray:
        return np.flatnonzero(self.roles != 1)


def _is_text(path) -> bool:
    return str(path).lower().endswith(_TEXT_EXTENSIONS)


def save_features(features: FeatureSet, path) -> None:
    if _is_text(path):
        np.savetxt(path, features.values, delimiter=",", fmt="%.9g")
        return
    with open(path, "wb") as f:
        write_header(f, FEATURES_MAGIC, FORMAT_VERSION, MATRIX_HEADER,
                     features.num_items, features.dim)
        write_array(f, features.values, "<f4")


def load_features(path) -> FeatureSet:
    if _is_text(path):
        values = np.loadtxt(path, delimiter=",", dtype=np.float32, ndmin=2)
        return FeatureSet(values=values)
    with open(path, "rb") as f:
        n, d = read_header(f, FEATURES_MAGIC, FORMAT_VERSION, MATRIX_HEADER)
        values = read_array(f, "<f4", n * d, "feature payload")
        check_end(f)
    return FeatureSet(values=values.reshape(n, d))


def save_labels(labels: LabelSet, path) -> None:
    if _is_text(path):
        np.savetxt(path, labels.values, delimiter=",", fmt="%d")
        return
    with open(path, "wb") as f:
        write_header(f, LABELS_MAGIC, FORMAT_VERSION, MATRIX_HEADER,
                     labels.num_items, labels.num_classes)
        write_array(f, labels.values, np.uint8)


def load_labels(path) -> LabelSet:
    if _is_text(path):
        values = np.loadtxt(path, delimiter=",", dtype=np.uint8, ndmin=2)
        return LabelSet(values=values)
    with open(path, "rb") as f:
        n, c = read_header(f, LABELS_MAGIC, FORMAT_VERSION, MATRIX_HEADER)
        values = read_array(f, np.uint8, n * c, "label payload")
        check_end(f)
    return LabelSet(values=values.reshape(n, c))


def make_synthetic_blobs(num_classes: int, per_class: int, dim: int,
                         spread: float, seed: int):
    """Well-separated Gaussian blobs with one-hot labels.

    Class centers are random directions on a sphere scaled so the closest
    pair of centers sits 8 * spread apart, which keeps nearest-center
    classification essentially exact. Samples are center plus isotropic
    noise of scale `spread`; rows are laid out class-major.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    if per_class < 1:
        raise ValueError(f"need per_class >= 1, got {per_class}")
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")

    rng = make_rng(seed)
    while True:
        directions = standard_normal(rng, (num_classes, dim))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        if np.all(norms > 0):
            directions /= norms
            diffs = directions[:, None, :] - directions[None, :, :]
            dists = np.linalg.norm(diffs, axis=2)
            min_dist = dists[~np.eye(num_classes, dtype=bool)].min()
            if min_dist > 0:
                break
    centers = directions * (8.0 * spread / min_dist)

    n = num_classes * per_class
    noise = standard_normal(rng, (n, dim)) * spread
    features = np.repeat(centers, per_class, axis=0) + noise
    labels = np.zeros((n, num_classes), dtype=np.uint8)
    labels[np.arange(n), np.repeat(np.arange(num_classes), per_class)] = 1
    return FeatureSet(values=features.astype(np.float32)), LabelSet(values=labels)


def split_protocol(labels: LabelSet, n_query_per_class: int,
                   n_train_per_class: int, seed: int) -> Split:
    """Per-class quota split into query and train sets; database is the rest.

    Items are scanned in a seeded random order. An item joins the query set
    if any of its classes still has an unfilled query quota, counting toward
    every class it carries; the train pass works the same way over the
    remaining items. The database is every non-query item, so training items
    stay inside it.

    The scan is computed by a rank rule: an item is taken exactly when one
    of its labels is among the first `quota` labels of its class in scan
    order. A class is filled only by items that carry it, and every item
    that carries a class not yet full is taken. So the first `quota`
    carriers of a class are all taken and fill it, and any later item finds
    each of its classes full.
    """
    if n_query_per_class < 0 or n_train_per_class < 0:
        raise ValueError("per-class quotas must be non-negative")
    y = labels.values
    n, c = y.shape
    rng = make_rng(seed)
    order = rng.permutation(n)
    roles = np.zeros(n, dtype=np.uint8)

    def fill(quota_per_class, candidates, role):
        # Through int64, so an oversized quota raises OverflowError.
        remaining = np.full(c, quota_per_class, dtype=np.int64)
        for lo in range(0, candidates.size, _SPLIT_CHUNK):
            if not remaining.any():
                break
            chunk = candidates[lo:lo + _SPLIT_CHUNK]
            # The chunk's labels in scan order. A flat bool nonzero takes
            # about an eighth of the time of `np.nonzero` on the 2-D block.
            rows, classes = np.divmod(np.flatnonzero(y[chunk] != 0), c)
            # Grouped by class, each class in scan order, so a label's rank
            # is its place in its class's group; 8- and 16-bit class keys
            # take numpy's radix sort.
            by_class = np.argsort(classes.astype(np.min_scalar_type(c - 1)),
                                  kind="stable")
            grouped = classes[by_class]
            counts = np.bincount(classes, minlength=c)
            starts = np.cumsum(counts) - counts
            rank = np.arange(grouped.size) - starts[grouped]
            # Taken: the items with a label whose rank in the chunk is below
            # what earlier chunks left of its class's quota.
            roles[chunk[rows[by_class[rank < remaining[grouped]]]]] = role
            remaining -= np.minimum(counts, remaining)
        if remaining.any():
            short = np.flatnonzero(remaining)[0]
            raise ValueError(
                f"class {short} has too few items: {remaining[short]} more "
                f"needed for a quota of {quota_per_class}")

    fill(n_query_per_class, order, 1)
    fill(n_train_per_class, order[roles[order] == 0], 2)
    return Split(roles=roles)


def _decimal_text(indices: np.ndarray) -> bytes:
    """Sorted non-negative `indices` below 2**32 as base-10 numbers one space
    apart, the bytes of `str(indices.tolist())[1:-1]` without its commas.

    Sorted, the numbers of d digits form one run between powers of ten. A
    run is an n x (d + 1) uint8 array whose rows are the run's text: its
    digit columns, filled one at a time from the last, then a column of
    spaces. On scan-large's 99,872-item database this takes about an eighth
    of the time of `str()`; (d + 1) x n digit planes and a copy of their
    transpose took a quarter longer (2-core VM).
    """
    values = indices.astype(np.uint32)
    powers = 10 ** np.arange(1, 10, dtype=np.uint32)
    bounds = [0, *np.searchsorted(values, powers).tolist(), values.size]
    runs = []
    for digits, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1):
        if lo == hi:
            continue
        # Views of the private copy `values`, divided by 10 in place.
        x, q = values[lo:hi], np.empty(hi - lo, np.uint32)
        chars = np.empty((hi - lo, digits + 1), np.uint8)
        chars[:, digits] = ord(" ")
        for col in range(digits - 1, -1, -1):
            np.floor_divide(x, 10, out=q)
            x -= q * 10
            x += ord("0")
            chars[:, col] = x
            x, q = q, x
        runs.append(chars)
    return b"".join(runs)[:-1]


def save_split(split: Split, path) -> None:
    with open(path, "wb") as f:
        for name, indices in (("query", split.query), ("train", split.train),
                              ("database", split.database)):
            f.writelines((name.encode(), b": ", _decimal_text(indices), b"\n"))


def load_split(path, num_items: int) -> Split:
    """Read the split of `num_items` items that `save_split` wrote.

    The non-blank lines are `query:`, `train:` and `database:` in that
    order, each followed by base-10 int64 integers with an optional sign,
    which numpy's C parser reads in one call per section. Any other token
    (`#`, `x`, `2.5`, `1_0`, `1e3`, `nan`, non-ASCII digits, a number past
    int64) is a ValueError naming the file, whatever warning filters are
    set: numpy releases that parse it through a float only warn.

    The sections must be `Split`'s canonical form: query and database hold
    `num_items` items in all, every index lies in [0, num_items), and each
    section equals the items of its role once train is given role 2 and
    query, over it, role 1. The ValueError names the file and both counts,
    or the section and its first item off its role.
    """
    names = ["query", "train", "database"]
    with open(path) as f:
        lines = [line.partition(":") for line in f if line.strip()]
    found = [name.strip() for name, _, _ in lines]
    if found != names:
        raise ValueError(f"{path}: sections {found!r:.80} are not query, "
                         f"train and database in that order")
    sections = []
    for name, (_, _, rest) in zip(names, lines):
        if not rest.strip():
            # loadtxt warns on an empty input.
            sections.append(np.zeros(0, dtype=np.int64))
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                sections.append(np.loadtxt([rest], dtype=np.int64, ndmin=1,
                                           comments=None))
        except (ValueError, DeprecationWarning) as err:
            raise ValueError(f"{path}: bad {name} section: {err}") from None
    query, train, database = sections
    if query.size + database.size != num_items:
        raise ValueError(f"{path}: the split covers "
                         f"{query.size + database.size} items, not the "
                         f"{num_items} given")
    for name, listed in zip(names, sections):
        outside = listed[(listed < 0) | (listed >= num_items)]
        if outside.size:
            raise ValueError(f"{path}: {name} section index {outside[0]} is "
                             f"out of range [0, {num_items})")
    roles = np.zeros(num_items, dtype=np.uint8)
    roles[train] = 2
    roles[query] = 1
    split = Split(roles=roles)
    for name, listed in zip(names, sections):
        derived = getattr(split, name)
        if not np.array_equal(listed, derived):
            # A section lists at least the items derived from it, so it
            # departs from them at one of its own positions.
            off = np.flatnonzero(listed[:derived.size] != derived[:listed.size])
            item = listed[off[0] if off.size else derived.size]
            role = ("database", "query", "train")[roles[item]]
            raise ValueError(f"{path}: {name} section departs from the "
                             f"sorted {name} items at item {item}, a {role} "
                             f"item")
    return split
