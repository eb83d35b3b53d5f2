"""Feature/label ingestion, synthetic blob generation, and the split protocol."""

import warnings
from dataclasses import dataclass

import numpy as np

from .io import read_array, read_header, write_array, write_header
from .rng import make_rng, standard_normal

FEATURES_MAGIC = b"HCFS"
LABELS_MAGIC = b"HCLS"
FORMAT_VERSION = 1
# Both formats: item count, then feature dim or class count.
MATRIX_HEADER = "II"

_TEXT_EXTENSIONS = (".csv", ".txt")

# Candidates whose class lists `split_protocol` makes at a time.
_SPLIT_CHUNK = 2048

# Matrix entries the feature and label checks test at a time. The checks
# hold at most two bools per entry of one block and a sum per row of it,
# about 130 KB, whatever the row count.
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
        if any((block.sum(axis=1) == 0).any()
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
    """Disjoint query/train index lists plus the database (all non-query items)."""

    query: np.ndarray
    train: np.ndarray
    database: np.ndarray


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
    """
    if n_query_per_class < 0 or n_train_per_class < 0:
        raise ValueError("per-class quotas must be non-negative")
    y = labels.values
    n, c = y.shape
    rng = make_rng(seed)
    order = rng.permutation(n)

    def fill(quota_per_class, candidates):
        # Through int64, so an oversized quota raises OverflowError.
        remaining = np.full(c, quota_per_class, dtype=np.int64).tolist()
        open_classes = sum(left > 0 for left in remaining)
        chosen = []
        # The scan stops once every quota is full, often after a small share
        # of the items, so class lists are made only for the chunk of
        # candidates about to be visited. The scan itself runs over Python
        # lists: with numpy calls per visited item, splitting 100k
        # single-label items took about 2.5 times as long.
        for lo in range(0, candidates.size, _SPLIT_CHUNK):
            if not open_classes:
                break
            chunk = candidates[lo:lo + _SPLIT_CHUNK]
            # chunk[j] has the classes item_classes[starts[j]:starts[j + 1]].
            rows, item_classes = np.nonzero(y[chunk])
            starts = np.searchsorted(rows, np.arange(chunk.size + 1)).tolist()
            item_classes = item_classes.tolist()
            for j, idx in enumerate(chunk.tolist()):
                if not open_classes:
                    break
                classes = item_classes[starts[j]:starts[j + 1]]
                if any(remaining[k] > 0 for k in classes):
                    chosen.append(idx)
                    for k in classes:
                        if remaining[k] > 0:
                            remaining[k] -= 1
                            open_classes -= remaining[k] == 0
        if open_classes:
            short = next(k for k, left in enumerate(remaining) if left > 0)
            raise ValueError(
                f"class {short} has too few items: {remaining[short]} more "
                f"needed for a quota of {quota_per_class}")
        return np.array(sorted(chosen), dtype=np.int64)

    query = fill(n_query_per_class, order)
    in_query = np.zeros(n, dtype=bool)
    in_query[query] = True
    train = fill(n_train_per_class, order[~in_query[order]])
    database = np.flatnonzero(~in_query).astype(np.int64)
    return Split(query=query, train=train, database=database)


def save_split(split: Split, path) -> None:
    with open(path, "w") as f:
        for name, indices in (("query", split.query), ("train", split.train),
                              ("database", split.database)):
            # One str() of the whole list, "[1, 2]" -> "1 2", takes about
            # two thirds of the time of a str() per index.
            f.write(name + ": " + str(indices.tolist())[1:-1].replace(",", "")
                    + "\n")


def load_split(path) -> Split:
    """Read a split file written by `save_split`.

    Each non-blank line is `query:`, `train:` or `database:` followed by
    whitespace-separated base-10 integers that fit in int64, with an
    optional sign; a section may be empty but may not appear twice.
    Anything else in a section (a `#`, a letter, a decimal point, a digit
    separator `1_0`, non-ASCII digits, a number too large for int64, `1e3`,
    `nan`) is a ValueError naming the file, as is a repeated section; the
    CLI reports either with exit code 2. Each section
    goes through numpy's C text parser in one call. numpy releases that
    still fall back to float parsing for such a token only emit a
    DeprecationWarning, which the default filters hide, so the call turns
    it into an error whatever filters the caller has set.
    """
    sections = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            name, _, rest = line.partition(":")
            name = name.strip()
            if name not in ("query", "train", "database"):
                raise ValueError(f"{path}: unknown split section {name!r}")
            if name in sections:
                raise ValueError(f"{path}: repeated {name} section")
            if not rest.strip():
                # loadtxt warns on an empty input.
                sections[name] = np.zeros(0, dtype=np.int64)
                continue
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    sections[name] = np.loadtxt([rest], dtype=np.int64,
                                                ndmin=1, comments=None)
            except (ValueError, DeprecationWarning) as err:
                raise ValueError(f"{path}: bad {name} section: {err}") from None
    missing = {"query", "train", "database"} - sections.keys()
    if missing:
        raise ValueError(f"{path}: missing split sections {sorted(missing)}")
    return Split(query=sections["query"], train=sections["train"],
                 database=sections["database"])


def check_split(split: Split, num_items: int) -> None:
    """Reject a split that does not index a set of `num_items` items.

    Every index must lie in [0, num_items), no section may repeat an index,
    and no query item may sit in the database.
    """
    for name, idx in (("query", split.query), ("train", split.train),
                      ("database", split.database)):
        if idx.size and (idx.min() < 0 or idx.max() >= num_items):
            raise ValueError(
                f"split {name} indices out of range [0, {num_items})")
        if np.bincount(idx, minlength=num_items).max(initial=0) > 1:
            raise ValueError(f"split {name} section repeats an index")
    in_query = np.zeros(num_items, dtype=bool)
    in_query[split.query] = True
    shared = split.database[in_query[split.database]]
    if shared.size:
        raise ValueError(
            f"split item {shared[0]} is in both the query and the database")

