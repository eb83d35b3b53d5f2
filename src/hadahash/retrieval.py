"""Bit-packed binary codes, exact Hamming ranking, and retrieval metrics."""

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .io import (FileFormatError, expect_magic, expect_version, read_array,
                 read_u8, read_u32, write_array, write_u8, write_u32)
from .rng import make_rng, standard_normal

CODES_MAGIC = b"HCBC"
CODES_VERSION = 1

BINARIZATION_MODES = ("sign", "mean_centered_sign")
_MODE_TO_TAG = {"sign": 0, "mean_centered_sign": 1}
_TAG_TO_MODE = {tag: name for name, tag in _MODE_TO_TAG.items()}

DEFAULT_PRECISION_KS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


@dataclass(frozen=True)
class BinaryCodeSet:
    """N items of K bits packed into 64-bit words, LSB-first within a word.

    Bit j of item i lives in word j // 64 at bit position j % 64; padding
    bits beyond K are always zero.
    """

    words: np.ndarray  # (N, ceil(K/64)) uint64
    code_bits: int
    mode: str = "sign"

    def __post_init__(self):
        if self.mode not in BINARIZATION_MODES:
            raise ValueError(f"unknown binarization mode {self.mode!r}")
        expected = (self.code_bits + 63) // 64
        if self.words.ndim != 2 or self.words.shape[1] != expected:
            raise ValueError(
                f"words shape {self.words.shape} does not hold {self.code_bits} bits")

    @property
    def num_items(self) -> int:
        return self.words.shape[0]


def pack_codes(values: np.ndarray, mode: str = "sign") -> BinaryCodeSet:
    """Pack a matrix of +-1 (or boolean) bits into 64-bit words."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected an (N, K) matrix, got shape {values.shape}")
    n, k = values.shape
    packed = np.zeros((n, (k + 63) // 64 * 8), dtype=np.uint8)
    packed[:, :(k + 7) // 8] = np.packbits(values > 0, axis=1, bitorder="little")
    return BinaryCodeSet(words=packed.view("<u8"), code_bits=k, mode=mode)


def unpack_codes(codes: BinaryCodeSet) -> np.ndarray:
    """Unpack to an (N, K) int8 matrix of +-1 bits."""
    octets = np.ascontiguousarray(codes.words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(octets, axis=1, count=codes.code_bits,
                         bitorder="little")
    return np.where(bits == 1, 1, -1).astype(np.int8)


def binarize(u: np.ndarray, mode: str = "sign",
             reference_means: Optional[np.ndarray] = None) -> BinaryCodeSet:
    """Threshold real activations into a packed code set.

    bit = sign(u - shift) with sign(0) = +1. Plain sign mode uses shift 0;
    mean-centered mode shifts each bit by the per-bit mean of the database
    activations, which must be supplied as `reference_means`.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError(f"expected an (N, K) activation matrix, got {u.shape}")
    if mode == "sign":
        shift = 0.0
    elif mode == "mean_centered_sign":
        if reference_means is None:
            raise ValueError("mean_centered_sign needs reference_means")
        reference_means = np.asarray(reference_means, dtype=np.float64)
        if reference_means.shape != (u.shape[1],):
            raise ValueError(
                f"reference_means shape {reference_means.shape} != ({u.shape[1]},)")
        shift = reference_means
    else:
        raise ValueError(f"unknown binarization mode {mode!r}")
    return pack_codes(u - shift >= 0.0, mode=mode)


def _distances_to(query_words: np.ndarray, database_words: np.ndarray) -> np.ndarray:
    """Hamming distances from one query to every database item.

    Word by word: a reduction over the short word axis costs more than the
    XOR and popcount together.
    """
    distances = np.bitwise_count(
        database_words[:, 0] ^ query_words[0]).astype(np.uint32)
    for w in range(1, query_words.shape[0]):
        distances += np.bitwise_count(database_words[:, w] ^ query_words[w])
    return distances


@dataclass(frozen=True)
class RankedList:
    """Database positions ordered by (distance ascending, index ascending)."""

    indices: np.ndarray    # int64
    distances: np.ndarray  # uint32, parallel to indices


def _rank_one(distances: np.ndarray, limit: int) -> RankedList:
    # Exact top-R under (distance, index): keep everything at or below the
    # R-th smallest distance, in index order, then sort stably by distance.
    # Keys of 8 or 16 bits make numpy's stable sort a radix sort; the method
    # form skips np.argsort's dispatch, about two microseconds per call.
    kth = np.partition(distances, limit - 1)[limit - 1]
    candidates = np.flatnonzero(distances <= kth)
    keys = distances[candidates].astype(np.min_scalar_type(kth))
    top = candidates[keys.argsort(kind="stable")[:limit]]
    return RankedList(indices=top, distances=distances[top])


def search(queries: BinaryCodeSet, database: BinaryCodeSet,
           limit: Optional[int] = None) -> List[RankedList]:
    """Exact top-`limit` scan per query (all items when limit is None)."""
    if queries.code_bits != database.code_bits:
        raise ValueError(
            f"code length mismatch: {queries.code_bits} vs {database.code_bits}")
    r = database.num_items if limit is None else min(limit, database.num_items)
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    if database.num_items == 0:
        raise ValueError("the database is empty")
    return [_rank_one(_distances_to(words, database.words), r)
            for words in queries.words]


@dataclass(frozen=True)
class EvalReport:
    average_precisions: np.ndarray  # per evaluated query
    mean_ap: float
    pr_points: np.ndarray           # (101, 2): recall grid, mean precision
    precision_at: List  # (k, mean precision) pairs
    skipped_queries: int
    params: dict

    def to_json(self) -> str:
        ap = self.average_precisions
        quantiles = {q: float(np.quantile(ap, q / 100.0))
                     for q in (0, 25, 50, 75, 100)} if ap.size else {}
        payload = {
            "map": self.mean_ap,
            "num_queries": int(ap.size),
            "skipped_queries": self.skipped_queries,
            "ap_quantiles": quantiles,
            "params": self.params,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def pr_csv_rows(self):
        return [(float(r), float(p)) for r, p in self.pr_points]

    def precision_at_csv_rows(self):
        return [(int(k), float(p)) for k, p in self.precision_at]


def evaluate(queries: BinaryCodeSet, database: BinaryCodeSet,
             query_labels: np.ndarray, db_labels: np.ndarray,
             limit: Optional[int] = None, denominator: str = "cutoff",
             precision_ks: Sequence[int] = DEFAULT_PRECISION_KS) -> EvalReport:
    """Retrieval quality over a full Hamming ranking per query.

    Average precision at cutoff R sums precision@k over the relevant ranks
    k <= R and divides by min(R, total relevant) ("cutoff" denominator) or
    by the total relevant count ("relevant"). Queries without any relevant
    database item are skipped and counted. The precision-recall curve is
    the 101-point interpolation, precision(r) = max precision at recall >= r,
    averaged over queries. Queries are ranked and scored one at a time, so
    memory holds one ranking of the database.
    """
    query_labels = np.asarray(query_labels)
    db_labels = np.asarray(db_labels)
    if queries.num_items != query_labels.shape[0]:
        raise ValueError("query codes and labels disagree on item count")
    if database.num_items != db_labels.shape[0]:
        raise ValueError("database codes and labels disagree on item count")
    if query_labels.shape[1] != db_labels.shape[1]:
        raise ValueError(
            f"query labels have {query_labels.shape[1]} classes, database "
            f"labels {db_labels.shape[1]}")
    if denominator not in ("cutoff", "relevant"):
        raise ValueError(f"unknown denominator {denominator!r}")

    n_db = database.num_items
    r_cut = n_db if limit is None else min(limit, n_db)
    grid = np.linspace(0.0, 1.0, 101)
    ks = [k for k in precision_ks if k <= n_db]
    ranks = np.arange(1, n_db + 1)

    aps = []
    pr_sum = np.zeros(101)
    prec_at_sum = np.zeros(len(ks))
    skipped = 0
    for qi in range(queries.num_items):
        query = BinaryCodeSet(words=queries.words[qi:qi + 1],
                              code_bits=queries.code_bits, mode=queries.mode)
        ranked = search(query, database)[0]
        relevant = db_labels[:, np.flatnonzero(query_labels[qi])].any(axis=1)
        rel = relevant[ranked.indices]
        n_rel = int(rel.sum())
        if n_rel == 0:
            skipped += 1
            continue
        cum = np.cumsum(rel)
        prec = cum / ranks
        denom = min(r_cut, n_rel) if denominator == "cutoff" else n_rel
        aps.append(float((prec[:r_cut] * rel[:r_cut]).sum() / denom))

        recall = cum / n_rel
        best_from = np.maximum.accumulate(prec[::-1])[::-1]
        positions = np.searchsorted(recall, grid, side="left")
        pr_sum += best_from[np.minimum(positions, n_db - 1)]
        prec_at_sum += prec[np.array(ks) - 1]

    if not aps:
        raise ValueError("no query has a relevant database item")
    evaluated = len(aps)
    ap_array = np.array(aps)
    report = EvalReport(
        average_precisions=ap_array,
        mean_ap=float(ap_array.mean()),
        pr_points=np.column_stack([grid, pr_sum / evaluated]),
        precision_at=[(k, float(v / evaluated)) for k, v in zip(ks, prec_at_sum)],
        skipped_queries=skipped,
        params={"map_at": r_cut, "code_bits": queries.code_bits,
                "mode": queries.mode, "denominator": denominator})
    return report


def lsh_codes(features: np.ndarray, code_bits: int, seed: int) -> BinaryCodeSet:
    """Baseline codes from seeded random hyperplanes over raw features."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"expected an (N, D) feature matrix, got {features.shape}")
    planes = standard_normal(make_rng(seed), (features.shape[1], code_bits))
    return binarize(features @ planes, mode="sign")


def save_codes(codes: BinaryCodeSet, path) -> None:
    with open(path, "wb") as f:
        f.write(CODES_MAGIC)
        write_u32(f, CODES_VERSION)
        write_u32(f, codes.num_items)
        write_u32(f, codes.code_bits)
        write_u8(f, _MODE_TO_TAG[codes.mode])
        write_array(f, codes.words, "<u8")


def load_codes(path) -> BinaryCodeSet:
    with open(path, "rb") as f:
        expect_magic(f, CODES_MAGIC, path)
        expect_version(f, CODES_VERSION, path)
        n = read_u32(f, "item count")
        k = read_u32(f, "code length")
        tag = read_u8(f, "mode")
        if tag not in _TAG_TO_MODE:
            raise FileFormatError(f"{path}: unknown mode tag {tag}")
        n_words = (k + 63) // 64
        words = read_array(f, "<u8", n * n_words, "code words")
    return BinaryCodeSet(words=words.reshape(n, n_words), code_bits=k,
                         mode=_TAG_TO_MODE[tag])
