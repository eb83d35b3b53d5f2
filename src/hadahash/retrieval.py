"""Bit-packed binary codes, exact Hamming ranking, and retrieval metrics."""

import functools
import json
import numbers
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .io import (FileFormatError, check_end, read_array, read_header,
                 write_array, write_header)
from .model import row_blocks
from .rng import make_rng, standard_normal

CODES_MAGIC = b"HCBC"
CODES_VERSION = 1
# Item count, code length, threshold tag: 0, sign; load rejects any other.
CODES_HEADER = "IIB"

DEFAULT_PRECISION_KS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

# `search` and `evaluate` rank a block of B = max(1, BLOCK_KEYS // N) queries
# at a time: a fixed number of numpy calls over the block's B x N keys in
# place of as many calls over N per query. `search`'s block scratch holds
# per key 8 B of words, 1 B of distance (2 B above three words) and a 1 to
# 8 B key: 13 B for codes of up to 192 bits over at most 2**23 items, 1.7 MB
# at this size. `evaluate` ranks and scores its blocks in about 40 calls,
# most of which release the GIL, so its workers contend for it little. A
# worker's block scratch holds per key 8 B of words (then the block's
# precisions), 1 B of distance (2 B above three words), a 1 B flag, a 2 to
# 8 B key and 8 B of AP scratch: 20 to 27 B, 22 B for codes of up to 192 bits
# over at most 2**23 items, 2.9 MB at this size. The AP scratch alone is
# B x N x 8 B, at most 8 * BLOCK_KEYS B = 1 MiB while N <= BLOCK_KEYS.
BLOCK_KEYS = 1 << 17


@dataclass(frozen=True)
class BinaryCodeSet:
    """N items of K bits packed into 64-bit words, LSB-first within a word.

    Bit j of item i lives in word j // 64 at bit position j % 64; padding
    bits beyond K are always zero. Every code set holds sign bits, so any
    two of the same code length share one Hamming space.
    """

    words: np.ndarray  # (N, ceil(K/64)) uint64
    code_bits: int

    def __post_init__(self):
        if self.code_bits < 1:
            raise ValueError(f"codes need at least one bit, got "
                             f"{self.code_bits}")
        expected = (self.code_bits + 63) // 64
        if self.words.ndim != 2 or self.words.shape[1] != expected:
            raise ValueError(
                f"words shape {self.words.shape} does not hold {self.code_bits} bits")

    @property
    def num_items(self) -> int:
        return self.words.shape[0]


def pack_codes(values: np.ndarray) -> BinaryCodeSet:
    """Pack a matrix of +-1 (or boolean) bits into 64-bit words."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected an (N, K) matrix, got shape {values.shape}")
    n, k = values.shape
    # A boolean matrix is its own bits: `values > 0` would copy it, at
    # about 0.5 ns per entry.
    bits = values if values.dtype == bool else values > 0
    if k % 8:
        octets = np.packbits(bits, axis=1, bitorder="little")
    else:
        # Rows of whole bytes pack as one flat run, the same bytes several
        # times faster than row by row.
        octets = np.packbits(bits, bitorder="little").reshape(n, k // 8)
    if k % 64:
        packed = np.zeros((n, (k + 63) // 64 * 8), dtype=np.uint8)
        packed[:, :octets.shape[1]] = octets
        octets = packed
    return BinaryCodeSet(words=octets.view("<u8"), code_bits=k)


def unpack_codes(codes: BinaryCodeSet) -> np.ndarray:
    """Unpack to an (N, K) int8 matrix of +-1 bits."""
    octets = np.ascontiguousarray(codes.words, dtype="<u8").view(np.uint8)
    # 0/1 becomes -1/+1 in place, so memory holds the one N x K byte array.
    bits = np.unpackbits(octets, axis=1, count=codes.code_bits,
                         bitorder="little").view(np.int8)
    bits *= 2
    bits -= 1
    return bits


def binarize(u: np.ndarray) -> BinaryCodeSet:
    """Threshold real activations at zero into a packed code set:
    bit = sign(u) with sign(0) = +1. Bit balance is the codebook's work,
    so no bit is shifted by a per-bit statistic."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError(f"expected an (N, K) activation matrix, got {u.shape}")
    return pack_codes(u >= 0.0)


def encode_rows(values: np.ndarray, rows: np.ndarray, activations,
                width: int, code_bits: int) -> BinaryCodeSet:
    """Codes of `activations(values[rows])`, one row block at a time.

    `width` is the entry count of the widest float64 row that
    `activations` makes, input included, and sets the blocks:
    `row_blocks(rows.size, width)`. Each block is gathered through the
    index array, mapped to (B, K) activations and binarized at zero by
    `binarize`, looked up at call time, into its rows of one preallocated
    word array. `_map_runs` splits the blocks into one contiguous run per
    available CPU: the calling thread encodes the first run and pool
    threads the others, and a single block or CPU starts no pool.
    `activations` must therefore be safe to call from several threads at
    once. Memory holds the packed codes and, per thread, one block of rows
    and its activations, about 1 MiB per float64 array at any width (see
    `model.ENCODE_BLOCK_ENTRIES`), never the N gathered rows or N x K
    floats. The blocks and their products are the same on any number of
    threads, so the codes are too, to the last bit. A worker's exception
    reaches the caller, and no thread outlives the call.
    """
    words = np.empty((rows.size, (code_bits + 63) // 64), dtype=np.uint64)
    blocks = row_blocks(rows.size, width)

    def encode(run) -> None:
        for lo, hi in run:
            words[lo:hi] = binarize(activations(values[rows[lo:hi]])).words

    _map_runs(encode, blocks, _worker_count())
    return BinaryCodeSet(words=words, code_bits=code_bits)


def _distances(codes: np.ndarray, db_words: np.ndarray, words=None,
               out=None) -> np.ndarray:
    """(B, N) Hamming distances of a (B, W) block of query codes to the
    word-major `database.words.T`, summed word by word (a reduction over
    the short word axis costs more) in np.min_scalar_type(64 * W). `words`
    and `out`, when given, are (B, N) scratch of uint64 and of that type."""
    words = np.bitwise_xor(db_words[0], codes[:, :1], out=words)
    distances = np.bitwise_count(words, out=out)
    if out is None and codes.shape[1] > 3:
        distances = distances.astype(np.min_scalar_type(64 * codes.shape[1]))
    for w in range(1, codes.shape[1]):
        distances += np.bitwise_count(
            np.bitwise_xor(db_words[w], codes[:, w:w + 1], out=words))
    return distances


@dataclass(frozen=True)
class RankedList:
    """Database positions ordered by (distance ascending, index ascending)."""

    indices: np.ndarray    # int64
    distances: np.ndarray  # uint32, parallel to indices


@functools.lru_cache(maxsize=4)
def _key_layout(n: int, max_distance: int, flag_bits: int):
    """(dtype, shift, positions) of the keys `_pack_keys` makes over n
    items: positions, index << flag_bits in the key type, is shared
    read-only. Cached, as a query's ranking takes tens of microseconds."""
    shift = (n - 1).bit_length() + flag_bits
    dtype = np.min_scalar_type(
        (max_distance << shift) | ((n - 1) << flag_bits) | flag_bits)
    positions = np.arange(n, dtype=dtype) << flag_bits
    positions.setflags(write=False)
    return dtype, shift, positions


def _pack_keys(distances: np.ndarray, max_distance: int,
               flags: Optional[np.ndarray] = None,
               out: Optional[np.ndarray] = None):
    """(keys, shift): one sort key per item along the last axis.

    A key is (distance << shift) | index without flags and
    (distance << shift) | (index << 1) | flag with them, in the smallest
    unsigned type that holds every key. The keys of a row are distinct, so
    sorting them orders by (distance, index), ties included, and numpy's
    plain sort and partition need no stability; the flag rides along in
    the low bit. `max_distance` bounds every distance and 2**shift is below
    2N, or 4N with flags, so for N items of W words a key is below
    2N(64W + 1), or 4N(64W + 1): under 2**64 for any database that fits in
    memory. `out`, when given, is an array of the key type that receives
    the keys.
    """
    flag_bits = 0 if flags is None else 1
    dtype, shift, positions = _key_layout(distances.shape[-1], max_distance,
                                          flag_bits)
    # Cast, then shift in place: faster than a shift that casts.
    if out is None:
        out = distances.astype(dtype)
    else:
        np.copyto(out, distances)
    out <<= shift
    out |= positions
    if flags is not None:
        out |= flags
    return out, shift


def _rank_block(distances: np.ndarray, limit: int,
                max_distance: int) -> List[RankedList]:
    """The top `limit` of each row of a (B, N) block of distances, or of
    one query's N distances, in (distance, index) order. The rankings are
    rows of two new (B, limit) arrays, so they keep none of the block's
    keys alive."""
    # A top-R scan partitions the keys at R - 1 and sorts the first R; its
    # work stays O(N + R log R) however many items tie.
    keys, shift = _pack_keys(distances, max_distance)
    if limit < keys.shape[-1]:
        keys.partition(limit - 1)
        keys = keys[..., :limit]
    keys.sort()
    indices = np.bitwise_and(keys, (1 << shift) - 1, dtype=np.int64)
    distances = (keys >> shift).astype(np.uint32, copy=False)
    if keys.ndim == 1:
        return [RankedList(indices=indices, distances=distances)]
    return list(map(RankedList, indices, distances))


def _worker_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_runs(task, items: Sequence, workers: int) -> list:
    """[task(run) for run in runs], each run on a thread of its own.

    The runs cut `items` into min(workers, len(items)) contiguous pieces
    whose lengths differ by at most one, so no items make no runs. The
    calling thread takes the first run while pool threads take the rest,
    and a single run starts no pool. The results come back in run order.
    Every thread is joined before the call returns, and an exception raised
    by a task reaches the caller.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [task(items)] if workers else []
    bounds = [len(items) * w // workers for w in range(workers + 1)]
    runs = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    # Imported here: with the logging module it pulls in, it would add
    # about 0.7 MB to every process that never starts a pool.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(runs) - 1) as pool:
        futures = [pool.submit(task, run) for run in runs[1:]]
        head = task(runs[0])
        return [head] + [future.result() for future in futures]


def _check_cutoff(k, name: str) -> None:
    """A rank cutoff is an integer >= 1; a bool is not one."""
    if type(k) is not int and (isinstance(k, bool)
                               or not isinstance(k, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"{name} must be positive, got {k!r}")


def _check_ranking(queries: BinaryCodeSet, database: BinaryCodeSet,
                   limit: Optional[int]) -> int:
    """R = min(limit, N), or N without a limit, once the arguments pass."""
    if queries.code_bits != database.code_bits:
        raise ValueError(
            f"code length mismatch: {queries.code_bits} vs {database.code_bits}")
    n = database.num_items
    if n == 0:
        raise ValueError("the database is empty")
    if limit is not None:
        _check_cutoff(limit, "limit")
    return n if limit is None or limit > n else int(limit)


def search(queries: BinaryCodeSet, database: BinaryCodeSet,
           limit: Optional[int] = None) -> List[RankedList]:
    """Exact top-`limit` scan per query (all items when limit is None).

    Both sets must have the same code length. The queries are ranked in the
    calling thread, a block of B = max(1, BLOCK_KEYS // N) at a time, in
    query order: one `_distances` call measures the block and one
    `_rank_block` call packs its keys through `_pack_keys`, without a flag
    bit, then partitions and sorts them row by row. A block of one row, and
    so every one-query call, is ranked from its 1-D distances, with the
    numpy calls of a single query. The keys of a row are distinct, so each
    ranking is the one a query ranked alone gets, to the last bit. At any
    limit the scan holds one block's scratch of B x N words, distances and
    sort keys (see `BLOCK_KEYS`): at most BLOCK_KEYS keys, about 1.7 MB,
    while N <= BLOCK_KEYS, and one query's N above. A ranking holds 12 B
    per ranked item: the rankings of a block are rows of two new arrays,
    which keep no block scratch alive.
    """
    r = _check_ranking(queries, database, limit)
    max_distance = 64 * database.words.shape[1]
    if queries.num_items == 1:
        return _rank_block(_distances(queries.words, database.words.T)[0], r,
                           max_distance)
    rows = max(1, BLOCK_KEYS // database.num_items)
    rankings = []
    for lo in range(0, queries.num_items, rows):
        distances = _distances(queries.words[lo:lo + rows], database.words.T)
        rankings += _rank_block(
            distances[0] if distances.shape[0] == 1 else distances, r,
            max_distance)
    return rankings


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
    averaged over queries. Every precision cutoff k must be an integer
    >= 1; those above the database size are left out.

    Both label matrices are packed into 64-bit bitsets once per call, and
    a query that shares no class with the union of the database's classes
    is skipped before any ranking. The other queries are ranked a block at
    a time: `_distances` measures the block and `_pack_keys` packs
    (distance << shift) | (index << 1) | relevant, the flag set where the
    item shares a class with the query. Sorted row by row, the keys order
    as `search`'s do, and the set flag bits give f = row * N + rank of
    every relevant item of the block, row after row. The scores need only
    the precisions at the relevant ranks, hits / rank, and the whole block
    is scored from f in one pass:
    - AP: the precisions are scattered into a zero B x N scratch at f, the
      first R entries of each row are summed and the scratch is zeroed at
      f again. Each row sum adds the same R-long array in the same pairwise
      order as a dense pass over the ranking would.
    - PR-101: `np.maximum.reduceat` takes the best precision from each
      query's first hit at each recall level of the grid to its next one,
      and a reverse `np.maximum.accumulate` of the (B, 101) maxima gives
      the best precision at recall >= r, which always falls on a hit. The
      grid's hit positions are kept per relevant count.
    - P@k: one `searchsorted` of row * N + k in f counts each row's hits
      in its top k.
    So every score is the one a pass over all N ranks gives, to the last
    bit.

    `_map_runs` cuts the scored queries into one contiguous chunk per
    available CPU, at every database size, the first in the calling thread.
    numpy releases the GIL in the block's XOR, popcount, shifts, sort and
    in the passes over its relevant items but two `repeat`s; what holds it
    is a fixed number of calls per block and one dict lookup per query.
    Memory holds no Q x N array: a worker reuses one block scratch of
    B x N keys, 20 to 27 B per key with the AP scratch (see
    `BLOCK_KEYS`), and the block's relevant ranks and precisions; the
    call keeps a word-major copy of the database codes, N x W x 8 B, for
    codes of W >= 2 words, the label bitsets and the grid's hit positions
    for each distinct relevant count, 0.8 KB each. The first chunk's
    PR-101 and P@k rows, 8 B per grid point and cutoff, are summed a block
    at a time as they come; each other chunk holds its rows until the
    caller sums them, after the first chunk's, in query order.
    `np.add.reduce` over [sum so far; rows] adds row after row, so every
    report is the one a single thread gives, to the last bit. A worker's
    exception reaches the caller, and no thread outlives the call.
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
    if query_labels.shape[1] == 0:
        raise ValueError("the labels have no classes")
    if denominator not in ("cutoff", "relevant"):
        raise ValueError(f"unknown denominator {denominator!r}")
    r_cut = _check_ranking(queries, database, limit)
    for k in precision_ks:
        _check_cutoff(k, "each of the precision cutoffs")

    n_db = database.num_items
    grid = np.linspace(0.0, 1.0, 101)
    ks = np.array([k for k in precision_ks if k <= n_db], dtype=np.int64)
    q_label_words = pack_codes(query_labels != 0).words
    # Word-major, so each word's AND reads contiguous memory.
    db_label_words = np.ascontiguousarray(pack_codes(db_labels != 0).words.T)
    # A query shares a class with some item only if it shares one with the
    # union of their classes; the others are skipped before any ranking.
    scored = np.flatnonzero(np.any(
        q_label_words & np.bitwise_or.reduce(db_label_words, axis=1), axis=1))
    if not scored.size:
        raise ValueError("no query has a relevant database item")
    # Word-major too, so each word's XOR reads contiguous memory; one-word
    # codes are word-major already and take no copy.
    db_code_words = np.ascontiguousarray(database.words.T)
    max_distance = 64 * db_code_words.shape[0]
    scratch_types = (np.uint64, np.min_scalar_type(max_distance), bool,
                     _key_layout(n_db, max_distance, 1)[0])
    block_rows = max(1, BLOCK_KEYS // n_db)
    width = grid.size + ks.size

    @functools.cache
    def grid_hits(n_rel: int) -> np.ndarray:
        """The index of the first hit at recall >= r, for each r on the
        grid, among n_rel hits."""
        return np.searchsorted(np.arange(1, n_rel + 1) / n_rel, grid,
                               side="left")

    def run(chunk: range):
        """(AP, table) of the chunk's scored queries in order, ranked and
        scored a block at a time. Rows 1 on of the table hold PR-101 and
        P@k rows and row 0 their sum: the first chunk comes first in query
        order, so row 0 sums each block's rows as they come, while a later
        chunk holds its rows until the caller sums them."""
        rows = min(block_rows, len(chunk))
        scratch = [np.empty((rows, n_db), dtype) for dtype in scratch_types]
        # Precision at each relevant rank, zero elsewhere: a row's AP sum
        # runs over its first R entries, as over a dense R-long array.
        ap_terms = np.zeros((rows, n_db))
        flat_terms = ap_terms.reshape(-1)
        # Where each row of a block starts among the block's flat ranks,
        # the flat rank before it and the flat ranks of the P@k cutoffs.
        row_starts = np.arange(0, (rows + 1) * n_db, n_db)
        before_rows = row_starts[:-1] - 1
        cutoffs = row_starts[:-1, None] + ks
        aps = np.empty(len(chunk))
        first = chunk.start == 0
        table = np.zeros((1 + (rows if first else len(chunk)), width))
        chunk_queries = scored[chunk.start:chunk.stop]
        for lo in range(0, chunk_queries.size, rows):
            block = chunk_queries[lo:lo + rows]
            b = block.size
            words, distances, flags, keys = (a[:b] for a in scratch)
            _distances(queries.words[block], db_code_words, words, distances)
            # An item is relevant when it shares a class with the query.
            labels = q_label_words[block]
            np.bitwise_and(db_label_words[0], labels[:, :1], out=words)
            for w in range(1, labels.shape[1]):
                words |= db_label_words[w] & labels[:, w:w + 1]
            np.not_equal(words, 0, out=flags)
            _pack_keys(distances, max_distance, flags, out=keys)
            keys.sort(axis=1)
            # f = row * N + rank of every relevant item, row by row; every
            # row has one at least.
            f = np.flatnonzero(np.bitwise_and(keys, 1, out=flags,
                                              casting="unsafe"))
            bounds = f.searchsorted(row_starts[:b + 1])
            starts = bounds[:-1]
            counts = bounds[1:] - starts
            # Hits so far over the 1-based rank, at each relevant item, in
            # the spent words; the integers are exact in float64, so the
            # quotients are too.
            prec = words.reshape(-1)[:f.size].view(np.float64)
            prec[...] = np.arange(1.0, f.size + 1)
            prec -= starts.repeat(counts)
            rank = before_rows[:b].repeat(counts)
            prec /= np.subtract(f, rank, out=rank)
            flat_terms[f] = prec
            np.divide(np.add.reduce(ap_terms[:b, :r_cut], axis=1),
                      np.minimum(counts, r_cut) if denominator == "cutoff"
                      else counts,
                      out=aps[lo:lo + b])
            flat_terms[f] = 0.0
            out = table[1 + (0 if first else lo):][:b]
            # The best precision at recall >= r: the maximum over the hits
            # from the first at recall r to the row's last.
            at = np.array([grid_hits(c) for c in counts.tolist()])
            at += starts[:, None]
            best = np.maximum.reduceat(prec, at.ravel()).reshape(at.shape)
            np.maximum.accumulate(best[:, ::-1], axis=1,
                                  out=out[:, grid.size - 1::-1])
            np.divide(f.searchsorted(cutoffs[:b]) - starts[:, None], ks,
                      out=out[:, grid.size:])
            if first:
                table[0] = np.add.reduce(table[:1 + b], axis=0)
            del f, rank  # before the next block makes its own
        return aps, table[:1 if first else None]

    total = np.zeros(width)
    ap_parts = []
    for aps, table in _map_runs(run, range(scored.size), _worker_count()):
        # The first chunk's row 0 holds its sum, and 0 + x = x.
        table[0] += total
        total = np.add.reduce(table, axis=0)
        ap_parts.append(aps)
    ap_array = np.concatenate(ap_parts)
    return EvalReport(
        average_precisions=ap_array,
        mean_ap=float(ap_array.mean()),
        pr_points=np.column_stack([grid, total[:grid.size] / scored.size]),
        precision_at=[(k, float(v / scored.size))
                      for k, v in zip(ks.tolist(), total[grid.size:])],
        skipped_queries=queries.num_items - scored.size,
        # Every code set is sign codes; "mode" keeps the reports' bytes.
        params={"map_at": r_cut, "code_bits": queries.code_bits,
                "mode": "sign", "denominator": denominator})


def lsh_codes(features: np.ndarray, code_bits: int, seed: int,
              rows: Optional[np.ndarray] = None) -> BinaryCodeSet:
    """Baseline codes from seeded random hyperplanes over raw features.

    Encodes `features[rows]` (every row when rows is None); each block of
    `row_blocks(n, max(D, K))` is cast to float64 on its own before it
    meets the planes, on `encode_rows`'s threads. The block products equal
    one float64 product over the set, bit for bit, for the benchmark's
    (D, K) of (128, 64), (40, 32) and (96, 128). OpenBLAS picks its kernel
    by shape, and for narrow planes (seen at K <= 24) a block's product
    can differ from the one product in the last bit, so a code bit can
    differ only where a projection lies within one rounding of 0. The
    blocks are the same on any number of threads, and so are the codes.
    """
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValueError(f"expected an (N, D) feature matrix, got {features.shape}")
    if code_bits < 1:
        raise ValueError(f"LSH codes need at least one bit, got {code_bits} "
                         f"bits")
    if rows is None:
        rows = np.arange(features.shape[0])
    planes = standard_normal(make_rng(seed), (features.shape[1], code_bits))
    return encode_rows(
        features, rows, lambda block: block.astype(np.float64) @ planes,
        max(features.shape[1], code_bits), code_bits)


def save_codes(codes: BinaryCodeSet, path) -> None:
    with open(path, "wb") as f:
        write_header(f, CODES_MAGIC, CODES_VERSION, CODES_HEADER,
                     codes.num_items, codes.code_bits, 0)
        write_array(f, codes.words, "<u8")


def load_codes(path) -> BinaryCodeSet:
    with open(path, "rb") as f:
        n, k, tag = read_header(f, CODES_MAGIC, CODES_VERSION, CODES_HEADER)
        if tag:
            raise FileFormatError(
                f"{path}: threshold tag {tag}; only sign codes (tag 0) are "
                f"read, mean-centred codes (tag 1) were removed")
        if k < 1:
            raise FileFormatError(f"{path}: code length {k}; codes need at "
                                  f"least one bit")
        n_words = (k + 63) // 64
        words = read_array(f, "<u8", n * n_words, "code words")
        check_end(f)
    words = words.reshape(n, n_words)
    # A set padding bit would count in every Hamming distance.
    if k % 64 and np.any(words[:, -1] >> np.uint64(k % 64)):
        raise FileFormatError(f"{path}: bits at or above the code length {k} "
                              f"are set")
    return BinaryCodeSet(words=words, code_bits=k)
