"""Output checks built from first principles, not from stored outputs.

Each reader here parses a file format on its own, and each oracle
recomputes a result by a different route than the program takes: Hadamard
entries from the closed form (-1)^popcount(i & j), Hamming distances from an
integer product of unpacked +-1 codes, and average precision as the mean of
i / rank_i over the relevant ranks.
"""

import csv
import struct

import numpy as np


def _header(f, magic, fmt):
    found = f.read(4)
    if found != magic:
        raise ValueError(f"bad magic {found!r}, expected {magic!r}")
    size = struct.calcsize(fmt)
    return struct.unpack(fmt, f.read(size))


def read_codes(path):
    """HCBC file -> (words (N, W) uint64, code bits K)."""
    with open(path, "rb") as f:
        _, n, k, _ = _header(f, b"HCBC", "<IIIB")
        words = np.frombuffer(f.read(), dtype="<u8")
    return words.reshape(n, (k + 63) // 64), k


def read_codebook(path):
    """HCCB file -> (C, K) int8 codewords."""
    with open(path, "rb") as f:
        _, c, k, _, _ = _header(f, b"HCCB", "<IIIQB")
        return np.frombuffer(f.read(), dtype=np.int8).reshape(c, k)


def read_network(path):
    """HCMD file -> [(weights, bias, activation)] with the classifier last."""
    names = {0: "relu", 1: "tanh", 2: "identity"}
    with open(path, "rb") as f:
        _, count = _header(f, b"HCMD", "<II")
        shapes = [struct.unpack("<IIB", f.read(9)) for _ in range(count)]
        layers = []
        for fan_in, fan_out, tag in shapes:
            w = np.frombuffer(f.read(8 * fan_in * fan_out), dtype="<f8")
            b = np.frombuffer(f.read(8 * fan_out), dtype="<f8")
            layers.append((w.reshape(fan_in, fan_out), b, names[tag]))
    return layers


def read_split(path):
    """Split text file -> {"query": idx, "train": idx, "database": idx}."""
    sections = {}
    with open(path) as f:
        for line in f:
            name, _, rest = line.partition(":")
            sections[name.strip()] = np.array(rest.split(), dtype=np.int64)
    return sections


def read_hadamard_losses(path):
    """Per-epoch hadamard loss column of a training history CSV."""
    with open(path, newline="") as f:
        return [float(row["hadamard_loss"]) for row in csv.DictReader(f)]


def hadamard_entries(rows, cols):
    """Sylvester entries H[i, j] = (-1)^popcount(i & j) as int64."""
    rows = np.asarray(rows, dtype=np.uint64)[:, None]
    cols = np.asarray(cols, dtype=np.uint64)[None, :]
    return 1 - 2 * (np.bitwise_count(rows & cols) & 1).astype(np.int64)


def unpack(words, code_bits):
    """(N, W) uint64 words, LSB-first -> (N, K) int8 of +-1."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :code_bits]
    return bits.astype(np.int8) * 2 - 1


def pack(bits):
    """(N, K) bool -> (N, ceil(K/64)) uint64 words, LSB-first."""
    n, k = bits.shape
    padded = np.zeros((n, -(-k // 64) * 64), dtype=bool)
    padded[:, :k] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def hash_activations(layers, x):
    """Tanh hash-layer outputs of the saved network for rows x."""
    a = np.asarray(x, dtype=np.float64)
    for w, b, activation in layers[:-1]:
        z = a @ w + b
        a = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
    return a


def full_ranking(query_pm1, db_pm1):
    """Database order per query by (Hamming distance, index) -> (order, dist)."""
    k = query_pm1.shape[1]
    dist = (k - query_pm1.astype(np.int32) @ db_pm1.astype(np.int32).T) // 2
    return np.argsort(dist, axis=1, kind="stable"), dist


def average_precision(relevant_in_rank_order):
    """Textbook AP: mean over relevant items of (their count so far / rank)."""
    ranks = np.flatnonzero(relevant_in_rank_order) + 1
    if ranks.size == 0:
        return None
    return float(np.mean(np.arange(1, ranks.size + 1) / ranks))


def relevant_mask(query_label_row, db_labels):
    """Database items sharing at least one class with the query."""
    return db_labels[:, np.flatnonzero(query_label_row)].any(axis=1)


def textbook_aps(query_pm1, db_pm1, query_labels, db_labels, chunk=16):
    """Full-ranking AP of every query, computed in chunks of queries."""
    aps = []
    for lo in range(0, query_pm1.shape[0], chunk):
        order, _ = full_ranking(query_pm1[lo:lo + chunk], db_pm1)
        for row, labels in zip(order, query_labels[lo:lo + chunk]):
            aps.append(average_precision(relevant_mask(labels, db_labels)[row]))
    return aps


def codeword_targets(codewords, label_rows):
    """Sign of the summed codewords of each item's classes, and its mask."""
    summed = label_rows.astype(np.int64) @ codewords.astype(np.int64)
    return np.sign(summed), summed != 0


def codeword_agreement(u, codewords, label_rows):
    """Share of items with sign(u) equal to the target on every unmasked bit."""
    target, mask = codeword_targets(codewords, label_rows)
    signs = np.where(u >= 0.0, 1, -1)
    return float(np.mean(np.all((signs == target) | ~mask, axis=1)))


def min_distance_bits(codewords):
    """Smallest Hamming distance between two distinct codewords."""
    c, k = codewords.shape
    gram = codewords.astype(np.int64) @ codewords.T.astype(np.int64)
    off = gram[~np.eye(c, dtype=bool)]
    return int((k - off.max()) // 2) if off.size else k


def select_order(code_bits, num_classes):
    """Smallest power of two >= K and >= C + 1 (index 0 is never selected)."""
    order = 1
    while order < code_bits or order < num_classes + 1:
        order *= 2
    return order


def direct_codebook_indices(codewords):
    """Hadamard column index of each codeword, read off rows 1, 2, 4, ...

    Column c of a Sylvester matrix has H[2^b, c] = -1 exactly when bit b of
    c is set, so these rows spell out the index.
    """
    k = codewords.shape[1]
    bits = [codewords[:, 1 << b] == -1 for b in range(k.bit_length() - 1)]
    return sum(bit.astype(np.int64) << b for b, bit in enumerate(bits))


def check_direct_codebook(codewords, selected):
    """Problems with a codebook taken straight from Hadamard columns."""
    c, k = codewords.shape
    problems = []
    inferred = direct_codebook_indices(codewords)
    if not np.array_equal(codewords, hadamard_entries(inferred, np.arange(k))):
        problems.append("codewords are not Sylvester columns")
    if not np.array_equal(inferred, np.asarray(selected)):
        problems.append("codewords are not the selected columns")
    if np.any(inferred == 0) or np.unique(inferred).size != c:
        problems.append("column 0 or a repeated column selected")
    gram = codewords.astype(np.int64) @ codewords.T.astype(np.int64)
    if not np.array_equal(gram, k * np.eye(c, dtype=np.int64)):
        problems.append("Gram matrix is not K * I")
    if np.any(codewords.astype(np.int64).sum(axis=1) != 0):
        problems.append("a codeword is not zero-sum")
    return problems


def check_projected_codebook(codewords, selected, projection):
    """Problems with a codebook made as sign(H[selected] @ P)."""
    order = projection.shape[0]
    rows = hadamard_entries(selected, np.arange(order)).astype(np.float64)
    expected = np.where(rows @ projection >= 0.0, 1, -1)
    problems = []
    if not np.array_equal(codewords, expected):
        problems.append("codewords differ from sign(H[selected] @ P)")
    if np.unique(codewords, axis=0).shape[0] != codewords.shape[0]:
        problems.append("duplicate codewords")
    return problems
