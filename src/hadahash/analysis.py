"""Diagnostics: bit balance, activation spread, retrieval confusion,
codebook structure, and the lambda/ablation sweeps."""

from dataclasses import replace
from itertools import zip_longest
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .codebook import Codebook
from .data import FeatureSet, LabelSet, Split
from .model import VARIANTS, hash_layer, row_blocks
from .retrieval import (BinaryCodeSet, RankedList, _check_cutoff, encode_rows,
                        evaluate, unpack_codes)
from .trainer import TrainConfig, train


def bit_balance(codes: BinaryCodeSet) -> np.ndarray:
    """Fraction of +1 bits per position, a length-K vector in [0, 1].

    The +1 bits are counted exactly one block of `row_blocks(N, K)` at a
    time, so memory holds one block of unpacked bits, at most
    max(2**17, 128 K) bytes, and the fractions are those of
    `(unpack_codes(codes) == 1).mean(axis=0)` to the last bit.
    """
    if codes.num_items < 1:
        raise ValueError("need at least one code")
    ones = np.zeros(codes.code_bits, dtype=np.int64)
    for lo, hi in row_blocks(codes.num_items, codes.code_bits):
        bits = unpack_codes(replace(codes, words=codes.words[lo:hi]))
        ones += np.count_nonzero(bits == 1, axis=0)
    return ones / codes.num_items


def activation_histogram(values: np.ndarray, rows: np.ndarray, activations,
                         width: int,
                         bins: int) -> Tuple[np.ndarray, np.ndarray]:
    """Counts of `activations(values[rows])`, clipped to [-1, 1], over `bins`
    equal intervals of [-1, 1], summed exactly one block of
    `row_blocks(rows.size, width)` at a time, `width` as in
    `retrieval.encode_rows`.

    Returns (counts, edges); counts always sum to the number of activations.
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    counts = np.zeros(bins, dtype=np.intp)
    for lo, hi in row_blocks(rows.size, width):
        u = np.clip(activations(values[rows[lo:hi]]), -1.0, 1.0)
        block, edges = np.histogram(u, bins=bins, range=(-1.0, 1.0))
        counts += block
    return counts, edges


def confusion_matrix(rankings: Iterable[RankedList], query_labels: np.ndarray,
                     db_labels: np.ndarray, top_r: int,
                     weighted: bool = True) -> np.ndarray:
    """Row-stochastic class confusion from retrieval results.

    Entry (a, b) accumulates, over queries carrying class a, the weight of
    ranked database items carrying class b within the top `top_r`. Early
    ranks count more: w(r) = 1 / log2(r + 1) with ranks starting at 1, or
    uniformly when weighted is False. Rows are normalized to sum to one;
    a class with no queries keeps an all-zero row. Labels are 0/1; only
    the top-R label rows of each query are read and converted, never the
    whole database's.

    The rankings, one per query row in order, may be any iterable, a
    generator too: they are consumed one at a time, and a count that is
    not the query count is a ValueError once it shows.
    """
    query_labels = np.asarray(query_labels, dtype=np.int64)
    db_labels = np.asarray(db_labels)
    n_classes = query_labels.shape[1]
    _check_cutoff(top_r, "top_r")

    matrix = np.zeros((n_classes, n_classes))
    for ranked, query_row in zip_longest(rankings, query_labels):
        if ranked is None or query_row is None:
            raise ValueError("one ranking per query row is required")
        r = min(top_r, ranked.indices.size)
        ranks = np.arange(1, r + 1)
        weights = 1.0 / np.log2(ranks + 1) if weighted else np.ones(r)
        retrieved = db_labels[ranked.indices[:r]].astype(np.float64)
        contribution = weights @ retrieved
        for cls in np.flatnonzero(query_row):
            matrix[cls] += contribution
    sums = matrix.sum(axis=1, keepdims=True)
    return np.divide(matrix, sums, out=np.zeros_like(matrix), where=sums > 0)


def codebook_gram(codebook: Codebook) -> np.ndarray:
    """Pairwise codeword inner products scaled by 1/K; identity when exact."""
    words = codebook.codewords.astype(np.float64)
    return (words @ words.T) / codebook.code_bits


def _train_and_map(configs: Sequence[TrainConfig], features: FeatureSet,
                   labels: LabelSet, split: Split, codebook: Codebook,
                   hidden: Tuple[int, ...],
                   map_at: Optional[int] = None) -> List[float]:
    """The mAP of one train, encode and evaluate run per config, in order.
    The cutoff is checked before the first run trains."""
    if map_at is not None:
        _check_cutoff(map_at, "map_at")
    maps = []
    for config in configs:
        net, _ = train(config, features, labels, split, codebook,
                       hidden=hidden)
        encode = hash_layer(net)
        db_codes, query_codes = (
            encode_rows(features.values, rows, encode, net.widest_layer,
                        net.code_bits)
            for rows in (split.database, split.query))
        maps.append(evaluate(query_codes, db_codes, labels.values[split.query],
                             labels.values[split.database],
                             limit=map_at).mean_ap)
    return maps


DEFAULT_LAMBDA_GRID = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


def lambda_sweep(config: TrainConfig, lambdas: Sequence[float],
                 features: FeatureSet, labels: LabelSet, split: Split,
                 codebook: Codebook, hidden: Tuple[int, ...] = (256,),
                 map_at: Optional[int] = None) -> List[Tuple[float, float]]:
    """One full train+evaluate per lambda value, seeds shared across runs."""
    # Every lambda is checked before the first one trains.
    configs = [replace(config, lambda_=float(lam), variant="full")
               for lam in lambdas]
    return list(zip([run_config.lambda_ for run_config in configs],
                    _train_and_map(configs, features, labels, split, codebook,
                                   hidden, map_at)))


def ablate(config: TrainConfig, features: FeatureSet, labels: LabelSet,
           split: Split, codebook: Codebook, hidden: Tuple[int, ...] = (256,),
           map_at: Optional[int] = None) -> List[Tuple[str, float]]:
    """mAP for the full objective and its two single-loss ablations.

    All three runs share the seed and architecture; only the loss terms
    differ. "codebook_only" drops the classifier term (lambda is ignored)
    and "classifier_only" trains through the classification loss alone.
    """
    configs = [replace(config, variant=variant) for variant in VARIANTS]
    return list(zip(VARIANTS, _train_and_map(configs, features, labels, split,
                                             codebook, hidden, map_at)))
