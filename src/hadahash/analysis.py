"""Diagnostics: bit balance, activation spread, retrieval confusion,
codebook structure, and the lambda/ablation sweeps."""

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .codebook import Codebook
from .data import FeatureSet, LabelSet, Split
from .model import VARIANTS, hash_activations
from .retrieval import BinaryCodeSet, RankedList, binarize, evaluate, unpack_codes
from .trainer import TrainConfig, train


def bit_balance(codes: BinaryCodeSet) -> np.ndarray:
    """Fraction of +1 bits per position, a length-K vector in [0, 1]."""
    if codes.num_items < 1:
        raise ValueError("need at least one code")
    bits = unpack_codes(codes)
    return (bits == 1).mean(axis=0)


def activation_histogram(u: np.ndarray, bins: int) -> Tuple[np.ndarray, np.ndarray]:
    """Counts of pre-sign activations over `bins` equal intervals of [-1, 1].

    Returns (counts, edges); counts always sum to the number of activations.
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    u = np.clip(np.asarray(u, dtype=np.float64), -1.0, 1.0)
    counts, edges = np.histogram(u.ravel(), bins=bins, range=(-1.0, 1.0))
    return counts, edges


def confusion_matrix(rankings: Sequence[RankedList], query_labels: np.ndarray,
                     db_labels: np.ndarray, top_r: int,
                     weighted: bool = True) -> np.ndarray:
    """Row-stochastic class confusion from retrieval results.

    Entry (a, b) accumulates, over queries carrying class a, the weight of
    ranked database items carrying class b within the top `top_r`. Early
    ranks count more: w(r) = 1 / log2(r + 1) with ranks starting at 1, or
    uniformly when weighted is False. Rows are normalized to sum to one;
    a class with no queries keeps an all-zero row.
    """
    query_labels = np.asarray(query_labels, dtype=np.int64)
    db_labels = np.asarray(db_labels, dtype=np.int64)
    n_classes = query_labels.shape[1]
    if len(rankings) != query_labels.shape[0]:
        raise ValueError("one ranking per query row is required")
    if top_r < 1:
        raise ValueError("top_r must be positive")

    matrix = np.zeros((n_classes, n_classes))
    for ranked, query_row in zip(rankings, query_labels):
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


def _train_and_map(config: TrainConfig, features: FeatureSet, labels: LabelSet,
                   split: Split, codebook: Codebook, hidden: Tuple[int, ...],
                   map_at: Optional[int] = None) -> float:
    net, _ = train(config, features, labels, split, codebook, hidden=hidden)
    db_u = hash_activations(net, features.values[split.database])
    query_u = hash_activations(net, features.values[split.query])
    report = evaluate(binarize(query_u), binarize(db_u),
                      labels.values[split.query], labels.values[split.database],
                      limit=map_at)
    return report.mean_ap


DEFAULT_LAMBDA_GRID = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


def lambda_sweep(config: TrainConfig, lambdas: Sequence[float],
                 features: FeatureSet, labels: LabelSet, split: Split,
                 codebook: Codebook, hidden: Tuple[int, ...] = (256,),
                 map_at: Optional[int] = None) -> List[Tuple[float, float]]:
    """One full train+evaluate per lambda value, seeds shared across runs."""
    rows = []
    for lam in lambdas:
        run_config = replace(config, lambda_=float(lam), variant="full")
        rows.append((float(lam), _train_and_map(
            run_config, features, labels, split, codebook, hidden, map_at)))
    return rows


def ablate(config: TrainConfig, features: FeatureSet, labels: LabelSet,
           split: Split, codebook: Codebook, hidden: Tuple[int, ...] = (256,),
           map_at: Optional[int] = None) -> List[Tuple[str, float]]:
    """mAP for the full objective and its two single-loss ablations.

    All three runs share the seed and architecture; only the loss terms
    differ. "codebook_only" drops the classifier term (lambda is ignored)
    and "classifier_only" trains through the classification loss alone.
    """
    rows = []
    for variant in VARIANTS:
        run_config = replace(config, variant=variant)
        rows.append((variant, _train_and_map(
            run_config, features, labels, split, codebook, hidden, map_at)))
    return rows
