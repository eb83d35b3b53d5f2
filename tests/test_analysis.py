import math
import tracemalloc

import numpy as np
import pytest

from hadahash.analysis import (activation_histogram, bit_balance,
                               codebook_gram, confusion_matrix)
from hadahash.codebook import build_codebook
from hadahash.retrieval import RankedList, pack_codes, search


def _confusion_loops(rankings, query_labels, db_labels, top_r, weighted):
    """Row-normalized confusion accumulated one retrieved item at a time."""
    n_classes = len(query_labels[0])
    matrix = [[0.0] * n_classes for _ in range(n_classes)]
    for ranked, query_row in zip(rankings, query_labels):
        for a in range(n_classes):
            if not query_row[a]:
                continue
            for position, item in enumerate(ranked.indices.tolist()[:top_r]):
                weight = 1.0 / math.log2(position + 2) if weighted else 1.0
                for b in range(n_classes):
                    if db_labels[item][b]:
                        matrix[a][b] += weight
    for a in range(n_classes):
        total = sum(matrix[a])
        matrix[a] = [v / total if total > 0 else 0.0 for v in matrix[a]]
    return matrix


def _multilabel(rng, n, n_classes, unused=()):
    """1-3 labels per row, never in the `unused` classes."""
    allowed = [c for c in range(n_classes) if c not in unused]
    labels = np.zeros((n, n_classes), dtype=np.int8)
    for row in labels:
        row[rng.choice(allowed, size=rng.integers(1, 4), replace=False)] = 1
    return labels


class TestConfusionMatrix:
    @pytest.fixture()
    def case(self):
        rng = np.random.default_rng(4)
        n_query, n_db, n_classes = 7, 30, 5
        # Class 4 labels database items but no query.
        query_labels = _multilabel(rng, n_query, n_classes, unused=(4,))
        db_labels = _multilabel(rng, n_db, n_classes)
        queries = pack_codes(rng.random((n_query, 6)) < 0.5)
        database = pack_codes(rng.random((n_db, 6)) < 0.5)
        return search(queries, database), query_labels, db_labels

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("top_r", [1, 5, 30, 45])
    def test_matches_loops(self, case, weighted, top_r):
        rankings, query_labels, db_labels = case
        matrix = confusion_matrix(rankings, query_labels, db_labels, top_r,
                                  weighted=weighted)
        expected = _confusion_loops(rankings, query_labels.tolist(),
                                    db_labels.tolist(), top_r, weighted)
        assert matrix.shape == (5, 5)
        assert np.allclose(matrix, expected, rtol=1e-12, atol=0.0)
        assert np.all(matrix[4] == 0.0)
        assert np.allclose(matrix[:4].sum(axis=1), 1.0, rtol=1e-12)

    def test_top_r_beyond_database_counts_every_item(self, case):
        rankings, query_labels, db_labels = case
        assert np.array_equal(
            confusion_matrix(rankings, query_labels, db_labels, 30),
            confusion_matrix(rankings, query_labels, db_labels, 1000))

    def test_weights_by_rank(self):
        # One query of class 0; ranks 1 and 2 carry classes 1 and 0.
        rankings = [RankedList(indices=np.array([1, 0]),
                               distances=np.array([0, 1], dtype=np.uint32))]
        db_labels = np.array([[1, 0], [0, 1]])
        matrix = confusion_matrix(rankings, np.array([[1, 0]]), db_labels, 2)
        w1, w2 = 1.0, 1.0 / math.log2(3)
        assert matrix[0].tolist() == pytest.approx([w2 / (w1 + w2),
                                                    w1 / (w1 + w2)])
        assert matrix[1].tolist() == [0.0, 0.0]
        unweighted = confusion_matrix(rankings, np.array([[1, 0]]), db_labels,
                                      2, weighted=False)
        assert unweighted[0].tolist() == [0.5, 0.5]

    def test_peak_does_not_grow_with_the_database(self):
        # Only the top-R label rows of each query are converted: 100,000
        # items of 32 classes would be 25.6 MB as int64.
        rng = np.random.default_rng(6)
        labels = (rng.random((100000, 32)) < 0.1).astype(np.uint8)
        peaks = {}
        for n in (10000, 100000):
            rankings = [RankedList(indices=rng.permutation(n)[:100],
                                   distances=np.zeros(100, dtype=np.uint32))
                        for _ in range(16)]
            tracemalloc.start()
            try:
                confusion_matrix(rankings, labels[:16], labels[:n], 100)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[100000] - peaks[10000] <= 64 * 1024

    def test_consumes_a_generator_one_ranking_at_a_time(self, case):
        rankings, query_labels, db_labels = case
        consumed = []

        def one_at_a_time():
            for ranked in rankings:
                consumed.append(ranked)
                yield ranked

        matrix = confusion_matrix(one_at_a_time(), query_labels, db_labels, 5)
        assert np.array_equal(
            matrix, confusion_matrix(rankings, query_labels, db_labels, 5))
        assert consumed == rankings

    def test_rejects_bad_arguments(self, case):
        # Seven queries; a list or a generator of 0, 6 or 8 rankings.
        rankings, query_labels, db_labels = case
        extended = rankings + rankings[:1]
        for count in (0, 6, 8):
            for given in (extended[:count], iter(extended[:count])):
                with pytest.raises(ValueError, match="one ranking per query"):
                    confusion_matrix(given, query_labels, db_labels, 5)
        with pytest.raises(ValueError, match="top_r"):
            confusion_matrix(rankings, query_labels, db_labels, 0)


class TestBitBalance:
    @pytest.mark.parametrize("k", [1, 7, 64, 65, 130])
    def test_matches_loops(self, k):
        rng = np.random.default_rng(k)
        bits = rng.random((23, k)) < rng.random(k)
        expected = [sum(1 for row in bits.tolist() if row[j]) / 23
                    for j in range(k)]
        assert bit_balance(pack_codes(bits)).tolist() == pytest.approx(
            expected, rel=0, abs=1e-15)

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError, match="at least one code"):
            bit_balance(pack_codes(np.zeros((0, 8), dtype=bool)))


class TestCodebookGram:
    # (8, 12) is projected; at seed 1, 8 bits give 13 classes a duplicate.
    @pytest.mark.parametrize("bits, classes", [(16, 16), (16, 10), (8, 12)])
    def test_matches_loops(self, bits, classes):
        book = build_codebook(bits, classes, seed=1)
        words = book.codewords.tolist()
        expected = [[sum(x * y for x, y in zip(words[a], words[b])) / bits
                     for b in range(classes)] for a in range(classes)]
        gram = codebook_gram(book)
        assert gram.tolist() == expected
        assert np.all(np.diag(gram) == 1.0)

    def test_direct_codebook_is_identity(self):
        book = build_codebook(32, 20, seed=0)
        assert book.provenance == "direct"
        assert np.array_equal(codebook_gram(book), np.eye(20))


class TestActivationHistogram:
    @pytest.mark.parametrize("bins", [1, 2, 5, 50])
    def test_matches_loops(self, bins):
        rng = np.random.default_rng(bins)
        u = np.concatenate([rng.uniform(-1.3, 1.3, size=200),
                            [-1.0, 0.0, 1.0, -2.0, 2.0, 0.5, -0.5]])
        u = u.reshape(9, 23)  # a batch of activations, as the CLI passes it
        counts, edges = activation_histogram(u, np.arange(9), lambda b: b,
                                             bins)
        assert edges.tolist() == np.linspace(-1.0, 1.0, bins + 1).tolist()
        expected = [0] * bins
        for value in np.ravel(u).tolist():
            value = min(max(value, -1.0), 1.0)
            for i in range(bins):
                last = i == bins - 1
                if edges[i] <= value and (value < edges[i + 1]
                                          or (last and value <= edges[i + 1])):
                    expected[i] += 1
                    break
        assert counts.tolist() == expected
        assert counts.sum() == np.size(u)

    def test_rejects_no_bins(self):
        with pytest.raises(ValueError, match="bins"):
            activation_histogram(np.zeros((3, 2)), np.arange(3),
                                 lambda b: b, 0)
