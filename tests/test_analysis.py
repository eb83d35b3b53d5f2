import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hadahash import cli, retrieval
from hadahash.analysis import (ablate, activation_histogram, bit_balance,
                               codebook_gram, confusion_matrix, lambda_sweep)
from hadahash.codebook import build_codebook, save_codebook
from hadahash.data import (make_synthetic_blobs, save_features, save_labels,
                           save_split, split_protocol)
from hadahash.model import hash_layer, row_blocks
from hadahash.retrieval import (RankedList, encode_rows, evaluate, pack_codes,
                                search)
from hadahash.trainer import TrainConfig, train


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
        with pytest.raises(ValueError, match="top_r must be positive"):
            confusion_matrix(rankings, query_labels, db_labels, 0)
        # 2.5 was a TypeError from the slice of the ranking.
        for top_r in (2.5, True):
            with pytest.raises(ValueError, match="top_r must be an integer"):
                confusion_matrix(rankings, query_labels, db_labels, top_r)


class TestBitBalance:
    @pytest.mark.parametrize("k", [1, 7, 64, 65, 130])
    def test_matches_loops(self, k):
        rng = np.random.default_rng(k)
        bits = rng.random((23, k)) < rng.random(k)
        expected = [sum(1 for row in bits.tolist() if row[j]) / 23
                    for j in range(k)]
        assert bit_balance(pack_codes(bits)).tolist() == pytest.approx(
            expected, rel=0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 1025, 2049, 5000])
    def test_blocks_give_the_whole_set_mean(self, n):
        # Counted block by block, divided once: the float64 fractions of
        # one mean over every row, to the last bit.
        rng = np.random.default_rng(n)
        bits = rng.random((n, 70)) < rng.random(70)
        assert (bit_balance(pack_codes(bits)).tobytes()
                == bits.mean(axis=0).tobytes())

    def test_peak_does_not_grow_with_the_set(self):
        # One block of unpacked bits at a time, never N x K of them.
        peaks = {}
        for n in (2048, 32768):
            codes = pack_codes(np.random.default_rng(n).random((n, 64)) < 0.5)
            tracemalloc.start()
            try:
                bit_balance(codes)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[32768] - peaks[2048] <= 16 * 1024

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
                                             23, bins)
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
                                 lambda b: b, 2, 0)


class TestSweeps:
    """`lambda_sweep` and `ablate` rows against a hand-run pipeline: train,
    encode both subsets, evaluate."""

    # 2,388 database items through a 1024-wide layer take 19 row blocks,
    # 128 rows each but the last, so the runs encode on threads.
    CONFIG = TrainConfig(epochs=2, batch_size=16, base_lr=0.05, seed=1)
    HIDDEN = (8, 1024)
    FLAGS = ["--hidden", ",".join(map(str, HIDDEN)), "--epochs", "2",
             "--batch-size", "16", "--lr", "0.05", "--seed", "1"]

    @pytest.fixture(scope="class")
    def problem(self):
        features, labels = make_synthetic_blobs(4, 600, 6, 0.5, seed=2)
        split = split_protocol(labels, 3, 10, seed=2)
        return features, labels, split, build_codebook(8, 4, seed=0)

    @staticmethod
    def _hand_map(config, problem, map_at):
        features, labels, split, book = problem
        net, _ = train(config, features, labels, split, book,
                       hidden=TestSweeps.HIDDEN)
        assert len(row_blocks(split.database.size, net.widest_layer)) == 19
        encode = hash_layer(net)
        db_codes = encode_rows(features.values, split.database, encode,
                               net.widest_layer, 8)
        query_codes = encode_rows(features.values, split.query, encode,
                                  net.widest_layer, 8)
        return evaluate(query_codes, db_codes, labels.values[split.query],
                        labels.values[split.database], limit=map_at).mean_ap

    @pytest.fixture
    def threads(self, monkeypatch):
        """Set the worker count `encode_rows` and `evaluate` see."""
        return lambda n: monkeypatch.setattr(retrieval, "_worker_count",
                                             lambda: n)

    @staticmethod
    def _cli_rows(problem, tmp_path, command, flags):
        features, labels, split, book = problem
        paths = {name: str(tmp_path / name) for name in (
            "f.hcfs", "l.hcls", "s.txt", "b.hccb", "out.csv")}
        save_features(features, paths["f.hcfs"])
        save_labels(labels, paths["l.hcls"])
        save_split(split, paths["s.txt"])
        save_codebook(book, paths["b.hccb"])
        argv = [command, "--features", paths["f.hcfs"],
                "--labels", paths["l.hcls"], "--split", paths["s.txt"],
                "--codebook", paths["b.hccb"], *TestSweeps.FLAGS, *flags,
                "--out", paths["out.csv"]]
        assert cli.main(argv) == 0
        with open(paths["out.csv"], newline="") as f:
            return list(csv.reader(f))

    @pytest.mark.parametrize("map_at", [None, 7])
    def test_lambda_sweep_rows_are_hand_runs(self, problem, threads, map_at):
        lambdas = [0, 0.5, 2]
        threads(1)
        expected = [(float(lam), self._hand_map(
            replace(self.CONFIG, lambda_=float(lam)), problem, map_at))
            for lam in lambdas]
        threads(3)
        # The config's variant is overridden: every sweep run is "full".
        rows = lambda_sweep(replace(self.CONFIG, variant="codebook_only"),
                            lambdas, *problem, hidden=self.HIDDEN,
                            map_at=map_at)
        assert rows == expected
        assert [type(lam) for lam, _ in rows] == [float] * 3
        assert [lam for lam, _ in rows] == [0.0, 0.5, 2.0]
        assert len({value for _, value in rows}) > 1

    @pytest.mark.parametrize("map_at", [None, 7])
    def test_ablate_rows_are_hand_runs(self, problem, threads, map_at):
        threads(1)
        expected = [(variant, self._hand_map(
            replace(self.CONFIG, variant=variant), problem, map_at))
            for variant in ("full", "codebook_only", "classifier_only")]
        threads(3)
        assert ablate(self.CONFIG, *problem, hidden=self.HIDDEN,
                      map_at=map_at) == expected

    @pytest.mark.parametrize("map_at", [None, 7])
    def test_sweep_csv_is_the_rows(self, problem, threads, tmp_path, map_at):
        threads(1)
        rows = lambda_sweep(self.CONFIG, [0, 0.5, 2], *problem,
                            hidden=self.HIDDEN, map_at=map_at)
        threads(3)
        flags = ["--lambdas", "0,0.5,2"]
        if map_at is not None:
            flags += ["--map-at", str(map_at)]
        assert self._cli_rows(problem, tmp_path, "sweep", flags) == [
            ["lambda", "map"], *([repr(lam), repr(value)]
                                 for lam, value in rows)]

    @pytest.mark.parametrize("map_at", [None, 7])
    def test_ablate_csv_is_the_rows(self, problem, threads, tmp_path, map_at):
        threads(1)
        rows = ablate(self.CONFIG, *problem, hidden=self.HIDDEN,
                      map_at=map_at)
        threads(3)
        flags = [] if map_at is None else ["--map-at", str(map_at)]
        assert self._cli_rows(problem, tmp_path, "ablate", flags) == [
            ["variant", "map"], *([variant, repr(value)]
                                  for variant, value in rows)]
