import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadahash import retrieval
from hadahash.io import FileFormatError
from hadahash.model import (ENCODE_BLOCK_ENTRIES, ENCODE_BLOCK_MIN_ROWS,
                            NetworkSpec, build_network, hash_layer, row_blocks)
from hadahash.retrieval import (DEFAULT_PRECISION_KS, BinaryCodeSet,
                                EvalReport, _rank_block, binarize, encode_rows,
                                evaluate, load_codes, lsh_codes, pack_codes,
                                save_codes, search, unpack_codes)
from hadahash.rng import make_rng, standard_normal

# The row width whose blocks hold 1024 rows.
BLOCKS_OF_1024 = ENCODE_BLOCK_ENTRIES // 1024


def _random_pm1(n, k, seed):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, k)) < 0.5, 1, -1).astype(np.int8)


def _brute_force_ranking(query_pm1, db_pm1):
    """(indices, distances) sorted by (distance, index) in plain Python."""
    distances = [int((row != query_pm1).sum()) for row in db_pm1]
    order = sorted(range(len(distances)), key=lambda i: (distances[i], i))
    return order, [distances[i] for i in order]


def _textbook_metrics(q_pm1, db_pm1, q_labels, db_labels, map_at, denominator,
                      ks):
    """Per-query AP, mean PR-101 precision and mean P@k, one loop each."""
    grid = np.linspace(0.0, 1.0, 101)
    n = len(db_pm1)
    cut = n if map_at is None else min(map_at, n)
    aps, pr_rows, pk_rows, skipped = [], [], [], 0
    for query, labels in zip(q_pm1, q_labels):
        order, _ = _brute_force_ranking(query, db_pm1)
        rel = [bool(np.any(db_labels[i] & labels)) for i in order]
        n_rel = sum(rel)
        if n_rel == 0:
            skipped += 1
            continue
        hits, precision, recall = 0, [], []
        for k, is_rel in enumerate(rel, start=1):
            hits += is_rel
            precision.append(hits / k)
            recall.append(hits / n_rel)
        total = sum(precision[k] for k in range(cut) if rel[k])
        aps.append(total / (min(cut, n_rel) if denominator == "cutoff"
                            else n_rel))
        pr_rows.append([max(p for p, r in zip(precision, recall) if r >= level)
                        for level in grid])
        pk_rows.append([precision[k - 1] for k in ks])
    return (np.array(aps), np.mean(pr_rows, axis=0), np.mean(pk_rows, axis=0),
            skipped)


def _evaluate_over_all_ranks(queries, database, query_labels, db_labels,
                             limit, denominator, precision_ks):
    """evaluate as it scored every query over all N ranks, kept verbatim."""
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
                              code_bits=queries.code_bits)
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
        prec_at_sum += prec[np.array(ks, dtype=np.int64) - 1]

    evaluated = len(aps)
    ap_array = np.array(aps)
    return EvalReport(
        average_precisions=ap_array,
        mean_ap=float(ap_array.mean()),
        pr_points=np.column_stack([grid, pr_sum / evaluated]),
        precision_at=[(k, float(v / evaluated)) for k, v in zip(ks, prec_at_sum)],
        skipped_queries=skipped,
        params={"map_at": r_cut, "code_bits": queries.code_bits,
                "mode": "sign", "denominator": denominator})


class TestPacking:
    def test_lsb_first_golden(self):
        values = np.array([[1, -1, 1, 1], [-1, -1, -1, 1]])
        codes = pack_codes(values)
        assert codes.words.tolist() == [[0b1101], [0b1000]]

        wide = -np.ones((1, 65), dtype=np.int8)
        wide[0, [0, 63, 64]] = 1
        assert pack_codes(wide).words.tolist() == [[1 + 2**63, 1]]

    @pytest.mark.parametrize("k", [1, 8, 63, 64, 65, 130])
    def test_round_trip(self, k):
        values = _random_pm1(37, k, seed=k)
        codes = pack_codes(values)
        assert codes.words.dtype == np.uint64
        assert codes.words.shape == (37, (k + 63) // 64)
        assert np.array_equal(unpack_codes(codes), values)
        # padding bits beyond K stay zero
        if k % 64:
            assert not np.any(codes.words[:, -1] >> np.uint64(k % 64))

    @pytest.mark.parametrize("k", [1, 7, 8, 32, 63, 64, 65, 128])
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_bytes_are_numpys_row_packing(self, n, k):
        # Whole-byte rows take one flat packbits; each row's bytes are those
        # of packbits along the row, then zero up to a whole word.
        values = _random_pm1(n, k, seed=k)
        expected = np.zeros((n, (k + 63) // 64 * 8), dtype=np.uint8)
        expected[:, :(k + 7) // 8] = np.packbits(values > 0, axis=1,
                                                 bitorder="little")
        strided = np.repeat(values > 0, 2, axis=1)[:, ::2]
        for given in (values, values > 0, strided):
            words = pack_codes(given).words
            assert words.dtype == np.uint64 and words.shape == (n, (k + 63) // 64)
            assert words.tobytes() == expected.tobytes()

    def test_unpack_holds_one_byte_per_bit(self):
        # The +-1 int8 matrix is made in place, with no wider temporary.
        codes = pack_codes(_random_pm1(20000, 64, seed=1))
        tracemalloc.start()
        try:
            bits = unpack_codes(codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits.dtype == np.int8 and bits.shape == (20000, 64)
        assert peak <= bits.nbytes + 16 * 1024

    def test_boolean_input_matches_signs(self):
        values = _random_pm1(20, 70, seed=3)
        assert np.array_equal(pack_codes(values > 0).words,
                              pack_codes(values).words)

    @pytest.mark.parametrize("k", [1, 8, 63, 64, 65, 130])
    def test_save_load_round_trip(self, tmp_path, k):
        codes = pack_codes(_random_pm1(11, k, seed=k))
        path = tmp_path / "codes.hcbc"
        save_codes(codes, path)
        loaded = load_codes(path)
        assert loaded.code_bits == k
        assert np.array_equal(loaded.words, codes.words)
        save_codes(loaded, tmp_path / "again.hcbc")
        assert (tmp_path / "again.hcbc").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("k", [1, 10, 63, 65, 130])
    @pytest.mark.parametrize("padding_bit", ["first", "last"])
    def test_load_rejects_set_padding_bits(self, tmp_path, k, padding_bit):
        codes = pack_codes(_random_pm1(5, k, seed=k))
        words = codes.words.copy()
        bit = k % 64 if padding_bit == "first" else 63
        words[3, -1] |= np.uint64(1 << bit)
        path = tmp_path / "codes.hcbc"
        save_codes(BinaryCodeSet(words=words, code_bits=k), path)
        with pytest.raises(FileFormatError, match=f"code length {k}"):
            load_codes(path)

    @pytest.mark.parametrize("tag", [1, 2, 255])
    def test_load_rejects_every_threshold_tag_but_sign(self, tmp_path, tag):
        # The tag is the header's last byte: magic, version, N and K first.
        path = tmp_path / "codes.hcbc"
        save_codes(pack_codes(_random_pm1(5, 70, seed=1)), path)
        raw = bytearray(path.read_bytes())
        assert raw[16] == 0
        raw[16] = tag
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError) as error:
            load_codes(path)
        assert str(error.value) == (
            f"{path}: threshold tag {tag}; only sign codes (tag 0) are read, "
            f"mean-centred codes (tag 1) were removed")


def _at_limits(cases):
    """Each (k, n, key_type) case at limits 1, 100, n - 1 and n; a limit
    below 1 is left out, and the full ranking keeps the case's own id."""
    for k, n, key_type in cases:
        case = f"{k}-{n}-{np.dtype(key_type).name}"
        for name, limit in (("1", 1), ("100", 100), ("n-1", n - 1)):
            if limit >= 1:
                yield pytest.param(k, n, key_type, limit, id=f"{case}-{name}")
        yield pytest.param(k, n, key_type, n, id=case)


class TestSearch:
    @pytest.mark.parametrize("k", [6, 70, 130])
    @pytest.mark.parametrize("limit", [None, 1, 10, 59, 60, 75])
    def test_matches_brute_force_with_ties(self, k, limit):
        # Six bits over 60 items leave many ties at every distance.
        q_pm1, db_pm1 = _random_pm1(5, k, seed=1), _random_pm1(60, k, seed=2)
        rankings = search(pack_codes(q_pm1), pack_codes(db_pm1), limit=limit)
        assert len(rankings) == 5
        for query, ranked in zip(q_pm1, rankings):
            order, distances = _brute_force_ranking(query, db_pm1)
            r = 60 if limit is None else min(limit, 60)
            assert ranked.indices.tolist() == order[:r]
            assert ranked.distances.tolist() == distances[:r]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), k=st.integers(1, 130),
           limit=st.integers(1, 45), seed=st.integers(0, 2**16))
    def test_matches_brute_force_property(self, n, k, limit, seed):
        q_pm1, db_pm1 = _random_pm1(2, k, seed), _random_pm1(n, k, seed + 1)
        for query, ranked in zip(q_pm1, search(pack_codes(q_pm1),
                                               pack_codes(db_pm1), limit)):
            order, distances = _brute_force_ranking(query, db_pm1)
            assert ranked.indices.tolist() == order[:limit]
            assert ranked.distances.tolist() == distances[:limit]

    @pytest.mark.parametrize("k, n, key_type, limit", _at_limits([
        (64, 2, np.uint8), (130, 1, np.uint8), (130, 200, np.uint16),
        (130, 300, np.uint32), (130, 600, np.uint32)]))
    def test_full_ranking_for_every_key_width(self, k, n, key_type, limit):
        # Every ranking, full or top-R, orders (distance << shift) | index
        # keys of the smallest type that holds 64 bits per word and n - 1.
        shift = (n - 1).bit_length()
        max_distance = 64 * ((k + 63) // 64)
        assert np.min_scalar_type((max_distance << shift) | (n - 1)) == key_type
        q_pm1, db_pm1 = _random_pm1(3, k, seed=n), _random_pm1(n, k, seed=n + 1)
        r = min(limit, n)
        for query, ranked in zip(q_pm1, search(pack_codes(q_pm1),
                                               pack_codes(db_pm1), limit)):
            order, distances = _brute_force_ranking(query, db_pm1)
            assert ranked.indices.dtype == np.int64
            assert ranked.distances.dtype == np.uint32
            assert ranked.indices.tolist() == order[:r]
            assert ranked.distances.tolist() == distances[:r]

    @pytest.mark.parametrize("n", [128, 300])
    def test_full_ranking_keys_hold_set_padding_bits(self, n):
        # In memory nothing stops padding bits from being set; they count in
        # the distance, up to 64 per word, and must not overflow a key.
        rng = np.random.default_rng(n)
        words = rng.integers(0, 2**64, (n + 1, 1), dtype=np.uint64)
        query = BinaryCodeSet(words=words[:1], code_bits=1)
        ranked = search(query, BinaryCodeSet(words=words[1:], code_bits=1))[0]
        distances = np.bitwise_count(words[1:, 0] ^ words[0, 0])
        order = np.lexsort((np.arange(n), distances))
        assert np.array_equal(ranked.indices, order)
        assert np.array_equal(ranked.distances, distances[order])

    @staticmethod
    def _assert_block_ranks(block, limit, max_distance):
        """`_rank_block` ranks each row of a (B, N) block, and the row
        alone as 1-D distances, in the (distance, index) order's prefix,
        to the same bytes."""
        n = block.shape[1]
        rankings = _rank_block(block, limit, max_distance)
        assert len(rankings) == block.shape[0]
        for row, ranked in zip(block, rankings):
            [alone] = _rank_block(row, limit, max_distance)
            order = np.lexsort((np.arange(n), row))[:limit]
            for got in (ranked, alone):
                assert got.indices.dtype == np.int64
                assert got.distances.dtype == np.uint32
                assert got.indices.shape == got.distances.shape == (limit,)
                assert got.indices.flags.c_contiguous
                assert np.array_equal(got.indices, order)
                assert np.array_equal(got.distances, row[order])
            assert ranked.indices.tobytes() == alone.indices.tobytes()
            assert ranked.distances.tobytes() == alone.distances.tobytes()

    @pytest.mark.parametrize("limit", [1, 100, 999, 1000],
                             ids=["1", "100", "n-1", "n"])
    def test_full_ranking_with_64_bit_keys(self, limit):
        n, max_distance = 1000, 2**31
        rng = np.random.default_rng(0)
        distances = rng.integers(0, max_distance, n, dtype=np.uint32)
        distances[::7] = distances[0]  # ties
        distances[[5, 500]] = max_distance
        assert (np.min_scalar_type((max_distance << 10) | (n - 1))
                == np.uint64)
        # One row, then rows of few ties, of one distance only and of two
        # distances, the largest at every other item.
        self._assert_block_ranks(distances[None], limit, max_distance)
        block = np.stack([
            distances, rng.integers(0, max_distance, n, dtype=np.uint32),
            np.full(n, distances[0], dtype=np.uint32),
            np.where(np.arange(n) % 2, max_distance, 3).astype(np.uint32)])
        self._assert_block_ranks(block, limit, max_distance)

    @pytest.mark.parametrize("limit", [1, 100, 99_871])
    @pytest.mark.parametrize("levels", [(17,), (3, 9, 20)],
                             ids=["one-distance", "three-distances"])
    def test_top_r_over_heavy_ties(self, levels, limit):
        # Every item shares one of one or three distances: the top R is the
        # (distance, index) order's prefix, cut inside a tie. A block of
        # three rows adds the other tie structure and distances over 0-64.
        n = 99_872
        rng = np.random.default_rng(len(levels))
        distances = rng.choice(np.array(levels, dtype=np.uint32), n)
        self._assert_block_ranks(distances[None], limit, 64)
        other = (3, 9, 20) if len(levels) == 1 else (17,)
        block = np.stack([distances,
                          rng.choice(np.array(other, dtype=np.uint32), n),
                          rng.integers(0, 65, n, dtype=np.uint32)])
        self._assert_block_ranks(block, limit, 64)

    def test_full_ranking_at_scan_size(self):
        n = 100_000
        q_pm1, db_pm1 = _random_pm1(2, 32, seed=11), _random_pm1(n, 32, seed=12)
        for query, ranked in zip(q_pm1, search(pack_codes(q_pm1),
                                               pack_codes(db_pm1))):
            distances = (db_pm1 != query).sum(axis=1).astype(np.uint32)
            order = np.lexsort((np.arange(n), distances))
            assert ranked.indices.dtype == np.int64
            assert ranked.distances.dtype == np.uint32
            assert np.array_equal(ranked.indices, order)
            assert np.array_equal(ranked.distances, distances[order])

    @pytest.mark.parametrize("n, num_queries", [(5000, 52), (140_000, 8)],
                             ids=["blocks-of-26", "blocks-of-1"])
    def test_rankings_own_their_memory(self, n, num_queries):
        # Top-10 rankings of 5,000 items in blocks of 26 queries, and of
        # 140,000 items in blocks of one, hold 12 B per ranked item and
        # their objects, never a block's N keys per query: an array that
        # viewed its block would keep 20 KB, or 560 KB, per query alive.
        limit = 10
        words = np.random.default_rng(n).integers(
            0, 2**64, (n + num_queries, 1), dtype=np.uint64)
        queries = BinaryCodeSet(words=words[:num_queries], code_bits=64)
        database = BinaryCodeSet(words=words[num_queries:], code_bits=64)
        search(queries, database, limit)  # warm the key cache
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rankings = search(queries, database, limit)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rankings) == num_queries
        assert sum(r.indices.nbytes + r.distances.nbytes
                   for r in rankings) == num_queries * limit * 12
        # One kilobyte per query covers its ranking's three objects.
        assert grown < num_queries * (limit * 12 + 1024) < num_queries * n

    @pytest.mark.parametrize("k", [193, 256])
    @pytest.mark.parametrize("limit", [None, 1, 7])
    def test_four_word_codes_match_brute_force(self, k, limit):
        # Four words reach distances above 255, which a byte sum wraps: the
        # all -1 item lies at distance k from the all +1 query.
        q_pm1 = np.vstack([np.ones((1, k), np.int8), _random_pm1(3, k, seed=k)])
        db_pm1 = np.vstack([_random_pm1(40, k, seed=k + 1),
                            -np.ones((1, k), np.int8),
                            np.ones((1, k), np.int8)])
        rankings = search(pack_codes(q_pm1), pack_codes(db_pm1), limit=limit)
        r = 42 if limit is None else limit
        for query, ranked in zip(q_pm1, rankings):
            order, distances = _brute_force_ranking(query, db_pm1)
            assert ranked.indices.tolist() == order[:r]
            assert ranked.distances.tolist() == distances[:r]
        assert rankings[0].distances[:1].tolist() == [0]
        if limit is None:
            assert rankings[0].indices[-1] == 40
            assert rankings[0].distances[-1] == k

    def test_rejects_bad_arguments(self):
        codes = pack_codes(_random_pm1(4, 8, seed=0))
        for limit in (0, -3):
            with pytest.raises(ValueError, match="limit must be positive"):
                search(codes, codes, limit=limit)
        # 2.5 was a TypeError from the partition, and True ranked a top 1.
        for limit in (2.5, 2.0, "5", True):
            with pytest.raises(ValueError, match="limit must be an integer"):
                search(codes, codes, limit=limit)
        assert len(search(codes, codes, limit=np.int64(2))[0].indices) == 2
        with pytest.raises(ValueError, match="mismatch"):
            search(codes, pack_codes(_random_pm1(4, 9, seed=0)))


class TestEvaluate:
    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(5)
        q_pm1, db_pm1 = _random_pm1(9, 8, seed=3), _random_pm1(80, 8, seed=4)
        q_labels = (rng.random((9, 4)) < 0.3).astype(np.uint8)
        db_labels = (rng.random((80, 4)) < 0.3).astype(np.uint8)
        q_labels[:, 3] = db_labels[:, 3] = 0
        q_labels[:, 0] |= ~q_labels.any(axis=1)
        db_labels[:, 1] |= ~db_labels.any(axis=1)
        q_labels[8] = [0, 0, 0, 1]  # no database item carries class 3
        return q_pm1, db_pm1, q_labels, db_labels

    @pytest.mark.parametrize("denominator", ["cutoff", "relevant"])
    @pytest.mark.parametrize("map_at", [None, 1, 7, 80, 500])
    def test_matches_textbook_definitions(self, problem, denominator, map_at):
        q_pm1, db_pm1, q_labels, db_labels = problem
        ks = (1, 2, 5, 10, 20, 50, 100)
        report = evaluate(pack_codes(q_pm1), pack_codes(db_pm1), q_labels,
                          db_labels, limit=map_at, denominator=denominator,
                          precision_ks=ks)
        aps, pr, pk, skipped = _textbook_metrics(
            q_pm1, db_pm1, q_labels, db_labels, map_at, denominator,
            [k for k in ks if k <= 80])
        assert skipped == report.skipped_queries == 1
        np.testing.assert_allclose(report.average_precisions, aps,
                                   rtol=0, atol=1e-12)
        assert report.mean_ap == pytest.approx(aps.mean(), abs=1e-12)
        np.testing.assert_array_equal(report.pr_points[:, 0],
                                      np.linspace(0.0, 1.0, 101))
        np.testing.assert_allclose(report.pr_points[:, 1], pr, rtol=0,
                                   atol=1e-12)
        assert [k for k, _ in report.precision_at] == [1, 2, 5, 10, 20, 50]
        np.testing.assert_allclose([p for _, p in report.precision_at], pk,
                                   rtol=0, atol=1e-12)
        assert report.params["map_at"] == (80 if map_at is None
                                           else min(map_at, 80))

    @pytest.mark.parametrize("classes", [4, 64, 65, 130])
    @pytest.mark.parametrize("multilabel", [False, True])
    @pytest.mark.parametrize("limit", [None, 1, 7, 300, 305])
    @pytest.mark.parametrize("denominator", ["cutoff", "relevant"])
    def test_bytes_match_scoring_over_all_ranks(self, monkeypatch, classes,
                                                multilabel, limit,
                                                denominator):
        # Eight bits over 300 items tie dozens of items at every distance,
        # and the AP sums run over hundreds of terms.
        rng = np.random.default_rng(classes)
        q_pm1, db_pm1 = _random_pm1(12, 8, seed=7), _random_pm1(300, 8, seed=8)
        q_labels = np.zeros((12, classes), dtype=np.uint8)
        db_labels = np.zeros((300, classes), dtype=np.uint8)
        for labels in (q_labels, db_labels):
            per_item = rng.integers(1, 4 if multilabel else 2, labels.shape[0])
            for row, count in zip(labels, per_item):
                # Database items never carry the last class.
                row[rng.choice(classes - 1, count, replace=False)] = 1
        q_labels[0] = 0
        q_labels[0, classes - 1] = 1  # a query with no relevant item
        args = (pack_codes(q_pm1), pack_codes(db_pm1), q_labels, db_labels,
                limit, denominator, DEFAULT_PRECISION_KS)
        expected = _evaluate_over_all_ranks(*args)
        # A block holds one, five or all twelve queries.
        for block in (1, 5, 12):
            monkeypatch.setattr(retrieval, "BLOCK_KEYS", block * 300)
            report = evaluate(*args)
            assert report.skipped_queries == expected.skipped_queries == 1
            assert (report.average_precisions.tobytes()
                    == expected.average_precisions.tobytes())
            assert report.to_json() == expected.to_json()
            assert report.pr_csv_rows() == expected.pr_csv_rows()
            assert report.precision_at_csv_rows() == \
                expected.precision_at_csv_rows()
            assert report.precision_at == expected.precision_at

    @pytest.mark.parametrize("block", [1, 5, 15])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("limit", [None, 1, 50, 300])
    @pytest.mark.parametrize("denominator", ["cutoff", "relevant"])
    @pytest.mark.parametrize("precision_ks", [(), DEFAULT_PRECISION_KS])
    def test_bytes_at_block_boundaries(self, monkeypatch, block, workers,
                                       limit, denominator, precision_ks):
        # Database classes 0-5 hold 1, 2, 3, 7, 10 and 100 of the 300
        # items, class 6 the other 177 and class 7 none. In blocks of five,
        # the first block has a query without relevant items at its start,
        # middle and end, every query of the second has none, and the
        # third holds relevant counts 3, 7, 10, 100 and 101; the cut at 50
        # leaves relevant items of the last two past it.
        monkeypatch.setattr(retrieval, "BLOCK_KEYS", block * 300)
        monkeypatch.setattr(retrieval, "_worker_count", lambda: workers)
        db_class = np.repeat(np.arange(7), [1, 2, 3, 7, 10, 100, 177])
        db_labels = np.eye(8, dtype=np.uint8)[
            np.random.default_rng(3).permutation(db_class)]
        q_labels = np.eye(8, dtype=np.uint8)[
            [7, 0, 7, 1, 7, 7, 7, 7, 7, 7, 2, 3, 4, 5, 5]]
        q_labels[14, 0] = 1
        args = (pack_codes(_random_pm1(15, 8, seed=11)),
                pack_codes(_random_pm1(300, 8, seed=12)), q_labels,
                db_labels, limit, denominator, precision_ks)
        report = evaluate(*args)
        expected = _evaluate_over_all_ranks(*args)
        assert report.skipped_queries == expected.skipped_queries == 8
        assert (report.average_precisions.tobytes()
                == expected.average_precisions.tobytes())
        assert report.to_json() == expected.to_json()
        assert report.pr_points.tobytes() == expected.pr_points.tobytes()
        assert report.precision_at == expected.precision_at
        assert report.precision_at_csv_rows() == \
            expected.precision_at_csv_rows()

    @pytest.mark.parametrize("k", [193, 256])
    @pytest.mark.parametrize("map_at", [None, 7])
    def test_four_word_codes_match_textbook_definitions(self, k, map_at):
        # Query 0 is all +1 and the last item, relevant to it, all -1: a
        # byte sum of its distance k would wrap and rank it near the top.
        rng = np.random.default_rng(k)
        q_pm1 = np.vstack([np.ones((1, k), np.int8), _random_pm1(5, k, seed=k)])
        db_pm1 = np.vstack([_random_pm1(60, k, seed=k + 1),
                            -np.ones((1, k), np.int8)])
        q_labels = np.eye(3, dtype=np.uint8)[rng.integers(0, 3, 6)]
        db_labels = np.eye(3, dtype=np.uint8)[rng.integers(0, 3, 61)]
        q_labels[0], db_labels[-1] = [1, 0, 0], [1, 0, 0]
        ks = (1, 2, 5, 10, 20, 50, 100)
        report = evaluate(pack_codes(q_pm1), pack_codes(db_pm1), q_labels,
                          db_labels, limit=map_at, precision_ks=ks)
        aps, pr, pk, skipped = _textbook_metrics(
            q_pm1, db_pm1, q_labels, db_labels, map_at, "cutoff",
            [k for k in ks if k <= 61])
        assert skipped == report.skipped_queries == 0
        np.testing.assert_allclose(report.average_precisions, aps,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.pr_points[:, 1], pr, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose([p for _, p in report.precision_at], pk,
                                   rtol=0, atol=1e-12)

    def test_no_precision_cutoff_within_database(self, problem):
        q_pm1, db_pm1, q_labels, db_labels = problem
        report = evaluate(pack_codes(q_pm1), pack_codes(db_pm1[:20]),
                          q_labels, db_labels[:20], precision_ks=(50,))
        assert report.precision_at == []
        assert report.precision_at_csv_rows() == []

    def test_rejects_the_codes_search_rejects(self, problem):
        # The messages `evaluate` gave when it ranked through `search`.
        q_pm1, db_pm1, q_labels, db_labels = problem
        queries, database = pack_codes(q_pm1), pack_codes(db_pm1)
        for other, message in (
                (pack_codes(_random_pm1(80, 9, seed=0)),
                 "code length mismatch: 8 vs 9"),
                (pack_codes(db_pm1[:0]), "the database is empty")):
            with pytest.raises(ValueError, match=message):
                evaluate(queries, other, q_labels,
                         db_labels[:other.num_items])

    @pytest.mark.parametrize("k", [0, -3, 1.5, 2.0, "5", True, None])
    def test_precision_cutoffs_must_be_positive_integers(self, problem, k):
        # P@0 would be nan, P@-3 a count from the wrong end, and 1.5 was
        # cut to 1.
        q_pm1, db_pm1, q_labels, db_labels = problem
        with pytest.raises(ValueError, match="precision cutoffs"):
            evaluate(pack_codes(q_pm1), pack_codes(db_pm1), q_labels,
                     db_labels, precision_ks=(1, k, 5))

    def test_precision_cutoffs_may_be_numpy_integers(self, problem):
        q_pm1, db_pm1, q_labels, db_labels = problem
        args = (pack_codes(q_pm1), pack_codes(db_pm1), q_labels, db_labels)
        report = evaluate(*args, precision_ks=np.array([1, 5, 500]))
        assert report.precision_at == \
            evaluate(*args, precision_ks=(1, 5)).precision_at

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_must_be_positive(self, problem, limit):
        q_pm1, db_pm1, q_labels, db_labels = problem
        with pytest.raises(ValueError, match="positive"):
            evaluate(pack_codes(q_pm1), pack_codes(db_pm1), q_labels,
                     db_labels, limit=limit)

    @pytest.mark.parametrize("limit", [2.5, 2.0, "5", True])
    def test_limit_must_be_an_integer(self, problem, limit):
        # 2.5 and True were TypeErrors from the key arithmetic.
        q_pm1, db_pm1, q_labels, db_labels = problem
        with pytest.raises(ValueError, match="limit must be an integer"):
            evaluate(pack_codes(q_pm1), pack_codes(db_pm1), q_labels,
                     db_labels, limit=limit)

    def test_limit_may_be_a_numpy_integer(self, problem):
        # R was the numpy integer itself, which the JSON report rejected.
        q_pm1, db_pm1, q_labels, db_labels = problem
        args = (pack_codes(q_pm1), pack_codes(db_pm1), q_labels, db_labels)
        assert evaluate(*args, limit=np.int64(7)).to_json() == \
            evaluate(*args, limit=7).to_json()

    def test_labels_need_a_class(self, problem):
        q_pm1, db_pm1, q_labels, db_labels = problem
        with pytest.raises(ValueError, match="no classes"):
            evaluate(pack_codes(q_pm1), pack_codes(db_pm1), q_labels[:, :0],
                     db_labels[:, :0])

    def test_label_widths_must_agree(self, problem):
        q_pm1, db_pm1, q_labels, db_labels = problem
        for wide in (np.hstack([q_labels, q_labels[:, :1]]), q_labels[:, :3]):
            with pytest.raises(ValueError):
                evaluate(pack_codes(q_pm1), pack_codes(db_pm1), wide,
                         db_labels)

    def test_no_relevant_item_anywhere(self, problem):
        q_pm1, db_pm1, q_labels, db_labels = problem
        with pytest.raises(ValueError, match="no query"):
            evaluate(pack_codes(q_pm1[8:]), pack_codes(db_pm1),
                     q_labels[8:], db_labels)


def test_binary_code_set_rejects_wrong_word_count():
    with pytest.raises(ValueError, match="bits"):
        BinaryCodeSet(words=np.zeros((3, 2), dtype=np.uint64), code_bits=64)


@pytest.mark.parametrize("bits", [0, -5])
def test_binary_code_set_rejects_fewer_than_one_bit(bits):
    # Both lengths need zero words, so the word count alone passes them.
    with pytest.raises(ValueError, match="at least one bit"):
        BinaryCodeSet(words=np.zeros((3, 0), dtype=np.uint64), code_bits=bits)


class TestBlockEncoder:
    # Blocks of 3276 rows at k = 32 (max(D, K) = 40) and 1872 at k = 70.
    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 1873, 1874, 2049,
                                   3277, 3278, 7000])
    @pytest.mark.parametrize("k", [32, 70])
    def test_lsh_codes_match_one_product(self, n, k):
        features = np.random.default_rng(n).normal(
            size=(n + 5, 40)).astype(np.float32)
        rows = np.random.default_rng(k).permutation(n + 5)[:n]
        planes = standard_normal(make_rng(7), (40, k))
        expected = binarize(features[rows].astype(np.float64) @ planes)
        codes = lsh_codes(features, k, 7, rows=rows)
        assert codes.code_bits == k
        assert codes.words.tobytes() == expected.words.tobytes()
        if n == 1025:
            every = lsh_codes(features[rows], k, 7)
            assert every.words.tobytes() == expected.words.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 1023, 1024,
                                   1025, 2048, 2049, 3000])
    def test_blocks_cover_the_rows_in_order(self, n, monkeypatch):
        seen = []
        real_binarize = retrieval.binarize

        def recording_binarize(u, *args):
            seen.append(u.shape[0])
            return real_binarize(u, *args)

        monkeypatch.setattr(retrieval, "binarize", recording_binarize)
        values = np.random.default_rng(n).normal(size=(n, 3))
        rows = np.arange(n)[::-1].copy()
        # Blocks of 1024 rows and of the 128-row floor.
        for width, step in ((BLOCKS_OF_1024, 1024),
                            (9000, ENCODE_BLOCK_MIN_ROWS)):
            seen.clear()
            codes = encode_rows(values, rows, lambda block: block, width, 3)
            assert sum(seen) == n
            assert all(size >= 2 for size in seen) or n == 1
            assert max(seen) <= step + 1
            # A one-row tail joins the block before it: ceil((n - 1) / step).
            assert len(seen) == max(1, -(-(n - 1) // step))
            assert codes.words.tobytes() == \
                real_binarize(values[rows]).words.tobytes()

    def test_no_rows_is_an_error(self):
        with pytest.raises(ValueError, match="no rows to encode"):
            encode_rows(np.zeros((4, 3)), np.zeros(0, dtype=np.int64),
                        lambda block: block, 3, 3)

    @pytest.mark.parametrize("encode", ["network", "lsh"])
    def test_peak_does_not_grow_with_rows(self, encode, monkeypatch):
        # Beyond the codes themselves (8 bytes per 32-bit code), the working
        # set is one block per worker thread, whatever the row count.
        features = np.random.default_rng(0).normal(
            size=(40000, 40)).astype(np.float32)
        net = build_network(NetworkSpec(40, (64,), 32, 4), seed=1)

        def peak_beyond_codes(n, workers):
            monkeypatch.setattr(retrieval, "_worker_count", lambda: workers)
            rows = np.arange(n)
            tracemalloc.start()
            try:
                if encode == "network":
                    encode_rows(features, rows, hash_layer(net),
                                net.widest_layer, 32)
                else:
                    lsh_codes(features, 32, 3, rows=rows)
                return tracemalloc.get_traced_memory()[1] - n * 8
            finally:
                tracemalloc.stop()

        # Warm up first: the pool's imports are made once per process. How
        # far the threads' blocks overlap varies from run to run, so the
        # threaded peaks are held to the bound, not compared with each
        # other; the 64 KB allow for the pool's own threads and futures.
        peak_beyond_codes(4000, 2)
        serial = {n: peak_beyond_codes(n, 1) for n in (4000, 40000)}
        assert serial[40000] - serial[4000] <= 64 * 1024
        for workers in (2, 3):
            for n in (4000, 40000):
                assert (peak_beyond_codes(n, workers)
                        <= workers * serial[40000] + 64 * 1024), (workers, n)


class TestThreadedEncoder:
    """`encode_rows` splits its row blocks into one contiguous run per CPU:
    the calling thread encodes the first, pool threads the others."""

    @staticmethod
    def _inputs(n):
        features = np.random.default_rng(n).normal(
            size=(n + 5, 40)).astype(np.float32)
        rows = np.random.default_rng(n + 1).permutation(n + 5)[:n]
        return features, rows, build_network(NetworkSpec(40, (64,), 32, 4),
                                              seed=2)

    # Blocks are 2**17 // width rows: 2048 rows of the 64-wide layer and
    # 1872 of the 70 LSH bits.
    @staticmethod
    def _one_block_at_a_time(features, rows, encode, width):
        """The words of a plain loop over the blocks, in one thread."""
        return b"".join(
            binarize(encode(features[rows[lo:hi]])).words.tobytes()
            for lo, hi in row_blocks(rows.size, width))

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [1, 2, 1024, 1025, 2048, 2049, 4097, 5000])
    def test_codes_are_the_same_on_any_worker_count(self, monkeypatch,
                                                    workers, n):
        features, rows, net = self._inputs(n)
        encode = hash_layer(net)
        assert net.widest_layer == 64
        planes = standard_normal(make_rng(5), (40, 70))
        expected = (
            self._one_block_at_a_time(features, rows, encode, 64),
            self._one_block_at_a_time(
                features, rows,
                lambda block: block.astype(np.float64) @ planes, 70))
        monkeypatch.setattr(retrieval, "_worker_count", lambda: workers)
        baseline = threading.active_count()
        got = (encode_rows(features, rows, encode, 64, 32),
               lsh_codes(features, 70, 5, rows=rows))
        assert threading.active_count() == baseline
        assert [codes.words.tobytes() for codes in got] == list(expected)

    @pytest.mark.parametrize("workers, n, caller_blocks, runs", [
        (1, 5000, 5, 1), (8, 1, 1, 1), (8, 1025, 1, 1), (2, 1026, 1, 2),
        (2, 5000, 2, 2), (3, 5000, 1, 3), (8, 5000, 1, 5)])
    def test_calling_thread_takes_the_first_run(self, monkeypatch, workers, n,
                                                caller_blocks, runs):
        # The calling thread encodes the first run of blocks alone, and one
        # run starts no pool. A pool thread may take more than one run.
        seen = {}
        lock = threading.Lock()

        def recording(block):
            with lock:
                seen.setdefault(threading.get_ident(), []).append(block[0, 0])
            return block

        monkeypatch.setattr(retrieval, "_worker_count", lambda: workers)
        values = np.arange(n, dtype=np.float64)[:, None]
        encode_rows(values, np.arange(n), recording, BLOCKS_OF_1024, 1)
        starts = [float(lo) for lo, _ in row_blocks(n, BLOCKS_OF_1024)]
        assert seen.pop(threading.get_ident()) == starts[:caller_blocks]
        assert len(seen) < runs
        assert bool(seen) == (runs > 1)
        assert sorted(start for blocks in seen.values()
                      for start in blocks) == starts[caller_blocks:]

    @pytest.mark.parametrize("failing", [0, 4])
    def test_worker_exception_reaches_the_caller(self, monkeypatch, failing):
        # Block 0 fails in the calling thread, block 4 in a pool thread.
        class Boom(Exception):
            pass

        def failing_block(block):
            if block[0, 0] == failing * 1024:
                raise Boom(f"block {failing}")
            return block

        monkeypatch.setattr(retrieval, "_worker_count", lambda: 3)
        values = np.arange(5000, dtype=np.float64)[:, None]
        baseline = threading.active_count()
        with pytest.raises(Boom, match=f"block {failing}"):
            encode_rows(values, np.arange(5000), failing_block,
                        BLOCKS_OF_1024, 1)
        assert threading.active_count() == baseline

    def test_stress_more_workers_than_cores(self, monkeypatch):
        # Eight workers on a short switch interval: a block written to
        # another block's rows would change the words.
        features, rows, net = self._inputs(20000)
        encode = hash_layer(net)
        expected = self._one_block_at_a_time(features, rows, encode, 64)
        monkeypatch.setattr(retrieval, "_worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                codes = encode_rows(features, rows, encode, 64, 32)
                assert codes.words.tobytes() == expected
        finally:
            sys.setswitchinterval(interval)


class TestThreadedQueries:
    """`evaluate` ranks blocks of queries on the calling thread and pool
    threads, one contiguous chunk of the queries per worker, at every
    database size; `search` ranks its blocks in the calling thread."""

    @pytest.fixture
    def key_calls(self, monkeypatch):
        """(thread ident, distances) of each `_pack_keys` call: one per
        block of queries, as (rows, N) distances."""
        calls = []
        lock = threading.Lock()
        real_pack_keys = retrieval._pack_keys

        def recording_pack_keys(distances, *args, **kwargs):
            with lock:
                calls.append((threading.get_ident(),
                              np.atleast_2d(distances).astype(np.int64)))
            return real_pack_keys(distances, *args, **kwargs)

        monkeypatch.setattr(retrieval, "_pack_keys", recording_pack_keys)
        return calls

    @pytest.fixture
    def threaded(self, monkeypatch, key_calls):
        """Force three workers (or `workers`) and `block` queries per block
        (the constant's own when None); the key calls are recorded from
        then on."""
        default = retrieval.BLOCK_KEYS

        def force(workers=3, block=None, n_db=300):
            monkeypatch.setattr(retrieval, "_worker_count", lambda: workers)
            monkeypatch.setattr(retrieval, "BLOCK_KEYS",
                                default if block is None else block * n_db)
            key_calls.clear()
            return key_calls

        return force

    @staticmethod
    def _problem(num_queries, k, multilabel):
        # 300 items over eight bits tie dozens of items at every distance;
        # 70 bits take two words. The database never carries the last class,
        # so the queries of the middle chunk of three have no relevant item.
        classes = 6
        rng = np.random.default_rng(num_queries + k)
        q_pm1, db_pm1 = (_random_pm1(num_queries, k, seed=k),
                         _random_pm1(300, k, seed=k + 1))
        q_labels = np.zeros((num_queries, classes), dtype=np.uint8)
        db_labels = np.zeros((300, classes), dtype=np.uint8)
        for labels in (q_labels, db_labels):
            per_item = rng.integers(1, 4 if multilabel else 2, labels.shape[0])
            for row, count in zip(labels, per_item):
                row[rng.choice(classes - 1, count, replace=False)] = 1
        dead = slice(num_queries // 3, 2 * num_queries // 3)
        q_labels[dead] = 0
        q_labels[dead, classes - 1] = 1
        return pack_codes(q_pm1), pack_codes(db_pm1), q_labels, db_labels

    @staticmethod
    def _distances(queries, database):
        """(Q, N) Hamming distances, one plain row per query."""
        return np.array([np.bitwise_count(database.words ^ words).sum(axis=1)
                         for words in queries.words], dtype=np.int64)

    @staticmethod
    def _assert_same_report(report, expected):
        assert report.skipped_queries == expected.skipped_queries
        assert (report.average_precisions.tobytes()
                == expected.average_precisions.tobytes())
        assert report.to_json() == expected.to_json()
        assert report.pr_csv_rows() == expected.pr_csv_rows()
        assert report.precision_at_csv_rows() == \
            expected.precision_at_csv_rows()
        assert report.precision_at == expected.precision_at

    @pytest.mark.parametrize("num_queries", [0, 1, 2, 5, 13])
    @pytest.mark.parametrize("limit", [None, 7, 40])
    @pytest.mark.parametrize("k, multilabel", [(8, False), (70, True)])
    def test_search_matches_serial(self, threaded, num_queries, limit, k,
                                   multilabel):
        # Even with the pool forced on, full rankings and top-R scans alike
        # stay in the calling thread, one key call per block of queries in
        # query order: blocks of one query, of three (13 queries leave a
        # last block of one) and of the constant's size, which holds every
        # query here. Each ranking is the one its query gets alone.
        queries, database, _, _ = self._problem(num_queries, k, multilabel)
        distances = self._distances(queries, database)
        serial = [search(BinaryCodeSet(words=queries.words[i:i + 1],
                                       code_bits=k), database, limit)[0]
                  for i in range(num_queries)]
        for block in (1, 3, None):
            calls = threaded(block=block)
            baseline = threading.active_count()
            rankings = search(queries, database, limit)
            assert threading.active_count() == baseline
            assert {ident for ident, _ in calls} <= \
                {threading.main_thread().ident}
            rows = block or num_queries
            assert [got.shape[0] for _, got in calls] == \
                [min(rows, num_queries - lo)
                 for lo in range(0, num_queries, rows or 1)]
            if num_queries:
                assert np.array_equal(np.vstack([got for _, got in calls]),
                                      distances)
            assert len(rankings) == len(serial) == num_queries
            for got, expected in zip(rankings, serial):
                assert got.indices.dtype == expected.indices.dtype
                assert got.distances.dtype == expected.distances.dtype
                assert got.indices.tobytes() == expected.indices.tobytes()
                assert (got.distances.tobytes()
                        == expected.distances.tobytes())

    @pytest.mark.parametrize("num_queries", [1, 2, 5, 13])
    @pytest.mark.parametrize("limit", [None, 7, 40])
    @pytest.mark.parametrize("denominator", ["cutoff", "relevant"])
    @pytest.mark.parametrize("k, multilabel", [(8, False), (70, True)])
    def test_evaluate_matches_serial(self, threaded, num_queries, limit,
                                     denominator, k, multilabel):
        # Every worker count and block size gives the one-worker report to
        # the last bit: blocks of one query, of three (the chunks of the
        # scored queries cut into threes leave short last blocks) and of the
        # constant's size, which holds every query here. Only the queries
        # with a relevant item are ranked, cut into chunks in query order.
        args = (*self._problem(num_queries, k, multilabel), limit, denominator)
        q_labels, db_labels = args[2], args[3]
        scored = np.flatnonzero(
            (q_labels.astype(int) @ db_labels.T).any(axis=1))
        distances = self._distances(args[0], args[1])[scored]
        threaded(workers=1)
        serial = evaluate(*args)
        for workers in (1, 2, 3, 8):
            for block in (1, 3, None):
                calls = threaded(workers, block)
                baseline = threading.active_count()
                report = evaluate(*args)
                assert threading.active_count() == baseline
                self._assert_same_report(report, serial)
                # The caller ranks the first chunk, a block at a time; each
                # other chunk ranks on a pool thread, and one chunk starts
                # no pool.
                runs = min(workers, scored.size)
                first = scored.size // runs
                main = threading.main_thread().ident
                mine = [rows for ident, rows in calls if ident == main]
                assert np.array_equal(np.vstack(mine), distances[:first])
                rows = block or scored.size
                assert [r.shape[0] for r in mine[:-1]] == \
                    [rows] * (len(mine) - 1)
                theirs = [rows for ident, rows in calls if ident != main]
                assert len({ident for ident, _ in calls}) <= runs
                assert bool(theirs) == (runs > 1)
                if theirs:
                    got = np.vstack(theirs)
                    order = np.lexsort(got.T[::-1])
                    expected = distances[first:]
                    assert np.array_equal(
                        got[order], expected[np.lexsort(expected.T[::-1])])

    def test_a_chunk_without_relevant_items_is_skipped(self, threaded):
        # Three workers over five queries: queries 1 and 2 share no class
        # with any item, so they are counted and never ranked; queries 0, 3
        # and 4 make the three chunks.
        args = self._problem(5, 8, False)
        distances = self._distances(args[0], args[1])
        calls = threaded()
        report = evaluate(*args)
        assert report.skipped_queries == 2
        assert report.average_precisions.size == 3
        ranked = np.vstack([rows for _, rows in calls])
        assert np.array_equal(ranked[np.lexsort(ranked.T[::-1])],
                              distances[[0, 3, 4]][
                                  np.lexsort(distances[[0, 3, 4]].T[::-1])])
        assert [rows.shape[0] for _, rows in calls] == [1, 1, 1]

    def test_no_queries_evaluate_as_before(self, threaded):
        args = self._problem(0, 8, False)
        calls = threaded()
        baseline = threading.active_count()
        with pytest.raises(ValueError, match="no query"):
            evaluate(*args)
        assert threading.active_count() == baseline
        assert calls == []

    def test_worker_exception_reaches_the_caller(self, threaded, monkeypatch):
        # Three workers over five queries in blocks of one: query 0 fails
        # in the calling thread, query 3 in a pool thread.
        class Boom(Exception):
            pass

        queries, database, q_labels, db_labels = self._problem(5, 70, False)
        distances = self._distances(queries, database)
        real_pack_keys = retrieval._pack_keys
        for failing in (0, 3):
            def failing_pack_keys(block, *args, **kwargs):
                if np.array_equal(block[0], distances[failing]):
                    raise Boom(f"query {failing}")
                return real_pack_keys(block, *args, **kwargs)

            threaded(block=1)
            monkeypatch.setattr(retrieval, "_pack_keys", failing_pack_keys)
            baseline = threading.active_count()
            with pytest.raises(Boom, match=f"query {failing}"):
                evaluate(queries, database, q_labels, db_labels)
            assert threading.active_count() == baseline

    def test_stress_more_workers_than_cores(self, threaded, monkeypatch):
        # Eight workers on a short switch interval, each over several
        # blocks: a block scratch, an AP scratch or a position table shared
        # by mistake would garble some AP.
        args = self._problem(40, 70, True)
        threaded(workers=1)
        serial_report = evaluate(*args)
        threaded(workers=8, block=2)
        retrieval._key_layout.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                report = evaluate(*args)
                assert (report.average_precisions.tobytes()
                        == serial_report.average_precisions.tobytes())
                assert report.pr_csv_rows() == serial_report.pr_csv_rows()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n, limit", [
        (1, None), (300, 10), (65_535, None), (65_536, 1 << 20),
        (65_636, 100)])
    def test_every_database_size_starts_the_pool(self, threaded, n, limit):
        # Three queries on three workers: whatever the database size and
        # the cutoff R, the caller ranks the first query and pool threads
        # the other two. No size cutoff keeps small databases on one
        # thread.
        words = np.random.default_rng(n).integers(0, 2**16, (n + 3, 1),
                                                  dtype=np.uint64)
        labels = np.ones((n + 3, 1), dtype=np.uint8)
        calls = threaded()
        evaluate(BinaryCodeSet(words=words[:3], code_bits=16),
                 BinaryCodeSet(words=words[3:], code_bits=16), labels[:3],
                 labels[3:], limit=limit)
        main = threading.main_thread().ident
        assert [rows.shape[0] for ident, rows in calls if ident == main] \
            == [1]
        assert len({ident for ident, _ in calls}) > 1
        assert sum(rows.shape[0] for _, rows in calls) == 3

    @pytest.mark.parametrize("n, k, narrow, wide", [
        (512, 64, np.uint16, np.uint32),
        (1000, 64 << 15, np.uint32, np.uint64)])
    def test_flag_bit_widens_the_keys(self, n, k, narrow, wide):
        # The flag bit doubles the largest key: it moves keys one type up
        # where the plain keys fill their type. Both orders are the
        # (distance, index) order, and the flag bit follows its item.
        max_distance = 64 * ((k + 63) // 64)
        rng = np.random.default_rng(n)
        distances = rng.integers(0, 17, n).astype(np.uint32)
        distances[::3] = max_distance
        flags = rng.random(n) < 0.3
        plain, shift = retrieval._pack_keys(distances, max_distance)
        flagged, flagged_shift = retrieval._pack_keys(distances, max_distance,
                                                      flags)
        assert (plain.dtype, flagged.dtype) == (narrow, wide)
        assert flagged_shift == shift + 1
        order = np.lexsort((np.arange(n), distances))
        plain.sort()
        flagged.sort()
        assert np.array_equal(plain & ((1 << shift) - 1), order)
        assert np.array_equal(plain >> shift, distances[order])
        assert np.array_equal((flagged >> 1) & ((1 << shift) - 1), order)
        assert np.array_equal(flagged >> flagged_shift, distances[order])
        assert np.array_equal((flagged & 1).astype(bool), flags[order])
        if k == 64:
            # Codes that fill the narrow keys: evaluate ranks with the wide
            # ones and scores as a pass over all ranks does.
            q_pm1 = _random_pm1(4, 64, seed=1)
            db_pm1 = _random_pm1(n, 64, seed=2)
            q_labels = np.eye(4, dtype=np.uint8)[[0, 1, 2, 3]]
            db_labels = np.eye(4, dtype=np.uint8)[rng.integers(0, 4, n)]
            args = (pack_codes(q_pm1), pack_codes(db_pm1), q_labels,
                    db_labels, None, "cutoff", DEFAULT_PRECISION_KS)
            report = evaluate(*args)
            expected = _evaluate_over_all_ranks(*args)
            self._assert_same_report(report, expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_does_not_grow_with_queries(self, monkeypatch, workers):
        # Over 5,000 items in blocks of eight queries, a worker holds its
        # block scratch and AP scratch whatever the query count. The caller
        # sums its own chunk's scores as they come; a later chunk holds its
        # queries' AP, PR-101 and P@k rows, about 0.9 KB each, never a
        # ranking of 8 B or more per item per query. So that both
        # measurements see the same overlap whatever the thread timing, a
        # worker's first block waits until every worker holds its scratch,
        # and from then on one block at a time is ranked and scored: its
        # relevant ranks, about 120 KB here, never meet another block's.
        n = 5000
        q_pm1, db_pm1 = _random_pm1(256, 32, seed=3), _random_pm1(n, 32, seed=4)
        rng = np.random.default_rng(5)
        q_labels = np.eye(8, dtype=np.uint8)[rng.integers(0, 8, 256)]
        db_labels = np.eye(8, dtype=np.uint8)[rng.integers(0, 8, n)]
        queries, database = pack_codes(q_pm1), pack_codes(db_pm1)
        monkeypatch.setattr(retrieval, "_worker_count", lambda: workers)
        monkeypatch.setattr(retrieval, "BLOCK_KEYS", 8 * n)
        distances, map_runs = retrieval._distances, retrieval._map_runs
        barrier, one_block, state = [None], threading.Lock(), threading.local()

        def distances_in_turn(*args):
            if getattr(state, "holds", False):
                one_block.release()
            else:
                barrier[0].wait()
            one_block.acquire()
            state.holds = True
            return distances(*args)

        def runs_in_turn(task, items, workers):
            def run(chunk):
                try:
                    return task(chunk)
                finally:
                    if getattr(state, "holds", False):
                        state.holds = False
                        one_block.release()
            return map_runs(run, items, workers)

        monkeypatch.setattr(retrieval, "_distances", distances_in_turn)
        monkeypatch.setattr(retrieval, "_map_runs", runs_in_turn)

        def peak(num_queries):
            subset = BinaryCodeSet(words=queries.words[:num_queries],
                                   code_bits=32)
            barrier[0] = threading.Barrier(workers, timeout=30)
            tracemalloc.start()
            try:
                evaluate(subset, database, q_labels[:num_queries], db_labels)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(16)  # the pool's imports, made once per process
        held = (256 - 16) * (workers - 1) // workers * 1536
        assert peak(256) - peak(16) <= held + 64 * 1024

    def test_full_ranking_positions_are_shared_and_read_only(self):
        dtype, shift, positions = retrieval._key_layout(300, 64, 0)
        assert retrieval._key_layout(300, 64, 0)[2] is positions
        assert (dtype, shift, positions.dtype) == (np.uint16, 9, np.uint16)
        assert not positions.flags.writeable
        assert positions.tolist() == list(range(300))
        dtype, shift, flagged = retrieval._key_layout(300, 64, 1)
        assert (dtype, shift, flagged.dtype) == (np.uint32, 10, np.uint32)
        assert not flagged.flags.writeable
        assert flagged.tolist() == list(range(0, 600, 2))
