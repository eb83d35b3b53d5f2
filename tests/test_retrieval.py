import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadahash.retrieval import (BinaryCodeSet, evaluate, load_codes,
                                pack_codes, save_codes, search, unpack_codes)


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

    def test_boolean_input_matches_signs(self):
        values = _random_pm1(20, 70, seed=3)
        assert np.array_equal(pack_codes(values > 0).words,
                              pack_codes(values).words)

    @pytest.mark.parametrize("k", [1, 8, 63, 64, 65, 130])
    @pytest.mark.parametrize("mode", ["sign", "mean_centered_sign"])
    def test_save_load_round_trip(self, tmp_path, k, mode):
        codes = pack_codes(_random_pm1(11, k, seed=k), mode=mode)
        path = tmp_path / "codes.hcbc"
        save_codes(codes, path)
        loaded = load_codes(path)
        assert loaded.code_bits == k
        assert loaded.mode == mode
        assert np.array_equal(loaded.words, codes.words)
        save_codes(loaded, tmp_path / "again.hcbc")
        assert (tmp_path / "again.hcbc").read_bytes() == path.read_bytes()


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

    def test_rejects_bad_arguments(self):
        codes = pack_codes(_random_pm1(4, 8, seed=0))
        with pytest.raises(ValueError, match="positive"):
            search(codes, codes, limit=0)
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
