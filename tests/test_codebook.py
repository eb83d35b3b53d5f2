import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadahash.codebook import (Codebook, build_codebook, hadamard_transform,
                               load_codebook, sample_projection,
                               save_codebook, select_order, sylvester,
                               target_batch)
from hadahash.io import (BadMagicError, BadVersionError, FileFormatError,
                         TruncatedFileError)
from hadahash.rng import make_rng


class TestSylvester:
    def test_order_one(self):
        assert np.array_equal(sylvester(1), [[1]])

    def test_order_two(self):
        assert np.array_equal(sylvester(2), [[1, 1], [1, -1]])

    def test_order_four(self):
        expected = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        assert np.array_equal(sylvester(4), expected)

    @pytest.mark.parametrize("order", [1, 2, 4, 8, 32, 128, 256])
    def test_orthogonality_exact(self, order):
        h = sylvester(order)
        assert h.dtype == np.int64
        assert np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))

    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_first_row_and_column_all_ones(self, order):
        h = sylvester(order)
        assert np.all(h[0] == 1)
        assert np.all(h[:, 0] == 1)

    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_balance_of_all_but_first(self, order):
        h = sylvester(order)
        assert np.all(h[1:].sum(axis=1) == 0)
        assert np.all(h[:, 1:].sum(axis=0) == 0)

    @pytest.mark.parametrize("order", [0, 3, 12, 20, -4, 1000])
    def test_rejects_non_powers_of_two(self, order):
        with pytest.raises(ValueError, match="power of two"):
            sylvester(order)


class TestSelectOrder:
    def test_examples(self):
        assert select_order(16, 10) == 16
        assert select_order(64, 100) == 128
        # strict margin: 64 classes need 65 candidates, so double up
        assert select_order(64, 64) == 128

    def test_margin_always_leaves_enough_candidates(self):
        for k in (2, 8, 16, 48, 64):
            for c in (1, 2, 10, 21, 100):
                order = select_order(k, c)
                assert order >= k
                assert order - 1 >= c
                assert order & (order - 1) == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            select_order(0, 5)
        with pytest.raises(ValueError):
            select_order(8, 0)


class TestSampleProjection:
    def test_deterministic_for_seed(self):
        a = sample_projection(128, 64, seed=7)
        b = sample_projection(128, 64, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_matrix(self):
        a = sample_projection(128, 64, seed=7)
        b = sample_projection(128, 64, seed=8)
        assert not np.array_equal(a.values, b.values)

    def test_moments_near_standard_normal(self):
        # 128 * 64 = 8192 samples is enough for the +-0.05 window
        p = sample_projection(128, 64, seed=7)
        assert abs(p.values.mean()) <= 0.05
        assert abs(p.values.var() - 1.0) <= 0.05

    def test_rejects_when_projection_not_needed(self):
        with pytest.raises(ValueError, match="order > code_bits"):
            sample_projection(64, 64, seed=1)
        with pytest.raises(ValueError, match="order > code_bits"):
            sample_projection(32, 64, seed=1)


# Output of a straight dense-multiply pass for (order=16, K=8, seed=3),
# recorded before any optimization of the sign path.
GOLDEN_16_8_SEED3 = [
    "-+-+----",
    "++-+----",
    "--++++++",
    "-+-+---+",
    "-+-++-+-",
    "+-+-+-++",
    "+-++++-+",
    "+-+----+",
    "+-+---++",
    "---+-+--",
    "+-+---++",
    "+++-+-+-",
    "+++-++-+",
    "+-+++-+-",
    "-++-+--+",
    "--+--+++",
]


def _rows_to_matrix(rows):
    return np.array([[1 if ch == "+" else -1 for ch in row] for row in rows],
                    dtype=np.int8)


def _sign(values):
    return np.where(values >= 0, 1, -1).astype(np.int8)


class TestHadamardTransform:
    @pytest.mark.parametrize("order", [1, 2, 4, 8, 64, 512])
    def test_matches_dense_product(self, order):
        values = np.random.default_rng(order).normal(size=(order, 5))
        assert np.allclose(hadamard_transform(values), sylvester(order) @ values)

    def test_identity_gives_exact_sylvester(self):
        for order in (1, 2, 16, 256):
            assert np.array_equal(hadamard_transform(np.eye(order)), sylvester(order))

    def test_vector_and_column_major_input(self):
        values = np.random.default_rng(0).normal(size=(32, 3))
        expected = sylvester(32) @ values
        assert np.allclose(hadamard_transform(values[:, 1]), expected[:, 1])
        assert np.allclose(hadamard_transform(np.asfortranarray(values)), expected)

    def test_leaves_input_unchanged(self):
        values = np.arange(16.0).reshape(8, 2)
        before = values.copy()
        hadamard_transform(values)
        assert np.array_equal(values, before)


class TestProjectAndSign:
    """sign(H @ P) through hadamard_transform, the projected codebook pool."""

    def test_orthogonal_pick_recovers_row_truncation(self):
        # (1/order) * H^T @ H is the identity, so its first K columns as the
        # projection reproduce the first-K truncation of every row of H.
        order, k = 16, 8
        h = sylvester(order)
        result = _sign(hadamard_transform((h.T @ h)[:, :k] / order))
        assert np.array_equal(result, h[:, :k])

    def test_entries_are_signs(self):
        t = sample_projection(32, 16, seed=11)
        result = _sign(hadamard_transform(t.values))
        assert set(np.unique(result)) <= {-1, 1}

    def test_golden_matrix(self):
        t = sample_projection(16, 8, seed=3)
        assert np.array_equal(_sign(hadamard_transform(t.values)),
                              _rows_to_matrix(GOLDEN_16_8_SEED3))

    def test_matches_independent_dense_product(self):
        # Oracle reduces over the inner axis with explicit broadcasting,
        # a different accumulation path than the butterflies in the library.
        rng = np.random.default_rng(42)
        for order, k in ((4, 2), (64, 16), (256, 256)):
            h = sylvester(order)
            values = rng.normal(size=(order, k))
            oracle = np.add.reduce(h[:, :, None] * values[None, :, :], axis=1)
            assert np.array_equal(_sign(hadamard_transform(values)), _sign(oracle))

    def test_spot_check_pure_python_sums(self):
        t = sample_projection(16, 8, seed=3)
        result = _sign(hadamard_transform(t.values))
        for i, j in ((0, 0), (7, 3), (15, 7)):
            # H[i, l] = (-1)^popcount(i & l) for the Sylvester construction
            total = sum((-1) ** bin(i & l).count("1") * float(t.values[l, j])
                        for l in range(16))
            assert result[i, j] == (1 if total >= 0 else -1)

    def test_rejects_dimension_mismatch(self):
        for rows in (0, 3, 12, 20):
            with pytest.raises(ValueError, match="power of two"):
                hadamard_transform(np.ones((rows, 8)))


class TestBuildCodebook:
    def test_direct_path_is_exactly_orthogonal_and_balanced(self):
        book = build_codebook(16, 10, seed=1)
        assert book.provenance == "direct"
        w = book.codewords.astype(np.int64)
        gram = w @ w.T
        assert np.array_equal(gram, 16 * np.eye(10, dtype=np.int64))
        assert np.all(w.sum(axis=1) == 0)

    def test_deterministic(self):
        a = build_codebook(16, 10, seed=1)
        b = build_codebook(16, 10, seed=1)
        assert np.array_equal(a.codewords, b.codewords)
        assert np.array_equal(a.selected_indices, b.selected_indices)

    def test_selection_excludes_index_zero_and_is_distinct(self):
        for k, c, seed in ((16, 10, 1), (48, 100, 5), (32, 31, 9)):
            book = build_codebook(k, c, seed)
            idx = book.selected_indices
            assert len(set(idx.tolist())) == c
            assert 0 not in idx

    def test_projected_golden_max_correlation(self):
        # Brute-force maximum over distinct pairs, frozen for this seed.
        book = build_codebook(48, 100, seed=5)
        assert book.provenance == "projected"
        w = book.codewords.astype(np.int64)
        best = max(abs(int(w[i] @ w[j])) / 48
                   for i in range(100) for j in range(i + 1, 100))
        assert best == 28 / 48
        assert best <= 0.6

    def test_projected_path_composes_published_operations(self):
        book = build_codebook(48, 100, seed=5)
        order = select_order(48, 100)
        pool = _sign(sylvester(order) @ sample_projection(order, 48, seed=5).values)
        assert np.array_equal(book.codewords, pool[book.selected_indices])

    @pytest.mark.parametrize("order", [2 ** i for i in range(1, 13)])
    def test_matches_dense_reference(self, order):
        # Direct: K = order, codewords are rows of H^T. Projected (order >= 4):
        # K < order, codewords are rows of sign(H @ P), and a reference with
        # a repeated row must be rejected instead.
        h = sylvester(order)
        k_projected = max(2, min(64, order // 2))
        for seed in range(3):
            book = build_codebook(order, order - 1, seed)
            assert book.provenance == "direct"
            assert np.array_equal(book.codewords, h.T[book.selected_indices])
            if order < 4:
                continue
            p = sample_projection(order, k_projected, seed).values
            indices = make_rng(seed).choice(np.arange(1, order),
                                            size=order - 1, replace=False)
            expected = _sign(h @ p)[indices]
            if len(set(map(tuple, expected.tolist()))) < order - 1:
                with pytest.raises(ValueError, match=(
                        f"for {order - 1} classes in {k_projected} bits")):
                    build_codebook(k_projected, order - 1, seed)
                continue
            book = build_codebook(k_projected, order - 1, seed)
            assert book.provenance == "projected"
            assert np.array_equal(book.selected_indices, indices)
            assert np.array_equal(book.codewords,
                                  _sign(h @ p)[book.selected_indices])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_codebook(1, 10, seed=0)
        with pytest.raises(ValueError):
            build_codebook(16, 0, seed=0)
        with pytest.raises(ValueError):
            build_codebook(16, 10, seed=-1)


def _target_row(book, positives):
    """Target values and mask of one label row, read from target_batch."""
    y = np.zeros((1, book.num_classes), dtype=np.uint8)
    y[0, positives] = 1
    values, mask = target_batch(book, y)
    return values[0], mask[0]


class TestMakeTarget:
    def test_single_label_is_codeword_lookup(self):
        book = build_codebook(16, 10, seed=1)
        for c in range(10):
            values, mask = _target_row(book, [c])
            assert np.array_equal(values, book.codewords[c])
            assert mask.all()

    def test_agreeing_bits_keep_shared_sign(self):
        book = build_codebook(16, 10, seed=1)
        values, mask = _target_row(book, [2, 5])
        agree = book.codewords[2] == book.codewords[5]
        assert np.array_equal(values[agree], book.codewords[2][agree])
        assert mask[agree].all()

    def test_disagreeing_bits_are_masked_out(self):
        book = build_codebook(16, 10, seed=1)
        values, mask = _target_row(book, [2, 5])
        disagree = book.codewords[2] != book.codewords[5]
        assert np.all(values[disagree] == 0)
        assert not mask[disagree].any()

    def test_mask_iff_nonzero(self):
        book = build_codebook(16, 10, seed=3)
        values, mask = _target_row(book, [0, 2, 3, 6])
        assert np.array_equal(mask, values != 0)

    def test_rejects_all_zero_labels(self):
        book = build_codebook(16, 10, seed=1)
        labels = np.eye(10, dtype=np.uint8)[:3]
        labels[1] = 0
        with pytest.raises(ValueError, match="at least one positive"):
            target_batch(book, labels)

    @given(st.integers(min_value=0, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_single_label_lookup_property(self, class_index):
        book = build_codebook(32, 10, seed=7)
        values, _ = _target_row(book, [class_index])
        assert np.array_equal(values, book.codewords[class_index])

    def test_batch_matches_per_row(self):
        # Each row of a batch equals that row alone and the sign of its
        # codeword sum, masked where the sum cancels.
        book = build_codebook(16, 6, seed=2)
        rng = np.random.default_rng(0)
        labels = (rng.random((20, 6)) < 0.4).astype(np.uint8)
        labels[labels.sum(axis=1) == 0, 0] = 1
        values, mask = target_batch(book, labels)
        for i in range(20):
            positives = np.flatnonzero(labels[i])
            row_values, row_mask = _target_row(book, positives)
            assert np.array_equal(values[i], row_values)
            assert np.array_equal(mask[i], row_mask)
            summed = sum(book.codewords[c].astype(np.int64) for c in positives)
            assert np.array_equal(values[i], np.sign(summed))
            assert np.array_equal(mask[i], summed != 0)

    @pytest.mark.parametrize("k, c, seed", [(16, 10, 1), (32, 100, 3),
                                            (128, 160, 0)])
    def test_matches_int64_sums(self, k, c, seed):
        # The float64 product must give the int64 expression's bytes, on
        # multi-label rows whose codeword sums cancel on some bits.
        book = build_codebook(k, c, seed)
        rng = np.random.default_rng(seed)
        labels = np.zeros((400, c), dtype=np.uint8)
        for row in labels:
            row[rng.choice(c, rng.integers(1, 5), replace=False)] = 1
        summed = labels.astype(np.int64) @ book.codewords.astype(np.int64)
        assert (summed == 0).any()
        values, mask = target_batch(book, labels)
        assert values.dtype == np.float64
        assert values.tobytes() == np.sign(summed).astype(np.float64).tobytes()
        assert np.array_equal(mask, summed != 0)


class TestCodebookFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "book.hccb"
        for k, c, seed in ((16, 10, 1), (48, 100, 5)):
            book = build_codebook(k, c, seed)
            save_codebook(book, path)
            loaded = load_codebook(path)
            assert np.array_equal(loaded.codewords, book.codewords)
            assert loaded.provenance == book.provenance
            assert loaded.seed == book.seed
            assert loaded.selected_indices is None

    def test_rerun_writes_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.hccb", tmp_path / "b.hccb"
        save_codebook(build_codebook(16, 10, 1), a)
        save_codebook(build_codebook(16, 10, 1), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hccb"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(BadMagicError):
            load_codebook(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "book.hccb"
        save_codebook(build_codebook(16, 10, 1), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(BadVersionError):
            load_codebook(path)

    def test_repeated_codeword_is_rejected(self, tmp_path):
        book = build_codebook(16, 4, 1)
        codewords = book.codewords.copy()
        codewords[1] = codewords[0]
        message = "only 3 distinct codewords for 4 classes in 16 bits"
        with pytest.raises(ValueError, match=message):
            Codebook(codewords=codewords, provenance=book.provenance,
                     seed=book.seed, selected_indices=None)
        path = tmp_path / "book.hccb"
        save_codebook(book, path)
        raw = bytearray(path.read_bytes())
        header = len(raw) - codewords.size
        raw[header + 16:header + 32] = raw[header:header + 16]
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=message):
            load_codebook(path)

    @pytest.mark.parametrize("k, c, seed", [(16, 10, 1), (48, 100, 5)])
    def test_only_the_built_codebook_loads(self, tmp_path, k, c, seed):
        # A flipped sign, another seed or another provenance tag in a file
        # that is otherwise well formed is a format error naming the file.
        path = tmp_path / "book.hccb"
        save_codebook(build_codebook(k, c, seed), path)
        raw = path.read_bytes()
        header = len(raw) - k * c
        flipped = bytearray(raw)
        flipped[header + k + 3] = (256 - flipped[header + k + 3]) % 256
        reseeded = bytearray(raw)
        reseeded[16] ^= 2
        retagged = bytearray(raw)
        retagged[24] ^= 1
        message = re.escape(f"{path}: not the codebook of {c} classes in "
                            f"{k} bits")
        for bad in (flipped, reseeded, retagged):
            path.write_bytes(bytes(bad))
            with pytest.raises(FileFormatError, match=message):
                load_codebook(path)

    def test_header_that_builds_no_codebook(self, tmp_path):
        # Two distinct one-bit codewords: well formed, but build_codebook
        # needs two bits at least.
        path = tmp_path / "book.hccb"
        with open(path, "wb") as f:
            f.write(b"HCCB" + struct.pack("<IIIQB", 1, 2, 1, 0, 0))
            f.write(np.array([1, -1], dtype=np.int8).tobytes())
        with pytest.raises(FileFormatError, match=re.escape(
                f"{path}: no codebook of 2 classes in 1 bits at seed 0: "
                f"code_bits must be >= 2")):
            load_codebook(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "book.hccb"
        save_codebook(build_codebook(16, 10, 1), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 10])
        with pytest.raises(TruncatedFileError):
            load_codebook(path)
