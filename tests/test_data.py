import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hadahash import data
from hadahash.data import (FeatureSet, LabelSet, Split, load_features,
                           load_labels, load_split, make_synthetic_blobs,
                           save_features, save_labels, save_split,
                           split_protocol)
from hadahash.io import (BadMagicError, BadVersionError, TruncatedFileError,
                         write_header)
from hadahash.rng import make_rng


def _reference_split(labels, n_query_per_class, n_train_per_class, seed):
    """The split protocol as first written: every item visited, one by one.
    Its three sorted index lists, as `save_split` first wrote them."""
    y = labels.values
    n, c = y.shape
    rng = make_rng(seed)
    order = rng.permutation(n)

    def fill(quota_per_class, candidates):
        remaining = np.full(c, quota_per_class, dtype=np.int64)
        chosen = []
        for idx in candidates:
            classes = np.flatnonzero(y[idx])
            if np.any(remaining[classes] > 0):
                chosen.append(idx)
                remaining[classes] -= 1
                np.maximum(remaining, 0, out=remaining)
        unfilled = np.flatnonzero(remaining > 0)
        if unfilled.size > 0:
            short = unfilled[0]
            raise ValueError(
                f"class {short} has too few items: {remaining[short]} more "
                f"needed for a quota of {quota_per_class}")
        return np.array(sorted(chosen), dtype=np.int64)

    query = fill(n_query_per_class, order)
    in_query = np.zeros(n, dtype=bool)
    in_query[query] = True
    train = fill(n_train_per_class, [i for i in order if not in_query[i]])
    database = np.flatnonzero(~in_query).astype(np.int64)
    return SimpleNamespace(query=query, train=train, database=database)


def _reference_load_split(path):
    """The split reader as first written: one int() per token."""
    sections = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            name, _, rest = line.partition(":")
            sections[name.strip()] = np.array(
                [int(tok) for tok in rest.split()], dtype=np.int64)
    return SimpleNamespace(**sections)


def _frozen_load_split(path, num_items):
    """The split reader as it was before its same-bytes route: every file
    decoded as text and parsed in full. It gives the roles, or the
    ValueError, that `load_split` must give on any text file."""
    names = ["query", "train", "database"]
    with open(path) as f:
        lines = [line.partition(":") for line in f if line.strip()]
    found = [name.strip() for name, _, _ in lines]
    if found != names:
        raise ValueError(f"{path}: sections {found!r:.80} are not query, "
                         f"train and database in that order")
    sections = []
    for name, (_, _, rest) in zip(names, lines):
        if not rest.strip():
            sections.append(np.zeros(0, dtype=np.int64))
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                sections.append(np.loadtxt([rest], dtype=np.int64, ndmin=1,
                                           comments=None))
        except (ValueError, DeprecationWarning) as err:
            raise ValueError(f"{path}: bad {name} section: {err}") from None
    query, train, database = sections
    if query.size + database.size != num_items:
        raise ValueError(f"{path}: the split covers "
                         f"{query.size + database.size} items, not the "
                         f"{num_items} given")
    for name, listed in zip(names, sections):
        outside = listed[(listed < 0) | (listed >= num_items)]
        if outside.size:
            raise ValueError(f"{path}: {name} section index {outside[0]} is "
                             f"out of range [0, {num_items})")
    roles = np.zeros(num_items, dtype=np.uint8)
    roles[train] = 2
    roles[query] = 1
    split = Split(roles=roles)
    for name, listed in zip(names, sections):
        derived = getattr(split, name)
        if not np.array_equal(listed, derived):
            off = np.flatnonzero(listed[:derived.size] != derived[:listed.size])
            item = listed[off[0] if off.size else derived.size]
            role = ("database", "query", "train")[roles[item]]
            raise ValueError(f"{path}: {name} section departs from the "
                             f"sorted {name} items at item {item}, a {role} "
                             f"item")
    return split


def _read_outcome(reader, path, num_items):
    """The roles `reader` returns for the file, or its ValueError text."""
    try:
        return reader(path, num_items).roles.tolist()
    except ValueError as err:
        return str(err)


def _load_split_parsing(path, num_items):
    """`load_split`'s outcome, checked against the frozen reader's, and the
    names of the sections it parsed on the way."""
    parsed = []
    parse = data._parse_section

    def counting(path, name, rest):
        parsed.append(name)
        return parse(path, name, rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_parse_section", counting)
        got = _read_outcome(load_split, path, num_items)
    assert got == _read_outcome(_frozen_load_split, path, num_items)
    return got, parsed


def _reference_split_text(split):
    """The split writer as first written: one str(int()) per index."""
    return "".join(
        name + ": " + " ".join(str(int(i)) for i in indices) + "\n"
        for name, indices in (("query", split.query), ("train", split.train),
                              ("database", split.database)))


def _random_features(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureSet(values=rng.normal(size=(n, d)).astype(np.float32))


class TestFeatureFiles:
    def test_binary_round_trip(self, tmp_path):
        features = _random_features(10, 4)
        path = tmp_path / "f.hcfs"
        save_features(features, path)
        loaded = load_features(path)
        assert np.array_equal(loaded.values, features.values)

    def test_text_round_trip(self, tmp_path):
        features = _random_features(7, 3)
        path = tmp_path / "f.csv"
        save_features(features, path)
        loaded = load_features(path)
        assert np.allclose(loaded.values, features.values, atol=1e-6)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.hcfs"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(BadMagicError):
            load_features(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "f.hcfs"
        save_features(_random_features(2, 2), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(BadVersionError):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "f.hcfs"
        save_features(_random_features(4, 4), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 7])
        with pytest.raises(TruncatedFileError):
            load_features(path)

    def test_no_columns_is_rejected_on_load(self, tmp_path):
        # Zero-dimensional items would train a hash layer of input width 0,
        # whose codes ignore the input.
        path = tmp_path / "f.hcfs"
        with open(path, "wb") as f:
            write_header(f, data.FEATURES_MAGIC, data.FORMAT_VERSION,
                         data.MATRIX_HEADER, 20, 0)
        with pytest.raises(ValueError, match="at least one column"):
            load_features(path)

    def test_rejects_non_finite(self):
        values = np.zeros((2, 2), dtype=np.float32)
        values[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            FeatureSet(values=values)


class TestLabelFiles:
    def test_binary_round_trip(self, tmp_path):
        labels = LabelSet(values=np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8))
        path = tmp_path / "l.hcls"
        save_labels(labels, path)
        assert np.array_equal(load_labels(path).values, labels.values)

    def test_text_round_trip(self, tmp_path):
        labels = LabelSet(values=np.array([[1, 0], [0, 1]], dtype=np.uint8))
        path = tmp_path / "l.csv"
        save_labels(labels, path)
        assert np.array_equal(load_labels(path).values, labels.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "l.hcls"
        path.write_bytes(b"ZZZZ" + b"\0" * 12)
        with pytest.raises(BadMagicError):
            load_labels(path)

    def test_rejects_empty_rows(self):
        with pytest.raises(ValueError, match="positive label"):
            LabelSet(values=np.array([[1, 0], [0, 0]], dtype=np.uint8))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            LabelSet(values=np.array([[2, 0]], dtype=np.uint8))


class TestChecksInRowBlocks:
    """`FeatureSet` and `LabelSet` check their values one row block of about
    `_CHECK_BLOCK_ENTRIES` entries at a time."""

    @staticmethod
    def _peak_above_input(make, values):
        tracemalloc.start()
        try:
            make(values=values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("make, width, dtype", [
        (FeatureSet, 40, np.float32), (LabelSet, 32, np.uint8),
        (LabelSet, 7, np.uint8)])
    def test_peak_does_not_grow_with_rows(self, make, width, dtype):
        # Inputs of 40,000 and 160,000 rows: the check holds the
        # temporaries of one block, never N x width of them.
        rng = np.random.default_rng(width)
        peaks = []
        for n in (40_000, 160_000):
            if make is FeatureSet:
                values = rng.standard_normal((n, width)).astype(dtype)
            else:
                values = np.eye(width, dtype=dtype)[rng.integers(0, width, n)]
            self._peak_above_input(make, values)
            peaks.append(self._peak_above_input(make, values))
        assert peaks[1] <= peaks[0] + 4096
        assert peaks[1] <= 4 * data._CHECK_BLOCK_ENTRIES + 16 * 1024

    @pytest.mark.parametrize("entries", [1, 7, 64, 1 << 16])
    def test_a_fault_in_any_block_is_found(self, monkeypatch, entries):
        monkeypatch.setattr(data, "_CHECK_BLOCK_ENTRIES", entries)
        features = np.ones((50, 3), dtype=np.float32)
        labels = np.eye(3, dtype=np.uint8)[np.arange(50) % 3]
        FeatureSet(values=features)
        LabelSet(values=labels)
        for row in (0, 23, 49):
            for bad in (np.nan, np.inf, -np.inf):
                values = features.copy()
                values[row, 2] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    FeatureSet(values=values)
            values = labels.copy()
            values[row, 1] = 2
            with pytest.raises(ValueError, match="0 or 1"):
                LabelSet(values=values)
            values = labels.copy()
            values[row] = 0
            with pytest.raises(ValueError, match="positive label"):
                LabelSet(values=values)
        # An empty row before a bad entry: the entries are named first.
        values = labels.copy()
        values[0] = 0
        values[49, 0] = 3
        with pytest.raises(ValueError, match="0 or 1"):
            LabelSet(values=values)

    def test_matrices_without_rows_or_classes(self):
        FeatureSet(values=np.zeros((0, 4), dtype=np.float32))
        LabelSet(values=np.zeros((0, 4), dtype=np.uint8))
        LabelSet(values=np.zeros((0, 0), dtype=np.uint8))
        with pytest.raises(ValueError, match="positive label"):
            LabelSet(values=np.zeros((3, 0), dtype=np.uint8))


class TestSyntheticBlobs:
    def test_shapes_and_single_labels(self):
        features, labels = make_synthetic_blobs(8, 200, 16, 0.5, seed=1)
        assert features.values.shape == (1600, 16)
        assert labels.values.shape == (1600, 8)
        assert np.all(labels.values.sum(axis=1) == 1)

    def test_deterministic(self):
        a = make_synthetic_blobs(8, 200, 16, 0.5, seed=1)
        b = make_synthetic_blobs(8, 200, 16, 0.5, seed=1)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)

    def test_nearest_center_accuracy(self):
        # Verified by a direct nearest-center pass over the generated set.
        features, labels = make_synthetic_blobs(8, 200, 16, 0.5, seed=1)
        y = np.argmax(labels.values, axis=1)
        centers = np.array([features.values[y == c].mean(axis=0) for c in range(8)])
        d = ((features.values[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        accuracy = (np.argmin(d, axis=1) == y).mean()
        assert accuracy >= 0.99

    def test_center_separation(self):
        features, labels = make_synthetic_blobs(6, 50, 8, 0.5, seed=3)
        y = np.argmax(labels.values, axis=1)
        centers = np.array([features.values[y == c].mean(axis=0) for c in range(6)])
        diffs = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        min_dist = diffs[~np.eye(6, dtype=bool)].min()
        assert min_dist >= 4 * 0.5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_synthetic_blobs(1, 10, 8, 0.5, seed=0)
        with pytest.raises(ValueError):
            make_synthetic_blobs(4, 10, 1, 0.5, seed=0)
        with pytest.raises(ValueError):
            make_synthetic_blobs(4, 10, 8, 0.0, seed=0)


class TestSplitProtocol:
    def test_counts_for_balanced_classes(self):
        _, labels = make_synthetic_blobs(8, 200, 4, 0.5, seed=1)
        split = split_protocol(labels, 10, 50, seed=2)
        assert split.query.size == 80
        assert split.train.size == 400
        assert split.database.size == 1520

    def test_query_and_train_disjoint(self):
        _, labels = make_synthetic_blobs(8, 200, 4, 0.5, seed=1)
        split = split_protocol(labels, 10, 50, seed=2)
        assert not set(split.query.tolist()) & set(split.train.tolist())
        assert not set(split.query.tolist()) & set(split.database.tolist())

    def test_database_is_all_non_query(self):
        _, labels = make_synthetic_blobs(4, 30, 4, 0.5, seed=1)
        split = split_protocol(labels, 5, 10, seed=2)
        expected = sorted(set(range(120)) - set(split.query.tolist()))
        assert split.database.tolist() == expected
        # training items stay inside the database
        assert set(split.train.tolist()) <= set(split.database.tolist())

    def test_per_class_quotas_met(self):
        _, labels = make_synthetic_blobs(8, 200, 4, 0.5, seed=1)
        split = split_protocol(labels, 10, 50, seed=2)
        y = np.argmax(labels.values, axis=1)
        for c in range(8):
            assert (y[split.query] == c).sum() == 10
            assert (y[split.train] == c).sum() == 50

    def test_deterministic(self):
        _, labels = make_synthetic_blobs(8, 100, 4, 0.5, seed=1)
        a = split_protocol(labels, 10, 50, seed=2)
        b = split_protocol(labels, 10, 50, seed=2)
        assert np.array_equal(a.query, b.query)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.database, b.database)

    def test_insufficient_class_names_the_class(self):
        _, labels = make_synthetic_blobs(4, 30, 4, 0.5, seed=1)
        with pytest.raises(ValueError, match="class \\d"):
            split_protocol(labels, 20, 20, seed=2)

    def test_multilabel_items_count_toward_every_class(self):
        values = np.zeros((40, 2), dtype=np.uint8)
        values[:20, 0] = 1
        values[10:30, 1] = 1
        values[30:, 0] = 1
        labels = LabelSet(values=values)
        split = split_protocol(labels, 3, 3, seed=0)
        for c in range(2):
            assert labels.values[split.query, c].sum() >= 3
            assert labels.values[split.train, c].sum() >= 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("multilabel", [False, True])
    @pytest.mark.parametrize("quotas", [(3, 10), (0, 10), (3, 0), (0, 0)])
    def test_matches_reference_loop(self, seed, multilabel, quotas):
        rng = np.random.default_rng(seed)
        values = np.zeros((300, 6), dtype=np.uint8)
        values[np.arange(300), rng.integers(0, 6, 300)] = 1
        if multilabel:
            values |= (rng.random((300, 6)) < 0.2).astype(np.uint8)
        labels = LabelSet(values=values)
        got = split_protocol(labels, *quotas, seed=seed)
        expected = _reference_split(labels, *quotas, seed=seed)
        for name in ("query", "train", "database"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))
            assert getattr(got, name).dtype == np.int64

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("multilabel", [False, True])
    @pytest.mark.parametrize("quotas", [(3, 10), (15, 20)])
    def test_chunked_scan_matches_reference_loop(self, monkeypatch, seed,
                                                 multilabel, quotas):
        # With 7-candidate chunks the scan crosses chunk boundaries and
        # stops inside a chunk.
        monkeypatch.setattr(data, "_SPLIT_CHUNK", 7)
        self.test_matches_reference_loop(seed, multilabel, quotas)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 200), c=st.integers(1, 10),
           density=st.floats(0.0, 0.7), draw=st.integers(0, 2**32 - 1),
           quotas=st.tuples(st.integers(0, 40), st.integers(0, 40)),
           seed=st.integers(0, 2**32 - 1),
           chunk=st.sampled_from([1, 7, data._SPLIT_CHUNK]))
    def test_matches_reference_loop_property(self, n, c, density, draw,
                                             quotas, seed, chunk):
        # Random multi-label matrices with at least one label per row;
        # quotas past a class's item count must fail with the loop's message.
        rng = np.random.default_rng(draw)
        values = (rng.random((n, c)) < density).astype(np.uint8)
        values[np.arange(n), rng.integers(0, c, n)] = 1
        labels = LabelSet(values=values)

        def outcome(split):
            try:
                return split(labels, *quotas, seed=seed)
            except ValueError as err:
                return str(err)

        expected = outcome(_reference_split)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_SPLIT_CHUNK", chunk)
            got = outcome(split_protocol)
        if isinstance(expected, str):
            assert got == expected
            return
        for name in ("query", "train", "database"):
            assert getattr(got, name).dtype == getattr(expected, name).dtype
            assert np.array_equal(getattr(got, name), getattr(expected, name))

    def test_split_file_round_trip(self, tmp_path):
        _, labels = make_synthetic_blobs(4, 30, 4, 0.5, seed=1)
        split = split_protocol(labels, 5, 10, seed=2)
        path = tmp_path / "split.txt"
        save_split(split, path)
        loaded = load_split(path, 120)
        assert np.array_equal(loaded.roles, split.roles)
        assert np.array_equal(loaded.query, split.query)
        assert np.array_equal(loaded.train, split.train)
        assert np.array_equal(loaded.database, split.database)

    def test_split_file_missing_section(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("query: 1 2\ntrain: 3 4\n")
        with pytest.raises(ValueError) as err:
            load_split(path, 6)
        assert str(err.value) == (f"{path}: sections ['query', 'train'] are "
                                  f"not query, train and database in that "
                                  f"order")

    @pytest.mark.parametrize("section", ["query", "train", "database"])
    def test_split_file_repeated_section(self, tmp_path, section):
        # A second section would otherwise replace the first one.
        path = tmp_path / "split.txt"
        path.write_text(f"query: 1 2\ntrain: 3 4\ndatabase: 0 3 4 5\n"
                        f"{section}: 5\n")
        with pytest.raises(ValueError) as err:
            load_split(path, 6)
        assert str(err.value) == (
            f"{path}: sections ['query', 'train', 'database', '{section}'] "
            f"are not query, train and database in that order")


class TestSplitRoles:
    def test_sections_are_the_sorted_items_of_each_role(self):
        split = Split(roles=np.array([2, 1, 0, 1, 2, 0], dtype=np.uint8))
        assert split.num_items == 6
        for name, items in (("query", [1, 3]), ("train", [0, 4]),
                            ("database", [0, 2, 4, 5])):
            got = getattr(split, name)
            assert got.dtype == np.int64 and got.tolist() == items

    @pytest.mark.parametrize("roles", [
        np.zeros((2, 3), dtype=np.uint8), np.zeros(4, dtype=np.int64),
        np.zeros(4, dtype=np.int8), np.array([0, 1, 3], dtype=np.uint8),
        np.array([255], dtype=np.uint8), [0, 1, 2]])
    def test_rejects_roles_outside_the_encoding(self, roles):
        with pytest.raises(ValueError, match="split roles must be a 1-D "
                                             "uint8 array"):
            Split(roles=roles)

    def test_empty_split(self, tmp_path):
        split = Split(roles=np.zeros(0, dtype=np.uint8))
        path = tmp_path / "split.txt"
        save_split(split, path)
        assert path.read_text() == "query: \ntrain: \ndatabase: \n"
        assert load_split(path, 0).num_items == 0


def _canonical_text(roles):
    """Split file text of `roles` through the writer as first written."""
    return _reference_split_text(SimpleNamespace(
        query=np.flatnonzero(roles == 1), train=np.flatnonzero(roles == 2),
        database=np.flatnonzero(roles != 1)))


class TestLoadSplitRejects:
    """Every departure from the canonical form is a ValueError naming the
    file with both counts, or the section and its first item off it."""

    ROLES = np.array([0, 1, 2, 0, 1, 2, 2, 0, 0, 1], dtype=np.uint8)

    def _error(self, tmp_path, text, num_items=10):
        # The frozen reader gives the same message.
        path = tmp_path / "split.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_split(path, num_items)
        assert _load_split_parsing(path, num_items)[0] == str(err.value)
        return str(err.value).replace(f"{path}: ", "", 1)

    def test_canonical_text(self, tmp_path):
        # The text every mutation below starts from, read from its query
        # and train lines alone.
        text = _canonical_text(self.ROLES)
        assert text == "query: 1 4 9\ntrain: 2 5 6\ndatabase: 0 2 3 5 6 7 8\n"
        path = tmp_path / "split.txt"
        path.write_text(text)
        assert np.array_equal(load_split(path, 10).roles, self.ROLES)
        assert _load_split_parsing(path, 10) == (self.ROLES.tolist(),
                                                 ["query", "train"])

    @pytest.mark.parametrize("old, new", [
        ("train:", "\ntrain:"), ("query:", "\n \t\nquery:"),
        ("8\n", "8\n\n"), ("\n", "\r\n"), ("8\n", "8"),
        (" 0 ", " +0 "), (" 2 3", " 02 03"), (": 1", ":\t1"), (" 4", "\t4"),
        (" 5 6\nd", "  5  6\nd"), ("9\n", "9 \n"), ("8\n", "8 \n")])
    def test_other_spellings_take_the_full_parse(self, tmp_path, old, new):
        # Each spelling reads as the canonical file does, the database
        # line parsed in full; the frozen reader agrees.
        text = _canonical_text(self.ROLES)
        assert old in text
        path = tmp_path / "split.txt"
        path.write_bytes(text.replace(old, new, 1).encode())
        got, parsed = _load_split_parsing(path, 10)
        assert got == self.ROLES.tolist() and "database" in parsed

    @pytest.mark.parametrize("at", [0, 7, 20, 32])
    def test_bytes_that_do_not_decode_name_the_file(self, tmp_path, at):
        # At the start, in the query, train or database line.
        raw = _canonical_text(self.ROLES).encode()
        path = tmp_path / "split.txt"
        path.write_bytes(raw[:at] + b"\xff" + raw[at:])
        with pytest.raises(ValueError) as err:
            load_split(path, 10)
        assert str(err.value).startswith(f"{path}: ")
        assert "can't decode byte 0xff" in str(err.value)

    @pytest.mark.parametrize("num_items", [0, 9, 11, 160])
    def test_another_item_count_names_both(self, tmp_path, num_items):
        text = _canonical_text(self.ROLES)
        assert self._error(tmp_path, text, num_items) == (
            f"the split covers 10 items, not the {num_items} given")

    @pytest.mark.parametrize("lines, message", [
        (["query: 1 4 9", "train: 2 5 6", "database: 0 2 3 5 6 7"],
         "the split covers 9 items, not the 10 given"),
        (["query: 1 4 9", "train: 2 5 6", "database: 0 2 3 5 6 7 8 8"],
         "the split covers 11 items, not the 10 given"),
        (["query: 1 4 -1", "train: 2 5 6", "database: 0 2 3 5 6 7 8"],
         "query section index -1 is out of range [0, 10)"),
        (["query: 1 4 9", "train: 2 5 10", "database: 0 2 3 5 6 7 8"],
         "train section index 10 is out of range [0, 10)"),
        (["query: 1 4 9", "train: 2 5 6", "database: 0 2 3 5 6 7 10"],
         "database section index 10 is out of range [0, 10)"),
        # A query item trained on, or listed in the database.
        (["query: 1 4 9", "train: 2 5 9", "database: 0 2 3 5 6 7 8"],
         "train section departs from the sorted train items at item 9, a "
         "query item"),
        (["query: 1 4 9", "train: 2 5 6", "database: 0 2 3 4 6 7 8"],
         "database section departs from the sorted database items at item "
         "4, a query item"),
        # A repeated index, with another dropped to keep the count.
        (["query: 1 4 4", "train: 2 5 6", "database: 0 2 3 5 6 7 8"],
         "query section departs from the sorted query items at item 4, a "
         "query item"),
        (["query: 1 4 9", "train: 2 5 6", "database: 0 2 2 5 6 7 8"],
         "database section departs from the sorted database items at item "
         "2, a train item"),
        # Unsorted sections.
        (["query: 4 1 9", "train: 2 5 6", "database: 0 2 3 5 6 7 8"],
         "query section departs from the sorted query items at item 4, a "
         "query item"),
        (["query: 1 4 9", "train: 2 6 5", "database: 0 2 3 5 6 7 8"],
         "train section departs from the sorted train items at item 6, a "
         "train item"),
        (["query: 1 4 9", "train: 2 5 6", "database: 0 2 3 5 6 8 7"],
         "database section departs from the sorted database items at item "
         "8, a database item"),
        # A database without the train items.
        (["query: 1 4 9", "train: 2 5 6", "database: 0 3 7 8"],
         "the split covers 7 items, not the 10 given"),
        (["query: 1 4 9", "train: 2 5 6", "database: 0 2 3 5 6 7 8",
          "query: 1"],
         "sections ['query', 'train', 'database', 'query'] are not query, "
         "train and database in that order"),
        (["query: 1 4 9", "database: 0 2 3 5 6 7 8", "train: 2 5 6"],
         "sections ['query', 'database', 'train'] are not query, train and "
         "database in that order"),
    ])
    def test_names_the_section_and_item(self, tmp_path, lines, message):
        assert self._error(tmp_path, "\n".join(lines) + "\n") == message

    def test_long_section_name_is_cut(self, tmp_path):
        # A line without a colon is all name; the message keeps 80 characters
        # of the names.
        line = "1 2 3 4 5 6 7 8 9 " * 8
        names = repr(["query", "train", line.strip()])
        assert self._error(tmp_path, f"query: 1\ntrain: 2\n{line}\n") == (
            f"sections {names[:80]} are not query, train and database in "
            f"that order")

    @settings(max_examples=300, deadline=None)
    @given(roles=st.lists(st.integers(0, 2), min_size=1, max_size=40).map(
               lambda r: np.array(r, dtype=np.uint8)),
           at=st.sampled_from([0, 1, 2]),
           mutation=st.sampled_from(["drop", "repeat", "swap", "query item",
                                     "negative", "past the end"]),
           data=st.data())
    def test_mutations_of_a_canonical_file_are_rejected(self, roles, at,
                                                        mutation, data):
        sections = [np.flatnonzero(roles == 1).tolist(),
                    np.flatnonzero(roles == 2).tolist(),
                    np.flatnonzero(roles != 1).tolist()]
        values = sections[at]
        pair = mutation in ("repeat", "swap")
        # A train item left out is a database-only item: still a split.
        assume(len(values) > pair and not (mutation == "drop" and at == 1))
        k = data.draw(st.integers(0, len(values) - 1 - pair))
        if mutation == "drop":
            del values[k]
        elif mutation == "repeat":
            values[k + 1] = values[k]
        elif mutation == "swap":
            values[k], values[k + 1] = values[k + 1], values[k]
        elif mutation == "query item":
            # A query item in the train or database section, or another
            # item in the query section.
            others = np.flatnonzero((roles == 1) != (at == 0)).tolist()
            assume(others)
            values[k] = data.draw(st.sampled_from(others))
        elif mutation == "negative":
            values[k] = -1 - values[k]
        else:
            values[k] += roles.size
        text = "".join(f"{name}: {' '.join(map(str, section))}\n"
                       for name, section in zip(("query", "train",
                                                 "database"), sections))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "split.txt"
            path.write_text(text)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                load_split(path, roles.size)
            _load_split_parsing(path, roles.size)


def _str_text(values):
    """A section's text as one str() of its list wrote it."""
    return str(values.tolist())[1:-1].replace(",", "").encode()


class TestDecimalText:
    @pytest.mark.parametrize("values", [[], [0], [2**32 - 1]])
    def test_edge_values(self, values):
        values = np.array(values, dtype=np.int64)
        assert data._decimal_text(values) == _str_text(values)

    @pytest.mark.parametrize("digits", range(1, 10))
    def test_straddles_each_power_of_ten(self, digits):
        values = np.array([10**digits - 1, 10**digits], dtype=np.int64)
        assert data._decimal_text(values) == _str_text(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), unique=True, max_size=60))
    def test_sorted_unique_arrays(self, values):
        values = np.array(sorted(values), dtype=np.int64)
        assert data._decimal_text(values) == _str_text(values)


class TestSplitFile:
    def test_scan_sized_split_matches_int_loop(self, tmp_path):
        rng = np.random.default_rng(0)
        roles = np.zeros(100_000, dtype=np.uint8)
        roles[rng.choice(100_000, size=3328, replace=False)] = 2
        roles[rng.choice(np.flatnonzero(roles), size=128, replace=False)] = 1
        split = Split(roles=roles)
        assert (split.query.size, split.train.size) == (128, 3200)
        path = tmp_path / "split.txt"
        save_split(split, path)
        assert path.read_text() == _reference_split_text(split)
        loaded = load_split(path, 100_000)
        expected = _reference_load_split(path)
        # The database line is compared, never parsed.
        assert _load_split_parsing(path, 100_000) == (roles.tolist(),
                                                      ["query", "train"])
        for name in ("query", "train", "database"):
            got = getattr(loaded, name)
            assert got.dtype == np.int64
            assert np.array_equal(got, getattr(expected, name))
            assert np.array_equal(got, getattr(split, name))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 120), c=st.integers(1, 6),
           density=st.floats(0.0, 0.7), draw=st.integers(0, 2**32 - 1),
           quotas=st.tuples(st.integers(0, 6), st.integers(0, 6)),
           seed=st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, n, c, density, draw, quotas, seed):
        # A written split reads back as its roles, and its file holds the
        # bytes the first writer gave the first protocol's lists.
        rng = np.random.default_rng(draw)
        values = (rng.random((n, c)) < density).astype(np.uint8)
        values[np.arange(n), rng.integers(0, c, n)] = 1
        labels = LabelSet(values=values)
        try:
            expected = _reference_split(labels, *quotas, seed=seed)
        except ValueError:
            assume(False)
        split = split_protocol(labels, *quotas, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "split.txt"
            save_split(split, path)
            assert path.read_text() == _reference_split_text(expected)
            loaded = load_split(path, n)
            assert _load_split_parsing(path, n) == (split.roles.tolist(),
                                                    ["query", "train"])
        assert loaded.roles.dtype == np.uint8
        assert np.array_equal(loaded.roles, split.roles)

    def test_blank_sections_and_spacing(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("query:\n\ntrain:   \t \ndatabase:  +0\t 01  2 \n")
        split = load_split(path, 3)
        assert split.query.dtype == split.train.dtype == np.int64
        assert split.query.size == split.train.size == 0
        assert split.database.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("token", [
        "#", "x", "2.5", "1_0", "\uff11\uff12", "99999999999999999999999"])
    def test_rejects_non_integer_tokens(self, tmp_path, token):
        # Python's int() takes 1_0 and full-width digits; the grammar does not.
        path = tmp_path / "split.txt"
        path.write_text(f"query: 1 2\ntrain: 3 {token} 4\ndatabase: 0\n")
        with pytest.raises(ValueError, match="split.txt: bad train section"):
            load_split(path, 5)

    @pytest.mark.parametrize("action", ["ignore", "default"])
    @pytest.mark.parametrize("token", [
        "2.5", "1e3", "nan", "inf", "99999999999999999999999"])
    def test_rejects_float_tokens_under_any_warning_filter(
            self, tmp_path, action, token):
        path = tmp_path / "split.txt"
        path.write_text(f"query: 1 2\ntrain: 3 {token} 4\ndatabase: 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ValueError, match="bad train section"):
                load_split(path, 5)

    @pytest.mark.parametrize("action", ["ignore", "default"])
    def test_float_fallback_warning_is_an_error(self, tmp_path, monkeypatch,
                                                action):
        # A loadtxt that, like numpy releases before the deprecation
        # expired, parses an integer via a float and only warns.
        def float_fallback(lines, dtype, ndmin, comments):
            tokens = lines[0].split()
            if not all(t.lstrip("+-").isdigit() for t in tokens):
                warnings.warn("loadtxt(): Parsing an integer via a float is "
                              "deprecated.", DeprecationWarning)
            return np.array(tokens, dtype=np.float64).astype(dtype)

        monkeypatch.setattr(np, "loadtxt", float_fallback)
        path = tmp_path / "split.txt"
        path.write_text("query: 1\ntrain: 2.5\ndatabase: 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ValueError, match="bad train section"):
                load_split(path, 5)
