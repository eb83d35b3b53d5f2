import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hadahash
from hadahash import cli, model
from hadahash.codebook import load_codebook, sample_projection, select_order
from hadahash.data import (make_synthetic_blobs, save_features, save_split,
                           split_protocol)
from hadahash.model import NetworkSpec, build_network, save_network
from hadahash.retrieval import binarize, save_codes
from hadahash.rng import make_rng


class TestCodebookCommand:
    def test_many_classes_fit_in_two_gigabytes(self, tmp_path):
        resource = pytest.importorskip("resource")
        limit = 2 * 2**30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        out = tmp_path / "book.hccb"
        src = str(Path(hadahash.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "hadahash.cli", "codebook", "--bits", "64",
             "--classes", "100000", "--seed", "0", "--out", str(out)],
            env=env, preexec_fn=cap_address_space, capture_output=True,
            text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr

        book = load_codebook(out)
        assert book.codewords.shape == (100000, 64)
        order = select_order(64, 100000)
        # The documented draw: distinct indices from 1..order-1, seeded.
        indices = make_rng(0).choice(np.arange(1, order), size=100000,
                                     replace=False)
        projection = sample_projection(order, 64, 0).values
        columns = np.arange(order)
        for c in np.random.default_rng(1).choice(100000, size=200, replace=False):
            # Closed-form Sylvester row: H[i, j] = (-1)^popcount(i & j)
            parity = np.bitwise_count(columns & indices[c]).astype(np.int64) & 1
            row = 1 - 2 * parity
            expected = np.where(row @ projection >= 0, 1, -1)
            assert np.array_equal(book.codewords[c], expected)


class TestExitCodes:
    def test_memory_error_is_exit_two(self, tmp_path, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError("cannot allocate 80 GB")

        monkeypatch.setattr(cli, "cmd_codebook", exhausted)
        code = cli.main(["codebook", "--bits", "8", "--classes", "4",
                         "--out", str(tmp_path / "book.hccb")])
        assert code == 2
        assert capsys.readouterr().err.strip() == \
            "error: out of memory: cannot allocate 80 GB"


class TestEncodeCommand:
    @pytest.fixture()
    def inputs(self, tmp_path):
        features, labels = make_synthetic_blobs(4, 30, 6, 0.5, seed=2)
        split = split_protocol(labels, 3, 10, seed=2)
        net = build_network(NetworkSpec(6, (5,), 8, 4), seed=3)
        paths = {name: tmp_path / name
                 for name in ("features.hcfs", "split.txt", "model.hcmd")}
        save_features(features, paths["features.hcfs"])
        save_split(split, paths["split.txt"])
        save_network(net, paths["model.hcmd"])
        return features, split, net, paths

    @pytest.mark.parametrize("use_split", [True, False])
    def test_mean_centered_database_runs_forward_once(
            self, inputs, tmp_path, monkeypatch, use_split):
        features, split, net, paths = inputs
        rows = features.values[split.database] if use_split else features.values
        u, _ = model.forward(net, rows)
        expected = tmp_path / "expected.hcbc"
        save_codes(binarize(u, mode="mean_centered_sign",
                            reference_means=u.mean(axis=0)), expected)

        seen = []
        real_forward = model.forward

        def counting_forward(net, x):
            seen.append(x.shape[0])
            return real_forward(net, x)

        monkeypatch.setattr(model, "forward", counting_forward)
        out = tmp_path / "codes.hcbc"
        argv = ["encode", "--model", str(paths["model.hcmd"]),
                "--features", str(paths["features.hcfs"]), "--mean-centered",
                "--out", str(out)]
        if use_split:
            argv += ["--split", str(paths["split.txt"]), "--subset", "database"]
        assert cli.main(argv) == 0
        assert sum(seen) == rows.shape[0]
        assert out.read_bytes() == expected.read_bytes()

    def test_mean_centered_query_uses_database_means(self, inputs, tmp_path):
        features, split, net, paths = inputs
        u, _ = model.forward(net, features.values[split.query])
        reference, _ = model.forward(net, features.values[split.database])
        expected = tmp_path / "expected.hcbc"
        save_codes(binarize(u, mode="mean_centered_sign",
                            reference_means=reference.mean(axis=0)), expected)
        out = tmp_path / "codes.hcbc"
        assert cli.main(["encode", "--model", str(paths["model.hcmd"]),
                         "--features", str(paths["features.hcfs"]),
                         "--split", str(paths["split.txt"]), "--subset",
                         "query", "--mean-centered", "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()
