import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hadahash
from hadahash import cli, model
from hadahash.codebook import (build_codebook, load_codebook,
                               sample_projection, save_codebook, select_order)
from hadahash.data import (Split, make_synthetic_blobs, save_features,
                           save_labels, save_split, split_protocol)
from hadahash.model import NetworkSpec, build_network, save_network
from hadahash.retrieval import binarize, pack_codes, save_codes
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

    def test_empty_subset_is_exit_two(self, inputs, tmp_path, capsys):
        _, split, _, paths = inputs
        save_split(Split(query=split.query[:0], train=split.train,
                         database=split.database), paths["split.txt"])
        out = tmp_path / "codes.hcbc"
        assert cli.main(["encode", "--model", str(paths["model.hcmd"]),
                         "--features", str(paths["features.hcfs"]),
                         "--split", str(paths["split.txt"]), "--subset",
                         "query", "--out", str(out)]) == 2
        assert "no rows to encode" in capsys.readouterr().err
        assert not out.exists()

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


@pytest.fixture()
def pipeline_files(tmp_path):
    """Features, labels, a valid split, codebook, model and codes."""
    features, labels = make_synthetic_blobs(4, 30, 6, 0.5, seed=2)
    split = split_protocol(labels, 3, 10, seed=2)
    paths = {name: str(tmp_path / name) for name in (
        "features.hcfs", "labels.hcls", "split.txt", "book.hccb",
        "model.hcmd", "query.hcbc", "database.hcbc")}
    save_features(features, paths["features.hcfs"])
    save_labels(labels, paths["labels.hcls"])
    save_split(split, paths["split.txt"])
    save_codebook(build_codebook(8, 4, seed=0), paths["book.hccb"])
    save_network(build_network(NetworkSpec(6, (5,), 8, 4), seed=3),
                 paths["model.hcmd"])
    rng = np.random.default_rng(0)
    for name, size in (("query.hcbc", split.query.size),
                       ("database.hcbc", split.database.size)):
        save_codes(pack_codes(rng.random((size, 8)) < 0.5), paths[name])
    return split, paths, tmp_path


def _commands(paths, out):
    """argv of subcommands that read a split, keyed by name."""
    data = ["--features", paths["features.hcfs"],
            "--labels", paths["labels.hcls"], "--split", paths["split.txt"]]
    codes = ["--query-codes", paths["query.hcbc"],
             "--database-codes", paths["database.hcbc"]]
    return {
        "eval": ["eval", *codes, "--labels", paths["labels.hcls"],
                 "--split", paths["split.txt"], "--out", out],
        "lsh-baseline": ["lsh-baseline", *data, "--bits", "8", "--out", out],
        "encode": ["encode", "--model", paths["model.hcmd"],
                   "--features", paths["features.hcfs"],
                   "--split", paths["split.txt"], "--subset", "query",
                   "--out", out],
        "analyze-activations": ["analyze", "--model", paths["model.hcmd"],
                                "--features", paths["features.hcfs"],
                                "--split", paths["split.txt"], "--outdir", out],
        "analyze-confusion": ["analyze", *codes,
                              "--labels", paths["labels.hcls"],
                              "--split", paths["split.txt"], "--outdir", out],
        "train": ["train", *data, "--codebook", paths["book.hccb"],
                  "--hidden", "5", "--epochs", "1", "--out", out],
    }


class TestSplitChecks:
    @staticmethod
    def _faulty(split, fault):
        query, train, database = (split.query.copy(), split.train.copy(),
                                  split.database.copy())
        if fault == "out of range":
            query[0] = -1
        elif fault == "repeats":
            database[1] = database[0]
        else:  # a query item also in the database
            database[0] = query[0]
        return Split(query=query, train=train, database=database)

    @pytest.mark.parametrize("fault", ["out of range", "repeats",
                                       "in both the query and the database"])
    @pytest.mark.parametrize("command", ["eval", "lsh-baseline", "encode",
                                         "analyze-activations",
                                         "analyze-confusion", "train"])
    def test_faulty_split_is_exit_two(self, pipeline_files, capsys, fault,
                                      command):
        split, paths, tmp_path = pipeline_files
        argv = _commands(paths, str(tmp_path / "out"))[command]
        assert cli.main(argv) == 0
        capsys.readouterr()
        save_split(self._faulty(split, fault), paths["split.txt"])
        assert cli.main(argv) == 2
        assert fault in capsys.readouterr().err

    def test_lsh_baseline_rejects_mismatched_counts(self, pipeline_files):
        _, paths, tmp_path = pipeline_files
        features, _ = make_synthetic_blobs(4, 31, 6, 0.5, seed=2)
        save_features(features, paths["features.hcfs"])
        argv = _commands(paths, str(tmp_path / "out"))["lsh-baseline"]
        assert cli.main(argv) == 2


def test_empty_database_is_exit_two(pipeline_files, capsys):
    split, paths, tmp_path = pipeline_files
    save_split(Split(query=split.query, train=split.train,
                     database=split.database[:0]), paths["split.txt"])
    save_codes(pack_codes(np.zeros((0, 8), dtype=bool)),
               paths["database.hcbc"])
    assert cli.main(_commands(paths, str(tmp_path / "out"))["eval"]) == 2
    assert "database is empty" in capsys.readouterr().err


class TestOversizedHeaders:
    """Headers that declare (2^32 - 1) x (2^32 - 1) items in a tiny file."""

    @pytest.mark.parametrize("target, magic, command", [
        ("features.hcfs", b"HCFS", "lsh-baseline"),
        ("features.hcfs", b"HCFS", "train"),
        ("labels.hcls", b"HCLS", "eval"),
        ("query.hcbc", b"HCBC", "eval"),
    ])
    def test_is_exit_three(self, pipeline_files, capsys, target, magic,
                           command):
        _, paths, tmp_path = pipeline_files
        header = magic + struct.pack("<III", 1, 2**32 - 1, 2**32 - 1)
        if magic == b"HCBC":
            header += b"\x00"  # mode tag
        with open(paths[target], "wb") as f:
            f.write(header + bytes(64))
        out = tmp_path / "out"
        assert cli.main(_commands(paths, str(out))[command]) == 3
        assert "truncated" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_removed_threads_flag_is_exit_two(self, pipeline_files):
        _, paths, tmp_path = pipeline_files
        config = tmp_path / "eval.cfg"
        config.write_text("threads=2\n")
        argv = ["--config", str(config),
                *_commands(paths, str(tmp_path / "out"))["eval"]]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("value, flag", [("true", ["--mean-centered"]),
                                             ("false", [])])
    def test_switch_from_config(self, pipeline_files, value, flag):
        _, paths, tmp_path = pipeline_files
        config = tmp_path / "encode.cfg"
        config.write_text(f"mean_centered={value}\n")
        encode = _commands(paths, str(tmp_path / "config.hcbc"))["encode"]
        assert cli.main(["--config", str(config), *encode]) == 0
        encode = _commands(paths, str(tmp_path / "flag.hcbc"))["encode"]
        assert cli.main([*encode, *flag]) == 0
        assert ((tmp_path / "config.hcbc").read_bytes()
                == (tmp_path / "flag.hcbc").read_bytes())

    def test_unknown_switch_is_exit_two(self, pipeline_files):
        _, paths, tmp_path = pipeline_files
        config = tmp_path / "encode.cfg"
        config.write_text("no_such_switch=true\n")
        argv = ["--config", str(config),
                *_commands(paths, str(tmp_path / "out"))["encode"]]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2


def test_oversized_quota_is_exit_two(pipeline_files, capsys):
    _, paths, tmp_path = pipeline_files
    out = tmp_path / "split.out"
    assert cli.main(["split", "--labels", paths["labels.hcls"],
                     "--query-per-class", "99999999999999999999999",
                     "--train-per-class", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: number too large")
    assert not out.exists()


class TestAnalyzeCommand:
    def _argv(self, paths, outdir):
        return ["analyze", "--codes", paths["database.hcbc"],
                "--model", paths["model.hcmd"],
                "--features", paths["features.hcfs"],
                "--split", paths["split.txt"],
                "--query-codes", paths["query.hcbc"],
                "--database-codes", paths["database.hcbc"],
                "--labels", paths["labels.hcls"],
                "--codebook", paths["book.hccb"], "--outdir", str(outdir)]

    def test_writes_every_report(self, pipeline_files):
        _, paths, tmp_path = pipeline_files
        outdir = tmp_path / "reports"
        assert cli.main(self._argv(paths, outdir)) == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "activation_hist_k8_b50.csv", "bit_balance_k8.csv",
            "codebook_gram_c4_k8.csv", "confusion_k8_top100.csv",
            "confusion_unweighted_k8_top100.csv", "summary.json"]

    @pytest.mark.parametrize("missing", ["database.hcbc", "model.hcmd",
                                         "labels.hcls", "book.hccb"])
    def test_missing_input_writes_nothing(self, pipeline_files, missing):
        _, paths, tmp_path = pipeline_files
        os.remove(paths[missing])
        outdir = tmp_path / "reports"
        assert cli.main(self._argv(paths, outdir)) == 3
        assert not outdir.exists()

    def test_no_inputs_writes_nothing(self, tmp_path, capsys):
        outdir = tmp_path / "reports"
        assert cli.main(["analyze", "--outdir", str(outdir)]) == 2
        assert "no analysis inputs" in capsys.readouterr().err
        assert not outdir.exists()

    def test_database_codes_must_match_split(self, pipeline_files, capsys):
        split, paths, tmp_path = pipeline_files
        save_codes(pack_codes(np.ones((split.database.size + 1, 8), dtype=bool)),
                   paths["database.hcbc"])
        outdir = tmp_path / "reports"
        argv = ["analyze", "--query-codes", paths["query.hcbc"],
                "--database-codes", paths["database.hcbc"],
                "--labels", paths["labels.hcls"], "--split", paths["split.txt"],
                "--outdir", str(outdir)]
        assert cli.main(argv) == 2
        assert "database code count" in capsys.readouterr().err
        assert not outdir.exists()


class TestGoldenPipeline:
    """synth -> split -> codebook -> train -> encode -> eval is byte-idempotent."""

    @staticmethod
    def _train(d, *extra):
        return ["train", "--features", str(d / "f.hcfs"),
                "--labels", str(d / "l.hcls"), "--split", str(d / "s.txt"),
                "--codebook", str(d / "b.hccb"), "--hidden", "12",
                "--batch-size", "16", "--lr", "0.05", "--seed", "4", *extra]

    def _run(self, d):
        d.mkdir()
        steps = [
            ["synth", "--classes", "5", "--per-class", "40", "--dim", "10",
             "--spread", "2.0", "--seed", "3", "--features-out",
             str(d / "f.hcfs"), "--labels-out", str(d / "l.hcls")],
            ["split", "--labels", str(d / "l.hcls"), "--query-per-class", "4",
             "--train-per-class", "20", "--seed", "3", "--out",
             str(d / "s.txt")],
            ["codebook", "--bits", "16", "--classes", "5", "--seed", "3",
             "--out", str(d / "b.hccb")],
            self._train(d, "--epochs", "4", "--out", str(d / "m.hcmd")),
            *[["encode", "--model", str(d / "m.hcmd"),
               "--features", str(d / "f.hcfs"), "--split", str(d / "s.txt"),
               "--subset", subset, "--out", str(d / f"{subset}.hcbc")]
              for subset in ("query", "database")],
            ["eval", "--query-codes", str(d / "query.hcbc"),
             "--database-codes", str(d / "database.hcbc"),
             "--labels", str(d / "l.hcls"), "--split", str(d / "s.txt"),
             "--out", str(d / "report.json"), "--pr-csv", str(d / "pr.csv"),
             "--pk-csv", str(d / "pk.csv")],
        ]
        for argv in steps:
            assert cli.main(argv) == 0, argv
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    def test_two_runs_write_identical_bytes(self, tmp_path):
        first = self._run(tmp_path / "a")
        second = self._run(tmp_path / "b")
        assert list(first) == ["b.hccb", "database.hcbc", "f.hcfs", "l.hcls",
                               "m.hcmd", "pk.csv", "pr.csv", "query.hcbc",
                               "report.json", "s.txt"]
        assert first == second

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_resume_writes_the_straight_model(self, tmp_path, how):
        d = tmp_path / "a"
        self._run(d)
        checkpoint = d / "ck.hcmd"
        assert cli.main(self._train(d, "--epochs", "2", "--checkpoint-every",
                                    "2", "--out", str(checkpoint))) == 0
        if how == "flag":
            argv = self._train(d, "--resume", "--epochs", "4",
                               "--out", str(checkpoint))
        else:
            config = tmp_path / "resume.cfg"
            config.write_text("resume=true\nepochs=4\n")
            argv = ["--config", str(config),
                    *self._train(d, "--out", str(checkpoint))]
        assert cli.main(argv) == 0
        assert checkpoint.read_bytes() == (d / "m.hcmd").read_bytes()
