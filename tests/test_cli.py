import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hadahash
from hadahash import cli, model, trainer
from hadahash.codebook import (build_codebook, load_codebook,
                               sample_projection, save_codebook, select_order)
from hadahash.analysis import confusion_matrix
from hadahash.data import (LabelSet, Split, load_labels,
                           make_synthetic_blobs, save_features, save_labels,
                           save_split, split_protocol)
from hadahash.model import NetworkSpec, build_network, save_network
from hadahash.retrieval import (BinaryCodeSet, binarize, load_codes,
                                pack_codes, save_codes, search)
from hadahash.rng import make_rng
from hadahash.trainer import save_checkpoint


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


    def test_duplicate_codewords_are_exit_two(self, tmp_path, capsys):
        # Seed 1 thresholds two of the ten selected rows to one codeword.
        out = tmp_path / "book.hccb"
        assert cli.main(["codebook", "--bits", "8", "--classes", "10",
                         "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: only 9 distinct codewords for 10 classes in 8 bits; "
            "use more bits")
        assert not out.exists()


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
    def test_mean_centered_database_runs_forward_twice(
            self, inputs, tmp_path, monkeypatch, use_split):
        features, split, net, paths = inputs
        rows = features.values[split.database] if use_split else features.values
        u = model.forward(net, rows)
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
        # One pass for the database means, one for the codes.
        assert seen == [rows.shape[0], rows.shape[0]]
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("mean_centered", [False, True])
    def test_one_row_tail_joins_the_last_block(self, tmp_path, monkeypatch,
                                               mean_centered):
        # 1025 rows: one forward of 1025 rows, the same product as a single
        # pass over every row, never a one-row block.
        features, _ = make_synthetic_blobs(5, 205, 6, 0.5, seed=4)
        net = build_network(NetworkSpec(6, (12,), 40, 5), seed=5)
        save_features(features, tmp_path / "f.hcfs")
        save_network(net, tmp_path / "m.hcmd")
        u = model.forward(net, features.values)
        expected = binarize(u) if not mean_centered else binarize(
            u, mode="mean_centered_sign", reference_means=u.mean(axis=0))
        seen = []
        real_forward = model.forward

        def counting_forward(net, x):
            seen.append(x.shape[0])
            return real_forward(net, x)

        monkeypatch.setattr(model, "forward", counting_forward)
        out = tmp_path / "codes.hcbc"
        argv = ["encode", "--model", str(tmp_path / "m.hcmd"),
                "--features", str(tmp_path / "f.hcfs"), "--out", str(out)]
        assert cli.main(argv + ["--mean-centered"] * mean_centered) == 0
        assert seen == [1025] * (1 + mean_centered)
        assert load_codes(out).words.tobytes() == expected.words.tobytes()

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
        u = model.forward(net, features.values[split.query])
        reference = model.forward(net, features.values[split.database])
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("batch_size, message", [
    # Several batches: the second batch's loss is NaN.
    ("4", "error: non-finite loss at epoch 0, batch 1: "),
    # One batch: its loss is finite, the epoch's update is not.
    ("1000", "error: layer 0 weights holds a non-finite value after epoch 0, "
             "batch 0")])
def test_numeric_blowup_is_exit_four(pipeline_files, capsys, batch_size,
                                     message):
    _, paths, tmp_path = pipeline_files
    out = tmp_path / "blown.hcmd"
    code = cli.main(["train", "--features", paths["features.hcfs"],
                     "--labels", paths["labels.hcls"],
                     "--split", paths["split.txt"],
                     "--codebook", paths["book.hccb"], "--hidden", "5",
                     "--batch-size", batch_size, "--lr", "1e200",
                     "--weight-decay", "1e200", "--epochs", "2",
                     "--checkpoint-every", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4
    assert message in err
    assert "layer 0 weights holds a non-finite value" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not Path(trainer.train_state_path(out)).exists()


def test_empty_database_is_exit_two(pipeline_files, capsys):
    split, paths, tmp_path = pipeline_files
    save_split(Split(query=split.query, train=split.train,
                     database=split.database[:0]), paths["split.txt"])
    save_codes(pack_codes(np.zeros((0, 8), dtype=bool)),
               paths["database.hcbc"])
    assert cli.main(_commands(paths, str(tmp_path / "out"))["eval"]) == 2
    assert "database is empty" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["#", "x", "2.5", "1_0",
                                   "99999999999999999999999"])
def test_non_integer_split_token_is_exit_two(pipeline_files, capsys, token):
    _, paths, tmp_path = pipeline_files
    with open(paths["split.txt"]) as f:
        lines = f.read().splitlines()
    lines[2] += " " + token
    with open(paths["split.txt"], "w") as f:
        f.write("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert cli.main(_commands(paths, str(out))["eval"]) == 2
    err = capsys.readouterr().err
    assert paths["split.txt"] in err and "database section" in err
    assert not out.exists()


@pytest.mark.parametrize("token", ["2.5", "1e3", "99999999999999999999999"])
def test_float_split_token_is_exit_two_without_pytest_filters(
        pipeline_files, token):
    """The installed CLI runs with Python's default warning filters."""
    _, paths, tmp_path = pipeline_files
    with open(paths["split.txt"]) as f:
        lines = f.read().splitlines()
    lines[2] += " " + token
    with open(paths["split.txt"], "w") as f:
        f.write("\n".join(lines) + "\n")
    out = tmp_path / "out"
    src = str(Path(hadahash.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "hadahash.cli",
         *_commands(paths, str(out))["eval"]],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert paths["split.txt"] in proc.stderr
    assert "database section" in proc.stderr
    assert not out.exists()


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


def _save_fresh_checkpoint(paths, next_epoch):
    """A checkpoint at `next_epoch` that the "train" command can resume."""
    net = build_network(NetworkSpec(6, (5,), 8, 4), seed=3)
    save_checkpoint(net, [np.zeros_like(p) for p in net.param_arrays()],
                    next_epoch, paths["model.hcmd"], trainer.TrainConfig())
    return _commands(paths, paths["model.hcmd"])["train"] + ["--resume"]


@pytest.mark.parametrize("cut", ["header", "payload"])
@pytest.mark.parametrize("target, command", [
    ("features.hcfs", "lsh-baseline"),
    ("labels.hcls", "eval"),
    ("book.hccb", "train"),
    ("model.hcmd", "encode"),
    ("query.hcbc", "eval"),
    ("model.hcmd.state", "resume"),
])
def test_truncated_file_is_exit_three_naming_it(pipeline_files, capsys,
                                                target, command, cut):
    _, paths, tmp_path = pipeline_files
    out = tmp_path / "out"
    if command == "resume":
        argv = _save_fresh_checkpoint(paths, 0)
        paths[target] = paths["model.hcmd"] + ".state"
    else:
        argv = _commands(paths, str(out))[command]
    assert cli.main(argv) == 0
    capsys.readouterr()
    out.unlink(missing_ok=True)
    raw = Path(paths[target]).read_bytes()
    # Every header is at least 12 bytes long.
    Path(paths[target]).write_bytes(raw[:10] if cut == "header" else raw[:-3])
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"error: {paths[target]}: truncated while reading" in err
    assert not out.exists()


def test_repeated_split_section_is_exit_two(pipeline_files, capsys):
    split, paths, tmp_path = pipeline_files
    with open(paths["split.txt"], "a") as f:
        f.write(f"query: {split.query[0]}\n")
    out = tmp_path / "out"
    assert cli.main(_commands(paths, str(out))["eval"]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: {paths['split.txt']}: repeated query section")
    assert not out.exists()


def test_repeated_codeword_file_is_exit_two(pipeline_files, capsys):
    _, paths, tmp_path = pipeline_files
    raw = bytearray(Path(paths["book.hccb"]).read_bytes())
    # Header of 25 bytes, then four 8-byte codewords: row 1 := row 0.
    raw[33:41] = raw[25:33]
    Path(paths["book.hccb"]).write_bytes(bytes(raw))
    out = tmp_path / "out"
    assert cli.main(_commands(paths, str(out))["train"]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: {paths['book.hccb']}: repeated codeword: only 3 distinct "
        f"codewords for 4 classes in 8 bits")
    assert not out.exists()


@pytest.mark.parametrize("epochs, code", [(1, 2), (2, 0), (3, 0)])
def test_resume_past_the_requested_epochs(pipeline_files, capsys, epochs,
                                          code):
    _, paths, _ = pipeline_files
    argv = _save_fresh_checkpoint(paths, 2) + ["--epochs", str(epochs)]
    before = Path(paths["model.hcmd"]).read_bytes()
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.strip() == (
            f"error: checkpoint {paths['model.hcmd']} is at epoch 2, past "
            f"the {epochs} epochs requested")
        assert Path(paths["model.hcmd"]).read_bytes() == before
    else:
        assert err.endswith(f"after {epochs} epochs\n")


@pytest.mark.parametrize("flags, name, saved, requested", [
    (["--lr", "0.5"], "base_lr", "0.0001", "0.5"),
    (["--seed", "9"], "seed", "0", "9"),
    (["--loss-mode", "BCE"], "loss_mode", "'CE'", "'BCE'"),
    (["--variant", "codebook-only"], "variant", "'full'", "'codebook_only'"),
])
def test_resume_with_another_config_is_exit_two_writing_nothing(
        pipeline_files, capsys, flags, name, saved, requested):
    _, paths, tmp_path = pipeline_files
    history = tmp_path / "history.csv"
    argv = _save_fresh_checkpoint(paths, 0) + ["--history", str(history)]
    files = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert cli.main(argv + flags) == 2
    assert capsys.readouterr().err == (
        f"error: checkpoint {paths['model.hcmd']} was trained with {name} "
        f"{saved}, not the requested {requested}\n")
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files
    # --epochs and --checkpoint-every may differ from the checkpoint's run.
    assert cli.main(argv + ["--epochs", "2", "--checkpoint-every", "1"]) == 0


def test_version_one_train_state_is_exit_three(pipeline_files, capsys):
    _, paths, _ = pipeline_files
    argv = _save_fresh_checkpoint(paths, 0)
    state = Path(paths["model.hcmd"] + ".state")
    raw = bytearray(state.read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    state.write_bytes(bytes(raw))
    before = Path(paths["model.hcmd"]).read_bytes()
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (
        f"error: {state}: unsupported version 1, expected 2\n")
    assert Path(paths["model.hcmd"]).read_bytes() == before


@pytest.mark.parametrize("target", ["query.hcbc", "database.hcbc"])
@pytest.mark.parametrize("bit", [8, 40, 63])
def test_set_padding_bit_is_exit_three(pipeline_files, capsys, target, bit):
    # Eight-bit codes: every bit from 8 up is padding and must be zero.
    _, paths, tmp_path = pipeline_files
    words = load_codes(paths[target]).words.copy()
    words[-1, 0] |= np.uint64(1 << bit)
    save_codes(BinaryCodeSet(words=words, code_bits=8), paths[target])
    out = tmp_path / "out"
    assert cli.main(_commands(paths, str(out))["eval"]) == 3
    err = capsys.readouterr().err
    assert paths[target] in err and "code length 8" in err
    assert not out.exists()


@pytest.mark.parametrize("command, bits", [
    ("lsh-baseline", "0"), ("lsh-baseline", "-3"), ("eval", "0"),
    ("analyze", "0")])
def test_codes_of_fewer_than_one_bit_are_rejected(pipeline_files, capsys,
                                                  command, bits):
    split, paths, tmp_path = pipeline_files
    out = tmp_path / "out"
    if command == "lsh-baseline":
        argv = _commands(paths, str(out))[command]
        argv[argv.index("--bits") + 1] = bits
        code, message = 2, f"LSH codes need at least one bit, got {bits} bits"
    else:
        # A well-formed header of zero-bit codes, so no payload follows.
        with open(paths["query.hcbc"], "wb") as f:
            f.write(b"HCBC" + struct.pack("<IIIB", 1, split.query.size, 0, 0))
        argv = (_commands(paths, str(out))["eval"] if command == "eval" else
                ["analyze", "--codes", paths["query.hcbc"], "--outdir",
                 str(out)])
        code, message = 3, (f"{paths['query.hcbc']}: code length 0; codes "
                            f"need at least one bit")
    assert cli.main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_mixed_binarization_modes_are_exit_two(pipeline_files, capsys):
    _, paths, tmp_path = pipeline_files
    db = load_codes(paths["database.hcbc"])
    save_codes(BinaryCodeSet(words=db.words, code_bits=db.code_bits,
                             mode="mean_centered_sign"),
               paths["database.hcbc"])
    out = tmp_path / "out"
    assert cli.main(_commands(paths, str(out))["eval"]) == 2
    assert capsys.readouterr().err == (
        "error: binarization mode mismatch: sign vs mean_centered_sign\n")
    assert not out.exists()


@pytest.mark.parametrize("hidden", ["0", "4,0", "-3", "8,"])
def test_zero_width_layer_is_exit_two(pipeline_files, capsys, hidden):
    _, paths, tmp_path = pipeline_files
    out = tmp_path / "zero.hcmd"
    argv = _commands(paths, str(out))["train"] + ["--hidden", hidden]
    assert cli.main(argv) == 2
    assert {"0": "layer 0 has width 0", "4,0": "layer 1 has width 0",
            "-3": "layer 0 has width -3",
            "8,": "--hidden: layer 1 width '' is not an integer"}[hidden] \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--lr", "nan"], "base_lr must be finite"),
    ("train", ["--lr", "inf"], "base_lr must be finite"),
    ("train", ["--momentum", "nan"], "momentum must be finite"),
    ("train", ["--momentum", "-5"], "momentum must be non-negative"),
    ("train", ["--weight-decay", "inf"], "weight_decay must be finite"),
    ("train", ["--weight-decay", "-0.1"], "weight_decay must be non-negative"),
    ("train", ["--lambda", "nan"], "lambda must be finite"),
    ("train", ["--checkpoint-every", "-1"],
     "checkpoint_every must be non-negative"),
    ("sweep", ["--lambdas", "0,nan"], "lambda must be finite"),
    ("sweep", ["--lambdas", "1,-1"], "lambda must be non-negative"),
    ("train", ["--seed", "-1"], "seed must fit in 64 bits, got -1"),
    ("train", ["--seed", str(2**64)], f"seed must fit in 64 bits, got {2**64}"),
    ("train", ["--batch-size", str(2**64)],
     f"batch_size must fit in 64 bits, got {2**64}"),
])
def test_bad_train_config_is_exit_two_before_training(
        pipeline_files, capsys, monkeypatch, command, flags, message):
    _, paths, tmp_path = pipeline_files
    epochs = []
    monkeypatch.setattr(trainer, "_run_epochs",
                        lambda *args, **kwargs: epochs.append(args))
    out = tmp_path / "out"
    argv = [command, "--features", paths["features.hcfs"],
            "--labels", paths["labels.hcls"], "--split", paths["split.txt"],
            "--codebook", paths["book.hccb"], "--hidden", "5",
            "--epochs", "1", "--out", str(out), *flags]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert epochs == []
    assert not out.exists()


@pytest.mark.parametrize("command, map_at", [("sweep", "0"),
                                             ("ablate", "-3")])
def test_bad_map_at_is_exit_two_before_training(
        pipeline_files, capsys, monkeypatch, command, map_at):
    # The cutoff was checked only by the first evaluate, after a full
    # training.
    _, paths, tmp_path = pipeline_files
    steps = []
    real_backward = trainer.backward

    def counting_backward(*args, **kwargs):
        steps.append(1)
        return real_backward(*args, **kwargs)

    monkeypatch.setattr(trainer, "backward", counting_backward)
    out = tmp_path / "out.csv"
    argv = [command, "--features", paths["features.hcfs"],
            "--labels", paths["labels.hcls"], "--split", paths["split.txt"],
            "--codebook", paths["book.hccb"], "--hidden", "5",
            "--epochs", "3", "--map-at", map_at, "--out", str(out)]
    assert cli.main(argv) == 2
    assert f"map_at must be positive, got {map_at}" in capsys.readouterr().err
    assert steps == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "analyze-activations"])
def test_subset_without_split_is_exit_two(pipeline_files, capsys, command):
    _, paths, tmp_path = pipeline_files
    out = tmp_path / "out"
    argv = _commands(paths, str(out))[command]
    at = argv.index("--split")
    del argv[at:at + 2]
    assert cli.main(argv + ["--subset", "query"]) == 2
    assert capsys.readouterr().err == "error: --subset needs --split\n"
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

    @pytest.mark.parametrize("spelling", [
        ["--config={}"], ["--conf", "{}"], ["--conf={}"], ["--c", "{}"]])
    def test_no_spelling_ignores_the_file(self, pipeline_files, spelling):
        # As with `--config PATH`, the equals form reads the file; argparse
        # takes no abbreviation of --config, so a shorter spelling is an
        # error too.
        _, paths, tmp_path = pipeline_files
        config = tmp_path / "encode.cfg"
        config.write_text("no_such_switch=true\n")
        out = tmp_path / "out.hcbc"
        argv = [token.format(config) for token in spelling]
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, *_commands(paths, str(out))["encode"]])
        assert exit_info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_equals_form_applies_the_file(self, pipeline_files, where):
        _, paths, tmp_path = pipeline_files
        config = tmp_path / "encode.cfg"
        config.write_text("mean_centered=true\n")
        encode = _commands(paths, str(tmp_path / "config.hcbc"))["encode"]
        option = f"--config={config}"
        argv = ([option, *encode] if where == "before"
                else [encode[0], option, *encode[1:]])
        assert cli.main(argv) == 0
        encode = _commands(paths, str(tmp_path / "flag.hcbc"))["encode"]
        assert cli.main([*encode, "--mean-centered"]) == 0
        assert ((tmp_path / "config.hcbc").read_bytes()
                == (tmp_path / "flag.hcbc").read_bytes())


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

    @pytest.mark.parametrize("given, missing", [
        (["--model", "--codebook"], ["--features"]),
        (["--features", "--split"], ["--model"]),
        (["--query-codes", "--database-codes", "--labels"], ["--split"]),
        (["--labels", "--split", "--codes"],
         ["--query-codes", "--database-codes"]),
        (["--database-codes"], ["--query-codes", "--labels", "--split"]),
    ])
    def test_partial_report_inputs_are_exit_two(self, pipeline_files, capsys,
                                                given, missing):
        _, paths, tmp_path = pipeline_files
        files = {"--codes": "database.hcbc", "--model": "model.hcmd",
                 "--features": "features.hcfs", "--split": "split.txt",
                 "--query-codes": "query.hcbc",
                 "--database-codes": "database.hcbc",
                 "--labels": "labels.hcls", "--codebook": "book.hccb"}
        outdir = tmp_path / "reports"
        argv = ["analyze", "--outdir", str(outdir)]
        for flag in given:
            argv += [flag, paths[files[flag]]]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.endswith(
            f"also needs {', '.join(missing)}\n")
        assert not outdir.exists()

    @pytest.mark.parametrize("given, unused", [
        (["--codes", "--split"], "--split"),
        (["--codes", "--split", "--subset"], "--split"),
        (["--codebook", "--split"], "--split"),
        # The confusion report reads --split, never --subset.
        (["--query-codes", "--database-codes", "--labels", "--split",
          "--subset"], "--subset"),
    ])
    def test_flag_no_report_reads_is_exit_two(self, pipeline_files, capsys,
                                              given, unused):
        _, paths, tmp_path = pipeline_files
        values = {"--codes": paths["database.hcbc"],
                  "--codebook": paths["book.hccb"],
                  "--query-codes": paths["query.hcbc"],
                  "--database-codes": paths["database.hcbc"],
                  "--labels": paths["labels.hcls"],
                  "--split": paths["split.txt"], "--subset": "query"}
        outdir = tmp_path / "reports"
        argv = ["analyze", "--outdir", str(outdir)]
        for flag in given:
            argv += [flag, values[flag]]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: no report given reads {unused}\n")
        assert not outdir.exists()

    @pytest.mark.parametrize("bins", [7, 50])
    def test_streamed_histogram_matches_one_forward(self, tmp_path,
                                                    monkeypatch, bins):
        # 2 * 1024 + 1 database rows, the default subset of a split: blocks
        # of 1024 and 1025 rows give the files of one pass over every row.
        features, labels = make_synthetic_blobs(3, 700, 6, 0.5, seed=5)
        split = split_protocol(labels, 17, 10, seed=5)
        assert split.database.size == 2 * model.ENCODE_BLOCK_ROWS + 1
        net = build_network(NetworkSpec(6, (12,), 16, 3), seed=6)
        save_features(features, tmp_path / "f.hcfs")
        save_split(split, tmp_path / "s.txt")
        save_network(net, tmp_path / "m.hcmd")
        u = model.forward(net, features.values[split.database])
        counts, edges = np.histogram(np.clip(u, -1.0, 1.0), bins=bins,
                                     range=(-1.0, 1.0))
        outer = max(1, round(bins * 0.05))
        mass = (counts[:outer].sum() + counts[-outer:].sum()) / counts.sum()

        seen = []
        real_forward = model.forward

        def counting_forward(net, x):
            seen.append(x.shape[0])
            return real_forward(net, x)

        monkeypatch.setattr(model, "forward", counting_forward)
        outdir = tmp_path / "reports"
        assert cli.main(["analyze", "--model", str(tmp_path / "m.hcmd"),
                         "--features", str(tmp_path / "f.hcfs"),
                         "--split", str(tmp_path / "s.txt"),
                         "--bins", str(bins), "--outdir", str(outdir)]) == 0
        assert seen == [model.ENCODE_BLOCK_ROWS, model.ENCODE_BLOCK_ROWS + 1]
        csv_text = (outdir / f"activation_hist_k16_b{bins}.csv").read_text()
        assert csv_text.splitlines() == ["bin_low,bin_high,count"] + [
            f"{float(edges[i])!r},{float(edges[i + 1])!r},{c}"
            for i, c in enumerate(counts.tolist())]
        assert (outdir / "summary.json").read_text() == json.dumps(
            {"activation_outer_mass": float(mass)}, indent=2) + "\n"

    @staticmethod
    def _confusion_inputs(d, n_query, n_db):
        """Multi-label labels, codes of 16 bits and a split of `n_query`
        queries over a database of `n_db` items; argv without --top."""
        rng = np.random.default_rng(0)
        n = n_query + n_db + 1
        labels = (rng.random((n, 5)) < 0.4).astype(np.uint8)
        labels[np.arange(n), rng.integers(0, 5, n)] = 1
        d.mkdir()
        save_labels(LabelSet(values=labels), d / "l.hcls")
        save_split(Split(query=np.arange(n_query), train=np.array([n - 1]),
                         database=np.arange(n_query, n - 1)), d / "s.txt")
        save_codes(pack_codes(rng.random((n_query, 16)) < 0.5), d / "q.hcbc")
        save_codes(pack_codes(rng.random((n_db, 16)) < 0.5), d / "db.hcbc")
        return ["analyze", "--query-codes", str(d / "q.hcbc"),
                "--database-codes", str(d / "db.hcbc"),
                "--labels", str(d / "l.hcls"), "--split", str(d / "s.txt"),
                "--outdir", str(d / "reports")]

    @pytest.mark.parametrize("top", [1, 7, 60, 61, 1000])
    def test_streamed_confusion_matches_every_ranking_at_once(self, tmp_path,
                                                              top):
        # 60 database items: --top 60 and above rank all of them.
        d = tmp_path / "inputs"
        argv = self._confusion_inputs(d, 9, 60)
        assert cli.main(argv + ["--top", str(top)]) == 0
        labels = load_labels(d / "l.hcls").values
        rankings = search(load_codes(d / "q.hcbc"), load_codes(d / "db.hcbc"),
                          limit=top)
        for weighted, name in ((True, "confusion"),
                               (False, "confusion_unweighted")):
            matrix = confusion_matrix(rankings, labels[:9], labels[9:69], top,
                                      weighted=weighted)
            expected = [",".join(f"class_{j}" for j in range(5))] + [
                ",".join(repr(float(v)) for v in row) for row in matrix]
            path = d / "reports" / f"{name}_k16_top{top}.csv"
            assert path.read_text().splitlines() == expected

    def test_confusion_peak_does_not_grow_with_the_queries(self, tmp_path):
        # At --top >= N each ranking is 12 B per database item: 56 more
        # queries held at once would add 4 MB over 6,000 items.
        # The first run warms up what a first call allocates once.
        peaks = {}
        for run, n_query in enumerate((8, 8, 64)):
            argv = self._confusion_inputs(tmp_path / str(run), n_query, 6000)
            tracemalloc.start()
            try:
                assert cli.main(argv + ["--top", "10000"]) == 0
                peaks[n_query] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] - peaks[8] <= 64 * 1024

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

    @pytest.mark.parametrize("extra, writes", [
        ((), 1),
        (("--checkpoint-every", "3"), 2),
        (("--checkpoint-every", "2"), 2),
        (("--resume",), 1),
    ])
    def test_each_run_writes_its_last_epoch_once(self, tmp_path, monkeypatch,
                                                 extra, writes):
        # Four epochs: checkpoints at epochs 3 and 4, or 2 and 4; a resume
        # from epoch 2 saves epoch 4 only. No write repeats the last one.
        d = tmp_path / "a"
        self._run(d)
        out = d / "ck.hcmd"
        if "--resume" in extra:
            assert cli.main(self._train(d, "--epochs", "2",
                                        "--checkpoint-every", "2",
                                        "--out", str(out))) == 0
        saved = []
        real_save = model.save_network

        def counting_save(net, path):
            saved.append(path)
            real_save(net, path)

        monkeypatch.setattr(model, "save_network", counting_save)
        monkeypatch.setattr(trainer, "save_network", counting_save)
        assert cli.main(self._train(d, "--epochs", "4", *extra,
                                    "--out", str(out))) == 0
        assert len(saved) == writes
        assert out.read_bytes() == (d / "m.hcmd").read_bytes()

    def test_resume_after_an_off_period_run_writes_the_straight_model(
            self, tmp_path):
        # Four epochs with a checkpoint every three: the last epoch is not a
        # checkpoint epoch, yet its optimizer state must be the one resumed.
        d = tmp_path / "a"
        self._run(d)
        resumed, straight = d / "resumed.hcmd", d / "straight.hcmd"
        assert cli.main(self._train(d, "--epochs", "4", "--checkpoint-every",
                                    "3", "--out", str(resumed))) == 0
        assert cli.main(self._train(d, "--epochs", "6", "--resume",
                                    "--out", str(resumed))) == 0
        assert cli.main(self._train(d, "--epochs", "6", "--checkpoint-every",
                                    "3", "--out", str(straight))) == 0
        assert resumed.read_bytes() == straight.read_bytes()
        assert (Path(f"{resumed}.state").read_bytes()
                == Path(f"{straight}.state").read_bytes())


class TestSavePolicy:
    """The files each train run leaves at --out, against straight runs.

    The model always holds the last epoch. The optimizer state is left by
    a checkpointing run that trains an epoch, and by every resume.
    """

    @pytest.fixture(scope="class")
    def straight(self, tmp_path_factory):
        """The input directory, and the model and optimizer-state bytes of
        a straight run after 0 and after 4 epochs."""
        d = tmp_path_factory.mktemp("policy") / "inputs"
        TestGoldenPipeline()._run(d)
        assert cli.main(TestGoldenPipeline._train(
            d, "--epochs", "4", "--checkpoint-every", "1",
            "--out", str(d / "ck4.hcmd"))) == 0
        # What a fresh run starts from: the seeded weights, zero velocity.
        net = build_network(NetworkSpec(10, (12,), 16, 5), seed=4)
        save_checkpoint(net, [np.zeros_like(p) for p in net.param_arrays()],
                        0, d / "ck0.hcmd", trainer.TrainConfig(
                            batch_size=16, base_lr=0.05, seed=4))
        return d, {epochs: ((d / name).read_bytes(),
                            (d / f"ck{epochs}.hcmd.state").read_bytes())
                   for epochs, name in ((0, "ck0.hcmd"), (4, "m.hcmd"))}

    @pytest.mark.parametrize("epochs, flags, resume_from", [
        (0, (), None),
        (4, (), None),
        (0, ("--checkpoint-every", "2"), None),
        (4, ("--checkpoint-every", "2"), None),
        (0, ("--checkpoint-every", "3"), None),
        (4, ("--checkpoint-every", "3"), None),
        (0, ("--resume",), 0),
        (4, ("--resume",), 2),
        (4, ("--resume",), 4),
    ])
    def test_files_hold_the_straight_runs_bytes(self, straight, tmp_path,
                                                epochs, flags, resume_from):
        d, reference = straight
        out = tmp_path / "m.hcmd"
        if resume_from == 0:
            out.write_bytes((d / "ck0.hcmd").read_bytes())
            Path(f"{out}.state").write_bytes(reference[0][1])
        elif resume_from is not None:
            assert cli.main(TestGoldenPipeline._train(
                d, "--epochs", str(resume_from), "--checkpoint-every",
                str(resume_from), "--out", str(out))) == 0
        assert cli.main(TestGoldenPipeline._train(
            d, "--epochs", str(epochs), *flags, "--out", str(out))) == 0
        model_bytes, state_bytes = reference[epochs]
        expected = {"m.hcmd": model_bytes}
        if resume_from is not None or flags and epochs:
            expected["m.hcmd.state"] = state_bytes
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == expected
