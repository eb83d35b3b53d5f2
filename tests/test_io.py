import io
import struct

import numpy as np
import pytest

from hadahash.codebook import build_codebook, save_codebook
from hadahash.data import FeatureSet, LabelSet, save_features, save_labels
from hadahash.io import (BadMagicError, BadVersionError, FileFormatError,
                         TruncatedFileError, check_end, read_array,
                         read_header, write_array, write_header)
from hadahash.model import NetworkSpec, build_network
from hadahash.retrieval import binarize, save_codes
from hadahash.trainer import TrainConfig, save_checkpoint


def _values(dtype, count):
    rng = np.random.default_rng(count)
    if np.dtype(dtype).kind == "f":
        return rng.normal(size=count).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=count, dtype=dtype,
                        endpoint=True)


class Shrunk(io.BufferedReader):
    """A reader whose `readinto` stops after 10 bytes."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer)[:10])


class TestReadArray:
    @pytest.mark.parametrize("dtype", ["<f4", "<f8", "<u8", np.int8, np.uint8])
    @pytest.mark.parametrize("count", [0, 1, 7, 4096])
    def test_returns_an_owning_writeable_copy(self, tmp_path, dtype, count):
        values = _values(dtype, count)
        path = tmp_path / "payload.bin"
        with open(path, "wb") as f:
            f.write(b"head")
            write_array(f, values, dtype)
            f.write(b"tail")
        with open(path, "rb") as f:
            f.read(4)
            got = read_array(f, dtype, count, "payload")
            assert f.read() == b"tail"
        assert got.dtype == np.dtype(dtype) and got.shape == (count,)
        assert got.tobytes() == values.tobytes()
        assert got.flags.owndata and got.flags.writeable
        got[...] = 0
        assert not got.any()

    def test_short_file_is_truncated(self, tmp_path):
        path = tmp_path / "payload.bin"
        path.write_bytes(bytes(12))
        with open(path, "rb") as f:
            with pytest.raises(TruncatedFileError, match="wanted 16 bytes"):
                read_array(f, "<f8", 2, "payload")

    def test_short_read_is_truncated(self, tmp_path):
        # A file that shrinks after the size check still fails cleanly.
        path = tmp_path / "payload.bin"
        path.write_bytes(bytes(16))

        with Shrunk(io.FileIO(path, "rb")) as f:
            with pytest.raises(TruncatedFileError, match="got 10"):
                read_array(f, "<f8", 2, "payload")

    @pytest.mark.parametrize("size, opener, message", [
        (12, open, "wanted 16 bytes, 12 left in the file"),
        (16, lambda path, mode: Shrunk(io.FileIO(path, mode)),
         "wanted 16 bytes, got 10"),
    ])
    def test_truncation_names_the_file(self, tmp_path, size, opener, message):
        path = tmp_path / "payload.bin"
        path.write_bytes(bytes(size))
        with opener(path, "rb") as f:
            with pytest.raises(TruncatedFileError) as err:
                read_array(f, "<f8", 2, "payload")
        assert str(err.value) == (
            f"{path}: truncated while reading payload: {message}")


class TestCheckEnd:
    @pytest.mark.parametrize("extra", [1, 8])
    def test_bytes_after_the_payload_name_the_file(self, tmp_path, extra):
        path = tmp_path / "payload.bin"
        path.write_bytes(bytes(16 + extra))
        with open(path, "rb") as f:
            read_array(f, "<f8", 2, "payload")
            with pytest.raises(FileFormatError) as err:
                check_end(f)
        assert str(err.value) == f"{path}: {extra} bytes after the payload"


class TestHeader:
    FIELDS = (7, 2**40 + 3, 255)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "file.bin"
        with open(path, "wb") as f:
            write_header(f, b"TEST", 3, "IQB", *self.FIELDS)
            f.write(b"tail")
        assert path.read_bytes() == (
            b"TEST" + struct.pack("<IIQB", 3, *self.FIELDS) + b"tail")
        with open(path, "rb") as f:
            assert read_header(f, b"TEST", 3, "IQB") == self.FIELDS
            assert f.read() == b"tail"

    @pytest.mark.parametrize("raw, error, message", [
        (b"BEST" + bytes(17), BadMagicError, "bad magic b'BEST'"),
        # The magic is checked first, also in a header cut short.
        (b"BEST", BadMagicError, "bad magic b'BEST'"),
        (b"TE", TruncatedFileError, "wanted 21 bytes, got 2"),
        (b"TEST" + struct.pack("<I", 3) + bytes(12), TruncatedFileError,
         "wanted 21 bytes, got 20"),
        (b"TEST" + struct.pack("<I", 4) + bytes(13), BadVersionError,
         "unsupported version 4, expected 3"),
        # A wrong version in a header cut short is reported as truncation.
        (b"TEST" + struct.pack("<I", 4), TruncatedFileError,
         "wanted 21 bytes, got 8"),
    ])
    def test_errors_name_the_file(self, tmp_path, raw, error, message):
        path = tmp_path / "file.bin"
        path.write_bytes(raw)
        with open(path, "rb") as f:
            with pytest.raises(error) as err:
                read_header(f, b"TEST", 3, "IQB")
        assert str(err.value).startswith(f"{path}: ")
        assert message in str(err.value)


def _layer(fan_in, fan_out, tag):
    return struct.pack("<IIB", fan_in, fan_out, tag)


class TestGoldenHeaders:
    """Each format's leading bytes against a layout written out here.

    A round trip passes with any layout that save and load share; these
    pin the layout itself.
    """

    def test_features(self, tmp_path):
        path = tmp_path / "f.hcfs"
        save_features(FeatureSet(values=np.zeros((3, 2), np.float32)), path)
        header = b"HCFS" + struct.pack("<III", 1, 3, 2)
        raw = path.read_bytes()
        assert raw[:len(header)] == header
        assert len(raw) == len(header) + 3 * 2 * 4

    def test_labels(self, tmp_path):
        path = tmp_path / "l.hcls"
        save_labels(LabelSet(values=np.eye(3, 5, dtype=np.uint8)), path)
        header = b"HCLS" + struct.pack("<III", 1, 3, 5)
        raw = path.read_bytes()
        assert raw[:len(header)] == header
        assert len(raw) == len(header) + 3 * 5

    @pytest.mark.parametrize("bits, classes, tag", [(16, 5, 0), (12, 6, 1)])
    def test_codebook(self, tmp_path, bits, classes, tag):
        path = tmp_path / "b.hccb"
        seed = 2**40 + 5
        save_codebook(build_codebook(bits, classes, seed), path)
        header = b"HCCB" + struct.pack("<IIIQB", 1, classes, bits, seed, tag)
        raw = path.read_bytes()
        assert raw[:len(header)] == header
        assert len(raw) == len(header) + classes * bits

    def test_codes(self, tmp_path):
        path = tmp_path / "c.hcbc"
        save_codes(binarize(np.random.default_rng(0).normal(size=(3, 70))),
                   path)
        # The last field, 0, tags sign codes.
        header = b"HCBC" + struct.pack("<IIIB", 1, 3, 70, 0)
        raw = path.read_bytes()
        assert raw[:len(header)] == header
        assert len(raw) == len(header) + 3 * 2 * 8

    def test_model_and_train_state(self, tmp_path):
        net = build_network(NetworkSpec(6, (5,), 8, 4), seed=3)
        path = tmp_path / "m.hcmd"
        velocity = [np.zeros_like(p) for p in net.param_arrays()]
        config = TrainConfig(batch_size=16, base_lr=0.05,
                             lr_halving_period_epochs=3, momentum=0.5,
                             weight_decay=1e-3, lambda_=2.0, loss_mode="BCE",
                             variant="classifier_only", seed=2**40 + 5)
        save_checkpoint(net, velocity, 7, path, config)
        header = (b"HCMD" + struct.pack("<II", 1, 3) + _layer(6, 5, 0)
                  + _layer(5, 8, 1) + _layer(8, 4, 2))
        params = 6 * 5 + 5 + 5 * 8 + 8 + 8 * 4 + 4
        raw = path.read_bytes()
        assert raw[:len(header)] == header
        assert len(raw) == len(header) + params * 8
        header = b"HCTS" + struct.pack("<IIQQQdQdddBB", 3, 7, params,
                                       2**40 + 5, 16, 0.05, 3, 0.5, 1e-3, 2.0,
                                       1, 2)
        raw = (tmp_path / "m.hcmd.state").read_bytes()
        assert raw[:len(header)] == header
        assert len(raw) == len(header) + params * 4
