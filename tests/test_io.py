import io

import numpy as np
import pytest

from hadahash.io import TruncatedFileError, read_array, write_array


def _values(dtype, count):
    rng = np.random.default_rng(count)
    if np.dtype(dtype).kind == "f":
        return rng.normal(size=count).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=count, dtype=dtype,
                        endpoint=True)


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

        class Shrunk(io.BufferedReader):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer)[:10])

        with Shrunk(io.FileIO(path, "rb")) as f:
            with pytest.raises(TruncatedFileError, match="got 10"):
                read_array(f, "<f8", 2, "payload")
