"""Binary file framing shared by the on-disk formats.

Every format starts with a 4-byte ASCII magic and a little-endian u32
version. Loaders read and validate the whole payload before constructing
any object, so a malformed file never leaves partial state behind.
"""

import os
import struct

import numpy as np


class FileFormatError(Exception):
    """A file does not conform to its declared format."""


class BadMagicError(FileFormatError):
    """The leading magic bytes do not match the expected format."""


class BadVersionError(FileFormatError):
    """The format version is not supported."""


class TruncatedFileError(FileFormatError):
    """The file ended before the declared payload was complete."""


def read_exact(f, count: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise TruncatedFileError(
            f"truncated while reading {what}: wanted {count} bytes, got {len(data)}")
    return data


def expect_magic(f, magic: bytes, path) -> None:
    found = f.read(len(magic))
    if len(found) != len(magic):
        raise TruncatedFileError(f"{path}: file shorter than its magic")
    if found != magic:
        raise BadMagicError(f"{path}: bad magic {found!r}, expected {magic!r}")


def expect_version(f, supported: int, path) -> None:
    version = read_u32(f, "version")
    if version != supported:
        raise BadVersionError(f"{path}: unsupported version {version}, expected {supported}")


def read_u32(f, what: str) -> int:
    return struct.unpack("<I", read_exact(f, 4, what))[0]


def read_u64(f, what: str) -> int:
    return struct.unpack("<Q", read_exact(f, 8, what))[0]


def read_u8(f, what: str) -> int:
    return read_exact(f, 1, what)[0]


def write_u32(f, value: int) -> None:
    f.write(struct.pack("<I", value))


def write_u64(f, value: int) -> None:
    f.write(struct.pack("<Q", value))


def write_u8(f, value: int) -> None:
    f.write(struct.pack("<B", value))


def read_array(f, dtype, count: int, what: str) -> np.ndarray:
    """Read exactly `count` items of a little-endian dtype from a buffered
    binary file.

    The declared size is checked against the bytes left in the file before
    anything is read, so a header that declares more than the file holds
    allocates nothing. The payload is then read straight into the returned
    array, a writeable array that owns its memory: one copy, no
    intermediate bytes object.
    """
    dt = np.dtype(dtype)
    wanted = dt.itemsize * count
    left = os.fstat(f.fileno()).st_size - f.tell()
    if wanted > left:
        raise TruncatedFileError(
            f"truncated while reading {what}: wanted {wanted} bytes, "
            f"{left} left in the file")
    out = np.empty(count, dtype=dt)
    got = f.readinto(memoryview(out).cast("B"))
    if got != wanted:
        raise TruncatedFileError(
            f"truncated while reading {what}: wanted {wanted} bytes, got {got}")
    return out


def write_array(f, values: np.ndarray, dtype) -> None:
    f.write(np.ascontiguousarray(values, dtype=dtype).tobytes())
