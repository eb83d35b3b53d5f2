"""Binary file framing shared by the on-disk formats.

Every binary format starts with one fixed header: a 4-byte ASCII magic, a
little-endian u32 version, then the format's own fields. Each format
declares those fields once, as a `struct` format string that its save
and its load both pass here, so writer and reader cannot drift apart.
`write_header` packs the whole header in one call. `read_header` checks
the magic, unpacks the version and the fields in one read, and checks the
version. Payloads follow the header as little-endian arrays, through
`write_array` and `read_array`; a record of several fields is one packed
structured dtype.

Loaders read and validate the whole payload before constructing any
object, so a malformed file never leaves partial state behind. A file
holds its header and payload and nothing after them: every binary loader
ends its reads with `check_end`, so appended bytes are an error as a cut
payload is. Every framing error names the file it was raised for.
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


def write_header(f, magic: bytes, version: int, fmt: str, *fields) -> None:
    """Write magic, version and `fields` packed little-endian by `fmt`."""
    f.write(magic + struct.pack("<I" + fmt, version, *fields))


def read_header(f, magic: bytes, version: int, fmt: str) -> tuple:
    """Read a header written by `write_header` and return its fields.

    A wrong magic is a BadMagicError, a header cut short a
    TruncatedFileError and any version but `version` a BadVersionError.
    """
    layout = struct.Struct("<I" + fmt)
    wanted = len(magic) + layout.size
    header = f.read(wanted)
    found = header[:len(magic)]
    if len(found) == len(magic) and found != magic:
        raise BadMagicError(f"{f.name}: bad magic {found!r}, expected {magic!r}")
    if len(header) != wanted:
        raise TruncatedFileError(
            f"{f.name}: truncated while reading the header: wanted {wanted} "
            f"bytes, got {len(header)}")
    found_version, *fields = layout.unpack_from(header, len(magic))
    if found_version != version:
        raise BadVersionError(
            f"{f.name}: unsupported version {found_version}, expected {version}")
    return tuple(fields)


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
            f"{f.name}: truncated while reading {what}: wanted {wanted} "
            f"bytes, {left} left in the file")
    out = np.empty(count, dtype=dt)
    got = f.readinto(memoryview(out).cast("B"))
    if got != wanted:
        raise TruncatedFileError(
            f"{f.name}: truncated while reading {what}: wanted {wanted} "
            f"bytes, got {got}")
    return out


def check_end(f) -> None:
    """Raise a FileFormatError unless every byte of `f` has been read."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left:
        raise FileFormatError(f"{f.name}: {left} bytes after the payload")


def write_array(f, values: np.ndarray, dtype) -> None:
    f.write(np.ascontiguousarray(values, dtype=dtype).tobytes())
