"""Bit-exact file formats for symbol traces and packed bit streams.

Trace file:   magic "KSQTRACE" | version byte 0x01 | u64-LE trial count |
              one byte per trial (0x00 zero, 0x01 one, 0x02 discard)
Bit file:     magic "KSQBITS1" | u64-LE bit count | packed bits,
              least-significant-bit first within each byte, zero padding in
              the final byte

Writes are atomic (write to a temporary file, then rename).
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .bits import BitStream
from .errors import (
    BadMagicError,
    BadSymbolError,
    BadVersionError,
    FormatError,
    NonzeroPaddingError,
    TruncatedFileError,
)
from .protocol import RawStream

TRACE_MAGIC = b"KSQTRACE"
TRACE_VERSION = 1
BITS_MAGIC = b"KSQBITS1"


def atomic_write(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over
    ``path``; on any failure the temporary file is removed and ``path`` keeps
    its old contents."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ksqrng-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def pack_bits(stream: BitStream) -> bytes:
    """Pack bits LSB-first into ceil(n/8) bytes, zero padding at the end."""
    return np.packbits(stream.bits, bitorder="little").tobytes()


def unpack_bits(body: bytes, n_bits: int) -> BitStream:
    """Inverse of :func:`pack_bits` given the bit count. Checks the body
    length and that all padding bits are zero."""
    if n_bits < 0:
        raise FormatError("negative bit count")
    expected = (n_bits + 7) // 8
    if len(body) < expected:
        raise TruncatedFileError(
            f"bit body truncated: expected {expected} bytes for {n_bits} bits, got {len(body)}"
        )
    if len(body) > expected:
        raise FormatError(
            f"bit body has trailing data: expected {expected} bytes, got {len(body)}"
        )
    unpacked = np.unpackbits(np.frombuffer(body, dtype=np.uint8), bitorder="little")
    if np.any(unpacked[n_bits:]):
        raise NonzeroPaddingError("padding bits in the final byte are not zero")
    return BitStream(unpacked[:n_bits])


def write_bits(stream: BitStream, path) -> None:
    header = BITS_MAGIC + struct.pack("<Q", len(stream))
    atomic_write(path, header + pack_bits(stream))


def read_bits(path) -> BitStream:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise TruncatedFileError(f"bit file shorter than its 16-byte header: {len(data)} bytes")
    if data[:8] != BITS_MAGIC:
        raise BadMagicError(f"expected magic {BITS_MAGIC!r}, found {data[:8]!r}")
    (n_bits,) = struct.unpack("<Q", data[8:16])
    return unpack_bits(data[16:], n_bits)


def write_trace(stream: RawStream, path) -> None:
    header = TRACE_MAGIC + bytes([TRACE_VERSION]) + struct.pack("<Q", len(stream))
    atomic_write(path, header + stream.symbols.tobytes())


def read_trace(path) -> RawStream:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 17:
        raise TruncatedFileError(f"trace file shorter than its 17-byte header: {len(data)} bytes")
    if data[:8] != TRACE_MAGIC:
        raise BadMagicError(f"expected magic {TRACE_MAGIC!r}, found {data[:8]!r}")
    version = data[8]
    if version != TRACE_VERSION:
        raise BadVersionError(f"unsupported trace version {version}, expected {TRACE_VERSION}")
    (count,) = struct.unpack("<Q", data[9:17])
    body = np.frombuffer(data[17:], dtype=np.uint8)
    if body.size < count:
        raise TruncatedFileError(
            f"trace body truncated: expected {count} symbols, got {body.size}"
        )
    if body.size > count:
        raise FormatError(
            f"trace body has trailing data: expected {count} symbols, got {body.size}"
        )
    bad = np.flatnonzero(body > 2)
    if bad.size:
        offset = int(bad[0])
        raise BadSymbolError(
            f"undefined symbol byte 0x{body[offset]:02x} at body offset {offset}"
            f" (file offset {17 + offset})"
        )
    return RawStream(body)
