"""Bit-exact file formats for symbol traces, packed bit streams and reports.

Trace file:   magic "KSQTRACE" | version byte 0x01 | u64-LE trial count |
              one byte per trial (0x00 zero, 0x01 one, 0x02 discard)
Bit file:     magic "KSQBITS1" | u64-LE bit count | packed bits,
              least-significant-bit first within each byte, zero padding in
              the final byte
Report file:  UTF-8 text, one ``key = value`` line per entry in insertion
              order, ``true``/``false`` booleans, shortest round-trip floats

A bit file's body is a :class:`BitStream`'s own layout: ``write_bits``
writes the stream's packed bytes as they are, and ``read_bits`` returns a
stream that views the bytes it read, checking only the final byte's
padding.

Writes are atomic (write to a temporary file, then rename); reads raise a
:class:`FormatError` subclass for any malformed file.
"""

from __future__ import annotations

import os
import secrets
import struct

import numpy as np

from .bits import BitStream, RawStream
from .errors import (
    BadMagicError,
    BadSymbolError,
    BadVersionError,
    FormatError,
    NonzeroPaddingError,
    TruncatedFileError,
    ValidationError,
)

TRACE_MAGIC = b"KSQTRACE"
TRACE_VERSION = 1
BITS_MAGIC = b"KSQBITS1"


def atomic_write(path, *buffers) -> None:
    """Write the ``buffers`` (bytes or C-contiguous arrays) in order to a
    temporary file beside ``path``, then rename it over ``path``; on any
    failure the temporary file is removed and ``path`` keeps its old
    contents. The file is created with mode 0666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".ksqrng-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for data in buffers:
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_file(path, magic: bytes, header: int, kind: str) -> bytes:
    """The bytes of the file at ``path``, checked to hold at least its
    ``header``-byte header and to start with ``magic``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < header:
        raise TruncatedFileError(f"{kind} file shorter than its {header}-byte header: {len(data)} bytes")
    if data[:8] != magic:
        raise BadMagicError(f"expected magic {magic!r}, found {data[:8]!r}")
    return data


def _check_body(size: int, expected: int, kind: str, unit: str) -> None:
    """Raise unless a body of ``size`` units holds the ``expected`` count."""
    if size < expected:
        raise TruncatedFileError(f"{kind} body truncated: expected {expected} {unit}, got {size}")
    if size > expected:
        raise FormatError(f"{kind} body has trailing data: expected {expected} {unit}, got {size}")


def unpack_bits(body, n_bits: int) -> BitStream:
    """The stream of ``n_bits`` bits whose packed bytes, LSB-first with zero
    padding, are ``body``: a view of ``body`` (bytes or a uint8 array), not
    a copy. Checks the body length and that the padding bits of the final
    byte are zero."""
    if n_bits < 0:
        raise FormatError("negative bit count")
    body = np.frombuffer(body, dtype=np.uint8)
    _check_body(body.size, (n_bits + 7) // 8, "bit", f"bytes for {n_bits} bits")
    if n_bits % 8 and body[-1] >> n_bits % 8:
        raise NonzeroPaddingError("padding bits in the final byte are not zero")
    return BitStream.from_packed(body, n_bits)


def write_bits(stream: BitStream, path) -> None:
    header = BITS_MAGIC + struct.pack("<Q", len(stream))
    atomic_write(path, header, stream.packed)


def read_bits(path) -> BitStream:
    data = _read_file(path, BITS_MAGIC, 16, "bit")
    (n_bits,) = struct.unpack("<Q", data[8:16])
    return unpack_bits(memoryview(data)[16:], n_bits)


def write_trace(stream: RawStream, path) -> None:
    header = TRACE_MAGIC + bytes([TRACE_VERSION]) + struct.pack("<Q", len(stream))
    # the symbols go to the file as they are, unless a strided view needs
    # its one contiguous copy
    atomic_write(path, header, np.ascontiguousarray(stream.symbols))


def read_trace(path) -> RawStream:
    data = _read_file(path, TRACE_MAGIC, 17, "trace")
    version = data[8]
    if version != TRACE_VERSION:
        raise BadVersionError(f"unsupported trace version {version}, expected {TRACE_VERSION}")
    (count,) = struct.unpack("<Q", data[9:17])
    body = np.frombuffer(data, dtype=np.uint8, offset=17)
    _check_body(body.size, count, "trace", "symbols")
    try:
        return RawStream(body)  # the one range check on the good path
    except ValidationError:
        offset = int(np.argmax(body > 2))
        raise BadSymbolError(
            f"undefined symbol byte 0x{body[offset]:02x} at body offset {offset} (file offset {17 + offset})"
        ) from None


def emit_report(entries, path=None) -> None:
    """Render a report; write it atomically when a path is given, otherwise
    print it to stdout."""
    lines = []
    for key, value in entries:
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}\n")  # a float's str is its shortest round-trip repr
    text = "".join(lines)
    if path is None:
        print(text, end="")
    else:
        atomic_write(path, text.encode("utf-8"))
