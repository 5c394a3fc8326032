import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ksqrng.bits import BitStream, random_bits
from ksqrng.errors import (
    BadMagicError,
    BadSymbolError,
    BadVersionError,
    FormatError,
    NonzeroPaddingError,
    TruncatedFileError,
)
from ksqrng.formats import (
    BITS_MAGIC,
    TRACE_MAGIC,
    pack_bits,
    read_bits,
    read_trace,
    unpack_bits,
    write_bits,
    write_trace,
)
from ksqrng.protocol import RawStream
from ksqrng.reports import emit_report


class TestPackBits:
    def test_lsb_first_definition(self):
        assert pack_bits(BitStream([1, 0, 1, 1, 0, 0, 0, 0])) == b"\x0d"

    def test_padding_is_zero(self):
        assert pack_bits(BitStream([1, 1, 1])) == b"\x07"

    @given(hst.lists(hst.integers(min_value=0, max_value=1), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, bits):
        stream = BitStream(bits)
        assert unpack_bits(pack_bits(stream), len(stream)) == stream

    def test_round_trip_large(self):
        stream = random_bits(1, 10**5)
        assert unpack_bits(pack_bits(stream), len(stream)) == stream

    def test_truncated_body(self):
        body = pack_bits(BitStream([1] * 16))
        with pytest.raises(TruncatedFileError, match="expected 2 bytes.*got 1"):
            unpack_bits(body[:1], 16)

    def test_trailing_data(self):
        with pytest.raises(FormatError, match="trailing"):
            unpack_bits(b"\x01\x00", 8)

    def test_nonzero_padding(self):
        with pytest.raises(NonzeroPaddingError):
            unpack_bits(b"\xff", 3)


class TestBitFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.bits"
        stream = random_bits(2, 12345)
        write_bits(stream, path)
        assert read_bits(path) == stream

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.bits"
        write_bits(BitStream([]), path)
        assert len(read_bits(path)) == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bits"
        path.write_bytes(b"NOTMAGIC" + struct.pack("<Q", 0))
        with pytest.raises(BadMagicError):
            read_bits(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "short.bits"
        path.write_bytes(BITS_MAGIC[:4])
        with pytest.raises(TruncatedFileError):
            read_bits(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "trunc.bits"
        write_bits(random_bits(3, 64), path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(TruncatedFileError, match="expected 8 bytes.*got 7"):
            read_bits(path)

    def test_nonzero_padding(self, tmp_path):
        path = tmp_path / "pad.bits"
        path.write_bytes(BITS_MAGIC + struct.pack("<Q", 3) + b"\xff")
        with pytest.raises(NonzeroPaddingError):
            read_bits(path)

    def test_overwrite_existing(self, tmp_path):
        path = tmp_path / "x.bits"
        write_bits(BitStream([1, 0]), path)
        write_bits(BitStream([0, 1, 1]), path)
        assert list(read_bits(path).bits) == [0, 1, 1]


class TestTraceFile:
    def test_round_trip_large(self, tmp_path):
        rng = np.random.default_rng(4)
        symbols = rng.choice([0, 1, 2], size=10**6, p=[0.53, 0.46, 0.01]).astype(np.uint8)
        stream = RawStream(symbols)
        path = tmp_path / "t.trace"
        write_trace(stream, path)
        back = read_trace(path)
        assert back == stream
        assert (back.n0, back.n1, back.n_discard) == (stream.n0, stream.n1, stream.n_discard)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.trace"
        write_trace(RawStream(np.array([], dtype=np.uint8)), path)
        assert len(read_trace(path)) == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"XXQTRACE" + bytes([1]) + struct.pack("<Q", 0))
        with pytest.raises(BadMagicError):
            read_trace(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "ver.trace"
        path.write_bytes(TRACE_MAGIC + bytes([2]) + struct.pack("<Q", 0))
        with pytest.raises(BadVersionError):
            read_trace(path)

    def test_undefined_symbol_byte_reports_offset(self, tmp_path):
        path = tmp_path / "sym.trace"
        path.write_bytes(TRACE_MAGIC + bytes([1]) + struct.pack("<Q", 3) + bytes([0, 3, 1]))
        with pytest.raises(BadSymbolError, match="0x03.*offset 1"):
            read_trace(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "trunc.trace"
        path.write_bytes(TRACE_MAGIC + bytes([1]) + struct.pack("<Q", 5) + bytes([0, 1]))
        with pytest.raises(TruncatedFileError, match="expected 5 symbols, got 2"):
            read_trace(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "trail.trace"
        path.write_bytes(TRACE_MAGIC + bytes([1]) + struct.pack("<Q", 1) + bytes([0, 0]))
        with pytest.raises(FormatError, match="trailing"):
            read_trace(path)


class TestAtomicWrite:
    WRITERS = {
        "report": lambda path: emit_report([("report", "new")], path),
        "trace": lambda path: write_trace(RawStream(np.array([0, 1, 2], dtype=np.uint8)), path),
        "bits": lambda path: write_bits(BitStream([1, 0, 1]), path),
    }

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_rename_keeps_old_file(self, tmp_path, monkeypatch, kind):
        target = tmp_path / "out"
        target.write_bytes(b"old contents")

        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename refused"):
            self.WRITERS[kind](target)
        assert target.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
