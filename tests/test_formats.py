import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ksqrng.bits import BitStream, RawStream, random_bits
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
    emit_report,
    read_bits,
    read_trace,
    unpack_bits,
    write_bits,
    write_trace,
)


class TestPackBits:
    def test_lsb_first_definition(self):
        assert BitStream([1, 0, 1, 1, 0, 0, 0, 0]).packed.tobytes() == b"\x0d"

    def test_padding_is_zero(self):
        assert BitStream([1, 1, 1]).packed.tobytes() == b"\x07"

    @given(hst.lists(hst.integers(min_value=0, max_value=1), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, bits):
        stream = BitStream(bits)
        assert unpack_bits(stream.packed.tobytes(), len(stream)) == stream

    def test_round_trip_large(self):
        stream = random_bits(1, 10**5)
        assert unpack_bits(stream.packed.tobytes(), len(stream)) == stream

    def test_truncated_body(self):
        body = BitStream([1] * 16).packed.tobytes()
        with pytest.raises(TruncatedFileError, match="expected 2 bytes.*got 1"):
            unpack_bits(body[:1], 16)

    def test_trailing_data(self):
        with pytest.raises(FormatError, match="trailing"):
            unpack_bits(b"\x01\x00", 8)

    def test_nonzero_padding(self):
        with pytest.raises(NonzeroPaddingError):
            unpack_bits(b"\xff", 3)

    def test_negative_bit_count(self):
        with pytest.raises(FormatError, match="negative bit count"):
            unpack_bits(b"", -1)


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
        assert random_bits(5, 0) == BitStream([])

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

    def test_read_bits_allocates_only_the_file(self, tmp_path):
        # the stream views the file's bytes; unpacking them took 8 bytes
        # per byte of the file
        path = tmp_path / "big.bits"
        write_bits(random_bits(8, (1 << 23) + 5), path)
        tracemalloc.start()
        try:
            stream = read_bits(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + (1 << 16)
        assert stream == random_bits(8, (1 << 23) + 5)


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
        # the first byte above 2: after a discard byte, and at body offset 0
        path = tmp_path / "sym.trace"
        for body, offset in (([0, 3, 1], 1), ([2, 0, 255], 2), ([7, 2, 1], 0)):
            path.write_bytes(TRACE_MAGIC + bytes([1]) + struct.pack("<Q", 3) + bytes(body))
            match = rf"0x{body[offset]:02x} at body offset {offset} \(file offset {17 + offset}\)"
            with pytest.raises(BadSymbolError, match=match):
                read_trace(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "trunc.trace"
        path.write_bytes(TRACE_MAGIC + bytes([1]) + struct.pack("<Q", 5) + bytes([0, 1]))
        with pytest.raises(TruncatedFileError, match="expected 5 symbols, got 2"):
            read_trace(path)

    def test_read_allocates_at_most_three_bytes_per_trial(self, tmp_path):
        # one copy of the file, one byte per trial of temporaries
        n = 1 << 20
        path = tmp_path / "big.trace"
        write_trace(RawStream((np.arange(n) % 3).astype(np.uint8)), path)
        tracemalloc.start()
        try:
            read_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n

    def test_write_allocates_no_copy_of_the_trace(self, tmp_path):
        # the symbols go to the file as they are: no tobytes() copy and no
        # header-plus-body concatenation
        n = 1 << 20
        stream = RawStream((np.arange(n) % 3).astype(np.uint8))
        path = tmp_path / "big.trace"
        tracemalloc.start()
        try:
            write_trace(stream, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n // 64
        assert read_trace(path) == stream

    def test_round_trip_strided(self, tmp_path):
        # a non-contiguous symbol array cannot be written as it is
        symbols = (np.arange(2001) % 3).astype(np.uint8)[::2]
        stream = RawStream(symbols)
        assert not stream.symbols.flags.c_contiguous
        path = tmp_path / "strided.trace"
        write_trace(stream, path)
        assert path.read_bytes() == TRACE_MAGIC + bytes([1]) + struct.pack("<Q", 1001) + symbols.tobytes()
        assert read_trace(path) == stream

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "trail.trace"
        path.write_bytes(TRACE_MAGIC + bytes([1]) + struct.pack("<Q", 1) + bytes([0, 0]))
        with pytest.raises(FormatError, match="trailing"):
            read_trace(path)


def read_or_format_error(reader, path, data):
    """``reader`` on a file holding ``data`` returns, or raises a FormatError subclass."""
    path.write_bytes(data)
    try:
        reader(path)
    except FormatError:
        pass


counts = hst.one_of(hst.integers(0, 64), hst.integers(0, 2**64 - 1))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


class TestFuzz:
    @pytest.mark.parametrize("reader", [read_trace, read_bits], ids=["trace", "bits"])
    @given(data=hst.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes(self, fuzz_file, reader, data):
        read_or_format_error(reader, fuzz_file, data)

    @given(version=hst.sampled_from([1, 0, 2, 255]), count=counts, body=hst.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_trace_header_with_any_count_and_body(self, fuzz_file, version, count, body):
        data = TRACE_MAGIC + bytes([version]) + struct.pack("<Q", count) + body
        read_or_format_error(read_trace, fuzz_file, data)

    @given(count=counts, body=hst.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_bits_header_with_any_count_and_body(self, fuzz_file, count, body):
        data = BITS_MAGIC + struct.pack("<Q", count) + body
        read_or_format_error(read_bits, fuzz_file, data)


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

    @pytest.mark.parametrize("kind", ["trace", "bits"])
    def test_failed_second_buffer_keeps_old_file(self, tmp_path, monkeypatch, kind):
        # the header is written, then writing the body fails
        target = tmp_path / "out"
        target.write_bytes(b"old contents")
        real_fdopen = os.fdopen
        writes = []

        class FailingSecondWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                writes.append(len(memoryview(data)))
                if len(writes) == 2:
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(os, "fdopen", lambda fd, mode: FailingSecondWrite(real_fdopen(fd, mode)))
        with pytest.raises(OSError, match="disk full"):
            self.WRITERS[kind](target)
        assert writes == [17 if kind == "trace" else 16, 3 if kind == "trace" else 1]
        assert target.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_file_mode_follows_umask(self, tmp_path, kind):
        target = tmp_path / "out"
        old_umask = os.umask(0o022)
        try:
            for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
                os.umask(umask)
                self.WRITERS[kind](target)
                assert stat.S_IMODE(target.stat().st_mode) == mode, oct(umask)
        finally:
            os.umask(old_umask)
