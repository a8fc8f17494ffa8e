"""Tests for the snapshot and model file formats."""
import io
import itertools
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sclrom import (
    DimensionMismatch,
    FitOptions,
    GaussianBump,
    InvariantViolation,
    IoFailure,
    NotOrthogonal,
    ParseError,
    SnapshotHistory,
    VersionUnsupported,
    WaveConfig,
    almost_periodic_history,
    fit,
    periodic_history,
    predict,
    read_model,
    read_snapshots,
    simulate_wave_1d,
    write_model,
    write_snapshots,
)
from sclrom import datagen, ohf, persistence
from sclrom.cli import run_cli
from sclrom.persistence import format_complex_entry, parse_complex_entry


def _c_ordered(tmp_path, monkeypatch, real):
    """A history of a C-ordered array, against that array."""
    rng = np.random.default_rng(6)
    data = rng.standard_normal((6, 5)) + (0 if real else 1j * rng.standard_normal((6, 5)))
    return SnapshotHistory(data), data


def _csv_file(tmp_path, monkeypatch, real):
    """A CSV file written entry by entry: a real one takes the np.loadtxt
    path, a complex one the entry grammar."""
    _, data = _c_ordered(tmp_path, monkeypatch, real)
    path = tmp_path / "h.csv"
    path.write_text("6,5\n" + "".join(",".join(map(format_complex_entry, row)) + "\n"
                                       for row in data))
    return read_snapshots(path), data


def _wave(tmp_path, monkeypatch, real):
    """The wave history, against the transpose of its last DST: the
    (steps, nx) float array of its displacements."""
    transforms = []
    dst1 = datagen._dst1
    monkeypatch.setattr(datagen, "_dst1", lambda x: transforms.append(dst1(x)) or transforms[-1])
    history = simulate_wave_1d(WaveConfig(nx=48, nt=30, dt=2 / 30))
    return history, transforms[-1].T


@pytest.mark.parametrize("make, real", [
    (_c_ordered, False), (_c_ordered, True), (_csv_file, True), (_csv_file, False), (_wave, True),
], ids=["c-ordered-complex", "c-ordered-real", "real-csv", "complex-csv", "wave"])
def test_history_is_column_major_complex_and_bitwise(tmp_path, monkeypatch, make, real):
    """Every source of a history, C-ordered or real as it may be, gives one
    layout: a column-major array with the source's values, complex128 for a
    complex source and float64 for a real one."""
    history, values = make(tmp_path, monkeypatch, real)
    assert values.shape == history.data.shape and values.dtype == (float if real else complex)
    assert history.data.dtype == values.dtype and history.data.flags.f_contiguous
    assert history.data.tobytes(order="F") == values.tobytes(order="F")


class TestCsvFormat:
    def test_real_scalar_rendering(self, tmp_path):
        path = tmp_path / "h.csv"
        write_snapshots(SnapshotHistory(np.array([[2.0 + 0j]])), path, format="csv")
        assert path.read_text() == "1,1\n2\n"

    def test_complex_rendering(self, tmp_path):
        path = tmp_path / "h.csv"
        data = np.array([[1.0 + 2.0j], [-3.0 + 0.0j]])
        write_snapshots(SnapshotHistory(data), path, format="csv")
        assert path.read_text() == "2,1\n1+2i\n-3\n"

    def test_negative_imaginary_rendering(self):
        assert format_complex_entry(complex(0.5, -1.25)) == "0.5-1.25i"

    def test_j_suffix_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1,1\n1+2j\n")
        with pytest.raises(ParseError) as exc:
            read_snapshots(path)
        assert exc.value.line == 2
        assert exc.value.column == 1

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("oops\n1\n")
        with pytest.raises(ParseError):
            read_snapshots(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("2,1\n1\n")
        with pytest.raises(DimensionMismatch):
            read_snapshots(path)

    @pytest.mark.parametrize(
        "text, error",
        [("1,-3\n1\n", ParseError), ("0,1\n", ParseError),
         ("1,99999999999\n1\n", DimensionMismatch)],
    )
    def test_bad_header_dimensions_rejected_before_allocating(self, tmp_path, text, error):
        path = tmp_path / "h.csv"
        path.write_text(text)
        with pytest.raises(error):
            read_snapshots(path)

    def test_errors_name_physical_line_after_blank_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("2,1\n\n1\nx\n")
        with pytest.raises(ParseError) as exc:
            read_snapshots(path)
        assert (exc.value.line, exc.value.column) == (4, 1)
        path.write_text("2,2\n1,2\n\n3\n")
        with pytest.raises(DimensionMismatch) as exc:
            read_snapshots(path)
        assert "line 4 has 1 entries" in str(exc.value)

    def test_csv_roundtrip_value_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-12, 12, (5, 3))
        data = data + 1j * rng.standard_normal((5, 3))
        path = tmp_path / "h.csv"
        write_snapshots(SnapshotHistory(data), path, format="csv")
        back = read_snapshots(path)
        assert back.data.tobytes(order="C") == np.ascontiguousarray(data).tobytes(order="C")

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_entry_grammar_roundtrip(self, re_part, im_part):
        z = complex(re_part, im_part)
        back = parse_complex_entry(format_complex_entry(z), 1, 1)
        assert back.real == re_part or (np.isnan(re_part) and np.isnan(back.real))
        assert back.imag == im_part
        assert np.signbit(back.real) == np.signbit(re_part)
        assert np.signbit(back.imag) == np.signbit(im_part)


class TestBinaryFormat:
    def test_roundtrip_bitwise_complex(self, tmp_path):
        h = periodic_history(64, 8, seed=1)
        path = tmp_path / "h.bin"
        write_snapshots(h, path)
        back = read_snapshots(path)
        assert back.data.tobytes(order="C") == h.data.tobytes(order="C")

    def test_roundtrip_bitwise_real_flag(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((12, 5)).astype(np.complex128)
        path = tmp_path / "h.bin"
        write_snapshots(SnapshotHistory(data), path)
        # real payloads are stored at 8 bytes per entry, and read as float64
        assert path.stat().st_size == 32 + 12 * 5 * 8
        back = read_snapshots(path)
        assert back.data.dtype == np.float64
        assert back.data.tobytes(order="C") == data.real.tobytes(order="C")

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        h = periodic_history(16, 4, seed=1)
        path = tmp_path / "h.bin"
        write_snapshots(h, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(DimensionMismatch) as exc:
            read_snapshots(path)
        assert str(exc.value) == "payload truncated: expected 1024 bytes for 16x4, found 1008"

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.bin"
        path.write_bytes(b"SCLROM01abc")
        with pytest.raises(DimensionMismatch) as exc:
            read_snapshots(path)
        assert "header truncated" in str(exc.value)

    @pytest.mark.parametrize("n, m", [(0, 2**64 - 1), (2**64 - 1, 0), (0, 4)])
    def test_zero_dimension_header_rejected(self, tmp_path, n, m):
        path = tmp_path / "h.bin"
        path.write_bytes(b"SCLROM01" + struct.pack("<QQQ", n, m, 1))
        with pytest.raises(DimensionMismatch) as exc:
            read_snapshots(path)
        assert "both must be >= 1" in str(exc.value)

    def test_file_without_magic_reads_as_csv(self, tmp_path):
        path = tmp_path / "h.csv"
        write_snapshots(SnapshotHistory(np.eye(2, dtype=complex)), path, format="csv")
        back = read_snapshots(path)
        assert back.data.shape == (2, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            read_snapshots(tmp_path / "absent.bin")

    def test_write_failure_names_path(self, tmp_path):
        h = periodic_history(8, 2, seed=0)
        bad = tmp_path / "no" / "such" / "dir" / "h.bin"
        with pytest.raises(IoFailure) as exc:
            write_snapshots(h, bad)
        assert str(bad) in str(exc.value)

    def test_failing_header_read_is_io_failure(self, tmp_path, monkeypatch):
        """An OSError from the read of a snapshot file's header, after it was
        opened, is reported as IoFailure naming the file."""
        path = tmp_path / "h.bin"
        write_snapshots(periodic_history(8, 2, seed=0), path)
        monkeypatch.setattr(persistence, "open",
                            lambda *args: _FailingReads(open(*args)), raising=False)
        with pytest.raises(IoFailure, match=f"cannot read {re.escape(str(path))}: .*Input/output error"):
            read_snapshots(path)

    def test_failing_payload_read_is_io_failure(self, tmp_path):
        """An OSError in the middle of a streamed payload is IoFailure too."""
        path = tmp_path / "h.bin"
        write_snapshots(periodic_history(8, 2, seed=0), path)
        with open(path, "rb") as fh:
            head = fh.read(32)
            columns = persistence._BinaryColumns(_FailingReads(fh), head, path, 0)
            with pytest.raises(IoFailure, match=f"cannot read {re.escape(str(path))}: .*Input/output error"):
                columns.read(1)
            with pytest.raises(IoFailure, match=f"cannot read {re.escape(str(path))}: .*Input/output error"):
                columns.drain()

    def test_failing_end_of_pipe_check_is_io_failure(self, tmp_path):
        """drain reads a pipe past the block to check that nothing follows;
        an OSError from that read is IoFailure."""
        blob = _header(2, 1) + np.zeros(2, dtype="<c16").tobytes()
        read_fd, thread = _feed_pipe(blob)
        with open(read_fd, "rb") as fh:
            columns = persistence._BinaryColumns(
                _FailingReads(fh, payload=True), fh.read(32), "pipe", 0)
            with pytest.raises(IoFailure, match="cannot read pipe: .*Input/output error"):
                columns.drain()
        thread.join(timeout=10)
        assert not thread.is_alive()


class _FailingReads:
    """An open binary file whose reads raise OSError(EIO); with ``payload``
    its ``readinto`` calls, which read a payload, still go through, and
    only ``read`` fails."""

    def __init__(self, fh, payload=False):
        self._fh, self._payload = fh, payload

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def fileno(self):
        return self._fh.fileno()

    def _fail(self):
        raise OSError(5, "Input/output error")

    def read(self, size=-1):
        return self._fail()

    def readinto(self, buffer):
        return self._fh.readinto(buffer) if self._payload else self._fail()


def _peak_bytes(fn):
    """tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _refusal(fn):
    """(the InvariantViolation that a call raises, its tracemalloc peak in bytes)."""
    raised = []

    def call():
        with pytest.raises(InvariantViolation) as exc:
            fn()
        raised.append(exc.value)

    peak = _peak_bytes(call)
    return raised[0], peak


def _header(n, m, flags=0):
    return b"SCLROM01" + struct.pack("<QQQ", n, m, flags)


def _feed_pipe(blob):
    """Read end of a pipe that a thread fills with ``blob``, then closes.

    A reader may stop before the end, so the thread also ends when the read
    end is closed first: a test closes the read end (or lets a reader that
    took the descriptor close it) before it joins the thread.
    """
    read_fd, write_fd = os.pipe()

    def feed():
        try:
            with open(write_fd, "wb") as fh:
                fh.write(blob)
        except BrokenPipeError:
            pass

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    return read_fd, thread


class TestStreamedBinaryCodec:
    """The reader fills a column-major history straight from the file; the
    writer streams the header and the column-major payload."""

    def test_forged_header_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "h.bin"
        path.write_bytes(_header(2**40, 2**20) + bytes(32))
        errors = []

        def read():
            with pytest.raises(DimensionMismatch) as exc:
                read_snapshots(path)
            errors.append(str(exc.value))

        assert _peak_bytes(read) < 2**20
        assert errors == [
            f"payload truncated: expected {2**60 * 16} bytes for {2**40}x{2**20}, found 32"
        ]

    @pytest.mark.parametrize("blob, message", [
        (_header(3, 2) + bytes(97), "trailing data: expected 128 bytes total, found 129"),
        # a real flag halves the payload, so a complex payload is twice too long
        (_header(3, 2, 1) + bytes(96), "trailing data: expected 80 bytes total, found 128"),
        (_header(3, 2, 1) + bytes(40), "payload truncated: expected 48 bytes for 3x2, found 40"),
    ], ids=["trailing", "real-flag-trailing", "real-flag-truncated"])
    def test_malformed_file_names_the_fault(self, tmp_path, blob, message):
        path = tmp_path / "h.bin"
        path.write_bytes(blob)
        with pytest.raises(DimensionMismatch) as exc:
            read_snapshots(path)
        assert str(exc.value) == message

    def test_short_readinto_is_a_truncated_payload(self, tmp_path, monkeypatch):
        path = tmp_path / "h.bin"
        write_snapshots(periodic_history(16, 4, seed=1), path)

        class ShortReads(io.BufferedReader):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer).cast("B")[:-16])

        monkeypatch.setattr(
            persistence, "open", lambda p, mode: ShortReads(io.FileIO(p, mode)), raising=False
        )
        with pytest.raises(DimensionMismatch) as exc:
            read_snapshots(path)
        assert str(exc.value) == "payload truncated: expected 1024 bytes for 16x4, found 1008"

    @pytest.mark.parametrize("format", ["binary", "csv"])
    def test_pipe_input_loads(self, tmp_path, format):
        # larger than a pipe buffer, so the payload arrives in several reads
        h = periodic_history(256, 64, seed=2)
        path = tmp_path / "h.bin"
        write_snapshots(h, path, format=format)
        read_fd, thread = _feed_pipe(path.read_bytes())
        back = read_snapshots(read_fd)
        thread.join()
        assert back.data.tobytes() == h.data.tobytes()

    @pytest.mark.parametrize("cut, message", [
        (-16, "payload truncated: expected 1024 bytes for 16x4, found 1008"),
        (1, "trailing data: more than the 1056 bytes declared"),
    ], ids=["truncated", "trailing"])
    def test_malformed_pipe_input_names_the_fault(self, tmp_path, cut, message):
        path = tmp_path / "h.bin"
        write_snapshots(periodic_history(16, 4, seed=1), path)
        blob = path.read_bytes()
        read_fd, thread = _feed_pipe(blob[:cut] if cut < 0 else blob + bytes(cut))
        with pytest.raises(DimensionMismatch) as exc:
            read_snapshots(read_fd)
        thread.join()
        assert str(exc.value) == message

    def test_pipe_header_beyond_one_array_is_refused_unallocated(self):
        read_fd, thread = _feed_pipe(_header(2**40, 2**30))
        with pytest.raises(DimensionMismatch) as exc:
            read_snapshots(read_fd)
        thread.join()
        assert str(exc.value) == f"header declares {2**40}x{2**30}, beyond the size of one array"

    def test_long_horizon_read_peaks_at_one_payload(self, tmp_path):
        history = almost_periodic_history(512, 16, 1e-6, 1024, seed=1).perturbed
        path = tmp_path / "h.bin"
        write_snapshots(history, path)
        payload = 512 * 1024 * 16
        assert path.stat().st_size == 32 + payload
        back = []
        peak = _peak_bytes(lambda: back.append(read_snapshots(path)))
        assert peak <= payload + 2**20
        assert back[0].data.flags.f_contiguous
        assert back[0].data.tobytes(order="F") == history.data.tobytes(order="F")

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("real", [True, False])
    def test_roundtrip_is_bitwise_in_either_layout(self, tmp_path, order, real):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((40, 24)) + (0.0 if real else 1j * rng.standard_normal((40, 24)))
        data = np.array(data, dtype=np.complex128, order=order)
        path, reference = tmp_path / "h.bin", tmp_path / "ref.bin"
        write_snapshots(SnapshotHistory(data), path)
        write_snapshots(SnapshotHistory(np.ascontiguousarray(data)), reference)
        assert path.read_bytes() == reference.read_bytes()
        back = read_snapshots(path).data
        assert back.tobytes(order="C") == (data.real if real else data).tobytes(order="C")
        assert back.flags.f_contiguous and back.flags.writeable

    def test_column_major_complex_history_is_written_without_a_copy(self, tmp_path):
        data = np.asfortranarray(almost_periodic_history(512, 16, 1e-6, 256, seed=1).perturbed.data)
        history = SnapshotHistory(data)
        peak = _peak_bytes(lambda: write_snapshots(history, tmp_path / "h.bin"))
        assert peak < data.nbytes // 8


def _layout(data, layout):
    """``data`` as a C-ordered, F-ordered or strided (every other row and
    column of a larger array) complex array."""
    if layout == "strided":
        big = np.zeros((2 * data.shape[0], 2 * data.shape[1]), dtype=np.complex128)
        big[::2, ::2] = data
        return big[::2, ::2]
    return np.array(data, dtype=np.complex128, order=layout)


class TestRealPayloadBits:
    """A history is real (float64) when every imaginary part is +0.0, the
    only float whose bits are all zero; its dtype decides the file's flag,
    and so whether a file stores the imaginary parts."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("imag, real", [
        (0.0, True), (-0.0, False), (5e-324, False), (-5e-324, False),
    ], ids=["plus-zero", "minus-zero", "plus-denormal", "minus-denormal"])
    def test_one_imaginary_part_decides(self, layout, imag, real):
        data = np.arange(12.0).reshape(3, 4) + 0j
        data[2, 1] = complex(5.0, imag)
        history = SnapshotHistory(_layout(data, layout))
        assert history.data.dtype == (np.float64 if real else np.complex128)
        assert history.data.tobytes(order="F") == (data.real if real else data).tobytes(order="F")

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("column", [None, 3, 300, 599])
    def test_mixed_blocks_set_the_flag_and_keep_their_bits(self, tmp_path, layout, column):
        """600 columns are two blocks; one -0.0 imaginary part in either makes
        the whole file complex, and every sign of zero survives."""
        data = np.random.default_rng(1).standard_normal((5, 600)) + 0j
        if column is not None:
            data[4, column] = complex(data[4, column].real, -0.0)
        path = tmp_path / "h.bin"
        write_snapshots(SnapshotHistory(_layout(data, layout)), path)
        blob = path.read_bytes()
        assert struct.unpack_from("<Q", blob, 24)[0] == (column is None)
        assert len(blob) == 32 + data.size * (8 if column is None else 16)
        back = read_snapshots(path).data
        assert back.tobytes(order="F") == (data if column is not None else data.real).tobytes(order="F")
        assert np.signbit(back.imag).sum() == (column is not None)


class TestStreamedColumns:
    """Fitting and verification from the command line read binary snapshot
    files block by block, and report the first fault met in file order."""

    def _history(self, tmp_path, columns=700):
        history = almost_periodic_history(16, 4, 1e-3, columns, seed=2)
        path = tmp_path / "h.bin"
        write_snapshots(history.perturbed, path)
        return history.perturbed.data, path

    @pytest.mark.parametrize("command", ["history", "read", "fit", "verify"])
    def test_first_non_finite_in_column_order_is_named(self, tmp_path, capsys, command):
        """Entries in two blocks are non-finite; a history in memory, a read
        and a streamed command all name the first in column order, the
        order of a binary file, and so the first that a stream meets."""
        data, path = self._history(tmp_path)
        data = data.copy()  # C-ordered, so that the order named is not the memory's
        data[9, 20] = np.nan
        data[3, 650] = np.inf
        write_snapshots(SnapshotHistory(np.where(np.isfinite(data), data, 0)), path)
        blob = bytearray(path.read_bytes())
        for row, column, value in ((9, 20, np.nan), (3, 650, np.inf)):
            offset = 32 + 16 * (column * 16 + row)
            blob[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        message = "snapshot entry at (row 9, column 20) is non-finite"
        if command in ("history", "read"):
            with pytest.raises(persistence.NonFiniteData, match=re.escape(message)):
                SnapshotHistory(data) if command == "history" else read_snapshots(path)
            return
        model = tmp_path / "m.bin"
        write_model(fit(periodic_history(16, 4, seed=1), FitOptions(mode="least_squares"))[0],
                    model)
        argv = (["fit", str(path), "--period", "4", "--out", str(tmp_path / "m2.bin")]
                if command == "fit" else ["verify", str(model), str(path)])
        capsys.readouterr()
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"sclrom {command}: {message}\n"

    def test_verify_checks_the_columns_past_the_period(self, tmp_path, capsys):
        """Verification compares the model's period only, but reads the rest."""
        data, path = self._history(tmp_path)
        model = tmp_path / "m.bin"
        write_model(fit(SnapshotHistory(data[:, :300]),
                        FitOptions(mode="least_squares", period=4))[0], model)
        blob = bytearray(path.read_bytes())
        blob[32 + 16 * (690 * 16) : 32 + 16 * (690 * 16) + 8] = struct.pack("<d", np.inf)
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run_cli(["verify", str(model), str(path)]) == 2
        assert capsys.readouterr().err == (
            "sclrom verify: snapshot entry at (row 0, column 690) is non-finite\n")

    def test_bad_option_is_named_before_a_piped_file_is_read(self, tmp_path, capsys):
        """fit refuses a negative --eps before it opens the file, so the
        truncated pipe, larger than a pipe buffer, is left unread."""
        _, path = self._history(tmp_path)
        read_fd, thread = _feed_pipe(path.read_bytes()[:-16])
        capsys.readouterr()
        try:
            code = run_cli(["fit", f"/dev/fd/{read_fd}", "--mode", "lsq", "--eps", "-1",
                            "--out", str(tmp_path / "m.bin")])
        finally:
            os.close(read_fd)
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert code == 2
        assert capsys.readouterr().err == "sclrom fit: epsilon must be nonnegative, got -1.0\n"
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("format", ["binary", "csv"])
    def test_each_entry_is_checked_finite_once(self, tmp_path, monkeypatch, format):
        """A read hands each entry to np.isfinite once, and so does a
        one-pass fit streamed from a binary file: a monomial fit, and a
        period-4 least-squares fit of a history that the frame's blocks
        hold; a least-squares fit of a longer history reads it twice, and
        checks each entry in each pass. A fit of a history in memory, whose
        entries were checked when it was made, hands it rho alone."""
        data, _ = self._history(tmp_path, columns=300)
        path = tmp_path / "h.txt"
        write_snapshots(SnapshotHistory(data), path, format=format)
        checked = []
        isfinite = np.isfinite

        def counted(x, *args, **kwargs):
            checked.append(np.size(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        history = read_snapshots(path)
        assert sum(checked) == data.size
        checked.clear()
        fit(history, FitOptions(mode="least_squares", period=4))
        assert checked == [1]
        if format == "binary":
            long_data, long_path = self._history(tmp_path, columns=600)
            for mode, read, size, passes in [("monomial", path, data.size, 1),
                                             ("least_squares", path, data.size, 1),
                                             ("least_squares", long_path, long_data.size, 2)]:
                checked.clear()
                with persistence._snapshot_columns(read) as columns:
                    fit(columns, FitOptions(mode=mode, period=4))
                assert sum(checked) == passes * size + 1, (mode, size)


class TestModelFormat:
    @pytest.fixture
    def fitted(self):
        h = periodic_history(32, 4, seed=3)
        model, _ = fit(h, FitOptions(mode="least_squares"))
        return model

    def test_predictions_bitwise_across_roundtrip(self, fitted, tmp_path):
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        loaded = read_model(path)
        for t in range(fitted.period):
            before = predict(fitted, t)
            after = predict(loaded, t)
            assert before.tobytes() == after.tobytes()

    def test_scalars_roundtrip_exactly(self, fitted, tmp_path):
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        loaded = read_model(path)
        assert loaded.ohf.kappa == fitted.ohf.kappa
        assert loaded.ohf.rho == fitted.ohf.rho
        assert loaded.epsilon_achieved == fitted.epsilon_achieved
        assert loaded.period == fitted.period

    def test_mismatched_manifest_m_rejected(self, fitted, tmp_path):
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        blob = path.read_bytes()
        corrupted = blob.replace(b"\nm: 4\n", b"\nm: 3\n", 1)
        assert corrupted != blob
        path.write_bytes(corrupted)
        with pytest.raises(InvariantViolation):
            read_model(path)

    def test_unsupported_version(self, fitted, tmp_path):
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        blob = path.read_bytes()
        # version 1 stored Vhat and kappa, version 2 rho, n and T; they are
        # refused, not misread
        for version in (b"v99", b"v1", b"v2"):
            path.write_bytes(blob.replace(b"SCLROM-MODEL v3", b"SCLROM-MODEL " + version, 1))
            with pytest.raises(VersionUnsupported, match=repr(version[1:].decode())):
                read_model(path)

    def test_corrupted_frame_fails_revalidation(self, fitted, tmp_path):
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        blob = bytearray(path.read_bytes())
        # flip the sign/exponent byte of s_1, the first entry of the s block
        sep = bytes(blob).find(b"\n\n")
        first_block = sep + 2
        second_block = first_block + 32 + 32 * 4 * 16
        target = second_block + 32 + 7
        blob[target] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(InvariantViolation):
            read_model(path)

    def test_non_orthogonal_frame_fails_orthogonality_gate(self, fitted, tmp_path):
        # the blend is linear in W, so this would mix the same Vhat columns
        fitted.ohf.W[:, 1] += 1e-6 * fitted.ohf.W[:, 0]
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        with pytest.raises(InvariantViolation, match=r"^W rows orthonormal: residual "):
            read_model(path)

    @pytest.mark.filterwarnings("error")
    def test_singular_frame_gram_rejected(self, fitted, tmp_path, capsys):
        # two equal V columns: the Gram matrix of V is singular, which the
        # relative orthogonality check of V refuses
        V, s, W = fitted.ohf.V.copy(), fitted.ohf.singular_values, fitted.ohf.W
        V[:, 1] = V[:, 0]
        message = "V max relative cross product 1.000e+00 exceeds tol 1.0e-08"
        with pytest.raises(NotOrthogonal) as exc:
            ohf.checked_factorization(V, s, W)
        assert str(exc.value) == message
        # in a file, the same V fails loading before verification, quietly
        fitted.ohf.V[:, 1] = fitted.ohf.V[:, 0]
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        with pytest.raises(InvariantViolation) as exc:
            read_model(path)
        assert str(exc.value) == f"stored frames are inconsistent: {message}"
        snapshots = tmp_path / "h.bin"
        write_snapshots(periodic_history(32, 4, seed=3), snapshots)
        capsys.readouterr()
        assert run_cli(["verify", str(path), str(snapshots)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"sclrom verify: {exc.value}\n"

    def test_truncated_array_header_rejected(self, fitted, tmp_path):
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        blob = path.read_bytes()
        first_block = blob.find(b"\n\n") + 2
        path.write_bytes(blob[: first_block + 11])
        with pytest.raises(InvariantViolation) as exc:
            read_model(path)
        assert "header truncated" in str(exc.value)

    @pytest.mark.parametrize("field", ["coeffs", "V", "s", "W", "epsilon_achieved"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_rejected(self, fitted, tmp_path, field, bad):
        if field == "coeffs":
            fitted.coeffs[1, 2] = bad
        elif field == "V":
            fitted.ohf.V[3, 0] = bad
        elif field == "s":
            fitted.ohf.singular_values[2] = bad
        elif field == "W":
            fitted.ohf.W[3, 0] = bad
        else:
            fitted.epsilon_achieved = bad
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        with pytest.raises(InvariantViolation) as exc:
            read_model(path)
        assert str(exc.value) == f"{field} holds non-finite values"

    def test_missing_model_file(self, tmp_path):
        with pytest.raises(IoFailure):
            read_model(tmp_path / "absent.bin")

    @pytest.mark.parametrize("history, real", [
        (lambda: periodic_history(32, 4, seed=3), False),
        (lambda: simulate_wave_1d(WaveConfig(L=1.0, c=1.0, nx=64, nt=24, dt=2.0 / 24,
                                             w0=GaussianBump(0.4, 0.05))), True),
    ], ids=["periodic", "wave"])
    def test_loaded_arrays_are_column_major_like_the_fitted(self, tmp_path, history, real):
        """A complex model, and a rank-truncated wave model whose blocks
        carry the real flag, load bit for bit into writable column-major
        arrays of their own, the layout and dtype (float64 for the real
        model) that fitting gives V, W, B and the coefficients."""
        model, _ = fit(history(), FitOptions(mode="least_squares", truncate_rank=True))
        path = tmp_path / "m.bin"
        write_model(model, path)
        blob = path.read_bytes()
        flags = [struct.unpack_from("<Q", blob, at.start() + 24)[0]
                 for at in re.finditer(b"SCLROM01", blob)]
        assert flags == [1 if real else 0, 1, 1 if real else 0, 1 if real else 0]
        loaded = read_model(path)
        pairs = [(model.ohf.V, loaded.ohf.V), (model.ohf.W, loaded.ohf.W),
                 (model.ohf.B, loaded.ohf.B), (model.coeffs, loaded.coeffs)]
        for fitted, back in pairs:
            assert back.dtype == fitted.dtype == (np.float64 if real else np.complex128)
            assert back.shape == fitted.shape
            assert fitted.flags.f_contiguous and back.flags.f_contiguous
            assert back.flags.writeable
            assert back.tobytes(order="A") == fitted.tobytes(order="A")
        for (_, one), (_, other) in itertools.combinations(pairs, 2):
            assert not np.shares_memory(one, other)

    def test_write_copies_no_array(self, tmp_path):
        """V, W and the coefficients are column-major, the layout of the
        file's blocks, so each is written from its own memory: the peak is
        far below the 2 MiB of V (n=4096, m=32)."""
        model, _ = fit(periodic_history(4096, 32, seed=1))
        assert _peak_bytes(lambda: write_model(model, tmp_path / "m.bin")) < model.ohf.V.nbytes / 10

    @pytest.mark.parametrize("format", ["binary", "csv"])
    def test_non_model_file_fails_at_its_first_line(self, tmp_path, format):
        """A 16 MiB snapshot file, binary (all zeros, no line break) or CSV,
        is refused for its first line after one short read."""
        path = tmp_path / "h"
        with open(path, "wb") as fh:
            if format == "binary":
                fh.write(b"SCLROM01" + struct.pack("<QQQ", 1024, 1024, 0))
                fh.truncate(32 + 1024 * 1024 * 16)
            else:
                fh.write(b"2048,4096\n")
                for _ in range(2048):
                    fh.write(b"0," * 4095 + b"0\n")
        assert path.stat().st_size >= 16 * 2**20
        error, peak = _refusal(lambda: read_model(path))
        assert str(error) == "first line must start with 'SCLROM-MODEL v'"
        assert peak < 2**20

    def test_manifest_lines_are_bounded(self, fitted, tmp_path):
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        manifest, _, payload = path.read_bytes().partition(b"\n\n")
        path.write_bytes(manifest + b" " * (2 * 2**20) + b"\n\n" + payload)
        error, peak = _refusal(lambda: read_model(path))
        assert str(error) == "manifest line longer than 1024 bytes"
        assert peak < 2**20

    def test_manifest_line_count_is_bounded(self, tmp_path):
        """A 16 MiB file of short lines after the header, with no blank line,
        is refused at its fourth line, long before the end of the file."""
        path = tmp_path / "m.bin"
        with open(path, "wb") as fh:
            fh.write(b"SCLROM-MODEL v3\n" + b"x\n" * (8 * 2**20))
        error, peak = _refusal(lambda: read_model(path))
        assert str(error) == "expected a blank line after 3 manifest lines, found b'x\\n'"
        assert peak < 2**20

    def test_extra_manifest_line_is_refused(self, fitted, tmp_path):
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"\n\n", b"\nextra: junk\n\n", 1))
        error, _ = _refusal(lambda: read_model(path))
        assert str(error) == "expected a blank line after 3 manifest lines, found b'extra: junk\\n'"

    @pytest.mark.parametrize("edit, message", [
        (lambda blob: blob.replace(b"\nm: 4\n", b"\nn: 4\n", 1),
         "manifest line 2 must be 'm: ...'"),
        (lambda blob: blob.partition(b"\n\n")[0], "missing manifest separator"),
        (lambda blob: blob.replace(b" v3\n", b" v\xff\n", 1), "manifest is not valid UTF-8"),
    ], ids=["n-for-m", "no-separator", "version-not-utf8"])
    def test_malformed_manifest_names_the_fault(self, fitted, tmp_path, edit, message):
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        blob = path.read_bytes()
        edited = edit(blob)
        assert edited != blob
        path.write_bytes(edited)
        with pytest.raises(InvariantViolation) as exc:
            read_model(path)
        assert str(exc.value) == message

    def test_non_real_s_rejected(self, fitted, tmp_path):
        fitted.ohf.singular_values = fitted.ohf.singular_values + 1e-3j
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        with pytest.raises(InvariantViolation) as exc:
            read_model(path)
        assert str(exc.value) == "s holds non-real values"

    def test_frame_without_room_for_its_complement_rejected(self, fitted, tmp_path):
        fitted.ohf.V = fitted.ohf.V[:6]
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        with pytest.raises(InvariantViolation) as exc:
            read_model(path)
        assert str(exc.value) == ("stored frames are inconsistent: "
                                  "complement of an m=4 frame needs n >= 8, got n=6")

    def test_unsupported_version_is_named_before_the_line_count(self, fitted, tmp_path):
        """Version 2 had seven manifest lines (n, T, rho and the array list
        besides m and epsilon_achieved); it is refused for its version, at
        its first line."""
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        payload = path.read_bytes().partition(b"\n\n")[2]
        path.write_bytes(b"SCLROM-MODEL v2\nn: 32\nm: 4\nT: 4\nrho: 1 0\nepsilon_achieved: 0\n"
                         b"arrays: V s W coeffs\n\n" + payload)
        with pytest.raises(VersionUnsupported, match="'2'"):
            read_model(path)

    def test_load_peaks_near_the_file_size(self, tmp_path):
        """n=512, p=16 and 16384 steps of least-squares coefficients: a 4.13
        MiB file, which loads into its arrays rather than beside a copy of
        the whole file."""
        model, _ = fit(periodic_history(512, 16, seed=1), FitOptions(mode="least_squares"))
        rng = np.random.default_rng(5)
        model.coeffs = rng.standard_normal((16, 16384)) + 1j * rng.standard_normal((16, 16384))
        path = tmp_path / "m.bin"
        write_model(model, path)
        size = path.stat().st_size
        assert size > 4.1 * 2**20
        assert _peak_bytes(lambda: read_model(path)) <= 1.25 * size

    @pytest.fixture
    def piped_model(self, tmp_path):
        """A model file larger than a pipe buffer, and the m x m B of its
        replay operator."""
        model, _ = fit(periodic_history(512, 16, seed=1), FitOptions(mode="least_squares"))
        path = tmp_path / "m.bin"
        write_model(model, path)
        return path.read_bytes(), model.ohf.B

    def test_pipe_model_loads(self, piped_model):
        blob, B = piped_model
        read_fd, thread = _feed_pipe(blob)
        loaded = read_model(read_fd)
        thread.join()
        assert loaded.ohf.B.tobytes() == B.tobytes()

    @pytest.mark.parametrize("cut, message", [
        (1, "trailing bytes after payload arrays"),
        (-16, "payload arrays unreadable: payload truncated: "
              "expected 4096 bytes for 16x16, found 4080"),
    ], ids=["trailing", "truncated"])
    def test_malformed_pipe_model_names_the_fault(self, piped_model, cut, message):
        blob = piped_model[0]
        read_fd, thread = _feed_pipe(blob[:cut] if cut < 0 else blob + bytes(cut))
        with pytest.raises(InvariantViolation) as exc:
            read_model(read_fd)
        thread.join()
        assert str(exc.value) == message


def _scale_w(model):
    model.ohf.W *= 1 + 1e-6


def _scale_v(model):
    model.ohf.V *= 1 + 1e-6


def _swap_s(model):
    model.ohf.singular_values[[1, 2]] = model.ohf.singular_values[[2, 1]]


def _negate_s(model):
    model.ohf.singular_values[3] *= -1.0


def _roundtrip(model, path):
    """The loaded model is the fitted one bit for bit: its SVD, the replay
    matrix B and the frame derived from it, kappa, rho, and the gate's
    residuals."""
    write_model(model, path)
    loaded = read_model(path)
    for name in ("B", "singular_values", "W", "Vhat"):
        assert getattr(loaded.ohf, name).tobytes() == getattr(model.ohf, name).tobytes(), name
    assert loaded.ohf.kappa == model.ohf.kappa and loaded.ohf.rho == model.ohf.rho
    assert loaded.ohf.residuals == model.ohf.residuals


class TestLoadBindsVhatToV:
    """A file stores V, s and W, and the loader checks them by the fit's
    m x m gate, from which rho and Vhat are derived. Each forged file below is
    refused, by the residual or the check named. Swapped V columns, or
    swapped W rows, describe another valid model, which loads."""

    @pytest.mark.parametrize("doctor, residual", [
        (_scale_w, "W rows orthonormal"),
        (_swap_s, "s non-increasing"),
        (_negate_s, "s"),
        (_scale_v, "V columns orthonormal"),
    ], ids=["scaled-w", "swapped-s", "non-positive-s", "scaled-v"])
    def test_doctored_frame_rejected(self, tmp_path, doctor, residual):
        model, _ = fit(periodic_history(256, 8, seed=1), FitOptions(mode="least_squares"))
        doctor(model)
        path = tmp_path / "m.bin"
        write_model(model, path)
        with pytest.raises(InvariantViolation, match=rf"^{re.escape(residual)}: "):
            read_model(path)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 10), st.integers(0, 40), st.integers(1, 10),
           st.sampled_from(["monomial", "least_squares"]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_every_fitted_model_loads(self, tmp_path, m, extra, rank, mode, truncate, seed):
        """A rank-deficient history is fitted with truncate_rank alone."""
        rng = np.random.default_rng(seed)

        def gaussian(rows, cols):
            return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

        rank = min(rank, m) if truncate else m
        data = gaussian(2 * m + extra, rank) @ gaussian(rank, m)
        model, _ = fit(SnapshotHistory(data), FitOptions(mode=mode, truncate_rank=truncate))
        _roundtrip(model, tmp_path / "m.bin")

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_wave_models_load(self, tmp_path, seed):
        """The wave workload's fits (nx=512, nt=192, truncated); seed 7 gives
        the worst-conditioned frame seen."""
        center = 0.25 + 0.5 * float(np.random.default_rng(seed).random())
        cfg = WaveConfig(L=1.0, c=1.0, nx=512, nt=192, dt=2.0 / 192,
                         w0=GaussianBump(center, 0.05))
        model, _ = fit(simulate_wave_1d(cfg), FitOptions(mode="least_squares", truncate_rank=True))
        _roundtrip(model, tmp_path / "m.bin")
