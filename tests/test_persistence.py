"""Tests for the snapshot and model file formats."""
import io
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
    ParseError,
    SnapshotHistory,
    VersionUnsupported,
    WaveConfig,
    almost_periodic_history,
    fit,
    periodic_history,
    predict,
    random_orthonormal_columns,
    read_model,
    read_snapshots,
    simulate_wave_1d,
    write_model,
    write_snapshots,
)
from sclrom import persistence
from sclrom.cli import run_cli
from sclrom.persistence import (
    _decode_array,
    _write_array,
    format_complex_entry,
    parse_complex_entry,
)


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
        # real payloads are stored at 8 bytes per entry
        assert path.stat().st_size == 32 + 12 * 5 * 8
        back = read_snapshots(path)
        assert back.data.tobytes(order="C") == data.tobytes(order="C")

    @pytest.mark.parametrize("real", [True, False])
    def test_decode_is_one_owned_c_ordered_copy(self, real):
        """Same bits as slicing, converting and reordering the payload; at an odd
        offset too, so the payload view is unaligned."""
        rng = np.random.default_rng(3)
        data = rng.standard_normal((9, 7)) + (0.0 if real else 1j * rng.standard_normal((9, 7)))
        prefix = b"abc"
        fh = io.BytesIO(prefix)
        fh.seek(len(prefix))
        _write_array(fh, np.asarray(data, dtype=np.complex128))
        blob = fh.getvalue()
        arr, end = _decode_array(blob, len(prefix))
        assert end == len(blob)
        stored = np.frombuffer(blob[len(prefix) + 32:], dtype="<f8" if real else "<c16")
        expected = np.ascontiguousarray(
            stored.reshape((9, 7), order="F").astype(np.complex128)
        )
        assert arr.tobytes() == expected.tobytes()
        assert arr.dtype == np.complex128
        assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata

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


def _peak_bytes(fn):
    """tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _header(n, m, flags=0):
    return b"SCLROM01" + struct.pack("<QQQ", n, m, flags)


def _feed_pipe(blob):
    """Read end of a pipe that a thread fills with ``blob``, then closes."""
    read_fd, write_fd = os.pipe()

    def feed():
        with open(write_fd, "wb") as fh:
            fh.write(blob)

    thread = threading.Thread(target=feed)
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
        assert back.tobytes(order="C") == data.tobytes(order="C")
        assert back.flags.f_contiguous and back.flags.writeable

    def test_column_major_complex_history_is_written_without_a_copy(self, tmp_path):
        data = np.asfortranarray(almost_periodic_history(512, 16, 1e-6, 256, seed=1).perturbed.data)
        history = SnapshotHistory(data)
        peak = _peak_bytes(lambda: write_snapshots(history, tmp_path / "h.bin"))
        assert peak < data.nbytes // 8


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
        assert loaded.ohf.singular_values is None

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
        path.write_bytes(blob.replace(b"SCLROM-MODEL v1", b"SCLROM-MODEL v99", 1))
        with pytest.raises(VersionUnsupported):
            read_model(path)

    def test_corrupted_frame_fails_revalidation(self, fitted, tmp_path):
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        blob = bytearray(path.read_bytes())
        # flip the sign/exponent byte of the first Vhat payload entry
        sep = bytes(blob).find(b"\n\n")
        first_block = sep + 2
        second_block = first_block + 32 + 32 * 4 * 16
        target = second_block + 32 + 7
        blob[target] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(InvariantViolation):
            read_model(path)

    def test_non_orthogonal_frame_fails_orthogonality_gate(self, fitted, tmp_path):
        fitted.ohf.Vhat[:, 1] += 1e-6 * fitted.ohf.Vhat[:, 0]
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        with pytest.raises(InvariantViolation) as exc:
            read_model(path)
        assert "stored frames are inconsistent" in str(exc.value)

    @pytest.mark.filterwarnings("error")
    def test_singular_frame_gram_rejected(self, fitted, tmp_path, capsys):
        # two equal V columns: the Vhat orthogonality gate passes, but the
        # Gram matrix of V is singular and has no Cholesky factor
        fitted.ohf.V[:, 1] = fitted.ohf.V[:, 0]
        path = tmp_path / "m.bin"
        write_model(fitted, path)
        with pytest.raises(InvariantViolation) as exc:
            read_model(path)
        assert str(exc.value) == "K idempotent: Gram matrix of V is not positive definite"
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

    @pytest.mark.parametrize("field", ["coeffs", "V", "Vhat", "kappa", "epsilon_achieved"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_rejected(self, fitted, tmp_path, field, bad):
        if field == "coeffs":
            fitted.coeffs[1, 2] = bad
        elif field == "V":
            fitted.ohf.V[3, 0] = bad
        elif field == "Vhat":
            fitted.ohf.Vhat[3, 0] = bad
        elif field == "kappa":
            fitted.ohf.kappa = complex(bad, 0.0)
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


def _forge_vhat(model):
    model.ohf.Vhat = random_orthonormal_columns(model.n, model.m, seed=99)


def _scale_rho(model):
    model.ohf.rho *= 1 + 1e-6


def _swap_v_columns(model):
    model.ohf.V[:, [1, 2]] = model.ohf.V[:, [2, 1]]


def _roundtrip(model, path):
    write_model(model, path)
    loaded = read_model(path)
    assert loaded.ohf.R.tobytes() == model.ohf.R.tobytes()


class TestLoadBindsVhatToV:
    """Each doctored frame below passes the five frame residuals, so an
    older loader accepted it; the residuals on M = V* Vhat reject it."""

    @pytest.mark.parametrize("doctor, residual", [
        (_forge_vhat, "V* Vhat rows orthogonal"),
        (_scale_rho, "rho consistent"),
        (_swap_v_columns, "V* Vhat row norms ordered"),
    ], ids=["forged-vhat", "scaled-rho", "swapped-v-columns"])
    def test_doctored_frame_rejected(self, tmp_path, doctor, residual):
        model, _ = fit(periodic_history(256, 8, seed=1), FitOptions(mode="least_squares"))
        doctor(model)
        path = tmp_path / "m.bin"
        write_model(model, path)
        with pytest.raises(InvariantViolation, match=rf"^{re.escape(residual)}: residual "):
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
