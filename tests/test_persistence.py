"""Tests for the snapshot and model file formats."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclrom import (
    DimensionMismatch,
    FitOptions,
    InvariantViolation,
    IoFailure,
    ParseError,
    SnapshotHistory,
    VersionUnsupported,
    fit,
    periodic_history,
    predict,
    read_model,
    read_snapshots,
    write_model,
    write_snapshots,
)
from sclrom.cli import run_cli
from sclrom.persistence import (
    _decode_array,
    _encode_array,
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
        blob = prefix + _encode_array(np.asarray(data, dtype=np.complex128))
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
        assert "expected" in str(exc.value) and "found" in str(exc.value)

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
