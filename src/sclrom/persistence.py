"""Bit-exact file formats for snapshot histories and fitted models.

Snapshot binary layout: 8 magic bytes ``SCLROM01``, then n, m, flags as
unsigned 64-bit little-endian integers (flag bit 0 marks purely real
payloads; n and m are at least 1), then the matrix entries in
column-major order, each entry two IEEE-754 binary64 little-endian values
(real then imaginary; real-flagged files store only the real part).

Snapshot CSV layout: first line ``n,m`` (both at least 1), then one line
per state row with entries rendered as ``a``, ``a+bi``, or ``a-bi`` using
shortest round-trip decimals; only the ``i`` suffix is accepted when
reading. The reader accepts whitespace around entries and skips blank
lines; its errors name the physical line (as ``str.splitlines`` counts
them, header = line 1) and the 1-based column. Each row is formatted,
validated and converted as a whole, so the temporaries stay one row in
size. A real row is written from one list ``repr`` of its floats, with
the integral ``.0`` dropped by string replacement; a complex row joins
one ``format_complex_entry`` per entry. A read row made only of
ASCII digits, ``.eE+-``, commas, spaces and tabs is converted by
``float()``, which accepts exactly the grammar's entries over that
alphabet; any other row, and any row ``float()`` rejects, is checked
against the grammar and converted by ``complex()``, so the grammar and
the errors are the same on both paths.

Model files: a fixed-order UTF-8 manifest, a blank line, then three
snapshot-encoded binary blocks holding V (n x m), Vhat (n x m), and the
coefficients (m x T). The replay operator is rebuilt on load from V,
Vhat, and rho — storing it would permit inconsistent files — after every
factorization invariant (orthonormal frames, unitary shift factor,
idempotent projectors) is re-validated through residuals computed from
the thin frames, and every stored number is checked to be finite.
"""
from __future__ import annotations

import math
import re
import struct

import numpy as np

from .cyclic import VectorSystem, _gram_orthogonality
from .errors import (
    BadMagic,
    DimensionMismatch,
    InvariantViolation,
    IoFailure,
    ParseError,
    SclRomError,
    VersionUnsupported,
)
from .model import SclRomModel
from .ohf import (
    _ORTHOGONALITY_TOL,
    OhfFactorization,
    SnapshotHistory,
    frame_residuals,
    replay_operator,
)

SNAPSHOT_MAGIC = b"SCLROM01"
MODEL_FORMAT_VERSION = 1
_MODEL_HEADER_PREFIX = "SCLROM-MODEL v"
_HEADER_BYTES = 32

# One entry with the whitespace that str.strip() removes (re's \s is the
# same set) around it. The next character decides every choice, so a
# failed match backtracks only inside one field: a whole row, checked as
# ENTRY(?:,ENTRY)*, stays linear in its length.
_UFLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_PADDED_ENTRY = rf"\s*[+-]?{_UFLOAT}(?:[+-]{_UFLOAT}i)?\s*"
_ENTRY_RE = re.compile(_PADDED_ENTRY)
_ROW_RE = re.compile(rf"{_PADDED_ENTRY}(?:,{_PADDED_ENTRY})*")
# A row that this table deletes entirely holds only ASCII digits, '.eE+-',
# commas, spaces and tabs: no 'i', 'inf', 'nan', '_', non-ASCII digit or
# space. Over that alphabet float() accepts exactly the fields that
# _PADDED_ENTRY accepts, and gives complex()'s real part bit for bit.
_REAL_ASCII = str.maketrans("", "", "0123456789.eE+-, \t")


def format_float(x: float) -> str:
    """Shortest round-trip decimal, with integral values losing the '.0'."""
    s = repr(float(x))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def format_complex_entry(z: complex) -> str:
    z = complex(z)
    re_part = format_float(z.real)
    negative = math.copysign(1.0, z.imag) < 0.0
    if z.imag == 0.0 and not negative:
        return re_part
    return f"{re_part}{'-' if negative else '+'}{format_float(abs(z.imag))}i"


def _real_row_text(row: np.ndarray) -> str:
    """One CSV line of format_float entries, from one list repr.

    repr writes '.0' only at the end of an integral float (1e+16, never
    1.0e+16), so every '.0' before a comma or the line end is one that
    format_float drops.
    """
    text = repr(row.tolist())[1:-1].replace(", ", ",") + "\n"
    return text.replace(".0,", ",").replace(".0\n", "\n")


def parse_complex_entry(text: str, line: int, column: int) -> complex:
    if _ENTRY_RE.fullmatch(text) is None:
        raise ParseError(f"malformed entry {text.strip()!r}", line, column)
    # complex() strips less whitespace than the grammar allows
    return complex(text.strip().replace("i", "j"))


def _payload_is_real(data: np.ndarray) -> bool:
    imag = data.imag
    return bool(np.all(imag == 0.0) and not np.signbit(imag).any())


def _encode_array(data: np.ndarray) -> bytes:
    n, m = data.shape
    real = _payload_is_real(data)
    header = SNAPSHOT_MAGIC + struct.pack("<QQQ", n, m, 1 if real else 0)
    if real:
        payload = np.ascontiguousarray(data.real).astype("<f8").tobytes(order="F")
    else:
        payload = data.astype("<c16", copy=False).tobytes(order="F")
    return header + payload


def _decode_array(buf: bytes, offset: int) -> tuple[np.ndarray, int]:
    if buf[offset : offset + 8] != SNAPSHOT_MAGIC:
        raise BadMagic(f"expected {SNAPSHOT_MAGIC!r} at byte {offset}")
    available = len(buf) - offset
    if available < _HEADER_BYTES:
        raise DimensionMismatch(
            f"header truncated: expected {_HEADER_BYTES} bytes at byte {offset}, "
            f"found {available}"
        )
    n, m, flags = struct.unpack_from("<QQQ", buf, offset + 8)
    if n < 1 or m < 1:
        raise DimensionMismatch(f"header at byte {offset} declares {n}x{m}; both must be >= 1")
    start = offset + _HEADER_BYTES
    real = bool(flags & 1)
    expected = n * m * (8 if real else 16)
    available = len(buf) - start
    if available < expected:
        raise DimensionMismatch(
            f"payload truncated: expected {expected} bytes for {n}x{m}, found {available}"
        )
    # a view on the payload, F-ordered as stored; one copy converts and reorders it
    view = np.frombuffer(buf, dtype="<f8" if real else "<c16", count=n * m, offset=start)
    arr = np.array(view.reshape((n, m), order="F"), dtype=np.complex128, order="C")
    return arr, start + expected


def write_snapshots(history: SnapshotHistory, path, format: str = "binary") -> None:
    """Write a snapshot history as binary (default) or CSV."""
    if format not in ("binary", "csv"):
        raise ValueError(f"unknown format {format!r}")
    try:
        if format == "binary":
            with open(path, "wb") as fh:
                fh.write(_encode_array(history.data))
        else:
            data = history.data
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"{history.n},{history.m}\n")
                # a real payload has no imaginary part to print
                if _payload_is_real(data):
                    for row in data.real:
                        fh.write(_real_row_text(row))
                else:
                    for row in data:
                        fh.write(",".join(map(format_complex_entry, row.tolist())) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _read_csv_snapshots(text: str) -> SnapshotHistory:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", 1, 1)
    header = lines[0].split(",")
    if len(header) != 2:
        raise ParseError(f"header must be 'n,m', got {lines[0]!r}", 1, 1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"header must be 'n,m', got {lines[0]!r}", 1, 1) from None
    if n < 1 or m < 1:
        raise ParseError(f"header must declare n >= 1 and m >= 1, got {lines[0]!r}", 1, 1)
    rows = [(number, line) for number, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(rows) != n:
        raise DimensionMismatch(f"declared {n} rows, found {len(rows)}")
    # every count is checked before the array is allocated, so a header
    # cannot ask for more memory than the rows it is followed by
    for number, row in rows:
        if row.count(",") + 1 != m:
            raise DimensionMismatch(
                f"line {number} has {row.count(',') + 1} entries, declared m={m}"
            )
    data = np.empty((n, m), dtype=np.complex128)
    for i, (number, row) in enumerate(rows):
        if row.isascii() and not row.translate(_REAL_ASCII):
            try:
                data[i] = list(map(float, row.split(",")))
                continue
            except ValueError:
                pass  # the grammar below names the bad field
        if _ROW_RE.fullmatch(row) is None:
            # _ROW_RE is _ENTRY_RE joined by commas, so some field fails
            # parse_complex_entry, which names its column
            for column, field in enumerate(row.split(","), start=1):
                parse_complex_entry(field, number, column)
        # complex() strips less whitespace than the grammar allows, so
        # each field is stripped first
        data[i] = list(map(complex, map(str.strip, row.replace("i", "j").split(","))))
    return SnapshotHistory(data)


def read_snapshots(path) -> SnapshotHistory:
    """Read a snapshot file: binary if it starts with the magic bytes, else CSV."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if blob[:8] == SNAPSHOT_MAGIC:
        data, end = _decode_array(blob, 0)
        if end != len(blob):
            raise DimensionMismatch(
                f"trailing data: expected {end} bytes total, found {len(blob)}"
            )
        return SnapshotHistory(data)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", 1, 1) from None
    del blob  # the parser needs only the text; free one file size first
    return _read_csv_snapshots(text)


def write_model(model: SclRomModel, path) -> None:
    """Write a fitted model: manifest, blank line, three binary blocks."""
    ohf = model.ohf
    manifest = "\n".join(
        [
            f"{_MODEL_HEADER_PREFIX}{MODEL_FORMAT_VERSION}",
            f"n: {model.n}",
            f"m: {model.m}",
            f"T: {model.period}",
            f"kappa: {format_float(ohf.kappa.real)} {format_float(ohf.kappa.imag)}",
            f"rho: {format_float(ohf.rho.real)} {format_float(ohf.rho.imag)}",
            f"epsilon_achieved: {format_float(model.epsilon_achieved)}",
            "arrays: V Vhat coeffs",
        ]
    )
    try:
        with open(path, "wb") as fh:
            fh.write(manifest.encode("utf-8") + b"\n\n")
            fh.write(_encode_array(ohf.V))
            fh.write(_encode_array(ohf.Vhat))
            fh.write(_encode_array(model.coeffs))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _manifest_value(lines: list[str], index: int, key: str) -> str:
    if index >= len(lines) or not lines[index].startswith(f"{key}: "):
        raise InvariantViolation(f"manifest line {index + 1} must be '{key}: ...'")
    return lines[index][len(key) + 2 :]


def read_model(path) -> SclRomModel:
    """Read a model file, re-validating it and rebuilding the replay operator.

    Raises VersionUnsupported for unknown format versions and
    InvariantViolation when the stored arrays are inconsistent with the
    manifest, hold non-finite numbers, or fail the factorization
    invariants. No n x n matrix is formed.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise InvariantViolation("missing manifest separator")
    try:
        manifest = blob[:sep].decode("utf-8")
    except UnicodeDecodeError:
        raise InvariantViolation("manifest is not valid UTF-8") from None
    lines = manifest.splitlines()
    if not lines or not lines[0].startswith(_MODEL_HEADER_PREFIX):
        raise InvariantViolation(f"first line must start with {_MODEL_HEADER_PREFIX!r}")
    version = lines[0][len(_MODEL_HEADER_PREFIX) :]
    if version != str(MODEL_FORMAT_VERSION):
        raise VersionUnsupported(f"format version {version!r} is not supported")
    try:
        n = int(_manifest_value(lines, 1, "n"))
        m = int(_manifest_value(lines, 2, "m"))
        period = int(_manifest_value(lines, 3, "T"))
        kappa_re, kappa_im = (float(p) for p in _manifest_value(lines, 4, "kappa").split())
        rho_re, rho_im = (float(p) for p in _manifest_value(lines, 5, "rho").split())
        epsilon = float(_manifest_value(lines, 6, "epsilon_achieved"))
    except (ValueError, IndexError) as exc:
        raise InvariantViolation(f"malformed manifest: {exc}") from exc
    if _manifest_value(lines, 7, "arrays") != "V Vhat coeffs":
        raise InvariantViolation("unexpected array list")

    offset = sep + 2
    try:
        V, offset = _decode_array(blob, offset)
        Vhat, offset = _decode_array(blob, offset)
        coeffs, offset = _decode_array(blob, offset)
    except (BadMagic, DimensionMismatch) as exc:
        raise InvariantViolation(f"payload arrays unreadable: {exc}") from exc
    if offset != len(blob):
        raise InvariantViolation("trailing bytes after payload arrays")
    if V.shape != (n, m):
        raise InvariantViolation(f"V has shape {V.shape}, manifest says {(n, m)}")
    if Vhat.shape != (n, m):
        raise InvariantViolation(f"Vhat has shape {Vhat.shape}, manifest says {(n, m)}")
    if coeffs.shape != (m, period):
        raise InvariantViolation(f"coeffs has shape {coeffs.shape}, manifest says {(m, period)}")

    kappa = complex(kappa_re, kappa_im)
    rho = complex(rho_re, rho_im)
    stored = {"V": V, "Vhat": Vhat, "coeffs": coeffs, "kappa": kappa, "rho": rho,
              "epsilon_achieved": epsilon}
    for name, value in stored.items():
        if not np.all(np.isfinite(value)):
            raise InvariantViolation(f"{name} holds non-finite values")
    if not (rho.real > 0.0 and abs(rho.imag) <= 1e-10 * abs(rho)):
        raise InvariantViolation(f"rho {rho} is not real and positive")

    try:
        # huge entries read inf or NaN, which this gate or the frame residuals reject
        with np.errstate(all="ignore"):
            cols = VectorSystem(Vhat).columns
            gram = cols.conj().T @ cols  # shared by the gate and the frame residuals
            orth = _gram_orthogonality(gram, np.linalg.norm(cols, axis=0), _ORTHOGONALITY_TOL)
    except SclRomError as exc:
        raise InvariantViolation(f"stored frames are inconsistent: {exc}") from exc
    if not orth.is_orthogonal:
        raise InvariantViolation(
            f"stored frames are inconsistent: max relative cross product "
            f"{orth.max_cross:.3e} exceeds tol {_ORTHOGONALITY_TOL:.3e}"
        )
    for name, residual in frame_residuals(V, Vhat, gram).items():
        # "not <=" so NaN residuals from corrupt payloads also fail
        if not (residual <= _ORTHOGONALITY_TOL * max(1.0, float(m))):
            raise InvariantViolation(f"{name}: residual {residual:.3e}")

    ohf = OhfFactorization(
        Vhat=Vhat,
        V=V,
        kappa=kappa,
        rho=rho,
        R=replay_operator(V, Vhat, rho),
        singular_values=None,
        W=None,
    )
    return SclRomModel(ohf=ohf, coeffs=coeffs, epsilon_achieved=epsilon)
