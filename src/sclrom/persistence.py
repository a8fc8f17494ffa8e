"""Bit-exact file formats for snapshot histories and fitted models.

Snapshot binary layout: 8 magic bytes ``SCLROM01``, then n, m, flags as
unsigned 64-bit little-endian integers (flag bit 0 marks purely real
payloads; n and m are at least 1), then the matrix entries in
column-major order, each entry two IEEE-754 binary64 little-endian values
(real then imaginary; real-flagged files store only the real part).
A binary snapshot file is read into a column-major history in one copy:
the payload goes straight from the file into an (m, n) array whose
transpose is the history (a real payload is widened to complex in one
copy more). Writing streams the header, then the payload: a column-major
complex array is written with no copy, any other array with one
transposing copy. On a regular file the declared size is checked against
the file size before the payload is allocated.

Snapshot CSV layout: first line ``n,m`` (both at least 1), then one line
per state row with entries rendered as ``a``, ``a+bi``, or ``a-bi`` using
shortest round-trip decimals; only the ``i`` suffix is accepted when
reading. The reader accepts whitespace around entries and skips blank
lines; its errors name the physical line (as ``str.splitlines`` counts
them, header = line 1) and the 1-based column. Each row is formatted as
a whole, so the writer's temporaries stay one row in size. A real row
is written from one list ``repr`` of its floats, with the integral
``.0`` dropped by string replacement; a complex row joins one
``format_complex_entry`` per entry. When every read row is made only of
ASCII digits, ``.eE+-``, commas, spaces and tabs, the whole file is
converted by one ``np.loadtxt`` call: numpy's C reader converts each
field with ``PyOS_string_to_double``, the correctly rounded routine
behind ``float()``, accepts exactly the grammar's entries over that
alphabet, and its float64 result is widened to complex in one copy. A
file with any other row, or one that numpy's reader rejects, is checked
row by row against the grammar and converted by ``complex()``, so the
grammar, the values and the errors are the same on both paths.

Model files: a fixed-order UTF-8 manifest, a blank line, then three
snapshot-encoded binary blocks holding V (n x m), Vhat (n x m), and the
coefficients (m x T). Once every stored number is checked to be finite,
the frames pass :func:`sclrom.ohf.checked_factorization`, fitting's gate
too, which re-validates every factorization invariant through residuals
of the thin frames and rebuilds the replay operator from V, Vhat and rho
(storing it would permit inconsistent files). Each block loads as a
C-ordered array, the layout that fitting produces, so replay and
predictions are bit-identical across a save/load round trip.
"""
from __future__ import annotations

import math
import os
import re
import stat
import struct

import numpy as np

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
from .ohf import _MAX_ENTRIES, SnapshotHistory, checked_factorization

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
# space. Over that alphabet np.loadtxt reads as float64 (whitespace
# stripped, then PyOS_string_to_double, as in float()) exactly the fields
# that _PADDED_ENTRY accepts, with complex()'s real part bit for bit.
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
    return not imag.any() and not np.signbit(imag).any()


def _write_array(fh, data: np.ndarray) -> None:
    """Write one binary block: the header, then the C-ordered buffer of
    ``data.T``. That buffer is ``data``'s own when ``data`` is column-major
    and complex; any other array costs one copy, which transposes it or
    keeps only its real part.
    """
    n, m = data.shape
    real = _payload_is_real(data)
    fh.write(SNAPSHOT_MAGIC + struct.pack("<QQQ", n, m, 1 if real else 0))
    if real:
        fh.write(np.ascontiguousarray(data.real.T, dtype="<f8"))
    else:
        fh.write(np.ascontiguousarray(data.T, dtype="<c16"))


def _parse_header(head: bytes, offset: int) -> tuple[int, int, bool]:
    """(n, m, real) from the block header at ``offset``, checked for the
    magic bytes, its own length and dimensions of at least 1."""
    if head[offset : offset + 8] != SNAPSHOT_MAGIC:
        raise BadMagic(f"expected {SNAPSHOT_MAGIC!r} at byte {offset}")
    available = len(head) - offset
    if available < _HEADER_BYTES:
        raise DimensionMismatch(
            f"header truncated: expected {_HEADER_BYTES} bytes at byte {offset}, "
            f"found {available}"
        )
    n, m, flags = struct.unpack_from("<QQQ", head, offset + 8)
    if n < 1 or m < 1:
        raise DimensionMismatch(f"header at byte {offset} declares {n}x{m}; both must be >= 1")
    return n, m, bool(flags & 1)


def _truncated(expected: int, n: int, m: int, found: int) -> DimensionMismatch:
    return DimensionMismatch(
        f"payload truncated: expected {expected} bytes for {n}x{m}, found {found}"
    )


def _decode_array(buf: bytes, offset: int) -> tuple[np.ndarray, int]:
    n, m, real = _parse_header(buf, offset)
    start = offset + _HEADER_BYTES
    expected = n * m * (8 if real else 16)
    available = len(buf) - start
    if available < expected:
        raise _truncated(expected, n, m, available)
    # a view on the payload, F-ordered as stored; one copy converts and reorders it
    view = np.frombuffer(buf, dtype="<f8" if real else "<c16", count=n * m, offset=start)
    arr = np.array(view.reshape((n, m), order="F"), dtype=np.complex128, order="C")
    return arr, start + expected


def _read_binary_snapshots(fh, head: bytes) -> np.ndarray:
    """The column-major (n, m) history of an open binary snapshot file
    whose header has been read: the transpose of the (m, n) array that the
    payload is read into. A regular file's size is checked before the
    array is allocated; other inputs (a pipe) are checked for a short read
    and for trailing bytes instead.
    """
    n, m, real = _parse_header(head, 0)
    expected = n * m * (8 if real else 16)
    info = os.fstat(fh.fileno())
    regular = stat.S_ISREG(info.st_mode)
    if regular and info.st_size != _HEADER_BYTES + expected:
        found = info.st_size - _HEADER_BYTES
        if found < expected:
            raise _truncated(expected, n, m, found)
        raise DimensionMismatch(
            f"trailing data: expected {_HEADER_BYTES + expected} bytes total, "
            f"found {info.st_size}"
        )
    if n * m > _MAX_ENTRIES:
        raise DimensionMismatch(f"header declares {n}x{m}, beyond the size of one array")
    stored = np.empty((m, n), dtype="<f8" if real else "<c16")
    found = fh.readinto(stored)
    if found != expected:
        raise _truncated(expected, n, m, found)
    if not regular and fh.read(1):
        raise DimensionMismatch(
            f"trailing data: more than the {_HEADER_BYTES + expected} bytes declared"
        )
    if stored.dtype != np.complex128:
        stored = stored.astype(np.complex128)
    return stored.T


def write_snapshots(history: SnapshotHistory, path, format: str = "binary") -> None:
    """Write a snapshot history as binary (default) or CSV."""
    if format not in ("binary", "csv"):
        raise ValueError(f"unknown format {format!r}")
    try:
        if format == "binary":
            with open(path, "wb") as fh:
                _write_array(fh, history.data)
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
    if all(row.isascii() and not row.translate(_REAL_ASCII) for _, row in rows):
        try:
            real = np.loadtxt([row for _, row in rows], delimiter=",", ndmin=2)
        except ValueError:
            pass  # the grammar below names the bad field
        else:
            if real.shape == (n, m):
                del lines, rows  # free the row strings before the widened copy
                return SnapshotHistory(real.astype(np.complex128))
    data = np.empty((n, m), dtype=np.complex128)
    for i, (number, row) in enumerate(rows):
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
    """Read a snapshot file: binary if it starts with the magic bytes, else CSV.

    A binary file loads as a column-major history, a CSV file (one line per
    state row) as a row-major one. A real binary payload is widened to
    complex in one copy; a CSV file whose rows are all real decimals over
    ASCII is converted by one ``np.loadtxt`` call and widened the same
    way, and any other CSV file row by row through the entry grammar.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER_BYTES)
            if head[:8] == SNAPSHOT_MAGIC:
                return SnapshotHistory(_read_binary_snapshots(fh, head))
            # rereading a seekable file spares the copy that joining makes
            if fh.seekable():
                fh.seek(0)
                blob = fh.read()
            else:
                blob = head + fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
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
            _write_array(fh, ohf.V)
            _write_array(fh, ohf.Vhat)
            _write_array(fh, model.coeffs)
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
    manifest, hold non-finite numbers, or fail a check of
    :func:`sclrom.ohf.checked_factorization`; any other error of that gate
    is reported as ``stored frames are inconsistent: ...``. No n x n
    matrix is formed.
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
    del blob  # the arrays are copies; free one file size before the frame products
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
        ohf = checked_factorization(V, Vhat, kappa, rho)
    except InvariantViolation:
        raise
    except SclRomError as exc:
        raise InvariantViolation(f"stored frames are inconsistent: {exc}") from exc
    return SclRomModel(ohf=ohf, coeffs=coeffs, epsilon_achieved=epsilon)
