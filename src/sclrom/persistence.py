"""Bit-exact file formats for snapshot histories and fitted models.

Snapshot binary layout: 8 magic bytes ``SCLROM01``, then n, m, flags as
unsigned 64-bit little-endian integers (flag bit 0 marks purely real
payloads; n and m are at least 1), then the matrix entries in
column-major order, each entry two IEEE-754 binary64 little-endian values
(real then imaginary; real-flagged files store only the real part).
A history is column-major in memory too (:class:`sclrom.SnapshotHistory`),
so a file and its history hold the entries in one order. A binary
snapshot file is read in column blocks, in order: each block goes
straight from the file into one buffer that the reader reuses (a real
payload is read at most 256 columns at a time and widened into it), and
every block is checked to be finite. A read raises at the first fault it
meets in file order; a non-finite entry is named by its row and column
in the whole history, the first in column order.
:func:`read_snapshots` reads every column into one history in one copy;
fitting and verification from the command line consume the blocks one
at a time (:func:`_snapshot_columns`). On a regular file the declared
size is checked against the file size before any payload is read; other
inputs (a pipe) are checked for a short read and for trailing bytes
instead.
Writing streams the header, then the payload block by block: a
column-major complex block is written with no copy, any other block with
one copy that transposes it or keeps its real part. The header's real
flag is decided first, by a pass over the blocks that stops at the first
one with an imaginary part that is not +0.0; the output is never read
back, so it may be a pipe.

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
alphabet, and its float64 result is widened to a column-major complex
history in one copy. A file with any other row, or one that numpy's
reader rejects, is checked row by row against the grammar and converted
by ``complex()``, so the grammar, the values and the errors are the same
on both paths.

Model files (version 2): a fixed-order UTF-8 manifest with rho, a blank
line, then four snapshot-encoded binary blocks: the thin SVD V diag(s) W
of the frame's history, V (n x m), s (m x 1, real) and W (m x m), and
the coefficients (m x T). The loader reads each block through the
snapshot reader, a column block at a time, into a C-ordered array
(fitting's layout): a load holds the arrays plus one block, and the file
may be a pipe. They then pass :func:`sclrom.ohf.checked_factorization`,
fitting's m x m gate too: V* V and W W* within 1e-8 max(1, m) of the
identity, s positive and non-increasing, and rho consistent with s and
the first column of W. It forms the m x m matrix B = (rho/kappa) diag(s) W
of the replay operator R = (rho/kappa) V diag(s) W = V B. Neither B nor
kappa = s_1 is stored, and the frame Vhat is derived from V, s and W
only when asked for (by fitting's blend), so no file can hold one
inconsistent with the rest, and the loaded model is the fitted one bit
for bit. Earlier versions are refused (VersionUnsupported); refit their
histories.
"""
from __future__ import annotations

import math
import os
import re
import stat
import struct
from contextlib import contextmanager

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    InvariantViolation,
    IoFailure,
    NonFiniteData,
    ParseError,
    SclRomError,
    VersionUnsupported,
)
from .model import _BLOCK, SclRomModel, _block_bounds, _HeldColumns
from .ohf import _MAX_ENTRIES, SnapshotHistory, checked_factorization

SNAPSHOT_MAGIC = b"SCLROM01"
MODEL_FORMAT_VERSION = 2
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
# An ASCII row from which bytes.translate(None, _REAL_ASCII) deletes every
# byte holds only digits, '.eE+-',
# commas, spaces and tabs: no 'i', 'inf', 'nan', '_', non-ASCII digit or
# space. Over that alphabet np.loadtxt reads as float64 (whitespace
# stripped, then PyOS_string_to_double, as in float()) exactly the fields
# that _PADDED_ENTRY accepts, with complex()'s real part bit for bit.
_REAL_ASCII = b"0123456789.eE+-, \t"


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
    """True when every imaginary part of ``data`` is +0.0, the only float
    whose bits are all zero: one test of the bits, in any layout."""
    return not data.imag.view(np.uint64).any()


def _real_pass(blocks) -> tuple[bool, object]:
    """(real, iterator over every block) for the column blocks that the
    callable ``blocks`` yields. A first pass stops at the first block that
    is not real, which is the first block of any complex payload; only a
    real payload is iterated twice.
    """
    chunks = blocks()
    first = next(chunks)
    if not _payload_is_real(first):
        return False, _prepended(first, chunks)
    real = all(map(_payload_is_real, chunks))
    return real, blocks()


def _prepended(first, rest):
    """``first``, then the blocks of ``rest``; none is held once yielded."""
    yield first
    del first
    yield from rest


def _write_blocks(fh, n: int, m: int, real: bool, chunks) -> None:
    """Write one binary block: the header, then the C-ordered buffer of
    each column block's transpose. That buffer is the block's own when it
    is column-major and complex; any other block costs one copy, which
    transposes it or keeps only its real part.
    """
    fh.write(SNAPSHOT_MAGIC + struct.pack("<QQQ", n, m, 1 if real else 0))
    for block in chunks:
        if real:
            fh.write(np.ascontiguousarray(block.real.T, dtype="<f8"))
        else:
            fh.write(np.ascontiguousarray(block.T, dtype="<c16"))
        del block  # the next block is made without this one


def _column_blocks(data: np.ndarray):
    """A callable that yields the columns of ``data`` in the pinned blocks
    of :func:`sclrom.replay`, as views."""
    return lambda: (data[:, start:stop] for start, stop in _block_bounds(data.shape[1]))


def _write_array(fh, data: np.ndarray) -> None:
    """Write ``data`` as one binary block, from its pinned column blocks."""
    _write_blocks(fh, *data.shape, *_real_pass(_column_blocks(data)))


def _write_columns(path, n: int, m: int, blocks) -> None:
    """Write a binary snapshot file of n x m entries from the column
    blocks that the callable ``blocks`` yields (see :func:`_real_pass`).

    A regular file must have room for the whole payload on its file
    system, so that a history too large to store fails before its first
    byte is written instead of filling the disk.
    """
    real, chunks = _real_pass(blocks)
    size = _HEADER_BYTES + n * m * (8 if real else 16)
    try:
        with open(path, "wb") as fh:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                disk = os.fstatvfs(fh.fileno())
                free = disk.f_bavail * disk.f_frsize
                if size > free:
                    raise IoFailure(f"cannot write {path}: {size} bytes needed, {free} free")
            _write_blocks(fh, n, m, real, chunks)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _parse_header(head: bytes, offset: int) -> tuple[int, int, bool]:
    """(n, m, real) from a block header read at byte ``offset`` of its file,
    checked for the magic bytes, its own length and dimensions of at least 1."""
    if head[:8] != SNAPSHOT_MAGIC:
        raise BadMagic(f"expected {SNAPSHOT_MAGIC!r} at byte {offset}")
    if len(head) < _HEADER_BYTES:
        raise DimensionMismatch(
            f"header truncated: expected {_HEADER_BYTES} bytes at byte {offset}, "
            f"found {len(head)}"
        )
    n, m, flags = struct.unpack_from("<QQQ", head, 8)
    if n < 1 or m < 1:
        raise DimensionMismatch(f"header at byte {offset} declares {n}x{m}; both must be >= 1")
    return n, m, bool(flags & 1)


def _truncated(expected: int, n: int, m: int, found: int) -> DimensionMismatch:
    return DimensionMismatch(
        f"payload truncated: expected {expected} bytes for {n}x{m}, found {found}"
    )


class _BinaryColumns:
    """The columns of a binary block (a snapshot file, or an array of a
    model file) whose header ``head`` was read at byte ``offset`` of an open
    file, in order, through the reading interface of the in-memory
    ``sclrom.model._HeldColumns``. A regular file must hold the block;
    whether anything may follow it is the caller's decision.

    ``read(count)`` reads the next ``count`` columns straight from the file
    into one buffer that later reads reuse (it grows to the widest read),
    and returns them as an (n, count) column-major view. A real payload is
    read at most 256 columns at a time into a float buffer and widened.
    Every entry read is checked to be finite. ``drain()``, for a block
    that ends its input, reads and checks every column not read yet, then
    the end of the input. Either raises at the first fault it meets, in
    file order: a short read, or the first non-finite entry, named by its
    row and its column in the whole history, which is the first in column
    order.
    """

    def __init__(self, fh, head: bytes, path, offset: int):
        n, m, real = _parse_header(head, offset)
        expected = n * m * (8 if real else 16)
        self.end = offset + _HEADER_BYTES + expected  # the byte after the block
        info = os.fstat(fh.fileno())
        self._regular = stat.S_ISREG(info.st_mode)
        if self._regular and info.st_size < self.end:
            raise _truncated(expected, n, m, info.st_size - offset - _HEADER_BYTES)
        if n * m > _MAX_ENTRIES:
            raise DimensionMismatch(f"header declares {n}x{m}, beyond the size of one array")
        self.n, self.m = n, m
        self._fh, self._path, self._real, self._expected = fh, path, real, expected
        self._at = 0  # columns read
        self._bytes = 0  # payload bytes read
        self._buffer = None  # the reused (columns, n) complex buffer
        self._floats = None  # the reused (columns, n) buffer of a real payload

    def _readinto(self, array: np.ndarray) -> None:
        try:
            got = self._fh.readinto(array)
        except OSError as exc:
            raise IoFailure(f"cannot read {self._path}: {exc}") from exc
        self._bytes += got
        if got != array.nbytes:
            raise _truncated(self._expected, self.n, self.m, self._bytes)

    def read(self, count: int) -> np.ndarray:
        if self._buffer is None or len(self._buffer) < count:
            self._buffer = None  # free the smaller buffer first
            self._buffer = np.empty((count, self.n), dtype=np.complex128)
        rows = self._buffer[:count]
        if self._real:
            if self._floats is None:
                self._floats = np.empty((min(self.m, _BLOCK), self.n), dtype="<f8")
            for start in range(0, count, len(self._floats)):
                floats = self._floats[: min(len(self._floats), count - start)]
                self._readinto(floats)
                rows[start : start + len(floats)] = floats
        else:
            self._readinto(rows)
        finite = np.isfinite(rows)
        if not finite.all():
            column, row = (int(i) for i in np.argwhere(~finite)[0])
            raise NonFiniteData(
                f"snapshot entry at (row {row}, column {self._at + column}) is non-finite"
            )
        self._at += count
        return rows.T

    def drain(self) -> None:
        while self._at < self.m:
            self.read(min(_BLOCK, self.m - self._at))
        if not self._regular:
            try:
                trailing = self._fh.read(1)
            except OSError as exc:
                raise IoFailure(f"cannot read {self._path}: {exc}") from exc
            if trailing:
                raise DimensionMismatch(f"trailing data: more than the {self.end} bytes declared")


def write_snapshots(history: SnapshotHistory, path, format: str = "binary") -> None:
    """Write a snapshot history as binary (default) or CSV.

    A binary file is written in the pinned column blocks of
    :func:`sclrom.replay`, so a history in any layout costs at most one
    block of copy."""
    if format not in ("binary", "csv"):
        raise ValueError(f"unknown format {format!r}")
    data = history.data
    if format == "binary":
        _write_columns(path, history.n, history.m, _column_blocks(data))
        return
    try:
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
    if all(row.isascii() and not row.encode("ascii").translate(None, _REAL_ASCII)
           for _, row in rows):
        try:
            real = np.loadtxt([row for _, row in rows], delimiter=",", ndmin=2)
        except ValueError:
            pass  # the grammar below names the bad field
        else:
            if real.shape == (n, m):
                del lines, rows  # free the row strings before the widened copy
                return SnapshotHistory(real)
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
    del lines, rows  # free the row strings before the column-major copy
    return SnapshotHistory(data)


def _read_csv_file(fh, head: bytes) -> SnapshotHistory:
    """The history of an open CSV snapshot file whose first bytes, ``head``,
    have been read."""
    # rereading a seekable file spares the copy that joining makes
    if fh.seekable():
        fh.seek(0)
        blob = fh.read()
    else:
        blob = head + fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", 1, 1) from None
    del blob  # the parser needs only the text; free one file size first
    return _read_csv_snapshots(text)


@contextmanager
def _snapshot_columns(path):
    """The columns of a snapshot file, for one pass in order, in the form
    that :func:`sclrom.fit` and :func:`sclrom.verify_mimetic` take them: a
    binary file streamed in blocks (:class:`_BinaryColumns`), a CSV file
    read whole.

    When the body completes, the columns it did not read are read and
    checked, so a file is accepted only when all of it is sound. The first
    fault met is the one reported: the body's own error, or the file's
    first fault in file order. Bytes after the block are refused, on a
    regular file before any payload is read.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            head = fh.read(_HEADER_BYTES)
            if head[:8] == SNAPSHOT_MAGIC:
                columns = _BinaryColumns(fh, head, path, 0)
                info = os.fstat(fh.fileno())
                if stat.S_ISREG(info.st_mode) and info.st_size > columns.end:
                    raise DimensionMismatch(
                        f"trailing data: expected {columns.end} bytes total, found {info.st_size}"
                    )
            else:
                columns = _HeldColumns(_read_csv_file(fh, head).data)
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc
        yield columns
        columns.drain()


def read_snapshots(path) -> SnapshotHistory:
    """Read a snapshot file: binary if it starts with the magic bytes, else CSV.

    Either loads as a column-major history. A binary payload is read into
    the history in one copy, a real one widened to complex a block at a
    time; a CSV file (one line per state row) whose rows are all real
    decimals over ASCII is converted by one ``np.loadtxt`` call, any other
    CSV file row by row through the entry grammar, and either array is then
    made column-major and complex in one copy.
    """
    with _snapshot_columns(path) as columns:
        data = columns.read(columns.m)
    return SnapshotHistory(data)


def write_model(model: SclRomModel, path) -> None:
    """Write a fitted model: manifest, blank line, four binary blocks."""
    ohf = model.ohf
    manifest = "\n".join(
        [
            f"{_MODEL_HEADER_PREFIX}{MODEL_FORMAT_VERSION}",
            f"n: {model.n}",
            f"m: {model.m}",
            f"T: {model.period}",
            f"rho: {format_float(ohf.rho.real)} {format_float(ohf.rho.imag)}",
            f"epsilon_achieved: {format_float(model.epsilon_achieved)}",
            "arrays: V s W coeffs",
        ]
    )
    try:
        with open(path, "wb") as fh:
            fh.write(manifest.encode("utf-8") + b"\n\n")
            _write_array(fh, ohf.V)
            _write_array(fh, ohf.singular_values[:, None])
            _write_array(fh, ohf.W)
            _write_array(fh, model.coeffs)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _manifest_value(lines: list[str], index: int, key: str) -> str:
    if index >= len(lines) or not lines[index].startswith(f"{key}: "):
        raise InvariantViolation(f"manifest line {index + 1} must be '{key}: ...'")
    return lines[index][len(key) + 2 :]


def _read_array(fh, path, offset: int, name: str, shape: tuple[int, int]):
    """(array, offset of the next block) for the model array ``name`` at
    byte ``offset``: its header is checked against the manifest's ``shape``,
    then its pinned column blocks are read into a C-ordered array."""
    try:
        columns = _BinaryColumns(fh, fh.read(_HEADER_BYTES), path, offset)
        if (columns.n, columns.m) != shape:
            raise InvariantViolation(
                f"{name} has shape {(columns.n, columns.m)}, manifest says {shape}"
            )
        array = np.empty(shape, dtype=np.complex128)
        for start, stop in _block_bounds(columns.m):
            array[:, start:stop] = columns.read(stop - start)
    except NonFiniteData:
        raise InvariantViolation(f"{name} holds non-finite values") from None
    except (BadMagic, DimensionMismatch) as exc:
        raise InvariantViolation(f"payload arrays unreadable: {exc}") from exc
    return array, columns.end


def _read_manifest(fh):
    """(offset of the first block, n, m, T, rho, epsilon_achieved)
    from the manifest of an open model file, read up to its blank line."""
    head = bytearray()
    while not head.endswith(b"\n\n"):
        line = fh.readline()
        if not line:
            raise InvariantViolation("missing manifest separator")
        head += line
    try:
        lines = head[:-2].decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise InvariantViolation("manifest is not valid UTF-8") from None
    if not lines or not lines[0].startswith(_MODEL_HEADER_PREFIX):
        raise InvariantViolation(f"first line must start with {_MODEL_HEADER_PREFIX!r}")
    version = lines[0][len(_MODEL_HEADER_PREFIX) :]
    if version != str(MODEL_FORMAT_VERSION):
        raise VersionUnsupported(f"format version {version!r} is not supported")
    try:
        n = int(_manifest_value(lines, 1, "n"))
        m = int(_manifest_value(lines, 2, "m"))
        period = int(_manifest_value(lines, 3, "T"))
        rho_re, rho_im = (float(p) for p in _manifest_value(lines, 4, "rho").split())
        epsilon = float(_manifest_value(lines, 5, "epsilon_achieved"))
    except (ValueError, IndexError) as exc:
        raise InvariantViolation(f"malformed manifest: {exc}") from exc
    if _manifest_value(lines, 6, "arrays") != "V s W coeffs":
        raise InvariantViolation("unexpected array list")
    return len(head), n, m, period, complex(rho_re, rho_im), epsilon


def read_model(path) -> SclRomModel:
    """Read a model file, re-validating it and rebuilding the replay
    operator from V, s, W and rho.

    Each array is read by the snapshot reader, a column block at a time, so
    a load holds the arrays plus one block, and the file may be a pipe.
    Raises VersionUnsupported for unknown format versions, earlier ones
    included, and InvariantViolation when the stored arrays are
    inconsistent with the manifest, hold non-finite numbers, s holds a
    non-real entry, or the frame fails a check of
    :func:`sclrom.ohf.checked_factorization`; any other error of that gate
    is reported as ``stored frames are inconsistent: ...``. The model is
    the fitted one bit for bit, singular values, W, B and the derived Vhat
    included, and reports the gate's residuals as ``model.ohf.residuals``.
    No array but the stored ones and the m x m B is formed.
    """
    try:
        with open(path, "rb") as fh:
            offset, n, m, period, rho, epsilon = _read_manifest(fh)
            V, offset = _read_array(fh, path, offset, "V", (n, m))
            s, offset = _read_array(fh, path, offset, "s", (m, 1))
            W, offset = _read_array(fh, path, offset, "W", (m, m))
            coeffs, _ = _read_array(fh, path, offset, "coeffs", (m, period))
            trailing = fh.read(1)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if trailing:
        raise InvariantViolation("trailing bytes after payload arrays")
    for name, value in (("rho", rho), ("epsilon_achieved", epsilon)):
        if not np.isfinite(value):
            raise InvariantViolation(f"{name} holds non-finite values")
    if not (rho.real > 0.0 and abs(rho.imag) <= 1e-10 * abs(rho)):
        raise InvariantViolation(f"rho {rho} is not real and positive")
    if s.imag.any():
        raise InvariantViolation("s holds non-real values")

    try:
        ohf = checked_factorization(V, s[:, 0].real.copy(), W, rho)
    except InvariantViolation:
        raise
    except SclRomError as exc:
        raise InvariantViolation(f"stored frames are inconsistent: {exc}") from exc
    return SclRomModel(ohf=ohf, coeffs=coeffs, epsilon_achieved=epsilon)
