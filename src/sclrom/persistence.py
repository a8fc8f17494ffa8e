"""Bit-exact file formats for snapshot histories and fitted models.

Snapshot binary layout: 8 magic bytes ``SCLROM01``, then n, m, flags as
unsigned 64-bit little-endian integers (flag bit 0 marks purely real
payloads; n and m are at least 1), then the matrix entries in
column-major order, each entry two IEEE-754 binary64 little-endian values
(real then imaginary; real-flagged files store only the real part).
Histories and model arrays are column-major in memory too, so a file and
its arrays hold the entries in one order, and the real flag is their
dtype: a real-flagged block is float64 in memory, any other complex128.
A binary block is read in column blocks straight into one reused buffer
of its dtype and checked finite as it is read (:class:`_BinaryColumns`),
raising at the first fault met in file order: :func:`read_snapshots`
reads every column at once, fitting and verification from the command
line one block at a time (:func:`_snapshot_columns`). On a regular file
the declared size is checked against the file size before any payload
is read; a pipe is checked for a short read and for trailing bytes
instead. Writing streams the header, flagged real exactly when the
array's dtype is float64, then the payload block by block, each from its
own memory when it is column-major (:func:`_block_buffers`); the output
is never read back, so it may be a pipe.

Every output file, binary, CSV, model or plot table, is written by
:func:`_write_output`. A pipe, FIFO or device is written in order. A
regular file is opened without truncation and rewritten in place, so a
rewrite of the same size frees and allocates no block: zeros go where
the opening bytes (the magic, the model header prefix or the CSV
``n,m`` line) belong, then the rest, then the file is cut to its new
length, and the opening bytes are written last. A rewrite interrupted
after its first byte therefore leaves a file that every reader refuses,
not an old tail. Nothing is promised across a power loss.

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
alphabet, and its float64 result becomes a column-major float64 history
in one copy. A file with any other row, or one that numpy's reader
rejects, is checked row by row against the grammar and converted by
``complex()``, so the grammar, the values and the errors are the same
on both paths; :class:`sclrom.ohf.SnapshotHistory` makes its array
float64 when every imaginary part is +0.0.

Model files (version 3): a three-line UTF-8 manifest (the header
``SCLROM-MODEL v3``, ``m:`` and ``epsilon_achieved:``), a blank line,
then four snapshot-encoded binary blocks: the thin SVD V diag(s) W of
the frame's history, V (n x m), s (m x 1, real) and W (m x m), and the
coefficients (m x p, one column per phase of the model's period),
column-major like the blocks, so each array is written from its own
memory and loaded by one read of the snapshot reader, whose buffer
becomes the array, float64 for a real-flagged block and complex128
otherwise; the file may be a pipe, and its manifest is read in bounded
lines (:func:`_read_manifest`).
Each block's header is checked against m before its payload is read; n
and T are read from the headers of V and of the coefficients. The arrays
then pass :func:`sclrom.ohf.checked_factorization`, fitting's m x m gate
too: V* V and W W* within 1e-8 max(1, m) of the identity, s positive and
non-increasing. It derives rho = sum_j s_j^2 |W_j1|^2 / s_1 and forms
the m x m matrix B = (rho/kappa) diag(s) W of the replay operator
R = (rho/kappa) V diag(s) W = V B. Neither rho, B nor kappa = s_1 is
stored, and Vhat is derived from V, s and W only when asked for (by
fitting's blend), so no file can hold one inconsistent with the rest,
and the loaded model is the fitted one bit for bit. Earlier versions
are refused (VersionUnsupported); refit their histories.
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
    DimensionMismatch,
    InvariantViolation,
    IoFailure,
    NonFiniteData,
    ParseError,
    SclRomError,
    VersionUnsupported,
)
from .model import _BLOCK, SclRomModel, _block_bounds, _HeldColumns
from .ohf import (_MAX_ENTRIES, SnapshotHistory, _check_finite, _checked_history,
                  checked_factorization)

SNAPSHOT_MAGIC = b"SCLROM01"
MODEL_FORMAT_VERSION = 3
_MODEL_HEADER_PREFIX = "SCLROM-MODEL v"
_MANIFEST_LINE_BYTES = 1024  # the longest line a model writes is under 100
_MANIFEST_LINES = 3  # the header and two keyed lines, before the blank line
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


def _untruncated(path, flags: int) -> int:
    """The opener of ``open(path, "wb")`` without ``O_TRUNC``: the same
    file, link or device, and the same mode 0o666 & ~umask for a new file."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_output(path, buffers, size: int | None = None) -> None:
    """Write the bytes-like ``buffers`` to ``path`` in order, the first of
    them the file's opening bytes (a magic, a header prefix or a first
    line), which no reader accepts in any other form.

    A pipe, FIFO or device is written in order. A regular file is
    rewritten in place, so its blocks are not freed and allocated again:
    zeros where the opening bytes go, then every other buffer, then the
    file is cut to its new length, and the opening bytes are written last.
    On any exception the file is cut at the bytes written so far, and its
    opening bytes are still zeros, so an interrupted rewrite leaves a file
    that every reader refuses, never an old tail. When ``size`` is given,
    a regular file without room for that many bytes (counting the blocks
    it already holds) is refused before any byte is written and left
    empty, so a payload too large to store fails without filling the
    disk. Nothing is promised across a power loss.
    """
    buffers = iter(buffers)
    try:
        with open(path, "wb", opener=_untruncated) as fh:
            info = os.fstat(fh.fileno())
            # writelines drops each buffer once written, so the next one
            # is made without it
            if not stat.S_ISREG(info.st_mode):
                fh.writelines(buffers)
                return
            try:
                if size is not None:
                    disk = os.fstatvfs(fh.fileno())
                    free = disk.f_bavail * disk.f_frsize + info.st_blocks * 512
                    if size > free:
                        raise IoFailure(f"cannot write {path}: {size} bytes needed, {free} free")
                head = next(buffers)
                fh.write(bytes(len(head)))
                fh.writelines(buffers)
                fh.truncate()
            except BaseException:
                fh.truncate()
                raise
            fh.seek(0)
            fh.write(head)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _block_buffers(n: int, m: int, dtype, chunks):
    """The buffers of one binary block of ``dtype``, real-flagged exactly
    when it is float64, the magic first: the header, then the C-ordered
    buffer of each column block's transpose. That buffer is the block's
    own when it is column-major, as a history's and a model's arrays are;
    any other block costs one copy, which transposes it.
    """
    yield SNAPSHOT_MAGIC
    yield struct.pack("<QQQ", n, m, 1 if dtype == np.float64 else 0)
    for block in chunks:
        yield np.ascontiguousarray(block.T, dtype=dtype)
        del block  # the next block is made without this one


def _column_blocks(data: np.ndarray):
    """The columns of ``data`` in the pinned blocks of :func:`sclrom.replay`,
    as views."""
    return (data[:, start:stop] for start, stop in _block_bounds(data.shape[1]))


def _write_columns(path, n: int, m: int, dtype, chunks) -> None:
    """Write a binary snapshot file of n x m entries of ``dtype`` from the
    column blocks ``chunks`` (see :func:`_block_buffers`), through
    :func:`_write_output`, which checks that a regular file has room for
    the whole payload before its first byte is written.
    """
    size = _HEADER_BYTES + n * m * np.dtype(dtype).itemsize
    _write_output(path, _block_buffers(n, m, dtype, chunks), size)


def _parse_header(head: bytes, offset: int) -> tuple[int, int, bool]:
    """(n, m, real) from a block header read at byte ``offset`` of its file,
    checked for the magic bytes, its own length and dimensions of at least 1."""
    if head[:8] != SNAPSHOT_MAGIC:
        raise DimensionMismatch(f"expected {SNAPSHOT_MAGIC!r} at byte {offset}")
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
    and returns them as an (n, count) column-major view, float64 for a
    real-flagged block and complex128 otherwise, so a real payload is
    never widened. Every entry read is checked to be finite. ``drain()``,
    for a block that ends its input, reads and checks every column not
    read yet, then the end of the input. Either raises at the first fault it meets, in
    file order: a short read, or the first non-finite entry, named by its
    row and its column in the whole history, which is the first in column
    order. ``rewind()`` seeks back to the first column, so the block can be
    read again; only a regular file is ``rereadable``.
    """

    def __init__(self, fh, head: bytes, path, offset: int):
        n, m, real = _parse_header(head, offset)
        self._dtype = np.dtype("<f8" if real else "<c16")
        expected = n * m * self._dtype.itemsize
        self.end = offset + _HEADER_BYTES + expected  # the byte after the block
        info = os.fstat(fh.fileno())
        self._regular = stat.S_ISREG(info.st_mode)
        if self._regular and info.st_size < self.end:
            raise _truncated(expected, n, m, info.st_size - offset - _HEADER_BYTES)
        if n * m > _MAX_ENTRIES:
            raise DimensionMismatch(f"header declares {n}x{m}, beyond the size of one array")
        self.n, self.m = n, m
        self.rereadable = self._regular
        self._fh, self._path, self._expected = fh, path, expected
        self._at = self._bytes = 0  # columns and payload bytes read
        self._buffer = None  # the reused (columns, n) buffer

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
            self._buffer = np.empty((count, self.n), dtype=self._dtype)
        rows = self._buffer[:count]
        self._readinto(rows)
        _check_finite(rows.T, self._at)
        self._at += count
        return rows.T

    def rewind(self) -> None:
        try:
            self._fh.seek(self.end - self._expected)
        except OSError as exc:
            raise IoFailure(f"cannot read {self._path}: {exc}") from exc
        self._at = self._bytes = 0

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
    block of copy; a CSV file one row at a time. Either is written by
    :func:`_write_output`: a regular file is rewritten in place, its
    opening bytes (the magic, or the ``n,m`` line) written last."""
    if format not in ("binary", "csv"):
        raise ValueError(f"unknown format {format!r}")
    if format == "binary":
        _write_columns(path, history.n, history.m, history.data.dtype,
                       _column_blocks(history.data))
    else:
        _write_output(path, _csv_buffers(history))


def _csv_buffers(history: SnapshotHistory):
    """The lines of a CSV snapshot file, encoded: ``n,m``, then one per
    state row."""
    data = history.data
    yield f"{history.n},{history.m}\n".encode()
    # a real payload has no imaginary part to print
    if data.dtype == np.float64:
        for row in data:
            yield _real_row_text(row).encode()
    else:
        for row in data:
            yield (",".join(map(format_complex_entry, row.tolist())) + "\n").encode()


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
                del lines, rows  # free the row strings before the column-major copy
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
    """The columns of a snapshot file, read in order, in the form that
    :func:`sclrom.fit` and :func:`sclrom.verify_mimetic` take them: a
    binary file streamed in blocks (:class:`_BinaryColumns`), which a
    regular file can stream again after ``rewind()``, or a CSV file read
    whole.

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

    Either loads as a column-major history, float64 for a real one and
    complex128 otherwise. A binary payload is read into the history in one
    copy, in the dtype its real flag gives; a CSV file (one line per state
    row) whose rows are all real decimals over ASCII is converted by one
    ``np.loadtxt`` call into float64, any other CSV file row by row through
    the entry grammar into complex128 (float64 when every imaginary part
    is +0.0), and either array is then made column-major in one copy.
    """
    with _snapshot_columns(path) as columns:
        data = columns.read(columns.m)
    return _checked_history(data)  # every entry was checked as it was read


def write_model(model: SclRomModel, path) -> None:
    """Write a fitted model: manifest, blank line, four binary blocks,
    through :func:`_write_output`, whose opening bytes are the header
    prefix ``SCLROM-MODEL v``."""
    _write_output(path, _model_buffers(model))


def _model_buffers(model: SclRomModel):
    ohf = model.ohf
    manifest = "\n".join([
        f"{_MODEL_HEADER_PREFIX}{MODEL_FORMAT_VERSION}",
        f"m: {model.m}",
        f"epsilon_achieved: {format_float(model.epsilon_achieved)}",
    ])
    yield _MODEL_HEADER_PREFIX.encode()
    yield manifest[len(_MODEL_HEADER_PREFIX) :].encode("utf-8") + b"\n\n"
    for array in (ohf.V, ohf.singular_values[:, None], ohf.W, model.coeffs):
        yield from _block_buffers(*array.shape, array.dtype, _column_blocks(array))


def _manifest_value(lines: list[str], index: int, key: str) -> str:
    if index >= len(lines) or not lines[index].startswith(f"{key}: "):
        raise InvariantViolation(f"manifest line {index + 1} must be '{key}: ...'")
    return lines[index][len(key) + 2 :]


def _read_array(fh, path, offset: int, name: str, shape: tuple[int | None, int | None]):
    """(array, offset of the next block) for the model array ``name`` at
    byte ``offset``, its header checked against ``shape``, whose None
    dimension is the header's to give: one read of every column, whose
    column-major buffer is the array."""
    try:
        columns = _BinaryColumns(fh, fh.read(_HEADER_BYTES), path, offset)
        if any(want not in (None, got) for want, got in zip(shape, (columns.n, columns.m))):
            raise InvariantViolation(
                f"{name} has shape {(columns.n, columns.m)}, manifest says {shape}"
            )
        array = columns.read(columns.m)
    except NonFiniteData:
        raise InvariantViolation(f"{name} holds non-finite values") from None
    except DimensionMismatch as exc:
        raise InvariantViolation(f"payload arrays unreadable: {exc}") from exc
    return array, columns.end


def _read_manifest(fh):
    """(offset of the first block, m, epsilon_achieved) from the manifest of
    an open model file, read up to its blank line in lines of at most
    _MANIFEST_LINE_BYTES. A first line that is not the model header of this
    format version fails at once, so a snapshot file is refused after one
    short read, and so is a fourth line that is not the blank one."""
    prefix = _MODEL_HEADER_PREFIX.encode()
    head = bytearray()
    while not head.endswith(b"\n\n"):
        line = fh.readline(_MANIFEST_LINE_BYTES)
        if not head and not line.startswith(prefix):
            raise InvariantViolation(f"first line must start with {_MODEL_HEADER_PREFIX!r}")
        if not line:
            raise InvariantViolation("missing manifest separator")
        if len(line) == _MANIFEST_LINE_BYTES and not line.endswith(b"\n"):
            raise InvariantViolation(f"manifest line longer than {_MANIFEST_LINE_BYTES} bytes")
        if not head:
            try:
                version = line[len(prefix) :].rstrip(b"\n").decode("utf-8")
            except UnicodeDecodeError:
                raise InvariantViolation("manifest is not valid UTF-8") from None
            if version != str(MODEL_FORMAT_VERSION):
                raise VersionUnsupported(f"format version {version!r} is not supported")
        elif head.count(b"\n") == _MANIFEST_LINES and line != b"\n":
            raise InvariantViolation(
                f"expected a blank line after {_MANIFEST_LINES} manifest lines, "
                f"found {line[:40]!r}"
            )
        head += line
    try:
        lines = head[:-2].decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise InvariantViolation("manifest is not valid UTF-8") from None
    try:
        m = int(_manifest_value(lines, 1, "m"))
        epsilon = float(_manifest_value(lines, 2, "epsilon_achieved"))
    except ValueError as exc:
        raise InvariantViolation(f"malformed manifest: {exc}") from exc
    return len(head), m, epsilon


def read_model(path) -> SclRomModel:
    """Read a model file, re-validating it and rebuilding the replay
    operator from V, s and W.

    Each array is loaded by one read of the snapshot reader, with no copy,
    and the file may be a pipe. m comes from the manifest, n from the
    header of V and the period p from that of the coefficients. Raises
    VersionUnsupported for unknown format versions, earlier ones included,
    and InvariantViolation when an array's header disagrees with m, an
    array or epsilon_achieved holds non-finite numbers, s is not a
    real-flagged block, or the frame fails a check of
    :func:`sclrom.ohf.checked_factorization`; any other error of that gate
    (a non-finite rho, say) is reported as
    ``stored frames are inconsistent: ...``. The model is the fitted one
    bit for bit, singular values, W, rho, B and the derived Vhat included,
    and reports the gate's residuals as ``model.ohf.residuals``.
    """
    try:
        with open(path, "rb") as fh:
            offset, m, epsilon = _read_manifest(fh)
            V, offset = _read_array(fh, path, offset, "V", (None, m))
            s, offset = _read_array(fh, path, offset, "s", (m, 1))
            W, offset = _read_array(fh, path, offset, "W", (m, m))
            coeffs, _ = _read_array(fh, path, offset, "coeffs", (m, None))
            trailing = fh.read(1)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if trailing:
        raise InvariantViolation("trailing bytes after payload arrays")
    if not np.isfinite(epsilon):
        raise InvariantViolation("epsilon_achieved holds non-finite values")
    if np.iscomplexobj(s):
        raise InvariantViolation("s holds non-real values")

    try:
        ohf = checked_factorization(V, s[:, 0].copy(), W)
    except InvariantViolation:
        raise
    except SclRomError as exc:
        raise InvariantViolation(f"stored frames are inconsistent: {exc}") from exc
    return SclRomModel(ohf=ohf, coeffs=coeffs, epsilon_achieved=epsilon)
