"""The row-at-a-time CSV snapshot codec against a per-entry oracle, and its memory.

The oracle formats one entry at a time (sign of a zero imaginary part
read with ``np.signbit``) and parses one field at a time with its own
copy of the entry grammar, converting the real and imaginary groups with
``float``. The codec must write the same bytes, read the same bits (signs
of zero included) and raise the same errors at the same physical line
and column.
"""
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sclrom import (
    DimensionMismatch,
    ParseError,
    SclRomError,
    SnapshotHistory,
    read_snapshots,
    write_snapshots,
)
from sclrom.datagen import WaveConfig, simulate_wave_1d
from sclrom.persistence import (
    _ENTRY_RE,
    _REAL_ASCII,
    _ROW_RE,
    format_complex_entry,
    format_float,
    parse_complex_entry,
)

# whitespace that str.strip() removes; the first group also splits lines
LINE_BREAKING_SPACE = ["\x1c", "\x1d", "\x1e"]
INLINE_SPACE = [" ", "\t", "\xa0", "\u3000", "\x1f", "\u2009"]
UNICODE_DIGIT_ZEROS = [0x0660, 0x06F0, 0x0966, 0xFF10]  # Arabic-Indic, Persian, Devanagari, fullwidth
MALFORMED = ["x", "1+2j", "1e", "--1", "1.2.3", "inf", "nan", "1_0", "1 2", "+i", "2i",
             "1+2", "0x10", "(1+2i)", "1e5.5", "1+2ii", ".", "e5", "1+-2i"]


def oracle_entry(z: complex) -> str:
    re_part = format_float(z.real)
    if z.imag == 0.0 and not np.signbit(z.imag):
        return re_part
    sign = "-" if (z.imag < 0.0 or np.signbit(z.imag)) else "+"
    return f"{re_part}{sign}{format_float(abs(z.imag))}i"


def oracle_text(data: np.ndarray) -> str:
    lines = [f"{data.shape[0]},{data.shape[1]}"]
    for i in range(data.shape[0]):
        lines.append(",".join(oracle_entry(z) for z in data[i, :]))
    return "\n".join(lines) + "\n"


ORACLE_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
ORACLE_ENTRY = re.compile(rf"^([+-]?{ORACLE_FLOAT})(?:([+-]{ORACLE_FLOAT})i)?$")


def oracle_entry_value(text: str, line: int, column: int) -> complex:
    match = ORACLE_ENTRY.match(text.strip())
    if match is None:
        raise ParseError(f"malformed entry {text.strip()!r}", line, column)
    im_part = float(match.group(2)) if match.group(2) is not None else 0.0
    return complex(float(match.group(1)), im_part)


def oracle_realness(data: np.ndarray) -> np.ndarray:
    """The real part of a complex array whose imaginary parts are all +0.0
    (equal to zero with the sign bit clear), as a history holds it; any
    other array as it is."""
    if not (data.imag != 0.0).any() and not np.signbit(data.imag).any():
        return data.real.copy()
    return data


def oracle_read(text: str) -> np.ndarray:
    """Header, blank-line and count rules of the reader, then one field at a
    time; float64 when every imaginary part read is +0.0."""
    lines = text.splitlines()
    header = lines[0].split(",")
    n, m = int(header[0]), int(header[1])
    rows = [(number, line) for number, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(rows) != n:
        raise DimensionMismatch(f"declared {n} rows, found {len(rows)}")
    for number, row in rows:
        if row.count(",") + 1 != m:
            raise DimensionMismatch(
                f"line {number} has {row.count(',') + 1} entries, declared m={m}"
            )
    data = np.zeros((n, m), dtype=np.complex128)
    for i, (number, row) in enumerate(rows):
        for j, field in enumerate(row.split(",")):
            data[i, j] = oracle_entry_value(field, number, j + 1)
    return oracle_realness(data)


def rows_matching_row_pattern(text: str) -> list[bool]:
    """Whether the whole-row pattern, the reader's fast path, accepts each data row."""
    return [_ROW_RE.fullmatch(line) is not None for line in text.splitlines()[1:] if line.strip()]


def outcome(read):
    try:
        return read().tobytes()
    except SclRomError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 1e308, -9.999999999999999e307,
           1.0, -1.0, 1e16, 123456789012345678.0, 0.1, 1e-5]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def snapshot_arrays(draw):
    """Real, complex and mixed rows; imaginary parts include +0 and -0."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    data = np.empty((n, m), dtype=np.complex128)
    kind = draw(st.sampled_from(["real", "complex", "mixed"]))
    for i in range(n):
        row_real = kind == "real" or (kind == "mixed" and draw(st.booleans()))
        for j in range(m):
            imag = 0.0 if row_real else draw(st.one_of(st.sampled_from([0.0, -0.0]), floats))
            data[i, j] = complex(draw(floats), imag)
    return data


def as_unicode_digits(text: str, zero: int) -> str:
    return "".join(chr(zero + int(c)) if c.isdigit() else c for c in text)


@st.composite
def csv_texts(draw, bad_field=None):
    """A valid CSV file with padding, blank lines and Unicode digits; optionally one bad field."""
    data = draw(snapshot_arrays())
    n, m = data.shape
    cells = [[oracle_entry(z) for z in data[i, :]] for i in range(n)]
    if bad_field is not None:
        cells[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = bad_field
    pad = st.text(st.sampled_from(INLINE_SPACE), max_size=2)
    lines = [f"{n},{m}"]
    for row in cells:
        fields = []
        for cell in row:
            if draw(st.booleans()):
                cell = as_unicode_digits(cell, draw(st.sampled_from(UNICODE_DIGIT_ZEROS)))
            fields.append(draw(pad) + cell + draw(pad))
        edge = st.text(st.sampled_from(LINE_BREAKING_SPACE + INLINE_SPACE), max_size=2)
        lines.extend([""] * draw(st.integers(0, 2)))
        lines.append(draw(edge) + ",".join(fields) + draw(edge))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))


def write_text(tmp_path_factory, text: str):
    path = tmp_path_factory.mktemp("csv") / "h.csv"
    path.write_text(text, encoding="utf-8")
    return path


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(snapshot_arrays())
def test_writer_bytes_and_reader_bits_match_oracle(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "h.csv"
    write_snapshots(SnapshotHistory(data), path, format="csv")
    text = oracle_text(data)
    assert path.read_bytes() == text.encode("utf-8")
    assert [format_complex_entry(z) for z in data.ravel()] == [oracle_entry(z) for z in data.ravel()]
    back = read_snapshots(path).data
    assert back.tobytes() == oracle_realness(data).tobytes()
    assert back.tobytes() == oracle_read(text).tobytes()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(csv_texts())
def test_padded_unicode_text_reads_like_oracle(tmp_path_factory, text):
    path = write_text(tmp_path_factory, text)
    assert outcome(lambda: read_snapshots(path).data) == outcome(lambda: oracle_read(text))
    assert all(rows_matching_row_pattern(text))


@pytest.mark.parametrize("bad_field", MALFORMED)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_field_reports_oracle_line_and_column(tmp_path_factory, bad_field, data):
    text = data.draw(csv_texts(bad_field))
    path = write_text(tmp_path_factory, text)
    expected = outcome(lambda: oracle_read(text))
    assert expected[0] is ParseError
    assert outcome(lambda: read_snapshots(path).data) == expected
    assert rows_matching_row_pattern(text).count(False) == 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.builds(lambda z, pad: pad + oracle_entry(z) + pad,
              st.builds(complex, floats, floats), st.sampled_from(INLINE_SPACE + [""])),
    st.sampled_from(MALFORMED),
    st.text(st.sampled_from("0123456789+-.eEi \xa0\x1f\u0660"), max_size=8),
))
def test_parse_complex_entry_matches_oracle(field):
    assert outcome(lambda: np.array(parse_complex_entry(field, 3, 2))) == outcome(
        lambda: np.array(oracle_entry_value(field, 3, 2))
    )


def test_patterns_avoid_syntax_newer_than_python_3_10():
    """Possessive quantifiers and atomic groups need Python 3.11; the package supports 3.10."""
    for pattern in (_ENTRY_RE.pattern, _ROW_RE.pattern):
        assert re.search(r"[*+?}]\+|\(\?>", pattern) is None, pattern


def test_long_bad_row_fails_in_linear_time(tmp_path):
    """50000 entries and a bad last one: a row pattern with ambiguous fields backtracks exponentially."""
    path = tmp_path / "long.csv"
    path.write_text("1,50001\n" + "11," * 50000 + "x\n", encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        read_snapshots(path)
    elapsed = time.perf_counter() - start
    assert (info.value.line, info.value.column) == (2, 50001)
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_wave_history_codec_memory_stays_within_five_file_sizes(tmp_path):
    """Row-sized temporaries peak near 3x the file; whole-file cell lists reach 6.6x / 14.7x."""
    history = simulate_wave_1d(WaveConfig(nx=512, nt=192, dt=2 / 192))
    path = tmp_path / "wave.csv"
    tracemalloc.start()
    try:
        write_snapshots(history, path, format="csv")
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = read_snapshots(path)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert back.data.tobytes() == history.data.tobytes()
    assert write_peak < 5 * size, f"write peak {write_peak} B for a {size} B file"
    assert read_peak < 5 * size, f"read peak {read_peak} B for a {size} B file"
    # the file bytes are released before parsing: 2.9x measured, 3.9x while held
    assert read_peak < 3.5 * size, f"read peak {read_peak} B for a {size} B file"


def passes_real_gate(row: str) -> bool:
    """Whether the reader may convert the row with float() before trying the grammar."""
    return row.isascii() and not row.encode("ascii").translate(None, _REAL_ASCII)


def assert_reads_like_oracle(tmp_path_factory, text: str) -> None:
    """The reader gives the oracle's bits or its error; an entry past 1e308 reads inf,
    which SnapshotHistory rejects."""
    path = write_text(tmp_path_factory, text)
    assert outcome(lambda: read_snapshots(path).data) == outcome(
        lambda: SnapshotHistory(oracle_read(text)).data
    )


GATE_ALPHABET = "0123456789.eE+- \t"  # the comma only separates fields


@st.composite
def gate_alphabet_texts(draw):
    """A file whose rows use only the gate's alphabet: valid real entries, padded, mixed with
    arbitrary fields over the same alphabet, most of them malformed."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    pad = st.text(st.sampled_from(" \t"), max_size=2)
    valid = st.builds(lambda x, a, b: a + format_float(x) + b, floats, pad, pad)
    field = st.one_of(valid, st.text(st.sampled_from(GATE_ALPHABET), max_size=6))
    rows = [",".join(draw(st.lists(field, min_size=m, max_size=m))) for _ in range(n)]
    return f"{n},{m}\n" + "\n".join(rows) + "\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gate_alphabet_texts())
def test_rows_over_the_gate_alphabet_read_like_oracle(tmp_path_factory, text):
    """float() behind the gate accepts what the grammar accepts, with the same bits and errors."""
    assert all(passes_real_gate(row) for row in text.splitlines()[1:])
    assert_reads_like_oracle(tmp_path_factory, text)


@pytest.mark.parametrize("char", ["i", "\xa0", "\u0660", "\x1f"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_rows_failing_the_gate_read_like_oracle(tmp_path_factory, char, data):
    """One character outside the gate's alphabet, anywhere in a real row, sends the row to the grammar."""
    values = data.draw(st.lists(floats, min_size=1, max_size=5))
    row = ",".join(map(format_float, values))
    at = data.draw(st.integers(0, len(row)))
    row = row[:at] + char + row[at:]
    assert not passes_real_gate(row)
    text = f"1,{row.count(',') + 1}\n{row}\n"
    assert_reads_like_oracle(tmp_path_factory, text)


@pytest.mark.parametrize(
    "values, line",
    [
        ([100.0, -0.0, 1e16, 1e-05, 5e-324, 1.7976931348623157e308, 0.1, 3.0],
         "100,-0,1e+16,1e-05,5e-324,1.7976931348623157e+308,0.1,3"),
        ([1 + 2j, complex(3.0, -0.0), complex(-0.0, 1e16), complex(0.1, -1e-05), 4.0,
          complex(10.0, -20.0)],
         "1+2i,3-0i,-0+1e+16i,0.1-1e-05i,4,10-20i"),
    ],
    ids=["real", "complex"],
)
def test_writer_pinned_bytes(tmp_path, values, line):
    """The integral '.0' is dropped before ',', '+', '-', 'i' and the end of the line."""
    path = tmp_path / "row.csv"
    write_snapshots(SnapshotHistory(np.array([values], dtype=np.complex128)), path, format="csv")
    assert path.read_bytes() == f"1,{len(values)}\n{line}\n".encode("ascii")


@pytest.mark.parametrize(
    "text",
    [
        "1,1\n2.5\n",
        "1,1\n-0\n",
        "1,4\n1,-2.5e-3,7,0.1\n",
        "4,1\n1\n-0\n3e2\n.5\n",
        "2,2\n\n1,2\n \t \n\n3,4\n\n\n",
        "2,3\n 1 ,\t2\t,  3\n-0 , 5e-324 ,\t1E+16 \n",
        "2,2\r\n1,2\r\n\r\n3.,-.5\r\n",
        "2,2\n1e309,2\n3,4\n",
        "2,2\n1,2\n3,-1e400\n",
    ],
    ids=["n1-m1", "n1-m1-negative-zero", "n1", "m1", "blank-lines", "padded", "crlf",
         "overflow", "negative-overflow"],
)
def test_valid_real_files_read_like_oracle(tmp_path_factory, text):
    """Files valid throughout, which numpy's reader converts whole: the
    ndmin shapes, blank and whitespace-only lines, padding, '\\r\\n', and
    entries past 1e308, which read inf and fail SnapshotHistory."""
    assert all(passes_real_gate(row) for row in text.splitlines()[1:])
    assert_reads_like_oracle(tmp_path_factory, text)


@st.composite
def valid_real_texts(draw):
    """Valid real files of any shape: padded entries, several spellings of a
    float, blank and whitespace-only lines, '\\n' or '\\r\\n' endings."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    pad = st.text(st.sampled_from(" \t"), max_size=2)
    spelled = st.one_of(st.builds(format_float, floats), st.builds(repr, floats),
                        st.builds(lambda x: f"{x:.3E}", floats))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"{n},{m}"]
    for _ in range(n):
        lines.extend(draw(st.lists(pad, max_size=2)))
        lines.append(",".join(draw(pad) + draw(spelled) + draw(pad) for _ in range(m)))
    return end.join(lines) + end * draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(valid_real_texts())
def test_valid_real_texts_read_like_oracle(tmp_path_factory, text):
    assert all(passes_real_gate(row) for row in text.splitlines()[1:])
    assert_reads_like_oracle(tmp_path_factory, text)


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """One entry per call of numpy's reader: the shape it returned, or
    "ValueError" when it raised."""
    calls = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        try:
            result = loadtxt(*args, **kwargs)
        except ValueError:
            calls.append("ValueError")
            raise
        calls.append(result.shape)
        return result

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


def test_wave_history_reads_through_numpy(tmp_path, loadtxt_calls):
    history = simulate_wave_1d(WaveConfig(nx=64, nt=24, dt=2 / 24))
    path = tmp_path / "wave.csv"
    write_snapshots(history, path, format="csv")
    assert read_snapshots(path).data.tobytes() == history.data.tobytes()
    assert loadtxt_calls == [(64, 25)]


def test_one_complex_row_reads_through_the_grammar(tmp_path_factory, loadtxt_calls):
    text = "3,2\n1,2\n3+0.5i,4\n5,6\n"
    assert_reads_like_oracle(tmp_path_factory, text)
    assert loadtxt_calls == []


def test_a_bad_field_falls_back_to_the_grammar(tmp_path_factory, loadtxt_calls):
    """numpy's reader raises on the bad field; the grammar then names it."""
    text = "2,2\n1,2\n3,4e\n"
    path = write_text(tmp_path_factory, text)
    with pytest.raises(ParseError) as info:
        read_snapshots(path)
    assert (info.value.line, info.value.column) == (3, 2)
    assert loadtxt_calls == ["ValueError"]


def test_an_unexpected_shape_falls_back_to_the_grammar(tmp_path_factory, monkeypatch):
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: np.zeros((1, 1)))
    assert_reads_like_oracle(tmp_path_factory, "2,2\n1,2\n3,4\n")
