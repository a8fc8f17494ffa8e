"""Mutated snapshot and model files: the readers raise only SclRomError subclasses,
and ``fit`` and ``verify`` exit 0, 1 or 2 without a traceback.

Mutations are truncation, byte flips and header rewrites (the binary
``n``, ``m`` and flags words, the CSV ``n,m`` line, and the model
manifest values and array headers). The numeric flags of ``simulate``
and ``fit`` are drawn the same way, from small ranges around zero.
"""
import contextlib
import io
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sclrom import (
    FitOptions,
    SclRomError,
    fit,
    periodic_history,
    read_model,
    read_snapshots,
    write_model,
    write_snapshots,
)
from sclrom.cli import run_cli

INTERESTING_WORDS = [0, 1, 2, 3, 17, 2**32, 2**63, 2**64 - 1]
INTERESTING_INTS = st.sampled_from([-(2**63), -3, -1, 0, 1, 2, 3, 5, 15, 17, 99999999999, 2**64])
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid binary and CSV snapshots of a 16 x 4 history and a model fitted to it."""
    d = tmp_path_factory.mktemp("valid")
    history = periodic_history(16, 4, seed=1)
    write_snapshots(history, d / "h.bin")
    write_snapshots(history, d / "h.csv", format="csv")
    model, _ = fit(history, FitOptions(mode="monomial"))
    write_model(model, d / "m.bin")
    return {name: (d / name).read_bytes() for name in ("h.bin", "h.csv", "m.bin")}


def _array_header_offsets(blob: bytes, start: int) -> list[int]:
    """Offsets of the snapshot-encoded array headers from ``start`` on."""
    offsets = []
    while start + 32 <= len(blob) and blob[start:start + 8] == b"SCLROM01":
        offsets.append(start)
        n, m, flags = struct.unpack_from("<QQQ", blob, start + 8)
        start += 32 + n * m * (8 if flags & 1 else 16)
    return offsets


@st.composite
def mutations(draw, blob: bytes, kind_of_file: str) -> bytes:
    kind = draw(st.sampled_from(["truncate", "flip", "header"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind_of_file == "csv":
        first, _, rest = blob.partition(b"\n")
        # keep one of n, m with even odds, so the other reaches the row checks
        fields = [draw(st.one_of(st.just(int(f)), INTERESTING_INTS)) for f in first.split(b",")]
        text = draw(st.one_of(st.just(f"{fields[0]},{fields[1]}"), st.text(max_size=12)))
        return text.encode("utf-8", "surrogatepass") + b"\n" + rest
    if kind_of_file == "model" and draw(st.booleans()):
        manifest, _, payload = blob.partition(b"\n\n")
        lines = manifest.split(b"\n")
        index = draw(st.integers(0, len(lines) - 1))
        key = lines[index].split(b": ")[0]
        value = draw(st.one_of(INTERESTING_INTS.map(str), st.text(max_size=12)))
        lines[index] = key + b": " + value.encode("utf-8", "surrogatepass")
        return b"\n".join(lines) + b"\n\n" + payload
    start = blob.find(b"\n\n") + 2 if kind_of_file == "model" else 0
    header = draw(st.sampled_from(_array_header_offsets(blob, start)))
    words = [draw(st.one_of(st.just(word), st.sampled_from(INTERESTING_WORDS)))
             for word in struct.unpack_from("<QQQ", out, header + 8)]
    struct.pack_into("<QQQ", out, header + 8, *words)
    if draw(st.booleans()):  # cut the payload to the length the new header declares
        n, m, flags = words
        del out[header + 32 + n * m * (8 if flags & 1 else 16):]
    return bytes(out)


def run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, err.getvalue()


def check_cli(argv):
    code, err = run_quietly(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["h.bin", "h.csv"])
@FUZZ
@given(data=st.data())
def test_mutated_snapshots(valid, tmp_path_factory, name, data):
    blob = data.draw(mutations(valid[name], "csv" if name.endswith(".csv") else "binary"))
    d = tmp_path_factory.mktemp("fuzz")
    (d / name).write_bytes(blob)
    (d / "m.bin").write_bytes(valid["m.bin"])
    try:
        read_snapshots(d / name)
    except SclRomError:
        pass
    check_cli(["fit", str(d / name), "--out", str(d / "fitted.bin")])
    check_cli(["verify", str(d / "m.bin"), str(d / name)])


@FUZZ
@given(data=st.data())
def test_mutated_models(valid, tmp_path_factory, data):
    blob = data.draw(mutations(valid["m.bin"], "model"))
    d = tmp_path_factory.mktemp("fuzz")
    (d / "m.bin").write_bytes(blob)
    (d / "h.bin").write_bytes(valid["h.bin"])
    try:
        read_model(d / "m.bin")
    except SclRomError:
        pass
    check_cli(["verify", str(d / "m.bin"), str(d / "h.bin")])


SMALL_FLOATS = st.floats(-2.0, 2.0)


def flags(**strategies):
    """One ``--name=value`` per keyword (underscores become dashes); None leaves it out."""
    return st.fixed_dictionaries(strategies).map(lambda drawn: [
        f"--{name.replace('_', '-')}={value}" for name, value in drawn.items() if value is not None
    ])


ARGV = {
    "simulate periodic": (["simulate", "periodic"], flags(
        n=st.integers(-2, 64), T=st.integers(-2, 16), seed=st.integers(-3, 3),
        horizon=st.none() | st.integers(-2, 40))),
    "simulate almost-periodic": (["simulate", "almost-periodic"], flags(
        n=st.integers(-2, 64), T=st.integers(-2, 16), seed=st.integers(-3, 3),
        horizon=st.integers(-2, 40), eps_pert=SMALL_FLOATS)),
    "simulate wave": (["simulate", "wave"], flags(
        nx=st.integers(-2, 64), nt=st.integers(-2, 40), L=SMALL_FLOATS, c=SMALL_FLOATS,
        dt=st.none() | SMALL_FLOATS, mode_k=st.integers(-3, 3),
        profile=st.sampled_from(["sine", "gaussian"]), center=SMALL_FLOATS, width=SMALL_FLOATS)),
    "fit": (["fit", "{h}"], flags(
        eps=SMALL_FLOATS, rank_tol=SMALL_FLOATS, period=st.none() | st.integers(-2, 8))),
}


@pytest.mark.parametrize("command", sorted(ARGV))
@FUZZ
@given(data=st.data())
def test_numeric_flags(valid, tmp_path_factory, command, data):
    d = tmp_path_factory.mktemp("argv")
    (d / "h.bin").write_bytes(valid["h.bin"])
    prefix, drawn_flags = ARGV[command]
    argv = [word.replace("{h}", str(d / "h.bin")) for word in prefix]
    check_cli(argv + data.draw(drawn_flags) + ["--out", str(d / "out.bin")])
