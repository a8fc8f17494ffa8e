"""Every output file is rewritten in place: the same bytes as a fresh write,
and an interrupted rewrite leaves a file that every reader refuses."""
import contextlib
import io
import os
import stat
import threading

import numpy as np
import pytest

from sclrom import (
    FitOptions,
    SclRomError,
    SnapshotHistory,
    fit,
    periodic_history,
    read_model,
    read_snapshots,
    write_model,
    write_snapshots,
)
from sclrom import cli, persistence
from sclrom.cli import run_cli


def _quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_cli([str(a) for a in argv])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(history file, model file, history, model) of a small periodic fit."""
    folder = tmp_path_factory.mktemp("inputs")
    history = periodic_history(16, 4, seed=1, horizon=8)
    model, _ = fit(history, FitOptions(mode="least_squares", period=4))
    write_snapshots(history, folder / "h.bin")
    write_model(model, folder / "m.bin")
    return folder / "h.bin", folder / "m.bin", history, model


def _writers(inputs):
    h, m, history, model = inputs
    real = SnapshotHistory(history.data.real.copy())
    return {
        "binary-real": lambda path: write_snapshots(real, path),
        "binary-complex": lambda path: write_snapshots(history, path),
        "csv-real": lambda path: write_snapshots(real, path, format="csv"),
        "csv-complex": lambda path: write_snapshots(history, path, format="csv"),
        "model": lambda path: write_model(model, path),
        "export-plot": lambda path: _quiet(["export-plot", h, "--model", m, "--out", path]),
    }


WRITERS = ["binary-real", "binary-complex", "csv-real", "csv-complex", "model", "export-plot"]


def _read_fifo(path, into):
    with open(path, "rb") as fh:
        into.append(fh.read())


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("target", ["missing", "longer", "shorter", "same-size", "symlink",
                                    "fifo"])
def test_rewrite_equals_fresh_write(inputs, tmp_path, writer, target):
    write = _writers(inputs)[writer]
    fresh = tmp_path / "fresh"
    write(fresh)
    expected = fresh.read_bytes()
    path = tmp_path / "out"
    old = {"longer": len(expected) + 4096, "shorter": len(expected) // 2,
           "same-size": len(expected), "symlink": len(expected) + 4096}.get(target)
    if target == "symlink":
        (tmp_path / "linked").write_bytes(b"\xa5" * old)
        path.symlink_to(tmp_path / "linked")
    elif old is not None:
        path.write_bytes(b"\xa5" * old)
    if target == "fifo":
        os.mkfifo(path)
        read = []
        reader = threading.Thread(target=_read_fifo, args=(path, read), daemon=True)
        reader.start()
        write(path)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert read == [expected]
        return
    write(path)
    assert path.read_bytes() == expected
    if target == "symlink":
        assert path.is_symlink() and (tmp_path / "linked").read_bytes() == expected


@pytest.mark.parametrize("writer", WRITERS)
def test_device_is_written_in_order(inputs, writer):
    _writers(inputs)[writer](os.devnull)
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("writer", WRITERS)
def test_hard_link_and_mode_as_with_truncation(inputs, tmp_path, writer):
    """The rewritten file is the same inode, so a second name of it sees
    the new content, and keeps its mode; a new file gets 0o666 & ~umask."""
    write = _writers(inputs)[writer]
    path, other = tmp_path / "out", tmp_path / "other"
    path.write_bytes(b"\xa5" * 100_000)
    os.chmod(path, 0o604)
    os.link(path, other)
    inode = path.stat().st_ino
    write(path)
    assert other.read_bytes() == path.read_bytes() != b"\xa5" * 100_000
    assert path.stat().st_ino == inode
    assert stat.S_IMODE(path.stat().st_mode) == 0o604
    previous = os.umask(0o027)
    try:
        write(tmp_path / "new")
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == 0o640


def _commands(inputs, out):
    h, m, _, _ = inputs
    wave = ["simulate", "wave", "--nx", "16", "--nt", "8", "--out", out]
    return {
        "binary-real": wave,
        "binary-complex": ["predict", m, "--t1", "8", "--out", out],
        "csv-real": wave + ["--format", "csv"],
        "csv-complex": ["predict", m, "--t1", "8", "--format", "csv", "--out", out],
        "model": ["fit", h, "--mode", "lsq", "--period", "4", "--out", out],
        "export-plot": ["export-plot", h, "--model", m, "--out", out],
    }


def _with_buffers(monkeypatch, wrap):
    """Route every output through ``_write_output`` with its buffers
    passed through ``wrap``."""
    write = persistence._write_output

    def wrapped(path, buffers, size=None):
        return write(path, wrap(buffers), size)

    monkeypatch.setattr(persistence, "_write_output", wrapped)
    monkeypatch.setattr(cli, "_write_output", wrapped)


def _refused_by_every_reader(inputs, path, writer):
    h, m, _, _ = inputs
    for read in (read_snapshots, read_model):
        with pytest.raises(SclRomError):
            read(path)
    argv = ["verify", path, h] if writer == "model" else ["verify", m, path]
    assert _quiet(argv) == 2


@pytest.mark.parametrize("writer", WRITERS)
def test_interrupted_rewrite_is_refused(inputs, tmp_path, monkeypatch, writer):
    """Over a valid file of its kind, a rewrite whose buffer producer raises
    after any of its buffers (the last included, before the file is cut)
    exits 2, and leaves a file that no reader accepts."""
    path = tmp_path / "out"
    argv = _commands(inputs, path)[writer]
    counted = []

    def count(buffers):
        for buffer in buffers:
            counted.append(memoryview(buffer).nbytes)
            yield buffer

    with monkeypatch.context() as patch:
        _with_buffers(patch, count)
        assert _quiet(argv) == 0
    valid = path.read_bytes()
    assert len(counted) >= 3 and sum(counted) == len(valid)
    for after in range(1, len(counted) + 1):

        def interrupted(buffers, after=after):
            for made, buffer in enumerate(buffers, start=1):
                yield buffer
                if made == after:
                    raise MemoryError("the next buffer was refused")

        path.write_bytes(valid)
        with monkeypatch.context() as patch:
            _with_buffers(patch, interrupted)
            assert _quiet(argv) == 2
        assert path.stat().st_size == sum(counted[:after])
        _refused_by_every_reader(inputs, path, writer)


def test_free_space_refusal_empties_an_existing_file(inputs, tmp_path, capsys):
    """Beyond the room on its file system, counting the blocks the file
    already holds, a payload is refused before any byte is written, and the
    existing file is left empty, as a truncating open leaves it."""
    _, m, _, _ = inputs
    out = tmp_path / "o.bin"
    write_snapshots(periodic_history(16, 4, seed=1), out)
    size = 32 + 16 * 16 * 10**11
    code = run_cli(["predict", str(m), "--t1", "100000000000", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"sclrom predict: cannot write {out}: {size} bytes needed, ")
    assert out.stat().st_size == 0


def test_free_space_counts_the_blocks_the_file_holds(tmp_path, monkeypatch):
    """A rewrite that needs no more than the file holds fits even when the
    file system reports no free block."""
    out = tmp_path / "o.bin"
    history = periodic_history(64, 8, seed=1)
    write_snapshots(history, out)
    expected = out.read_bytes()
    assert os.stat(out).st_blocks * 512 >= len(expected)
    full = os.statvfs_result((4096, 4096, 1, 1, 0, 1, 1, 0, 0, 255))
    monkeypatch.setattr(persistence.os, "fstatvfs", lambda fd: full)
    out.write_bytes(b"\xa5" * len(expected))
    write_snapshots(history, out)
    assert out.read_bytes() == expected
    held = os.stat(out).st_blocks * 512
    with pytest.raises(persistence.IoFailure, match=f"{held} free"):
        write_snapshots(SnapshotHistory(np.tile(history.data, 64)), out)
    assert out.stat().st_size == 0
