"""One dtype from reader to replay: a real history gives a real model.

A history is real (float64) when its source is real, or complex with every
imaginary part +0.0; every array made from it takes its dtype. A real
history fits, saves, loads, verifies and replays in float64: V, W, B, the
coefficients, the snapshot reader's buffer, the residue-class means and
every replayed block, and every binary block the command line writes is
real-flagged. A complex history keeps complex128 throughout, except the
monomial coefficients (kappa/rho) e_k, which are real for every model.
A real model meets a complex history, and a complex model a real one, in
the wider dtype. Covered here: the wave workload's history (rank
truncated, least squares) and the real part of a 600-step periodic
history fitted least squares with period 8 from a binary file, which reads
its head, rewinds and reads the file again; and, kept complex, the
workloads of ``tests/test_layout.py``.
"""
import contextlib
import io
import struct

import numpy as np
import pytest

from sclrom import (
    FitOptions,
    GaussianBump,
    SnapshotHistory,
    WaveConfig,
    almost_periodic_history,
    fit,
    periodic_history,
    predict,
    read_model,
    read_snapshots,
    replay,
    simulate_wave_1d,
    verify_mimetic,
    write_model,
    write_snapshots,
)
from sclrom import model as model_module
from sclrom import persistence
from sclrom.cli import run_cli
from sclrom.ohf import checked_factorization
from sclrom.persistence import format_complex_entry


def _wave_center(seed):
    return 0.25 + 0.5 * float(np.random.default_rng(seed).random())


def _wave(seed):
    """The wave workload's history (nx=512, nt=192, a Gaussian of width 0.05)."""
    return simulate_wave_1d(WaveConfig(L=1.0, c=1.0, nx=512, nt=192, dt=2.0 / 192,
                                       w0=GaussianBump(_wave_center(seed), 0.05)))


def _periodic_real_part():
    return SnapshotHistory(periodic_history(256, 8, seed=1, horizon=600).data.real)


REAL = {
    "wave": (lambda: _wave(7), FitOptions(mode="least_squares", truncate_rank=True)),
    "periodic-real-part": (_periodic_real_part, FitOptions(mode="least_squares", period=8)),
}
COMPLEX = {
    "tall-periodic": (lambda: periodic_history(2048, 32, seed=1), FitOptions()),
    "long-horizon": (lambda: almost_periodic_history(512, 16, 1e-6, 1024, seed=1).perturbed,
                     FitOptions(mode="least_squares", period=16)),
    "small-sweep": (lambda: periodic_history(256, 8, seed=1), FitOptions()),
}


def _record(monkeypatch, seen, owner, name):
    """Wrap ``owner.name`` so that the dtype of each array it returns is
    appended to ``seen[name]``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.setdefault(name, []).append(result.dtype)
        return result

    monkeypatch.setattr(owner, name, wrapper)


def _spied(monkeypatch):
    """The dtypes of the reader's blocks, the class means and the replayed
    blocks, by name, as they are made; and the count of rewinds."""
    seen = {}
    _record(monkeypatch, seen, persistence._BinaryColumns, "read")
    _record(monkeypatch, seen, model_module, "_class_means")
    _record(monkeypatch, seen, model_module, "_block_states")
    rewind = persistence._BinaryColumns.rewind

    def counted(self):
        seen.setdefault("rewind", []).append(None)
        rewind(self)

    monkeypatch.setattr(persistence._BinaryColumns, "rewind", counted)
    return seen


def _block_flags(path):
    """The real flag of each binary block of a snapshot or model file, in order."""
    blob = path.read_bytes()
    at = blob.index(b"\n\n") + 2 if blob.startswith(b"SCLROM-MODEL") else 0
    flags = []
    while at < len(blob):
        assert blob[at : at + 8] == b"SCLROM01"
        n, m, flag = struct.unpack_from("<QQQ", blob, at + 8)
        flags.append(flag)
        at += 32 + n * m * (8 if flag else 16)
    return flags


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli([str(a) for a in argv])
    return code, out.getvalue()


@pytest.mark.parametrize("workload", [*REAL, *COMPLEX])
def test_every_array_takes_the_history_dtype(workload, tmp_path, monkeypatch):
    make, opts = {**REAL, **COMPLEX}[workload]
    history = make()
    dtype = np.float64 if workload in REAL else np.complex128
    assert history.data.dtype == dtype
    h, m = tmp_path / "h.bin", tmp_path / "m.bin"
    write_snapshots(history, h)
    assert _block_flags(h) == [dtype == np.float64]

    seen = _spied(monkeypatch)
    with persistence._snapshot_columns(h) as columns:
        model, report = fit(columns, opts)
    if workload in ("periodic-real-part", "long-horizon"):  # head, rewind, second pass
        assert len(seen["rewind"]) == 1 and len(seen["_class_means"]) == 1
    assert set(seen["read"]) == set(seen["_block_states"]) == {np.dtype(dtype)}
    assert set(seen.get("_class_means", [])) <= {np.dtype(dtype)}
    monomial = opts.mode == "monomial"
    for array in (model.ohf.V, model.ohf.W, model.ohf.B, model.coeffs):
        assert array.dtype == (np.float64 if array is model.coeffs and monomial else dtype)
    assert model.ohf.singular_values.dtype == np.float64
    assert isinstance(model.ohf.rho, float if dtype == np.float64 else complex)

    write_model(model, m)
    assert _block_flags(m) == [dtype == np.float64, True, dtype == np.float64,
                               monomial or dtype == np.float64]
    seen.clear()
    loaded = read_model(m)
    assert set(seen["read"]) <= {np.dtype(np.float64), np.dtype(dtype)}
    for fitted, back in [(model.ohf.V, loaded.ohf.V), (model.ohf.W, loaded.ohf.W),
                         (model.ohf.B, loaded.ohf.B), (model.coeffs, loaded.coeffs)]:
        assert back.dtype == fitted.dtype and back.tobytes() == fitted.tobytes()
    assert type(loaded.ohf.rho) is type(model.ohf.rho) and loaded.ohf.rho == model.ohf.rho

    seen.clear()
    states = replay(model, 0, history.m)
    assert states.dtype == dtype
    assert replay(loaded, 0, history.m).tobytes() == states.tobytes()
    with persistence._snapshot_columns(h) as columns:
        verified = verify_mimetic(loaded, columns, 1.0)
    assert [r for _, r in verified.per_step] == report.per_step
    assert set(seen["read"]) == set(seen["_block_states"]) == {np.dtype(dtype)}


@pytest.mark.parametrize("workload", list(REAL))
def test_every_command_line_file_of_a_real_history_is_real(workload, tmp_path, monkeypatch):
    """simulate (the wave only), fit, verify and predict, binary and CSV:
    every block written is real-flagged, every CSV entry is real, and every
    array read or replayed is float64."""
    seen = _spied(monkeypatch)
    for fmt in ("binary", "csv"):
        h = tmp_path / f"h.{fmt}"
        if workload == "wave":
            assert _cli("simulate", "wave", "--nx", 512, "--nt", 192, "--profile", "gaussian",
                        "--width", 0.05, "--center", repr(_wave_center(7)), "--format", fmt,
                        "--out", h)[0] == 0
            fit_argv = ["--mode", "lsq", "--truncate-rank"]
        else:
            write_snapshots(_periodic_real_part(), h, format=fmt)
            fit_argv = ["--mode", "lsq", "--period", 8]
        m, p = tmp_path / f"m-{fmt}.bin", tmp_path / f"p.{fmt}"
        assert _cli("fit", h, *fit_argv, "--out", m)[0] == 0
        assert _cli("verify", m, h, "--eps", 1e-6)[0] == 0
        assert _cli("predict", m, "--t1", 700, "--out", p, "--format", fmt)[0] == 0
        assert _block_flags(m) == [1, 1, 1, 1]
        for path in (h, p):
            if fmt == "binary":
                assert _block_flags(path) == [1]
            else:
                assert "i" not in path.read_text()
            assert read_snapshots(path).data.dtype == np.float64
        assert read_snapshots(p).data.tobytes() == replay(read_model(m), 0, 700).tobytes()
    assert {"read", "_block_states"} <= seen.keys()
    assert ("_class_means" in seen) == (workload == "periodic-real-part")
    assert all(set(dtypes) == {np.dtype(np.float64)}
               for name, dtypes in seen.items() if name != "rewind")


def _widened(model):
    """``model`` in complex128: the arithmetic a real model had when every
    history was widened to complex."""
    ohf = model.ohf
    wide = checked_factorization(ohf.V.astype(complex), ohf.singular_values,
                                 ohf.W.astype(complex))
    return model_module.SclRomModel(wide, model.coeffs.astype(complex), model.epsilon_achieved)


def _mixed(tmp_path):
    """(real history, complex history, real model, complex model, paths):
    the real part of a periodic history, and that part plus a small
    imaginary one; each model fitted on its own history."""
    real = _periodic_real_part()
    rng = np.random.default_rng(3)
    cplx = SnapshotHistory(real.data + 1e-3j * rng.standard_normal(real.data.shape))
    opts = FitOptions(mode="least_squares", period=8)
    models = [fit(real, opts)[0], fit(cplx, opts)[0]]
    paths = {}
    for name, thing in [("real", real), ("complex", cplx)]:
        paths[f"h-{name}"] = tmp_path / f"h-{name}.bin"
        write_snapshots(thing, paths[f"h-{name}"])
    for name, model in zip(["real", "complex"], models):
        paths[f"m-{name}"] = tmp_path / f"m-{name}.bin"
        write_model(model, paths[f"m-{name}"])
    return real, cplx, *models, paths


@pytest.mark.parametrize("pairing", ["real-model-complex-history", "complex-model-real-history"])
def test_mixed_dtypes_verify_in_the_wider_dtype(tmp_path, pairing):
    """verify_mimetic, ``verify`` and ``export-plot`` give each step's
    norm(predict(t) - x_t), bitwise, and the residuals of the model and
    history both widened to complex128 (the arithmetic of every history
    before a real one kept its dtype): to rounding for a real model, whose
    states are now real products, and bitwise for a complex model."""
    real, cplx, real_model, cplx_model, paths = _mixed(tmp_path)
    if pairing == "real-model-complex-history":
        model, history, m, h = real_model, cplx, paths["m-real"], paths["h-complex"]
    else:
        model, history, m, h = cplx_model, real, paths["m-complex"], paths["h-real"]
    expected = [float(np.linalg.norm(predict(model, t) - history.data[:, t]))
                for t in range(history.m)]
    residuals = [r for _, r in verify_mimetic(model, history, 1.0).per_step]
    assert residuals == expected
    wide_history = model_module._HeldColumns(history.data.astype(complex))
    wide = [r for _, r in verify_mimetic(_widened(model), wide_history, 1.0).per_step]
    if pairing == "complex-model-real-history":
        # widening a complex model changes none of its arrays, and a real
        # x_t subtracts as x_t + 0i
        assert residuals == wide
    else:
        np.testing.assert_allclose(residuals, wide, rtol=1e-12, atol=0)

    code, out = _cli("verify", m, h, "--eps", 1e-2)
    assert code in (0, 1)
    assert f"= {max(expected):.4e} " in out
    plot = tmp_path / "plot.csv"
    assert _cli("export-plot", h, "--model", m, "--components", "0,1", "--out", plot)[0] == 0
    rows = plot.read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [format_complex_entry(complex(r))
                                                   for r in expected]


def test_minus_zero_imaginary_parts_stay_complex(tmp_path):
    """-0.0 is not +0.0: such a history stays complex128 and round-trips
    byte for byte through binary and CSV files, its -0i entries kept."""
    data = np.random.default_rng(5).standard_normal((6, 4)) + 0j
    data.imag[2, 1] = -0.0
    history = SnapshotHistory(data)
    assert history.data.dtype == np.complex128
    for fmt in ("binary", "csv"):
        path = tmp_path / f"h.{fmt}"
        write_snapshots(history, path, format=fmt)
        if fmt == "binary":
            assert _block_flags(path) == [0]
        else:
            assert path.read_text().count("-0i") == 1
        back = read_snapshots(path)
        assert back.data.dtype == np.complex128
        assert back.data.tobytes(order="F") == history.data.tobytes(order="F")
        again = tmp_path / f"again.{fmt}"
        write_snapshots(back, again, format=fmt)
        assert again.read_bytes() == path.read_bytes()


def test_plus_zero_imaginary_parts_make_a_real_history(tmp_path):
    """A complex array whose imaginary parts are all +0.0 becomes a float64
    history, written real-flagged at 8 bytes per entry."""
    data = np.random.default_rng(5).standard_normal((6, 4))
    history = SnapshotHistory(data + 0j)
    assert history.data.dtype == np.float64
    assert history.data.tobytes(order="F") == data.tobytes(order="F")
    path = tmp_path / "h.bin"
    write_snapshots(history, path)
    assert _block_flags(path) == [1] and path.stat().st_size == 32 + data.size * 8
    assert read_snapshots(path).data.tobytes(order="F") == data.tobytes(order="F")
