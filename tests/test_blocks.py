"""Histories in pinned column blocks: the same bits as whole-period
products, and commands whose memory does not grow with the history.

Fit, verification, replay and the command-line front end compute the
period in blocks of 256 steps (the last one takes the remainder, up to
511; a shorter period is one block). Each blocked product must equal the
whole-period formula of ``tests/dense_oracle.py`` bit for bit, on the
in-memory API and on binary files streamed from the command line.
"""
import contextlib
import io
import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sclrom import (
    FitOptions,
    almost_periodic_history,
    fit,
    predict,
    read_model,
    read_snapshots,
    replay,
    verify_mimetic,
    write_snapshots,
)
from sclrom.cli import run_cli
from sclrom.persistence import _snapshot_columns

from dense_oracle import one_shot_coefficients, one_shot_residuals, one_shot_states

# below one block, whole blocks, and whole blocks plus a short remainder
STEPS = st.one_of(
    st.integers(1, 255),
    st.integers(1, 3).map(lambda k: 256 * k),
    st.tuples(st.integers(1, 2), st.integers(1, 40)).map(lambda kr: 256 * kr[0] + kr[1]),
)


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli([str(a) for a in argv]) in (0, 1)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(period=st.integers(1, 6), extra=st.integers(0, 40), steps=STEPS,
       mode=st.sampled_from(["monomial", "least_squares"]), seed=st.integers(0, 2**16))
def test_blocked_fit_equals_the_one_shot_oracle(tmp_path_factory, period, extra, steps, mode,
                                                seed):
    """Coefficients, residuals and states, in memory and through the CLI."""
    period = min(period, steps)
    n = 2 * period + extra
    history = almost_periodic_history(n, period, 1e-3, steps, seed).perturbed
    model, report = fit(history, FitOptions(mode=mode, period=period))
    coeffs = one_shot_coefficients(model.ohf, history.data, mode)
    states = one_shot_states(coeffs, model.ohf)
    residuals = one_shot_residuals(states, history.data)
    assert model.coeffs.tobytes() == coeffs.tobytes()
    assert replay(model, 0, steps).T.tobytes() == states.tobytes()
    assert _bits(report.per_step) == _bits(residuals)
    assert _bits([r for _, r in verify_mimetic(model, history, 1.0).per_step]) == _bits(residuals)

    work = tmp_path_factory.mktemp("blocks")
    h, m, p = work / "h.bin", work / "m.bin", work / "p.bin"
    write_snapshots(history, h)
    _cli("fit", h, "--mode", "lsq" if mode == "least_squares" else "monomial",
         "--period", period, "--out", m)
    loaded = read_model(m)
    assert loaded.coeffs.tobytes() == coeffs.tobytes()
    assert loaded.epsilon_achieved == max(residuals)
    with _snapshot_columns(h) as columns:
        streamed = verify_mimetic(loaded, columns, 1.0)
    assert _bits([r for _, r in streamed.per_step]) == _bits(residuals)
    _cli("predict", m, "--t1", steps, "--out", p)
    assert read_snapshots(p).data.T.tobytes() == states.tobytes()


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(period=st.integers(1, 4), steps=STEPS, seed=st.integers(0, 2**16))
def test_predict_equals_every_column_of_a_streamed_file(tmp_path_factory, period, steps, seed):
    """Steps 0 <= t < 3T of a streamed predict file, read back, against predict(t)."""
    period = min(period, steps)
    work = tmp_path_factory.mktemp("predict")
    h, m, p = work / "h.bin", work / "m.bin", work / "p.bin"
    write_snapshots(almost_periodic_history(2 * period + 3, period, 1e-3, steps, seed).perturbed,
                    h)
    _cli("fit", h, "--mode", "lsq", "--period", period, "--out", m)
    _cli("predict", m, "--t1", 3 * steps, "--out", p)
    model, written = read_model(m), read_snapshots(p).data
    for t in range(3 * steps):
        assert written[:, t].tobytes() == predict(model, t).tobytes(), t


def test_commands_stream_a_binary_history(tmp_path):
    """n = 256, period 8, 16384 steps: a 64 MiB history. Each command peaks
    at an eighth of it or less; the m x T coefficients are 2 MiB of that.
    Holding the history or one period of states would take 64 MiB."""
    n, period, steps = 256, 8, 16384
    h, m, p = tmp_path / "h.bin", tmp_path / "m.bin", tmp_path / "p.bin"
    commands = {
        "simulate": ["simulate", "almost-periodic", "--n", n, "--T", period, "--eps-pert",
                     "1e-6", "--horizon", steps, "--seed", 1, "--out", h],
        "fit": ["fit", h, "--mode", "lsq", "--period", period, "--out", m],
        "verify": ["verify", m, h, "--eps", "1e-5"],
        "predict": ["predict", m, "--t1", steps, "--out", p],
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, argv in commands.items():
            tracemalloc.reset_peak()
            _cli(*argv)
            peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    history_bytes = n * steps * 16
    assert h.stat().st_size == p.stat().st_size == 32 + history_bytes
    assert all(peak <= history_bytes // 8 for peak in peaks.values()), {
        name: f"{peak / 2**20:.1f} MiB" for name, peak in peaks.items()}
