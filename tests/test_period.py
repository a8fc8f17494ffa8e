"""Forecasts through Z/p: a model of period p replays phase t mod p.

A fit whose frame has period p stores one coefficient vector per phase:
the m powers of the monomial element (kappa/rho) z^t, or the least-squares
solve of the mean of each residue class t mod p. Past the training window,
step t replays phase t mod p whatever the length of the history, and every
residual that a fit or a verification reports is the gap that predict
gives, bit for bit, whether the period is shorter than one pinned block
(its states are copied into blocks of the history) or spans two.
"""
import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sclrom import (
    FitOptions,
    SnapshotHistory,
    almost_periodic_history,
    fit,
    periodic_history,
    predict,
    read_model,
    read_snapshots,
    replay,
    verify_mimetic,
    write_model,
    write_snapshots,
)
from sclrom import model as model_module
from sclrom.cli import run_cli
from sclrom.model import _replayed_columns
from sclrom.persistence import _snapshot_columns

MODES = ["monomial", "least_squares"]


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli([str(a) for a in argv])
    return code, out.getvalue()


def _bits(values):
    return np.asarray(list(values), dtype=np.float64).tobytes()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(period=st.integers(2, 8), laps=st.integers(1, 40), rest=st.integers(1, 7),
       extra=st.integers(0, 8), seed=st.integers(0, 2**16), mode=st.sampled_from(MODES))
def test_forecast_replays_the_phase_t_mod_p(tmp_path_factory, period, laps, rest, extra, seed,
                                           mode):
    """An exactly periodic history of T steps, T not a multiple of its period
    p, fitted with that period: at every t in [0, 3T), predict(t) is within
    the fit's tolerance of x_{t mod p}, before and after a save/load round
    trip, in memory and through the command line."""
    rest = 1 + (rest - 1) % (period - 1)
    steps = laps * period + rest
    history = periodic_history(2 * period + extra, period, seed, horizon=steps)
    opts = FitOptions(mode=mode, period=period)
    model, report = fit(history, opts)
    assert model.period == period and report.target_met

    work = tmp_path_factory.mktemp("period")
    h, saved, m, p = (work / name for name in ("h.bin", "saved.bin", "m.bin", "p.bin"))
    write_model(model, saved)
    write_snapshots(history, h)
    assert _cli("fit", h, "--mode", "lsq" if mode == "least_squares" else "monomial",
                "--period", period, "--out", m)[0] == 0
    assert _cli("predict", m, "--t1", 3 * steps, "--out", p)[0] == 0
    written = read_snapshots(p).data

    expected = history.data[:, np.arange(3 * steps) % period]
    for replayed in (model, read_model(saved), read_model(m)):
        states = np.column_stack([predict(replayed, t) for t in range(3 * steps)])
        assert np.linalg.norm(states - expected, axis=0).max() <= opts.epsilon
    assert np.linalg.norm(written - expected, axis=0).max() <= opts.epsilon


@pytest.mark.parametrize("n, period, horizon", [(32, 8, 100), (64, 4, 203), (512, 16, 1024)])
@pytest.mark.parametrize("eps_pert", [1e-2, 1e-6])
def test_folded_least_squares_stays_within_twice_the_perturbation(n, period, horizon, eps_pert):
    """Almost-periodic data with p < T: the folded least-squares training
    residual is at most 2 eps_pert + 1e-10, the paper's bound."""
    for seed in range(3):
        pair = almost_periodic_history(n, period, eps_pert, horizon, seed=seed)
        model, report = fit(pair.perturbed, FitOptions(mode="least_squares", period=period))
        assert model.period == period
        assert report.epsilon_achieved <= 2 * eps_pert + 1e-10


def _low_rank(n, rank, steps):
    """An n x steps history of the given rank that is not periodic."""
    rng = np.random.default_rng(5)
    left = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return SnapshotHistory(left @ (rng.standard_normal((rank, steps))
                                   + 1j * rng.standard_normal((rank, steps))))


@pytest.mark.parametrize("mode, period, history", [
    # periods below one pinned block: the period's states are copied into
    # the history's blocks
    pytest.param("least_squares", 16,
                 almost_periodic_history(48, 16, 1e-3, 700, seed=1).perturbed, id="lsq-16"),
    pytest.param("monomial", 5,
                 almost_periodic_history(16, 5, 1e-3, 700, seed=2).perturbed, id="monomial-5"),
    # a period of the two pinned blocks [0, 256) and [256, 600), rank 4
    pytest.param("least_squares", 600, _low_rank(16, 4, 1300), id="lsq-600"),
    # a monomial model of period m = 260, one block: the fitted frame's 768
    # columns read first end inside the third lap, at step 768
    pytest.param("monomial", 600, _low_rank(520, 260, 1300), id="monomial-260"),
])
def test_residuals_are_bitwise_predict_gaps(tmp_path, mode, period, history):
    """Every fit training residual and every verify residual is bitwise
    norm(predict(t) - x_t), in memory and streamed from a file (for a
    period of 260 steps, on the steps next to the edges of its laps)."""
    opts = FitOptions(mode=mode, period=period, truncate_rank=True)
    model, report = fit(history, opts)
    steps = history.m
    assert model.period == (model.m if mode == "monomial" else period) < steps
    checked = range(steps)
    if model.period == 260:
        checked = sorted({0, 1, 259, 260, 519, 520, 767, 768, 779, 780, 1299})
    gaps = _bits(np.linalg.norm(predict(model, t) - history.data[:, t]) for t in checked)
    path = tmp_path / "h.bin"
    write_snapshots(history, path)
    with _snapshot_columns(path) as columns:
        streamed, streamed_report = fit(columns, opts)
    assert streamed.coeffs.tobytes() == model.coeffs.tobytes()
    assert _bits(report.per_step) == _bits(streamed_report.per_step)
    assert _bits(report.per_step[t] for t in checked) == gaps
    with _snapshot_columns(path) as columns:
        reports = [verify_mimetic(model, history, 1.0), verify_mimetic(model, columns, 1.0)]
    for verified in reports:
        assert [k for k, _ in verified.per_step] == list(range(steps))
        assert _bits(verified.per_step[t][1] for t in checked) == gaps
        assert _bits(r for _, r in verified.per_step) == _bits(report.per_step)


@pytest.mark.parametrize("period, steps, products", [
    (16, 1024, 4),  # one product of the period per pinned block of the steps
    (300, 1300, 5),  # one product of the one-block period per lap
    (600, 1300, 5),  # [0, 256) and [256, 600) twice, then [0, 256) cut at 100
])
def test_verify_makes_one_block_product_per_block_of_steps(monkeypatch, period, steps,
                                                           products):
    """A verification past the period computes each block of the period
    once per lap, or the period once per block of the history when it is
    shorter than one block, never a block again for a window that straddles
    two."""
    model, _ = fit(_low_rank(16, 4, period),
                   FitOptions(mode="least_squares", truncate_rank=True))
    calls = []
    block_states = model_module._block_states
    monkeypatch.setattr(model_module, "_block_states",
                        lambda *args: calls.append(args[1:]) or block_states(*args))
    verify_mimetic(model, _low_rank(16, 4, steps), 1.0)
    assert len(calls) == products, calls


def test_wrapped_window_replays_the_period_once(monkeypatch):
    """A window that wraps a period shorter than one block takes the
    period's one product: streamed as views of it, one run per lap, and
    copied by replay into a column-major array; every state is bitwise
    predict."""
    pair = almost_periodic_history(40, 6, 1e-3, 50, seed=3)
    model, _ = fit(pair.perturbed, FitOptions(mode="least_squares", period=6))
    calls = []
    block_states = model_module._block_states
    monkeypatch.setattr(model_module, "_block_states",
                        lambda *args: calls.append(args[1:]) or block_states(*args))
    runs = list(_replayed_columns(model, 5, 1005))
    window = replay(model, 5, 1005)
    assert calls == [(0, 6), (0, 6)]
    assert [run.shape[1] for run in runs] == [1] + [6] * 166 + [3]
    assert window.flags.f_contiguous and window.flags.writeable
    assert np.hstack(runs).tobytes() == window.tobytes()
    for j, t in enumerate(range(5, 1005)):
        assert window[:, j].tobytes() == predict(model, t).tobytes(), t


def test_verify_prints_the_steps_it_checks_and_the_period(tmp_path):
    """verify names the range of k over the history's columns and the
    period that it replays, not the frame's size."""
    h, m = tmp_path / "h.bin", tmp_path / "m.bin"
    write_snapshots(almost_periodic_history(64, 4, 1e-6, 103, seed=1).perturbed, h)
    assert _cli("fit", h, "--mode", "lsq", "--period", 4, "--out", m)[0] == 0
    code, out = _cli("verify", m, h, "--eps", "3e-6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("max{||K U^k T x0 - xk|| | 0<=k<103} = ")
    assert lines[1:4] == ["For m = 4", "For p = 4", "For n = 64"]
