"""Closed-form replay and the equivariances of the fit: an oracle that scales with n.

In exact arithmetic V* Vhat = diag(s/s_1) W, because the complement part of
Vhat is orthogonal to range(V), and Vhat* vhat_1 = e_1. The replay operator
is therefore R = V (V* Vhat) circ(rho e_1) = (rho/kappa) V diag(s) W, rho/kappa
times the frame's own snapshots, so

- monomial replay returns the stored first-period snapshots,
  x_t = v_{(t mod m) + 1};
- least-squares replay returns the projection V V* xbar_{t mod m} onto the
  span of the frame's snapshots of the mean xbar_k of the snapshots of the
  steps t = k mod m (of the snapshot itself when T = m);
- with rank truncation, both hold for the rank-r core history
  V_r diag(s_1..s_r) in place of the snapshots.

The complement basis enters U, Vhat and the load checks, but no prediction
beyond rounding. None of these checks forms an n x n matrix, so they run at
any n; the equivariances (a unitary change of coordinates, a cyclic shift
of the snapshots, a positive scale) are checked on small dense examples.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sclrom import (
    FitOptions,
    SnapshotHistory,
    fit,
    periodic_history,
    read_model,
    replay,
    write_model,
)

# rounding level, relative to the Frobenius norm of the data (3000 random
# draws with n <= 48 stay below 3e-15)
TOL = 1e-13
MODES = st.sampled_from(["monomial", "least_squares"])


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@st.composite
def cases(draw, one_period=False):
    """A history of T >= m snapshots whose leading m build the frame.

    The leading m snapshots have full rank m, or rank r < m, in which case
    the fit truncates to the rank-r core history. ``one_period`` draws
    T = m snapshots of full rank.
    """
    n = draw(st.integers(2, 48))
    m = draw(st.integers(1, n // 2))
    T = m if one_period else m + draw(st.integers(0, 3))
    rank = m if one_period else draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if rank == m:
        data = _gaussian(rng, n, T)
    else:
        data = _gaussian(rng, n, rank) @ _gaussian(rng, rank, T)
    return data, m, rank < m


def _fit(data, mode, m, truncated):
    opts = FitOptions(mode=mode, period=m, truncate_rank=truncated)
    return fit(SnapshotHistory(data), opts)[0]


def _closed_form(model, data, m, mode, truncated):
    """The states the closed form gives for every column of data."""
    if mode == "least_squares":
        # the span of the frame's snapshots, from an SVD of the test's own,
        # applied to the mean of each residue class mod m
        span = np.linalg.svd(data[:, :m], full_matrices=False)[0][:, : model.m]
        means = np.stack([data[:, k::m].mean(axis=1) for k in range(m)], axis=1)
        return (span @ (span.conj().T @ means))[:, np.arange(data.shape[1]) % m]
    # first-period snapshots, or the core history the truncated fit factors
    ohf = model.ohf
    core = ohf.V * ohf.singular_values if truncated else data[:, :m]
    return core[:, np.arange(data.shape[1]) % model.m]


def _gap(states, expected, data):
    """Largest entry of the difference, relative to the Frobenius norm of the data."""
    return float(np.max(np.abs(states - expected))) / float(np.linalg.norm(data))


def _roundtrip(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("structure") / "m.bin"
    write_model(model, path)
    return read_model(path)


@settings(max_examples=80, deadline=None)
@given(cases(), MODES)
def test_replay_matches_closed_form(tmp_path_factory, case, mode):
    data, m, truncated = case
    model = _fit(data, mode, m, truncated)
    expected = _closed_form(model, data, m, mode, truncated)
    steps = data.shape[1]
    for replayed in (model, _roundtrip(model, tmp_path_factory)):
        assert _gap(replay(replayed, 0, steps), expected, data) <= TOL


@settings(max_examples=60, deadline=None)
@given(cases(), MODES, st.integers(0, 2**32 - 1))
def test_unitary_change_of_coordinates(case, mode, seed):
    data, m, truncated = case
    Q = np.linalg.qr(_gaussian(np.random.default_rng(seed), *data.shape[:1] * 2))[0]
    steps = data.shape[1]
    states = replay(_fit(data, mode, m, truncated), 0, steps)
    rotated = replay(_fit(Q @ data, mode, m, truncated), 0, steps)
    expected = Q @ states
    if truncated and mode == "monomial":
        # the core history V_r diag(s) carries the phase the SVD convention
        # pins on each column of V_r, and that phase does not rotate with Q
        overlap = np.sum(expected.conj() * rotated, axis=0)
        rotated = rotated * (overlap.conj() / np.abs(overlap))
    assert _gap(rotated, expected, data) <= TOL


@settings(max_examples=60, deadline=None)
@given(cases(one_period=True), MODES, st.data())
def test_cyclic_shift_of_the_snapshots(case, mode, draw):
    """The generator of C[Z/m] acts on a history by rotating its columns."""
    data, m, _ = case
    k = draw.draw(st.integers(0, m - 1))
    states = replay(_fit(data, mode, m, False), 0, m)
    shifted = replay(_fit(np.roll(data, -k, axis=1), mode, m, False), 0, m)
    assert _gap(shifted, np.roll(states, -k, axis=1), data) <= TOL


@settings(max_examples=60, deadline=None)
@given(cases(), MODES, st.floats(1e-3, 1e3))
def test_positive_scale(case, mode, alpha):
    data, m, truncated = case
    steps = data.shape[1]
    states = replay(_fit(data, mode, m, truncated), 0, steps)
    scaled = replay(_fit(alpha * data, mode, m, truncated), 0, steps)
    assert _gap(scaled, alpha * states, alpha * data) <= TOL


def test_closed_form_at_n_65536(tmp_path):
    """One period of an exactly periodic history, n = 65536, m = 32: both
    modes replay the snapshots themselves, which lie in the frame's span,
    before and after a save/load round trip."""
    history = periodic_history(65536, 32, seed=4)
    path = tmp_path / "m.bin"
    for mode in ("monomial", "least_squares"):
        model = fit(history, FitOptions(mode=mode))[0]
        write_model(model, path)
        for replayed in (model, read_model(path)):
            assert _gap(replay(replayed, 0, 32), history.data, history.data) <= TOL
