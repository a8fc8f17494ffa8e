"""The thin rank-m operator paths against dense n x n oracles, and their cost."""
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from dense_oracle import (
    dense_diagram_residuals,
    dense_identity_report,
    dense_load_residuals,
    dense_pair,
    dense_rho,
    dense_predict,
    dense_verify_residuals,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sclrom import (
    FitOptions,
    IdentityReport,
    SnapshotHistory,
    VectorSystem,
    build_ohf,
    check_commuting_diagram,
    cyclic_operator,
    fit,
    periodic_history,
    predict,
    random_orthonormal_columns,
    read_model,
    replay,
    verify_cyclic_identities,
    verify_mimetic,
    verify_ohf,
    write_model,
)
from sclrom.ohf import _gate_residuals


@st.composite
def histories(draw):
    """Seeded complex histories with n <= 64, full rank or of lower rank r."""
    n = draw(st.integers(2, 64))
    m = draw(st.integers(1, n // 2))
    rank = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    data = gaussian(n, m) if rank == m else gaussian(n, rank) @ gaussian(rank, m)
    return SnapshotHistory(data), rank < m


@st.composite
def orthogonal_systems(draw):
    """Seeded orthonormal systems with n <= 64, or their columns scaled by
    1 + delta * linspace(-1, 1, m)."""
    n = draw(st.integers(1, 64))
    m = draw(st.integers(1, n))
    cols = random_orthonormal_columns(n, m, draw(st.integers(0, 2**32 - 1)))
    delta = draw(st.just(0.0) | st.floats(1e-9, 0.5))
    return VectorSystem(_scaled(cols, delta))


def _scaled(A, delta, reverse=False):
    """Columns of A scaled by 1 + delta * linspace(-1, 1, m): still orthogonal,
    no longer normalized."""
    scale = 1.0 + delta * np.linspace(-1.0, 1.0, A.shape[1])
    return A * (scale[::-1] if reverse else scale)


def _residuals(V, s, W):
    """The model gate's m x m residuals of V, s and W, by name."""
    return _gate_residuals(V.conj().T @ V, s, W)


def _assert_matches_dense(thin, dense):
    for name, reference in dense.items():
        value = thin[name]
        if reference >= 1e-10:
            assert abs(value - reference) <= 1e-6 * reference, (name, value, reference)
        else:
            assert value <= 1e-9, (name, value, reference)


@settings(max_examples=60, deadline=None)
@given(histories(), st.sampled_from(["monomial", "least_squares"]))
def test_predict_matches_dense_oracle(case, mode):
    history, deficient = case
    model, _ = fit(history, FitOptions(mode=mode, truncate_rank=deficient))
    scale = max(1.0, float(np.max(np.linalg.norm(history.data, axis=0))))
    for t in range(2 * model.period):
        gap = np.linalg.norm(predict(model, t) - dense_predict(model, t))
        assert gap <= 1e-12 * scale, (t, gap)


@settings(max_examples=60, deadline=None)
@given(histories(), st.sampled_from(["monomial", "least_squares"]), st.data())
def test_replay_columns_equal_predict_bitwise(tmp_path_factory, case, mode, data):
    """Windows of width 1..4, T and T + 3 from any start, before and after save/load."""
    history, deficient = case
    model, _ = fit(history, FitOptions(mode=mode, truncate_rank=deficient))
    path = tmp_path_factory.mktemp("replay") / "m.bin"
    write_model(model, path)
    loaded = read_model(path)
    T = model.period
    t0 = data.draw(st.integers(0, 3 * T))
    for width in (1, 2, 3, 4, T, T + 3):
        for replayed in (replay(model, t0, t0 + width), replay(loaded, t0, t0 + width)):
            assert replayed.shape == (model.n, width)
            for j in range(width):
                assert replayed[:, j].tobytes() == predict(model, t0 + j).tobytes()
                assert replayed[:, j].tobytes() == predict(loaded, t0 + j).tobytes()


@settings(max_examples=60, deadline=None)
@given(histories(), st.floats(1e-9, 0.5))
def test_load_residuals_match_dense(case, delta):
    """The gate's residuals, as the factorization keeps them, and on
    forgeries: W rows scaled and s reversed, with V orthonormal; then V
    columns scaled. The derived rho matches v_1* v_1 / s_1 read through the
    n-vector v_1, which carries V's rounding of about 1e-15 that the gate's
    m-term sum does not."""
    history, deficient = case
    ohf = build_ohf(history, truncate=deficient)
    V, s, W = ohf.V, ohf.singular_values, ohf.W
    assert ohf.residuals == _residuals(V, s, W)
    reference = dense_rho(V, s, W)
    assert abs(ohf.rho - reference) <= 1e-12 * reference, (ohf.rho, reference)
    for forged in ((V, s, W), (V, s, _scaled(W.T, delta).T),
                   (V, s[::-1].copy(), W), (_scaled(V, delta, reverse=True), s, W)):
        _assert_matches_dense(_residuals(*forged), dense_load_residuals(*forged))


@settings(max_examples=60, deadline=None)
@given(histories(), st.floats(1e-9, 0.5))
def test_verify_residuals_match_dense(case, delta):
    history, deficient = case
    ohf = build_ohf(history, truncate=deficient)
    if deficient:
        # truncation factors the rank-r core history V_r diag(s), not the input
        history = SnapshotHistory(ohf.V * ohf.singular_values)
    for Vhat in (ohf.Vhat, _scaled(ohf.Vhat, delta)):
        ohf.Vhat = Vhat
        report = verify_ohf(ohf, history, tol=1e-10)
        thin = {name: getattr(report, name) for name in
                ("t_residual", "shift_residual", "k_residual", "unitary_residual")}
        _assert_matches_dense(thin, dense_verify_residuals(ohf, history))


@settings(max_examples=60, deadline=None)
@given(histories(), st.floats(1e-9, 0.5), st.integers(0, 2**32 - 1))
def test_diagram_residuals_match_dense(case, delta, seed):
    history, deficient = case
    ohf = build_ohf(history, truncate=deficient)
    degrees = list(range(2 * ohf.m + 1))
    for Vhat in (ohf.Vhat, _scaled(ohf.Vhat, delta)):
        ohf.Vhat = Vhat
        thin = dict(check_commuting_diagram(ohf, degrees, seed=seed).per_degree)
        _assert_matches_dense(thin, dense_diagram_residuals(ohf, degrees, seed=seed))


@settings(max_examples=60, deadline=None)
@given(orthogonal_systems(), st.sampled_from([None, 1e-10]))
def test_identity_residuals_match_dense(vs, tol):
    """Every IdentityReport field against dense n x n C and P, default tol
    or explicit; inf (m = 1) and None compare equal."""
    pair = cyclic_operator(vs)
    thin, dense = verify_cyclic_identities(pair, vs, tol), dense_identity_report(pair, vs, tol)
    bound = 1e-12 * max(1.0, float(np.linalg.norm(dense_pair(pair)[0])))
    for field in fields(IdentityReport):
        value, reference = getattr(thin, field.name), getattr(dense, field.name)
        assert value == reference or abs(value - reference) <= bound, (field.name, value, reference)


def test_skewed_frame_fails_the_diagram_check():
    ohf = build_ohf(periodic_history(32, 6, seed=2))
    ohf.Vhat = ohf.Vhat * (1.0 + 1e-3 * (-1.0) ** np.arange(6))
    report = check_commuting_diagram(ohf, list(range(13)), tol=1e-10)
    assert not report.passed
    assert report.max_residual > 1e-4


def _cyclic_identities(ohf, history):
    vs = VectorSystem(ohf.Vhat)
    return verify_cyclic_identities(cyclic_operator(vs), vs, tol=1e-10)


@pytest.mark.parametrize("check", [
    lambda ohf, history: check_commuting_diagram(ohf, [0, 1, 16], tol=1e-10),
    lambda ohf, history: verify_ohf(ohf, history),
    _cyclic_identities,
], ids=["check_commuting_diagram", "verify_ohf", "verify_cyclic_identities"])
def test_operator_checks_memory_stays_thin(check):
    """n = 2048, m = 8: one dense n x n complex matrix alone would be 64 MiB."""
    history = periodic_history(2048, 8, seed=3)
    ohf = build_ohf(history)
    tracemalloc.start()
    try:
        report = check(ohf, history)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MiB"


def test_scaled_frame_fails_only_the_unitary_checks():
    """V columns scaled fail V's check alone; W columns past the first
    scaled fail W's alone."""
    h = periodic_history(32, 6, seed=2)
    ohf = build_ohf(h)
    V, s, W = ohf.V, ohf.singular_values, ohf.W
    scale = np.append(1.0, 1.0 + 1e-3 * np.linspace(-1.0, 1.0, 5))
    for forged, failing in (((_scaled(V, 1e-3), s, W), "V columns orthonormal"),
                            ((V, s, W * scale), "W rows orthonormal")):
        residuals = _residuals(*forged)
        assert residuals.pop(failing) > 1e-3
        assert max(residuals.values()) <= 1e-13, residuals


@pytest.mark.parametrize("mode", ["monomial", "least_squares"])
def test_large_pipeline_memory_stays_thin(mode, tmp_path):
    """n = 8192, m = 32: one dense n x n complex matrix alone would be 1 GiB."""
    n, m = 8192, 32
    history = periodic_history(n, m, seed=3)
    path = tmp_path / "m.bin"
    tracemalloc.start()
    try:
        model, report = fit(history, FitOptions(mode=mode))
        write_model(model, path)
        loaded = read_model(path)
        mimetic = verify_mimetic(loaded, history, eps=1e-10)
        predictions = [predict(loaded, t) for t in range(m)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.target_met and mimetic.passed
    assert len(predictions) == m
    assert peak < 128 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MiB"
