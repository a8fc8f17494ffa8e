"""One layout for every model array: frames from either layout, the same bits.

Fitting and loading hold V, W, B and the coefficients column-major, the
layout of histories and of binary files, so a model file is written and
read with no layout copy. A GEMM's bits may depend on the layout of its
operands, as they depend on its width (``tests/test_blocks.py``); here
every consumer of a frame gets the same bits from the column-major arrays
as from C-ordered copies of them, at the shapes of the benchmark
workloads: the gate's Gram and residuals, B, the least-squares
coefficient product, the block states and training residuals, the
derived Vhat, :func:`sclrom.verify_ohf` and
:func:`sclrom.check_commuting_diagram`.
"""
import numpy as np
import pytest

from sclrom import (
    FitOptions,
    GaussianBump,
    SnapshotHistory,
    WaveConfig,
    almost_periodic_history,
    check_commuting_diagram,
    fit,
    periodic_history,
    replay,
    simulate_wave_1d,
    verify_ohf,
)
from sclrom import ohf as ohf_module


def _wave(seed):
    """The wave workload's history (nx=512, nt=192, a Gaussian of width 0.05
    centred from the seed); seed 7 gives its worst-conditioned frame."""
    center = 0.25 + 0.5 * float(np.random.default_rng(seed).random())
    return simulate_wave_1d(WaveConfig(L=1.0, c=1.0, nx=512, nt=192, dt=2.0 / 192,
                                       w0=GaussianBump(center, 0.05)))


WORKLOADS = {
    "tall-periodic": (lambda: periodic_history(2048, 32, seed=1), FitOptions()),
    "long-horizon": (lambda: almost_periodic_history(512, 16, 1e-6, 1024, seed=1).perturbed,
                     FitOptions(mode="least_squares", period=16)),
    "wave-truncated": (lambda: _wave(7),
                       FitOptions(mode="least_squares", truncate_rank=True)),
    "small-sweep": (lambda: periodic_history(256, 8, seed=1), FitOptions()),
}


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _report_bits(report):
    return _bits([getattr(report, name) for name in
                  ("t_residual", "shift_residual", "k_residual", "unitary_residual")])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_frame_consumer_keeps_its_bits_in_either_layout(workload, monkeypatch):
    make, opts = WORKLOADS[workload]
    history = make()
    model, report = fit(history, opts)
    for array in (model.ohf.V, model.ohf.W, model.ohf.B, model.coeffs):
        assert array.flags.f_contiguous and not array.flags.c_contiguous

    gate = ohf_module.checked_factorization

    def c_ordered(V, s, W):
        return gate(np.ascontiguousarray(V), s, np.ascontiguousarray(W))

    monkeypatch.setattr(ohf_module, "checked_factorization", c_ordered)
    other, other_report = fit(history, opts)
    monkeypatch.undo()
    assert other.ohf.V.flags.c_contiguous and other.ohf.W.flags.c_contiguous
    assert other.ohf.B.flags.c_contiguous

    assert _bits(list(other.ohf.residuals.values())) == _bits(list(model.ohf.residuals.values()))
    assert other.ohf.B.tobytes() == model.ohf.B.tobytes()
    assert other.coeffs.tobytes() == model.coeffs.tobytes()
    assert _bits(other_report.per_step) == _bits(report.per_step)
    other.coeffs = np.ascontiguousarray(other.coeffs)
    assert replay(other, 0, model.period).tobytes() == replay(model, 0, model.period).tobytes()
    assert other.ohf.Vhat.tobytes() == model.ohf.Vhat.tobytes()
    frame = history.data[:, : opts.period or history.m]
    if model.m < frame.shape[1]:  # a truncated frame is checked against its rank-r core
        frame = model.ohf.V * model.ohf.singular_values
    frame = SnapshotHistory(frame)
    assert _report_bits(verify_ohf(other.ohf, frame)) == _report_bits(verify_ohf(model.ohf, frame))
    degrees = [0, 1, 2, model.m]
    assert _bits([r for _, r in check_commuting_diagram(other.ohf, degrees).per_degree]) == \
        _bits([r for _, r in check_commuting_diagram(model.ohf, degrees).per_degree])
