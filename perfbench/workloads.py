"""The four benchmark workloads: CLI argv for each pass, made from the seed.

Each workload is one pass of ``simulate -> fit (save) -> verify (load) ->
predict (load)``. A pass is a list of :class:`Command`; every command
names the file it writes, so the runner can fingerprint outputs and
count bytes moved.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Command:
    name: str                 # simulate | fit | verify | predict
    argv: list[str]
    reads: tuple[str, ...]    # files the command reads
    writes: str | None        # file the command writes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    distinct_inputs: bool                 # True when each pass has its own seed
    build: object                         # (workdir, pass_seed) -> list[Command]

    def commands(self, workdir: str, seed: int, pass_index: int) -> list[Command]:
        pass_seed = seed + pass_index if self.distinct_inputs else seed
        return self.build(workdir, pass_seed)


def _pipeline(workdir, simulate_argv, fit_argv, verify_eps, t1, ext):
    snap = os.path.join(workdir, f"snap.{ext}")
    model = os.path.join(workdir, "model.bin")
    pred = os.path.join(workdir, f"pred.{ext}")
    pred_fmt = ["--format", "csv"] if ext == "csv" else []
    return [
        Command("simulate", ["simulate", *simulate_argv, "--out", snap], (), snap),
        Command("fit", ["fit", snap, *fit_argv, "--out", model], (snap,), model),
        Command("verify", ["verify", model, snap, "--eps", repr(verify_eps)], (model, snap), None),
        Command("predict", ["predict", model, "--t1", str(t1), "--out", pred, *pred_fmt],
                (model,), pred),
    ]


def _tall_periodic(workdir, seed):
    return _pipeline(
        workdir,
        ["periodic", "--n", "2048", "--T", "32", "--seed", str(seed)],
        ["--mode", "monomial", "--eps", "1e-10"],
        1e-10, 32, "bin",
    )


# the paper's almost-periodic bound: twice the perturbation, plus rounding
LONG_HORIZON_EPS = 2e-6 + 1e-10


def _long_horizon(workdir, seed):
    return _pipeline(
        workdir,
        ["almost-periodic", "--n", "512", "--T", "16", "--eps-pert", "1e-6",
         "--horizon", "1024", "--seed", str(seed)],
        ["--mode", "lsq", "--period", "16", "--eps", repr(LONG_HORIZON_EPS)],
        LONG_HORIZON_EPS, 1024, "bin",
    )


WAVE_NX, WAVE_NT, WAVE_WIDTH = 512, 192, 0.05


def wave_center(seed: int) -> float:
    """Gaussian bump centre drawn from the seed in [0.25, 0.75]."""
    return 0.25 + 0.5 * float(np.random.default_rng(seed).random())


@functools.cache
def wave_tolerance(seed: int) -> float:
    """1e-8 times the largest snapshot column norm (acceptance criterion 6).

    Runs the simulator with the configuration the CLI builds from the
    workload's argv, including its default time step 2 L / (c nt).
    """
    from sclrom.datagen import GaussianBump, WaveConfig, simulate_wave_1d

    cfg = WaveConfig(L=1.0, c=1.0, nx=WAVE_NX, nt=WAVE_NT, dt=2.0 * 1.0 / (1.0 * WAVE_NT),
                     w0=GaussianBump(wave_center(seed), WAVE_WIDTH))
    data = simulate_wave_1d(cfg).data
    return 1e-8 * float(np.max(np.linalg.norm(data, axis=0)))


def _wave_csv(workdir, seed):
    return _pipeline(
        workdir,
        ["wave", "--nx", str(WAVE_NX), "--nt", str(WAVE_NT), "--profile", "gaussian",
         "--width", repr(WAVE_WIDTH), "--center", repr(wave_center(seed)), "--format", "csv"],
        ["--mode", "lsq", "--truncate-rank"],
        wave_tolerance(seed), WAVE_NT + 1, "csv",
    )


def _small_sweep(workdir, seed):
    return _pipeline(
        workdir,
        ["periodic", "--n", "256", "--T", "8", "--seed", str(seed)],
        ["--mode", "monomial"],
        1e-10, 8, "bin",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tall-periodic",
                 "n >> m over one period (n=2048, m=32): the dense n x n state and its "
                 "load checks dominate; n=8192 is skipped, its dense state needs GiBs",
                 False, _tall_periodic),
        Workload("long-horizon",
                 "small frame, 1024-step horizon, least squares: per-step replay "
                 "dominates, load checks bypassed",
                 False, _long_horizon),
        Workload("wave-csv",
                 "wave simulator data with rank truncation, CSV files: text parse and "
                 "format beside replay",
                 False, _wave_csv),
        Workload("small-sweep",
                 "n=256, m=8, a new seed every pass: fixed per-command CLI cost "
                 "dominates; enough passes for a tail",
                 True, _small_sweep),
    )
}


def tiny_pass(workdir: str, seed: int) -> list[Command]:
    """The smallest useful pass (n=16, m=4), used by the set-up probe."""
    return _pipeline(
        workdir, ["periodic", "--n", "16", "--T", "4", "--seed", str(seed)],
        ["--mode", "monomial"], 1e-10, 4, "bin",
    )
