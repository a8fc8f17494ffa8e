"""Batch command-line front end: simulate, fit, verify, predict, export-plot.

Reports are deterministic for fixed inputs and seeds on a fixed numpy
build, BLAS library and BLAS thread count: two runs with the same argv
and files then produce byte-identical stdout and output files. Exit
codes: 0 success (and verification passed), 1 verification failed, 2
usage or I/O error, an allocation that numpy refuses (one stderr line
naming its size), or a standard output closed by its reader (one stderr
line).
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .datagen import (
    GaussianBump,
    SineMode,
    WaveConfig,
    _almost_periodic_columns,
    _periodic_columns,
    simulate_wave_1d,
)
from .errors import ConfigInvalid, DimensionMismatch, SclRomError
from .model import (
    FitOptions,
    SclRomModel,
    _check_eps,
    _gap_norms,
    _joined,
    _replayed_columns,
    fit,
    replay,
    verify_mimetic,
)
from .ohf import SnapshotHistory
from .persistence import (
    _snapshot_columns,
    _write_columns,
    _write_output,
    format_complex_entry,
    read_model,
    read_snapshots,
    write_model,
    write_snapshots,
)

_BANNER = "-" * 61


def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["binary", "csv"], default="binary")
    log = argparse.ArgumentParser(add_help=False)
    log.add_argument("--log-style", choices=["plain", "paper"], default="plain")

    parser = argparse.ArgumentParser(prog="sclrom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a snapshot file")
    sim_sub = sim.add_subparsers(dest="generator", required=True)

    periodic = sim_sub.add_parser("periodic", parents=[fmt, log],
                                  help="exactly periodic seeded trajectory")
    periodic.add_argument("--n", type=int, required=True)
    periodic.add_argument("--T", type=int, required=True, dest="period")
    periodic.add_argument("--seed", type=int, required=True)
    periodic.add_argument("--horizon", type=int, default=None)
    periodic.add_argument("--out", required=True)

    almost = sim_sub.add_parser("almost-periodic", parents=[fmt, log],
                                help="periodic trajectory plus noise")
    almost.add_argument("--n", type=int, required=True)
    almost.add_argument("--T", type=int, required=True, dest="period")
    almost.add_argument("--eps-pert", type=float, required=True)
    almost.add_argument("--horizon", type=int, required=True)
    almost.add_argument("--seed", type=int, required=True)
    almost.add_argument("--out", required=True)
    almost.add_argument("--clean-out", default=None)

    wave = sim_sub.add_parser("wave", parents=[fmt, log], help="1-D fixed-end wave simulation")
    wave.add_argument("--nx", type=int, default=100)
    wave.add_argument("--nt", type=int, default=40)
    wave.add_argument("--L", type=float, default=1.0)
    wave.add_argument("--c", type=float, default=1.0)
    wave.add_argument("--dt", type=float, default=None,
                      help="time step; defaults to one fundamental period over nt")
    wave.add_argument("--profile", choices=["sine", "gaussian"], default="sine")
    wave.add_argument("--mode-k", type=int, default=1)
    wave.add_argument("--center", type=float, default=0.5)
    wave.add_argument("--width", type=float, default=0.1)
    wave.add_argument("--out", required=True)

    fit_p = sub.add_parser("fit", parents=[log], help="fit a reduced model to a snapshot file")
    fit_p.add_argument("snapshots")
    fit_p.add_argument("--mode", choices=["monomial", "lsq"], default="monomial")
    fit_p.add_argument("--eps", type=float, default=1e-10)
    fit_p.add_argument("--rank-tol", type=float, default=1e-12)
    fit_p.add_argument("--truncate-rank", action="store_true")
    fit_p.add_argument("--period", type=int, default=None)
    fit_p.add_argument("--out", required=True)

    verify = sub.add_parser("verify", parents=[log], help="replay a model against snapshots")
    verify.add_argument("model")
    verify.add_argument("snapshots")
    verify.add_argument("--eps", type=float, default=1e-10)

    predict_p = sub.add_parser("predict", parents=[fmt],
                               help="write model predictions as snapshots")
    predict_p.add_argument("model")
    predict_p.add_argument("--t0", type=int, default=0)
    predict_p.add_argument("--t1", type=int, required=True)
    predict_p.add_argument("--out", required=True)

    export = sub.add_parser("export-plot", help="per-step residuals and components as CSV")
    export.add_argument("snapshots")
    export.add_argument("--model", default=None)
    export.add_argument("--components", default="0,1,2,3",
                        help="comma-separated state indices to export")
    export.add_argument("--out", required=True)

    return parser


def _banner_block(title: str) -> str:
    return f"{_BANNER}\n{title}\n{_BANNER}"


def _write_history(path, n: int, steps: int, dtype, blocks, format: str) -> None:
    """Write the column blocks of ``dtype`` that the callable ``blocks``
    yields: a binary file block by block, a CSV file (one line per state
    row) whole."""
    if format == "binary":
        _write_columns(path, n, steps, dtype, blocks())
    else:
        write_snapshots(SnapshotHistory(_joined(n, steps, dtype, blocks)), path, format="csv")


def _wave_history(args) -> SnapshotHistory:
    if args.dt is None and args.c * args.nt == 0:
        raise ConfigInvalid("the default --dt, 2L/(c nt), needs nonzero --c and --nt")
    dt = args.dt if args.dt is not None else 2.0 * args.L / (args.c * args.nt)
    if args.profile == "sine":
        w0 = SineMode(args.mode_k)
    else:
        w0 = GaussianBump(args.center, args.width)
    cfg = WaveConfig(L=args.L, c=args.c, nx=args.nx, nt=args.nt, dt=dt, w0=w0)
    if not np.any(w0.evaluate(cfg.grid(), cfg.L)):
        flags = (
            f"--mode-k {args.mode_k!r} makes the sine" if args.profile == "sine"
            else f"--center {args.center!r} and --width {args.width!r} make the Gaussian"
        )
        raise ConfigInvalid(f"{flags} profile zero at every grid point")
    if args.log_style == "paper":
        print(_banner_block("                     Running simulation:"))
    return simulate_wave_1d(cfg)


def _cmd_simulate(args) -> int:
    if args.generator == "wave":
        history = _wave_history(args)
        n, steps = history.n, history.m
        write_snapshots(history, args.out, format=args.format)
    else:
        n = args.n
        if args.generator == "periodic":
            steps, blocks = _periodic_columns(n, args.period, args.seed, args.horizon)
        else:
            clean, blocks = _almost_periodic_columns(
                n, args.period, args.eps_pert, args.horizon, args.seed
            )
            steps = args.horizon
            if args.clean_out:
                _write_history(args.clean_out, n, steps, np.complex128, clean, args.format)
        _write_history(args.out, n, steps, np.complex128, blocks, args.format)
    print(f"simulate: wrote {args.out} (n = {n}, m = {steps})")
    return 0


def _cmd_fit(args) -> int:
    opts = FitOptions(
        mode="least_squares" if args.mode == "lsq" else "monomial",
        epsilon=args.eps,
        rank_tol=args.rank_tol,
        truncate_rank=args.truncate_rank,
        period=args.period,
    )
    with _snapshot_columns(args.snapshots) as columns:
        if args.log_style == "paper":
            print(_banner_block(" Computing circular matrix representations in C[U[v1|vm]]:"))
        model, report = fit(columns, opts)
    write_model(model, args.out)
    met = "yes" if report.target_met else "no"
    print(
        f"fit: wrote {args.out} (epsilon_achieved = {report.epsilon_achieved:.4e}, "
        f"target_met = {met})"
    )
    return 0


def _cmd_verify(args) -> int:
    _check_eps(args.eps)
    model = read_model(args.model)
    with _snapshot_columns(args.snapshots) as columns:
        report = verify_mimetic(model, columns, args.eps)
    comparator = "<=" if report.passed else ">"
    lines = []
    if args.log_style == "paper":
        lines.append(_BANNER)
        lines.append(" Verifying circular mimetic constraints for C[U[v1|vm]]:")
        lines.append(_BANNER)
        lines.append("Verification passed..." if report.passed else "Verification failed...")
    lines.append(
        f"max{{||K U^k T x0 - xk|| | 0<=k<{len(report.per_step)}}} = {report.max_residual:.4e} "
        f"{comparator} eps"
    )
    if args.log_style == "paper":
        lines.append(_BANNER)
    lines.append(f"For m = {model.m}")
    lines.append(f"For p = {model.period}")
    lines.append(f"For n = {model.n}")
    lines.append(f"For eps = {args.eps:.4e}")
    if args.log_style == "paper":
        lines.append(_BANNER)
    print("\n".join(lines))
    return 0 if report.passed else 1


def _cmd_predict(args) -> int:
    if not 0 <= args.t0 < args.t1:
        raise ConfigInvalid(f"need 0 <= --t0 < --t1, got --t0 {args.t0} and --t1 {args.t1}")
    model = read_model(args.model)
    steps = args.t1 - args.t0
    _write_history(args.out, model.n, steps, model._dtype,
                   lambda: _replayed_columns(model, args.t0, args.t1), args.format)
    print(f"predict: wrote {args.out} (n = {model.n}, steps = {steps})")
    return 0


def _cmd_export_plot(args) -> int:
    try:
        components = [int(p) for p in args.components.split(",") if p.strip() != ""]
        if min(components, default=0) < 0:
            raise ValueError
    except ValueError:
        raise ConfigInvalid(f"bad --components {args.components!r}") from None
    history = read_snapshots(args.snapshots)
    model: SclRomModel | None = read_model(args.model) if args.model else None
    if model is not None and model.n != history.n:
        raise DimensionMismatch(
            f"model has state dimension {model.n} but history has {history.n}"
        )
    if max(components, default=0) >= history.n:
        raise ConfigInvalid(f"component {max(components)} out of range for n={history.n}")
    header = ["step", "residual"] + [f"state{idx}" for idx in components]
    if model is not None:
        header += [f"model{idx}" for idx in components]
    rows = [",".join(header)]
    if model is not None:
        # one replay: the plotted components are copied out before the
        # residuals overwrite the states with the gaps
        states = replay(model, 0, history.m)
        plotted = states[components]
        residuals = _gap_norms(states, history.data)
    for k in range(history.m):
        fields = [str(k)]
        xk = history.data[:, k]
        if model is not None:
            fields.append(format_complex_entry(complex(residuals[k])))
        else:
            fields.append("")
        fields += [format_complex_entry(xk[idx]) for idx in components]
        if model is not None:
            fields += [format_complex_entry(value) for value in plotted[:, k]]
        rows.append(",".join(fields))
    _write_output(args.out, (f"{row}\n".encode() for row in rows))
    print(f"export-plot: wrote {args.out} ({history.m} steps)")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "verify": _cmd_verify,
    "predict": _cmd_predict,
    "export-plot": _cmd_export_plot,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except SclRomError as exc:
        print(f"sclrom {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the refused size
        print(f"sclrom {args.command}: out of memory: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone. Whatever is still buffered for it
        # goes to os.devnull, so that the flush at interpreter exit fails
        # no second time (the Python signal docs, "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"sclrom {args.command}: standard output is closed", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
