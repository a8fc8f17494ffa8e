"""Time fit, save and load of one large model beside the raw SVD.

    python tools/large_n.py [--n 65536] [--m 64] [--runs 3]

Builds ``periodic_history(n, m, seed=5)`` once, and its real part as a
second, real (float64) history. For each history, ``--runs`` times in one
process, it times a monomial ``fit``, ``write_model`` of the fitted model
to a temporary file, ``read_model`` of that file and the raw
``np.linalg.svd`` of the same history (thin, with vectors), and prints
the median and range of each and of fit plus save plus load. One untimed
run of the same calls comes first, so that no timed run pays the first
BLAS call's set-up. Separate runs, after the timed ones, give the
``tracemalloc`` peaks of one ``write_model`` and one ``read_model``, so
that tracing does not slow the timed calls. The BLAS thread count is
whatever the environment sets.

``sclrom`` is imported from the ``src`` directory beside this file's
``tools`` directory, so a copy of this file placed in another checkout
measures that checkout. Only the standard library and numpy are used.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from sclrom import (  # noqa: E402
    FitOptions,
    SnapshotHistory,
    fit,
    periodic_history,
    read_model,
    write_model,
)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _summary(name: str, values: list[float]) -> str:
    return (f"{name:<22} median {statistics.median(values):.3f} s"
            f"  (range {min(values):.3f}-{max(values):.3f}, {len(values)} runs)")


def _measure(history: SnapshotHistory, label: str, runs: int) -> None:
    """Time and trace fit, save and load of ``history``; print the summary."""
    opts = FitOptions(mode="monomial")
    times: dict[str, list[float]] = {
        name: [] for name in ("fit", "write_model", "read_model", "fit+write+read",
                              "np.linalg.svd")}
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "model.bin"
        for run in range(runs + 1):
            fit_s, (model, _) = _timed(lambda: fit(history, opts))
            write_s, _ = _timed(lambda: write_model(model, path))
            del model
            read_s, _ = _timed(lambda: read_model(path))
            svd_s, _ = _timed(lambda: np.linalg.svd(history.data, full_matrices=False))
            if run == 0:  # the warm-up
                continue
            for name, value in (("fit", fit_s), ("write_model", write_s),
                                ("read_model", read_s), ("fit+write+read", fit_s + write_s + read_s),
                                ("np.linalg.svd", svd_s)):
                times[name].append(value)
        size = path.stat().st_size
        model = read_model(path)
        write_peak = _peak_mib(lambda: write_model(model, path))
        del model
        read_peak = _peak_mib(lambda: read_model(path))

    print(f"{label} ({history.data.dtype}), monomial fit, model file {size / 2**20:.1f} MiB")
    for name, values in times.items():
        print(_summary(name, values))
    print(f"{'write_model peak':<22} {write_peak:.2f} MiB (tracemalloc, one call)")
    print(f"{'read_model peak':<22} {read_peak:.2f} MiB (tracemalloc, one call)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=65536)
    parser.add_argument("--m", type=int, default=64)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    history = periodic_history(args.n, args.m, seed=5)
    label = f"periodic_history(n={args.n}, m={args.m}, seed=5)"
    _measure(history, label, args.runs)
    _measure(SnapshotHistory(history.data.real), f"the real part of {label}", args.runs)
    return 0

if __name__ == "__main__":
    sys.exit(main())
