"""sclrom benchmark: the CLI pipeline simulate -> fit -> verify -> predict.

Run from the root of a source checkout (sclrom need not be installed;
``src`` is put on the path):

    python3 perfbench/run.py --workload tall-periodic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload tall-periodic --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. ``--workload
all`` runs every workload in its own process, one after the other.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("tall-periodic", "long-horizon", "wave-csv", "small-sweep")
BLAS_THREADS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _set_environment() -> int:
    """Pin the BLAS thread count (at most nproc) and put ``src`` on the path.

    Must run before numpy is imported, in this process and in children.
    """
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    sys.path.insert(0, str(SRC))
    return threads


def _run_all(args) -> int:
    """Run each workload in a fresh process and relay its report."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "sclrom" / "cli.py").is_file():
        print(f"perfbench: no sclrom sources under {SRC}", file=sys.stderr)
        return 2
    threads = _set_environment()
    if args.workload == "all":
        return _run_all(args)
    import measure  # imports numpy, so only after the BLAS variables are set

    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace), threads)


if __name__ == "__main__":
    sys.exit(main())
