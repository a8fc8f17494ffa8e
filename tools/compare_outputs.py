"""Compare the benchmark commands' outputs between two source checkouts.

    python tools/compare_outputs.py PARENT CHANGE [--threads N]

Runs every command of every workload in ``perfbench/workloads.py`` (one
pass at each of seeds 1, 2 and 7; seed 7 gives the worst-conditioned wave
frame seen) through ``sclrom.cli.run_cli``, once for
each checkout, each in a child process that imports ``sclrom`` from that
checkout's ``src`` with the BLAS thread count pinned to N (default 2, as
the benchmark pins it). Both sides take their argv from CHANGE's workloads
file and run in the same working directory, so that the paths printed on
stdout agree. For each command it reports whether the exit code, stdout,
stderr and output file match. Each child also reads every file it
keeps with its own checkout's ``sclrom`` and saves what it read beside
the file: the history of a snapshot or prediction file; for a model
file, the frames V and Vhat, the coefficients and the states it replays
over the steps of the history it was fitted on. So a file format that
differs between the checkouts is still compared through what each side
reads from its own files, and two models of different periods through
the states they replay. For a differing file that both sides could read,
the report adds the largest difference of the arrays of the same shape
on both sides relative to the largest entry of PARENT's, names the
arrays whose shapes differ, and for a model file adds that of its
replayed states alone. Trailing singular directions are set by rounding
alone, so two valid models of the same history may differ far more in
their arrays than in the states they replay.

Exits 0 when every command matches, 1 otherwise. Nothing under
``perfbench/`` is changed; all files go to a temporary directory that is
removed at the end.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (1, 2, 7)


def _load_workloads(checkout: Path):
    path = checkout / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_compared_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _save_read(path: str, history: str | None) -> None:
    """Save beside ``path`` (as ``path + ".npz"``) the arrays that this
    checkout's sclrom reads from it: ``data`` for a snapshot file; V,
    Vhat, the coefficients and ``replayed``, the states of the steps of
    ``history``, the snapshot file it was fitted on, for a model file.
    Nothing is saved for a file it cannot read."""
    import numpy as np
    from sclrom.errors import SclRomError
    from sclrom.model import replay
    from sclrom.persistence import read_model, read_snapshots

    try:
        if path.endswith("model.bin"):
            model = read_model(path)
            arrays = {"V": model.ohf.V, "Vhat": model.ohf.Vhat, "coeffs": model.coeffs,
                      "replayed": replay(model, 0, read_snapshots(history).m)}
        else:
            arrays = {"data": read_snapshots(path).data}
    except SclRomError:
        return
    np.savez(path + ".npz", **arrays)


def _child(args) -> int:
    """Run every command for one checkout; print one JSON list of results."""
    from sclrom.cli import run_cli

    workdir, keep = Path(args.workdir), Path(args.keep)
    results = []
    for name, workload in _load_workloads(Path(args.workloads)).items():
        for seed in SEEDS:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            for index, cmd in enumerate(workload.commands(str(workdir), seed, 0)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        rc = run_cli(cmd.argv)
                    except Exception:  # a crash is a result to compare
                        traceback.print_exc()
                        rc = -1
                kept = None
                if cmd.writes is not None and os.path.exists(cmd.writes):
                    kept = keep / f"{name}-{seed}-{index}-{Path(cmd.writes).name}"
                    shutil.copyfile(cmd.writes, kept)
                    _save_read(str(kept), cmd.reads[0] if cmd.reads else None)
                results.append({
                    "label": f"{name} seed {seed} {cmd.name}",
                    "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                    "file": None if kept is None else str(kept),
                })
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(results))
    return 0


def _run_side(checkout: Path, workloads: Path, base: Path, label: str, args) -> list[dict]:
    keep = base / label
    keep.mkdir()
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(args.threads)
    env["PYTHONPATH"] = str(checkout / "src")
    argv = [sys.executable, __file__, "--child", "--workloads", str(workloads),
            "--workdir", str(base / "work"), "--keep", str(keep)]
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, timeout=1800)
    if proc.returncode != 0:
        raise SystemExit(f"compare_outputs: the run of {checkout} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: str):
    """The arrays that one side saved for its kept file ``path``, by name;
    None when that side could not read the file."""
    import numpy as np

    if not os.path.exists(path + ".npz"):
        return None
    with np.load(path + ".npz") as saved:
        return {name: saved[name] for name in saved.files}


def _max_relative(pairs) -> float:
    import numpy as np

    worst = 0.0
    for a, b in pairs:
        scale = float(np.max(np.abs(a)))
        gap = float(np.max(np.abs(a - b)))
        worst = max(worst, gap / scale if scale > 0.0 else gap)
    return worst


def _relative_difference(a_path: str, b_path: str) -> str:
    a, b = _read(a_path), _read(b_path)
    if a is None or b is None or a.keys() != b.keys():
        return "unreadable"
    same = [name for name in a if a[name].shape == b[name].shape]
    text = f"max relative difference {_max_relative((a[name], b[name]) for name in same):.3e}"
    if len(same) < len(a):
        text += f" ({', '.join(name for name in a if name not in same)} shapes differ)"
    if "replayed" in same:
        text += f", replayed {_max_relative([(a['replayed'], b['replayed'])]):.3e}"
    return text


def _same_file(a: str | None, b: str | None) -> bool:
    if a is None or b is None:
        return a is b
    return Path(a).read_bytes() == Path(b).read_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workloads", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--keep", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE checkouts are required")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    base = Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    try:
        sides = [_run_side(checkout, change, base, label, args)
                 for checkout, label in ((parent, "parent"), (change, "change"))]
        differing = 0
        for a, b in zip(*sides):
            checks = {key: a[key] == b[key] for key in ("rc", "stdout", "stderr")}
            checks["file"] = _same_file(a["file"], b["file"])
            line = "  ".join(f"{key} {'same' if ok else 'DIFFERS'}" for key, ok in checks.items())
            if not checks["file"] and a["file"] and b["file"]:
                line += f" ({_relative_difference(a['file'], b['file'])})"
            differing += not all(checks.values())
            print(f"{a['label']:<32} {line}")
        print(f"{len(sides[0])} commands at {args.threads} BLAS thread(s): "
              f"{len(sides[0]) - differing} identical, {differing} differing")
        return 0 if differing == 0 and len(sides[0]) == len(sides[1]) else 1
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
