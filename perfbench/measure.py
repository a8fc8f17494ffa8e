"""Timed passes, output checks and metrics for one workload in one process.

A pass runs the workload's four CLI commands in process through
``sclrom.cli.run_cli``. The untraced run times passes for ``seconds`` and
reports end-to-end metrics; the traced run alternates untraced and traced
passes on the same inputs and reports per-layer metrics. Checks run
outside the timed region and never raise: a failed check marks the
command it concerns as failed.
"""
from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from sclrom.cli import run_cli
from sclrom.model import predict
from sclrom.persistence import read_model, read_snapshots

from run import BLAS_THREAD_VARS
from tracer import LAYER_NAMES, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
COMMANDS = ("simulate", "fit", "verify", "predict")
MIN_PASSES = 3          # untraced run: fewest timed passes, whatever --seconds says
SETUP_STARTS = 11       # fresh processes timed for setup_s (after one untimed start)
PROBE_TIMEOUT_S = 60
MB = 2**20


@dataclass
class CommandResult:
    name: str
    rc: int
    stdout: str
    stderr: str
    seconds: float
    digest: str | None = None     # sha256 of the file the command wrote
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems

    def fingerprint(self):
        return self.rc, self.stdout, self.digest


@dataclass
class PassResult:
    seed_key: int
    commands: list[CommandResult]
    wall: float
    traced_id: int | None = None

    def seconds(self, *names: str) -> float:
        return sum(c.seconds for c in self.commands if c.name in names)


def _digest(path: str | None) -> str | None:
    if path is None or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _plain(name, argv):
    return run_cli(argv)


def _call(invoke, cmd) -> int:
    try:
        return invoke(cmd.name, cmd.argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        return -1


def run_pass(commands, seed_key: int, invoke=_plain, traced_id=None) -> PassResult:
    """Run one pass; only the commands themselves are inside the timer."""
    results = []
    start = perf_counter()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            rc = _call(invoke, cmd)
        results.append(CommandResult(cmd.name, rc, out.getvalue(), err.getvalue(),
                                     perf_counter() - t0))
    wall = perf_counter() - start
    for cmd, res in zip(commands, results):
        res.digest = _digest(cmd.writes)
        if res.rc != 0:
            res.problems.append(f"exit code {res.rc}: {res.stderr.strip()[-300:]}")
    return PassResult(seed_key, results, wall, traced_id)


class Run:
    """State of one benchmark process: passes made and checks applied."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.passes: list[PassResult] = []       # every pass, warm-up included
        self._reference: dict[int, PassResult] = {}
        self._commands: tuple[int, list] | None = None
        self.last_commands: list = []

    def commands(self, pass_index: int):
        """The pass's commands; built once per distinct input."""
        key = self.seed_key(pass_index)
        if self._commands is None or self._commands[0] != key:
            built = self.workload.commands(str(self.workdir), self.seed, pass_index)
            self._commands = (key, built)
        return self._commands[1]

    def seed_key(self, pass_index: int) -> int:
        return pass_index if self.workload.distinct_inputs else 0

    def do_pass(self, pass_index: int, invoke=_plain, traced_id=None) -> PassResult:
        gc.collect()
        self.last_commands = self.commands(pass_index)
        result = run_pass(self.last_commands, self.seed_key(pass_index), invoke, traced_id)
        self._compare_with_reference(result)
        self.passes.append(result)
        return result

    def _compare_with_reference(self, result: PassResult) -> None:
        """Same inputs must give byte-identical stdout and output files."""
        ref = self._reference.setdefault(result.seed_key, result)
        if ref is result:
            return
        for mine, theirs in zip(result.commands, ref.commands):
            if mine.fingerprint() != theirs.fingerprint():
                mine.problems.append("stdout or output file differs from an earlier "
                                     "pass on the same inputs")

    def check_predictions(self) -> object | None:
        """Predictions read back must equal predict(read_model(m), t) bitwise.

        Checks steps 0, 1, the middle and the last of the final pass and
        returns the loaded model (None if it cannot be loaded).
        """
        fit_cmd, predict_cmd = self.last_commands[1], self.last_commands[3]
        last = self.passes[-1].commands[3]
        try:
            model = read_model(fit_cmd.writes)
            written = read_snapshots(predict_cmd.writes).data
            steps = written.shape[1]
            for t in sorted({0, 1 % steps, steps // 2, steps - 1}):
                if written[:, t].tobytes() != predict(model, t).tobytes():
                    last.problems.append(f"prediction at step {t} differs from the file")
            return model
        except Exception as exc:  # reported as a failed predict command
            last.problems.append(f"prediction check raised {exc!r}")
            return None

    def counts(self) -> tuple[int, int]:
        results = [c for p in self.passes for c in p.commands]
        return len(results), sum(not c.ok for c in results)

    def problems(self) -> list[str]:
        return [f"{c.name}: {msg}" for p in self.passes for c in p.commands for msg in c.problems]

    def io_bytes(self) -> tuple[int, int]:
        """Bytes read and written by one pass, computed from file sizes."""
        cmds = self.last_commands
        read = sum(os.path.getsize(f) for c in cmds for f in c.reads)
        written = sum(os.path.getsize(c.writes) for c in cmds if c.writes)
        return read, written


def timed_loop(seconds: float, step, min_steps: int) -> None:
    """Call ``step()`` until the next call would end after ``seconds``."""
    start = perf_counter()
    done = 0
    while True:
        spent = step()
        done += 1
        if done >= min_steps and perf_counter() - start + spent > seconds:
            return


class SetupProbe:
    """Seconds a fresh process spends importing and on one tiny CLI pass.

    Starts are spread over the timed run rather than made back to back,
    so that slow and fast spells of a shared machine both get sampled.
    """

    def __init__(self, workdir: Path):
        self.dir = workdir / "probe"
        self.dir.mkdir()
        self.times: list[float] = []
        self._start()  # untimed: the first start also compiles bytecode caches

    def _start(self) -> float:
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(self.dir)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    def catch_up(self, share: float) -> None:
        """Make starts until ``share`` of all SETUP_STARTS are done."""
        while len(self.times) < SETUP_STARTS * min(share, 1.0):
            self.times.append(self._start())


def tail_line(walls: list[float]) -> str | None:
    """pipeline_s_tail: the highest order statistic of the pass times with
    at least ten passes above it, or None with fewer than eleven passes.

    Printed in the table only, not in the JSON result: with fewer than
    eleven passes there is no such statistic, and the maximum of a few
    long passes would only track machine noise.
    """
    ordered = sorted(walls)
    k = len(ordered) - 11
    if k < 0:
        return None
    note = f"p{100.0 * (k + 1) / len(ordered):.1f} of {len(ordered)} passes"
    return f"{'pipeline_s_tail':<44} {ordered[k]:>14.6g} {'s':<6} {note}"


def environment(seed: int, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def state_bytes(model) -> int:
    """nbytes of every array held by a loaded model and its factorization."""
    return sum(v.nbytes for obj in (model, model.ohf) for v in vars(obj).values()
               if isinstance(v, np.ndarray))


def _metric(metrics, lines, name, value, unit, note=""):
    metrics[name] = {"value": value, "unit": unit}
    lines.append(f"{name:<44} {value:>14.6g} {unit:<6} {note}")


def untraced(run: Run, seconds: int) -> tuple[dict, list[str]]:
    run.do_pass(0)  # warm-up: cold LAPACK calls, page faults, first allocations
    probe = SetupProbe(run.workdir)
    first = len(run.passes)
    start = perf_counter()

    def step():
        wall = run.do_pass(len(run.passes) - first).wall
        probe.catch_up((perf_counter() - start) / seconds)
        return wall

    timed_loop(seconds, step, MIN_PASSES)
    probe.catch_up(1.0)
    setup = probe.times
    timed = run.passes[first:]
    run.check_predictions()

    walls = [p.wall for p in timed]
    n = f"median of {len(timed)} passes"
    metrics, lines = {}, []
    _metric(metrics, lines, "setup_s", statistics.median(setup), "s",
            f"median of {len(setup)} fresh starts")
    _metric(metrics, lines, "pipeline_s", statistics.median(walls), "s", n)
    tail = tail_line(walls)
    if tail:
        lines.append(tail)
    _metric(metrics, lines, "solve_s",
            statistics.median(p.seconds("fit", "verify") for p in timed), "s", n)
    _metric(metrics, lines, "predict_s", statistics.median(p.seconds("predict") for p in timed),
            "s", n)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    _metric(metrics, lines, "peak_rss_mb", rss, "MB", "ru_maxrss of this process")
    return metrics, lines


def traced(run: Run, seconds: int, tracer: Tracer) -> tuple[dict, list[str]]:
    cli_spans = {name: tracer.wrap(f"cli.{name}", run_cli) for name in COMMANDS}

    def traced_invoke(name, argv):
        return cli_spans[name](argv)

    def traced_pass(pass_index):
        run.commands(pass_index)  # build argv before the wrappers go in
        with tracer.installed(pass_index):
            return run.do_pass(pass_index, traced_invoke, traced_id=pass_index)

    run.do_pass(0)  # warm-up
    pairs: list[tuple[PassResult, PassResult]] = []

    def pair():
        # both halves of a pair share inputs; alternate which goes first
        k = len(pairs)
        if k % 2 == 0:
            plain = run.do_pass(k)
            with_spans = traced_pass(k)
        else:
            with_spans = traced_pass(k)
            plain = run.do_pass(k)
        pairs.append((plain, with_spans))
        return plain.wall + with_spans.wall

    timed_loop(seconds, pair, 1)

    # one more pass under tracemalloc for each command's peak allocation
    peaks = {}

    def memory_invoke(name, argv):
        tracemalloc.reset_peak()
        rc = run_cli(argv)
        peaks[name] = tracemalloc.get_traced_memory()[1]
        return rc

    tracemalloc.start()
    try:
        run.do_pass(0, memory_invoke)
    finally:
        tracemalloc.stop()

    model = run.check_predictions()
    bytes_read, bytes_written = run.io_bytes()

    by_pass = tracer.stats_by_pass()
    per_pass = [by_pass.get(p.traced_id, {}) for _, p in pairs]
    traced_walls = [p.wall for _, p in pairs]
    plain_walls = [p.wall for p, _ in pairs]
    metrics, lines = {}, []
    n = f"median of {len(pairs)} traced passes"
    for name in LAYER_NAMES:
        note = n if name not in tracer.absent else "absent: name not found in sclrom"
        for i, (suffix, unit) in enumerate((("calls", "count"), ("self_s", "s"),
                                            ("total_s", "s"))):
            value = statistics.median(s.get(name, (0, 0.0, 0.0))[i] for s in per_pass)
            _metric(metrics, lines, f"{name}.{suffix}", value, unit, note)
    for name in COMMANDS:
        _metric(metrics, lines, f"cli.{name}.self_s",
                statistics.median(s.get(f"cli.{name}", (0, 0.0, 0.0))[1] for s in per_pass),
                "s", n)
    for name in COMMANDS:
        _metric(metrics, lines, f"cli.{name}.peak_alloc_mb", peaks.get(name, 0) / MB, "MB",
                "tracemalloc peak, one extra pass")
    _metric(metrics, lines, "persistence.bytes_read", bytes_read, "B",
            "computed from file sizes, per pass")
    _metric(metrics, lines, "persistence.bytes_written", bytes_written, "B",
            "computed from file sizes, per pass")
    _metric(metrics, lines, "model.state_bytes", state_bytes(model) if model else 0, "B",
            "arrays held by the loaded model")
    traced_median = statistics.median(traced_walls)
    _metric(metrics, lines, "trace.pipeline_s", traced_median, "s", n)
    _metric(metrics, lines, "trace.overhead_s", traced_median - statistics.median(plain_walls),
            "s", "traced minus untraced pipeline_s, same process")
    # nested spans: all self times together equal the command spans' durations
    accounted = statistics.median(
        sum(v[1] for v in s.values()) / p.wall for s, (_, p) in zip(per_pass, pairs)
    )
    _metric(metrics, lines, "trace.accounted_share", accounted, "1",
            "sum of all self times / traced pass time")
    return metrics, lines


def layer_shares(metrics: dict) -> list[str]:
    """Self time of each layer as a share of the traced pass, largest first."""
    total = metrics["trace.pipeline_s"]["value"]
    rows = sorted(((v["value"], k[: -len(".self_s")]) for k, v in metrics.items()
                   if k.endswith(".self_s")), reverse=True)
    return [f"  {name:<40} {value:9.4f} s {100 * value / total:6.1f} %"
            for value, name in rows if value > 0]


def run(workload_name: str, seed: int, seconds: int, trace: bool, threads: int) -> int:
    workload = WORKLOADS[workload_name]
    env = environment(seed, threads)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload_name}-{os.getpid()}"
    workdir.mkdir()
    bench_run = Run(workload, seed, workdir)
    try:
        if trace:
            tracer = Tracer()
            tracer.prepare()
            metrics, lines = traced(bench_run, seconds, tracer)
            tracer.write_jsonl(OUT / f"{workload_name}.spans.jsonl",
                               {"workload": workload_name, "environment": env})
        else:
            metrics, lines = untraced(bench_run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = bench_run.counts()
    accounted = metrics.get("trace.accounted_share", {"value": 1.0})["value"]
    correct = failed == 0 and 0.99 <= accounted <= 1.0
    print(f"# workload {workload_name}: {workload.why}")
    print(f"# environment {json.dumps(env)}")
    print("\n".join(lines))
    print(f"{'fail_ratio':<44} {failed / attempted:>14.6g} {'1':<6} "
          f"{failed} failed / {attempted} attempted CLI commands")
    if trace:
        print("# self time by layer, share of the traced pass:")
        print("\n".join(layer_shares(metrics)))
    for problem in bench_run.problems()[:20]:
        print(f"# check failed: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
