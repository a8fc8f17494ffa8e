"""Spans at sclrom module boundaries, recorded from outside the library.

The tracer replaces the module-level names through which one sclrom
module calls a function of another (``sclrom.cli.fit``,
``sclrom.ohf.cyclic_operator``, ``sclrom.persistence.derived_factors``,
...) with timing wrappers, and restores them afterwards. The library's
own files are not edited. A wrapped name that no longer exists is
recorded as absent instead of failing the run.

A span is (id, name, start, end, parent id, pass id). Spans stay in
memory until :meth:`Tracer.write_jsonl` writes them at the end of a run;
they are kept as parallel lists of plain values, so that a growing trace
adds no objects for the garbage collector to scan during timed passes.
A span's self time is its duration minus the durations of its children;
spans are strictly nested because the pipeline runs on one thread.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# defining module -> functions whose calls are timed
WRAPPED = {
    "datagen": ("periodic_history", "almost_periodic_history", "simulate_wave_1d",
                "random_orthonormal_columns"),
    "model": ("fit", "verify_mimetic", "predict", "transition_matrix"),
    "ohf": ("build_ohf", "thin_svd", "complement_basis", "derived_factors"),
    "cyclic": ("cyclic_operator", "orthogonal_projector"),
    "circulant": ("monomial_element",),
    "persistence": ("read_snapshots", "write_snapshots", "read_model", "write_model"),
}
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)


class Tracer:
    def __init__(self):
        # span i is (names[i], starts[i], ends[i], parents[i], passes[i])
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.passes: list[int | None] = []
        self.absent: list[str] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._wrappers: list[tuple[object, str, object, object]] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        stack, ends = self._stack, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            index = len(ends)
            self.names.append(name)
            self.starts.append(start)
            ends.append(start)
            self.parents.append(stack[-1] if stack else -1)
            self.passes.append(self.pass_id)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[index] = perf_counter()

        return traced

    def prepare(self) -> None:
        """Build one wrapper per function and find every binding of it.

        Bindings are searched in every loaded ``sclrom.*`` module, so both
        cross-module imports (``sclrom.cli.fit``) and same-module calls
        (``sclrom.model.predict`` inside ``fit``) are covered.
        """
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key.startswith("sclrom.") and mod is not None]
        for home_name, names in WRAPPED.items():
            try:
                home = importlib.import_module(f"sclrom.{home_name}")
            except ImportError:
                self.absent.extend(f"{home_name}.{fn}" for fn in names)
                continue
            for fn_name in names:
                fn = getattr(home, fn_name, None)
                if not callable(fn):
                    self.absent.append(f"{home_name}.{fn_name}")
                    continue
                wrapper = self.wrap(f"{home_name}.{fn_name}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._wrappers.append((mod, attr, fn, wrapper))

    @contextmanager
    def installed(self, pass_id: int):
        """Swap the wrappers in for one pass, then restore the originals."""
        self.pass_id = pass_id
        for mod, attr, _, wrapper in self._wrappers:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self._wrappers:
                setattr(mod, attr, original)
            self.pass_id = None

    def stats_by_pass(self) -> dict[int, dict[str, tuple[int, float, float]]]:
        """pass id -> name -> (calls, self seconds, total seconds).

        Total time counts only the outermost span of a name, so a function
        reached again through itself is not counted twice.
        """
        child_time = [0.0] * len(self.ends)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        by_pass: dict[int, dict[str, list]] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            entry = by_pass.setdefault(self.passes[i], {}).setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration - child_time[i]
            if not self._has_ancestor_named(self.parents[i], name):
                entry[2] += duration
        return {p: {name: tuple(v) for name, v in stats.items()} for p, stats in by_pass.items()}

    def _has_ancestor_named(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def write_jsonl(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        origin = self.starts[0] if self.starts else 0.0
        rows = zip(self.names, self.starts, self.ends, self.parents, self.passes)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "absent": self.absent}) + "\n")
            for i, (name, start, end, parent, pass_id) in enumerate(rows):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent if parent >= 0 else None, "pass": pass_id,
                }) + "\n")
