"""Spans around matchdist's layers, recorded from outside the program.

The solver reaches every layer through names it imported into its own
module: ``restrict``, ``diagram``, ``bottleneck_distance``, ``box_bound``,
``subdivide`` and ``center``. ``heatmap.eval_slice`` is the solver's
``eval_slice`` and resolves through the same globals. Replacing those
module attributes with timing wrappers therefore covers both drivers
without touching program code.

A span is ``[name, start, end, parent, run, size]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``run`` the repetition it
belongs to and ``size`` the number of diagram points the call handled
(0 where that has no meaning). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from matchdist import solver

# solver attribute -> span name
WRAPPED = {
    "restrict": "slices.restrict",
    "center": "slices.center",
    "subdivide": "slices.subdivide",
    "diagram": "persistence.diagram",
    "bottleneck_distance": "bottleneck.distance",
    "box_bound": "bounds.box_bound",
}


def _finite_points(args, result) -> float:
    return float(len(result.finite))


def _points_per_side(args, result) -> float:
    return (len(args[0].finite) + len(args[1].finite)) / 2.0


_SIZE = {"diagram": _finite_points, "bottleneck_distance": _points_per_side}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}

    def _wrap(self, attr: str, fn):
        name, size = WRAPPED[attr], _SIZE.get(attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if size is not None:
                rec[5] = size(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer entry point; a missing one is an error, since
        reporting zero time for it would be a silent lie."""
        for attr in WRAPPED:
            fn = getattr(solver, attr, None)
            if not callable(fn):
                raise RuntimeError(f"matchdist.solver.{attr} is gone; update bench/tracing.py")
            self._originals[attr] = fn
            setattr(solver, attr, self._wrap(attr, fn))

    def uninstall(self) -> None:
        for attr, fn in self._originals.items():
            setattr(solver, attr, fn)
        self._originals.clear()

    @contextmanager
    def root(self, name: str, run: int):
        """Root span of one repetition of the user's job."""
        self.run = run
        rec = [name, 0.0, 0.0, -1, run, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "name", "start", "end", "parent", "run", "size"])
            for i, (name, start, end, parent, run, size) in enumerate(self.spans):
                w.writerow([i, name, repr(start), repr(end), parent, run, repr(size)])
