"""The benchmark's tracer against the current program.

bench/tracing.py wraps the layer functions that matchdist.solver imports,
and bench/run.py refuses a traced run that records no span for a layer it
requires. A change that renames a layer, or changes what the span sizes
read from a diagram, fails here rather than in a benchmark run. The bench
modules are loaded from their files, as the benchmark loads them.
"""

import importlib.util
import os
from pathlib import Path

import pytest

from matchdist import solver
from matchdist.generators import GenSpec, generate_random
from matchdist.heatmap import compute_heatmap
from matchdist.solver import SolverConfig, approximate

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports calibration
    saved = dict(os.environ)
    try:
        run = load_bench("run")  # pins native thread pools on import
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return run, load_bench("tracing")


def test_tracer_records_required_spans_with_point_counts(bench, monkeypatch):
    run, tracing = bench
    F1 = generate_random(GenSpec(10, 14, 1, seed=71))
    F2 = generate_random(GenSpec(10, 14, 1, seed=72))
    # recorders under the tracer's wrappers see the same calls in order
    diagrams, pairs = [], []
    diagram, distance = solver.diagram, solver.bottleneck_distance

    def recording_diagram(*args):
        diagrams.append(diagram(*args))
        return diagrams[-1]

    def recording_distance(D1, D2):
        pairs.append((D1, D2))
        return distance(D1, D2)

    monkeypatch.setattr(solver, "diagram", recording_diagram)
    monkeypatch.setattr(solver, "bottleneck_distance", recording_distance)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("solver", 0):
            res = approximate(F1, F2, SolverConfig(epsilon=0.5, mode="relative"))
        with tracer.root("heatmap", 1):
            compute_heatmap(F1, F2, 1)
    finally:
        tracer.uninstall()
    assert solver.diagram is recording_diagram

    for rep, job in ((0, "solve"), (1, "heatmap")):
        names = {s[0] for s in tracer.spans if s[4] == rep and s[3] >= 0}
        assert set(run.REQUIRED[job]) <= names, (job, names)
    # every evaluation: the solver's, then 4 cells of each of the 4 grids
    assert len(pairs) == res.calls + 16 and len(diagrams) == 2 * len(pairs)

    sizes = {name: [s[5] for s in tracer.spans if s[0] == name]
             for name in ("persistence.diagram", "bottleneck.distance")}
    assert sizes["persistence.diagram"] == [float(D.finite.shape[0]) for D in diagrams]
    assert sizes["bottleneck.distance"] == [
        (D1.finite.shape[0] + D2.finite.shape[0]) / 2.0 for D1, D2 in pairs
    ]
    assert sum(sizes["persistence.diagram"]) > 0
