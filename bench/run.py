#!/usr/bin/env python3
"""The matchdist benchmark: one seeded workload, measured end to end.

Usage (from the repository root):

    python3 bench/run.py --workload mid-rel --seed 1 --seconds 24 --trace 0

The run writes the workload's two input files from the seed, times the
set-up of ``matchdist dist`` in fresh child processes, then repeats the
user's job (``approximate`` or ``compute_heatmap``) for about --seconds,
checking every output against bench/reference.json. A program-independent
calibration (bench/calibration.py) runs before the first and after every
probe and repetition; each end-to-end time is scaled by the calibrations
around it to a fixed reference speed, which cancels most of the host's
speed drift.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced repetitions and reports per-layer metrics
from spans recorded around matchdist's layers (bench/tracing.py).
Human-readable lines with sample counts and the environment record come
first; the last line of stdout is one JSON object. Full records go to
.bench_work/.

See bench/README.md for why each workload and metric exists.
"""

import os

# one process, no worker threads: pin every native pool before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from calibration import calibrate, scale  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPS = 3  # job repetitions per run, whatever --seconds says
SETUP_REPS = 5  # measured set-up probes, after one discarded warm-up probe
TOL = 1e-9  # relative slack when comparing against stored reference values
# span names each driver must produce on every traced repetition
REQUIRED = {
    "solve": ("slices.restrict", "slices.center", "slices.subdivide",
              "persistence.diagram", "bottleneck.distance", "bounds.box_bound"),
    "heatmap": ("slices.restrict", "persistence.diagram", "bottleneck.distance"),
}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p95(xs):
    return statistics.quantiles(xs, n=100)[94] if len(xs) >= 2 else _median(xs)


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = -1
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "os_threads": threads,
        "thread_pins": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def measure_setup(path_a, path_b):
    """Set-up probes in fresh processes; the first only warms caches.
    Each probe carries the speed scale of the calibrations around it."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(path_a), str(path_b)]
    probes = []
    before = calibrate()
    for i in range(SETUP_REPS + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        after = calibrate()
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        probe["scale"] = scale(before, after)
        if i:
            probes.append(probe)
        before = after
    return probes


def check_solve(w, ref, res):
    """Guarantees of a relative run, not bytes: rho <= delta <= (1+eps) rho,
    and the run's bracket meets the stored certified bracket [lo, hi]."""
    problems = []
    if res.not_converged:
        problems.append("did not converge")
    if not (0.0 < res.rho <= res.delta <= (1.0 + w.epsilon) * res.rho):
        problems.append(f"rho {res.rho!r} and delta {res.delta!r} break the relative guarantee")
    if res.delta < ref["lo"] * (1.0 - TOL):
        problems.append(f"delta {res.delta!r} below the reference lower bound {ref['lo']!r}")
    if res.rho > ref["hi"] * (1.0 + TOL):
        problems.append(f"rho {res.rho!r} above the reference upper bound {ref['hi']!r}")
    return problems, res.calls


def check_heatmap(w, ref, hm):
    import numpy as np
    from matchdist.slices import SLICE_TYPES

    problems = []
    n = 2 ** w.depth
    for t in SLICE_TYPES:
        grid, want = hm.grids[t], np.array(ref["grid"][t.value], dtype=np.float64)
        if grid.shape != (n, n) or not np.isclose(grid, want, rtol=TOL, atol=TOL).all():
            problems.append(f"{t.value} grid differs from the reference grid")
    return problems, sum(g.size for g in hm.grids.values())


def run_job(w, F1, F2):
    import matchdist as md

    if w.job == "heatmap":
        return md.compute_heatmap(F1, F2, w.depth, w.dim)
    return md.approximate(F1, F2, w.config())


def layer_metrics(w, tracer, traced, scaled_walls, scaled_traced_walls, evals, setup):
    """Per-layer numbers from the traced repetitions.

    traced maps a repetition id to its job output. Totals and counts are
    medians over traced repetitions; per-call percentiles pool every call.
    Layer times are raw seconds; the two scaled wall lists (untraced and
    traced) are at the reference speed. Returns name -> (value, unit,
    sample note)."""
    own = tracer.self_times()
    totals = {r: defaultdict(float) for r in traced}
    counts = {r: defaultdict(int) for r in traced}
    calls = defaultdict(list)  # name -> per-call seconds, pooled
    sizes = defaultdict(list)
    roots = {}
    for i, (name, start, end, parent, run, size) in enumerate(tracer.spans):
        if run not in traced:
            continue
        if parent < 0:
            roots[run] = (name, end - start, own[i])
            continue
        totals[run][name] += end - start
        counts[run][name] += 1
        calls[name].append(end - start)
        sizes[name].append(size)
    for run in traced:
        missing = [n for n in REQUIRED[w.job] if counts[run][n] == 0]
        if missing:
            raise RuntimeError(f"traced repetition {run} recorded no span for {missing}")

    reps = len(traced)
    per = f"median of {reps} traced reps"

    def total(name):
        return _median([totals[r][name] for r in traced])

    def count(name):
        return _median([counts[r][name] for r in traced])

    def share(*names):
        return _median([sum(totals[r][n] for n in names) / roots[r][1] for r in traced])

    def root_self(name):
        return _median([roots[r][2] for r in traced if roots[r][0] == name])

    def pct(name, q, factor, unit):
        xs = calls[name]
        v = _median(xs) if q == 50 else _p95(xs)
        return v * factor, unit, f"{len(xs)} calls over {reps} reps"

    def mean_points(name):
        xs = sizes[name]
        return (sum(xs) / len(xs) if xs else 0.0), "points", f"{len(xs)} calls"

    m = {}
    m["bottleneck.distance_s"] = (total("bottleneck.distance"), "s", per)
    m["bottleneck.calls"] = (count("bottleneck.distance"), "count", per)
    m["bottleneck.distance_ms_p50"] = pct("bottleneck.distance", 50, 1e3, "ms")
    m["bottleneck.distance_ms_p95"] = pct("bottleneck.distance", 95, 1e3, "ms")
    m["bottleneck.points_mean"] = mean_points("bottleneck.distance")
    m["bottleneck.share"] = (share("bottleneck.distance"), "ratio", per)
    m["persistence.diagram_s"] = (total("persistence.diagram"), "s", per)
    m["persistence.calls"] = (count("persistence.diagram"), "count", per)
    m["persistence.diagram_ms_p50"] = pct("persistence.diagram", 50, 1e3, "ms")
    m["persistence.diagram_ms_p95"] = pct("persistence.diagram", 95, 1e3, "ms")
    m["persistence.points_mean"] = mean_points("persistence.diagram")
    m["persistence.share"] = (share("persistence.diagram"), "ratio", per)
    m["slices.restrict_s"] = (total("slices.restrict"), "s", per)
    m["slices.restrict_calls"] = (count("slices.restrict"), "count", per)
    m["slices.share"] = (share("slices.restrict", "slices.center", "slices.subdivide"),
                         "ratio", per)
    m["bounds.box_bound_s"] = (total("bounds.box_bound"), "s", per)
    m["bounds.calls"] = (count("bounds.box_bound"), "count", per)
    m["bounds.box_bound_us_p50"] = pct("bounds.box_bound", 50, 1e6, "us")
    m["bounds.share"] = (share("bounds.box_bound"), "ratio", per)
    m["solver.self_s"] = (root_self("solver"), "s", per)
    m["heatmap.self_s"] = (root_self("heatmap"), "s", per)
    m["solver.ms_per_eval"] = (_median(scaled_walls) / evals * 1e3, "ms",
                               f"wall_s over evals, {len(scaled_walls)} untraced reps")
    solved = [res for res in traced.values() if w.job == "solve"]
    retired = _median([len(res.retired_boxes) for res in solved])
    m["solver.boxes_split"] = (count("slices.subdivide"), "count", per)
    m["solver.boxes_retired"] = (retired, "count", per)
    m["solver.boxes_unresolved"] = (_median([len(res.unresolved_boxes) for res in solved]),
                                    "count", per)
    m["solver.retire_ratio"] = (retired / evals, "ratio", "retired / evals")
    m["solver.deepest_level"] = (_median([res.deepest_level for res in solved]), "level", per)
    m["io.load_s"] = (_median([p["load_s"] for p in setup]), "s",
                      f"median of {len(setup)} set-up probes")
    m["complexes.normalize_s"] = (_median([p["normalize_s"] for p in setup]), "s",
                                  f"median of {len(setup)} set-up probes")
    m["trace.overhead"] = (_median(scaled_traced_walls) / _median(scaled_walls) - 1.0, "ratio",
                           f"{len(scaled_traced_walls)} traced vs {len(scaled_walls)} untraced reps")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "matchdist" / "__init__.py").is_file():
        print(f"bench: error: no matchdist source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matchdist as md
    from matchdist import io

    if Path(md.__file__).resolve().parent != SRC / "matchdist":
        print(f"bench: error: imported matchdist from {md.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS, write_inputs

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"bench: error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))[w.name]
    check = check_heatmap if w.job == "heatmap" else check_solve

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        path_a, path_b = write_inputs(w, args.seed, tmp)
        setup = measure_setup(path_a, path_b)
        F1, F2, _ = md.normalize_pair(io.load_bifiltration(path_a), io.load_bifiltration(path_b))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in setup:
        if p["sizes"] != [F1.n, F2.n] or Path(p["module"]).resolve() != Path(md.__file__).resolve():
            raise RuntimeError(f"set-up probe loaded {p['sizes']} with {p['module']}, "
                               f"expected {[F1.n, F2.n]} with {md.__file__}")
    # warm lazy imports and first-call paths; users of a long job pay this once
    md.eval_slice(F1, F2, md.center(md.initial_boxes(F1, F2)[0]), w.dim)

    tracer = Tracer() if args.trace else None
    walls, scaled, scaled_traced, traced, evals_seen, failed = [], [], [], {}, set(), 0
    rep, t_start = 0, perf_counter()
    before = calibrate()
    while True:
        traced_rep = tracer is not None and rep % 2 == 1
        if traced_rep:
            tracer.install()
        t0 = perf_counter()
        try:
            if traced_rep:
                with tracer.root("solver" if w.job == "solve" else "heatmap", rep):
                    out = run_job(w, F1, F2)
            else:
                out = run_job(w, F1, F2)
            wall = perf_counter() - t0
            problems, evals = check(w, ref, out)
        except Exception:
            wall = perf_counter() - t0
            problems, evals, out = [traceback.format_exc()], None, None
        finally:
            if traced_rep:
                tracer.uninstall()
        after = calibrate()
        k, before = scale(before, after), after
        if problems:
            failed += 1
            print(f"rep {rep} FAILED: " + "; ".join(problems), file=sys.stderr)
        else:
            evals_seen.add(evals)
            if traced_rep:
                traced[rep] = out
        if traced_rep:
            scaled_traced.append(wall * k)
        else:
            walls.append(wall)
            scaled.append(wall * k)
        rep += 1
        elapsed = perf_counter() - t_start
        if rep >= MIN_REPS and elapsed + _median(walls) > args.seconds:
            break

    repeatable = len(evals_seen) <= 1
    if not repeatable:
        print(f"bench: evals differ between reps: {sorted(evals_seen)}", file=sys.stderr)
    evals = max(evals_seen, default=0)
    setup_raw = [p["import_s"] + p["load_s"] + p["normalize_s"] for p in setup]
    setup_scaled = [t * p["scale"] for t, p in zip(setup_raw, setup)]
    if args.trace:
        if not traced:
            raise RuntimeError("no traced repetition succeeded")
        metrics = layer_metrics(w, tracer, traced, scaled, scaled_traced, evals, setup)
        tracer.write(WORK / "spans" / f"{w.name}-seed{args.seed}.csv")
    else:
        metrics = {
            "wall_s": (_median(scaled), "s", f"median of {len(walls)} reps at reference speed; "
                       f"raw median {_median(walls):.4f} s"),
            "setup_s": (_median(setup_scaled), "s", f"median of {len(setup)} set-up probes at "
                        f"reference speed; raw median {_median(setup_raw):.4f} s"),
            "evals": (float(evals), "count", "identical on every passing rep" if repeatable else "varied"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                            "ru_maxrss of this process"),
        }

    env = environment()
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "env": env,
        "raw_walls_s": walls, "scaled_walls_s": scaled, "setup_probes": setup,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print("env " + json.dumps(env))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit:7s} ({samples})")
    print(json.dumps({
        "correct": failed == 0 and repeatable,
        "attempted": rep,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
