#!/usr/bin/env python3
"""Regenerate bench/reference.json, the stored outputs the benchmark checks.

Usage (from the repository root; takes a few minutes):

    python3 bench/make_reference.py

For each solver workload it runs the same pair, bound and traversal as the
benchmark but at a much smaller relative epsilon, and stores the certified
bracket [lo, hi] = [rho, delta] of that run: every correct run of the
workload has delta >= lo and rho <= hi. For the heatmap workload it stores
the four distance grids. Inputs are the seed-0 files; every other seed is
a relabelling with the same matching distance and the same grids.
"""

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import matchdist as md  # noqa: E402
from matchdist import io  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

# reference epsilon per solver workload: as tight as a few minutes allow
REFERENCE_EPSILON = {"mid-rel": 0.02, "large-rel": 0.05, "h1-lowerstar": 0.05}


def main() -> int:
    out = {}
    for w in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            a, b = write_inputs(w, 0, Path(tmp))
            F1, F2, _ = md.normalize_pair(io.load_bifiltration(a), io.load_bifiltration(b))
        if w.job == "heatmap":
            hm = md.compute_heatmap(F1, F2, w.depth, w.dim)
            out[w.name] = {"depth": w.depth,
                           "grid": {t.value: g.tolist() for t, g in hm.grids.items()}}
        else:
            eps = REFERENCE_EPSILON[w.name]
            res = md.approximate(F1, F2, replace(w.config(), epsilon=eps))
            if res.not_converged:
                raise RuntimeError(f"{w.name}: reference run did not converge")
            out[w.name] = {"epsilon": eps, "lo": res.rho, "hi": res.delta, "calls": res.calls}
        print(w.name, {k: v for k, v in out[w.name].items() if k != "grid"}, flush=True)
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
