#!/usr/bin/env python3
"""Compare the three bound rules on randomly generated inputs.

--pairs N generates 2N inputs in memory and runs all N(2N - 1) pairs
among them (--pairs 2: 6 pairs, 18 rows) with the global, local constant
and local linear bounds in relative mode. It prints one tab-separated row
per pair and bound, then the aggregate call and time ratios. Input i,
rnd_{i:03d}.txt in the rows, is the file that
`matchdist gen --vertices n --maximal f*n --dim 1 --seed s+i` writes,
with n = --vertices, f = --maximal-factor and s = --seed.

Example: python scripts/bound_comparison.py --pairs 5 --vertices 100 --epsilon 0.5
"""

import argparse
import csv
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchdist.bounds import BoundKind
from matchdist.complexes import normalize_pair
from matchdist.generators import GenSpec, generate_random
from matchdist.solver import SolverConfig, approximate, reduction_rate

HEADER = ["fileA", "fileB", "bound", "calls", "time_ms", "delta",
          "deepest_evaluated_level", "reduction_rate"]


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=3, metavar="N",
                    help="generate 2N inputs and run all N(2N-1) pairs among them")
    ap.add_argument("--vertices", type=int, default=100)
    ap.add_argument("--maximal-factor", type=int, default=4,
                    help="maximal simplices per vertex")
    ap.add_argument("--epsilon", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="CSV output path")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.print_usage(sys.stderr)
        ap.exit(1, f"{ap.prog}: error: no usable pairs: --pairs must be at least 1\n")

    n = args.vertices
    inputs = [(f"rnd_{i:03d}.txt",
               generate_random(GenSpec(n, args.maximal_factor * n, 1, seed=args.seed + i)))
              for i in range(2 * args.pairs)]
    rows: list[list[str]] = []
    stats = {what: {key: [] for key in "gcl"} for what in ("calls", "time")}
    print("\t".join(HEADER))
    for (name_a, fa), (name_b, fb) in itertools.combinations(inputs, 2):
        F1, F2, _ = normalize_pair(fa, fb)
        for key in "gcl":
            cfg = SolverConfig(epsilon=args.epsilon, mode="relative", bound_kind=BoundKind(key))
            t0 = time.perf_counter()
            res = approximate(F1, F2, cfg)
            ms = (time.perf_counter() - t0) * 1000.0
            stats["calls"][key].append(res.calls)
            stats["time"][key].append(ms)
            row = [name_a, name_b, key, str(res.calls), f"{ms:.3f}", repr(res.delta),
                   str(res.deepest_evaluated_level), repr(reduction_rate(res))]
            rows.append(row)
            print("\t".join(row))

    for what, per_bound in stats.items():
        for x, y in (("g", "c"), ("c", "l")):
            vals = [a / b for a, b in zip(per_bound[x], per_bound[y])]
            print(f"{what}_ratio_{x.upper()}/{y.upper()} avg {sum(vals) / len(vals):.3f} "
                  f"min {min(vals):.3f} max {max(vals):.3f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(HEADER)
            w.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(run())
