#!/usr/bin/env python3
"""Record how the guaranteed relative error decays during a budgeted run.

Runs the relative variant with priority traversal under a wall-clock
budget on a random pair and writes the per-call trace CSV; the rel_error
column against elapsed_ms gives the decay curve. Plot with any external
tool, e.g.:

    python scripts/error_decay.py --budget-ms 2000 --out decay.csv
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchdist.bounds import BoundKind
from matchdist.generators import GenSpec, generate_random
from matchdist.io import write_trace_csv
from matchdist.solver import SolverConfig, approximate


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vertices", type=int, default=100)
    ap.add_argument("--maximal-factor", type=int, default=4)
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    ap.add_argument("--epsilon", type=float, default=0.1)
    ap.add_argument("--budget-ms", type=float, default=5000.0)
    ap.add_argument("--bound", choices=["l", "c", "g"], default="c")
    ap.add_argument("--out", required=True, help="trace CSV path")
    args = ap.parse_args(argv)

    n = args.vertices
    F1 = generate_random(GenSpec(n, args.maximal_factor * n, 1, seed=args.seeds[0]))
    F2 = generate_random(GenSpec(n, args.maximal_factor * n, 1, seed=args.seeds[1]))
    cfg = SolverConfig(epsilon=args.epsilon, mode="relative",
                       bound_kind=BoundKind(args.bound), traversal="priority",
                       budget_ms=args.budget_ms)
    res = approximate(F1, F2, cfg)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        write_trace_csv(f, res.trace)
    print(f"calls {res.calls}  rho {res.rho}  residual_upper {res.residual_upper}  "
          f"guaranteed_rel_error {res.rel_error}  converged {not res.not_converged}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
