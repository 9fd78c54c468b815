"""Command line front end.

Subcommands: dist (approximate the matching distance of two inputs),
heatmap (distance grids over slice space), gen (random bi-filtrations).

Exit codes: 0 success, 1 usage or input errors, 2 non-converged runs.
Timing is printed to stderr so stdout stays deterministic for fixed
inputs, flags, and seeds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bounds import BoundKind
from .complexes import normalize_pair
from .errors import MatchdistError
from .generators import GenSpec, generate_random
from .heatmap import compute_heatmap, write_heatmap_csvs
from .io import format_diagram, load_bifiltration, write_bifiltration, write_trace_csv
from .solver import ApproxResult, SolverConfig, _diagrams, approximate, reduction_rate

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_pair(path_a: str, path_b: str):
    F1 = load_bifiltration(path_a)
    F2 = load_bifiltration(path_b)
    F1, F2, shift = normalize_pair(F1, F2)
    if shift != (0.0, 0.0):
        print(f"inputs shifted by ({shift[0]}, {shift[1]}) into the quadrant",
              file=sys.stderr)
    return F1, F2, shift


def _shift_note(shift) -> str:
    return f"shift={shift[0]!r},{shift[1]!r}"


def _print_report(res: ApproxResult) -> None:
    print(f"delta {repr(res.delta)}")
    print(f"rho {repr(res.rho)}")
    print(f"residual_upper {repr(res.residual_upper)}")
    print(f"rel_error {repr(res.rel_error)}")
    print(f"calls {res.calls}")
    print(f"deepest_level {res.deepest_level}")
    print(f"deepest_evaluated_level {res.deepest_evaluated_level}")
    print(f"reduction_rate {repr(reduction_rate(res))}")
    print(f"converged {'no' if res.not_converged else 'yes'}")


def cmd_dist(args) -> int:
    F1, F2, shift = _load_pair(args.fileA, args.fileB)
    cfg = SolverConfig(
        epsilon=args.epsilon,
        mode="relative" if args.relative else "absolute",
        bound_kind=BoundKind(args.bound),
        homology_dim=args.dim,
        traversal=args.traversal,
        budget_ms=args.budget_ms,
    )
    res = approximate(F1, F2, cfg)
    _print_report(res)
    print(f"wall_ms {res.elapsed_ms}", file=sys.stderr)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8", newline="") as f:
            write_trace_csv(f, res.trace)
    if args.dump_diagrams is not None:
        _dump_best_diagrams(F1, F2, res, args.dim, shift, Path(args.dump_diagrams))
    return 2 if res.not_converged else 0


def _dump_best_diagrams(F1, F2, res: ApproxResult, dim: int, shift, out_dir: Path) -> None:
    """Diagrams of both inputs, in the shifted frame, at the slice realizing
    rho: the two the solver compared there, each of its complex's
    `reduced(dim)`."""
    best = res.best_slice
    out_dir.mkdir(parents=True, exist_ok=True)
    comment = f"slice type={best.stype.value} lam={best.lam!r} mu={best.mu!r} {_shift_note(shift)}"
    for name, D in zip(("f1_diagram.txt", "f2_diagram.txt"), _diagrams(F1, F2, best, dim)):
        (out_dir / name).write_text(format_diagram(D, comment), encoding="utf-8")


def cmd_heatmap(args) -> int:
    F1, F2, shift = _load_pair(args.fileA, args.fileB)
    hm = compute_heatmap(F1, F2, args.depth, args.dim)
    paths = write_heatmap_csvs(hm, args.out, _shift_note(shift))
    for p in paths:
        print(p)
    return 0


def cmd_gen(args) -> int:
    spec = GenSpec(
        n_vertices=args.vertices,
        n_maximal=args.maximal,
        max_dim=args.dim,
        seed=args.seed,
        coord_range=args.coord_range,
    )
    F = generate_random(spec)
    write_bifiltration(args.out, F)
    print(f"{args.out} n_simplices {F.n} X {repr(F.max_x)} Y {repr(F.max_y)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="matchdist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="approximate the matching distance of two inputs")
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--relative", action="store_true",
                   help="(1+eps)-approximation instead of additive eps")
    p.add_argument("--bound", choices=["l", "c", "g"], default="l")
    p.add_argument("--dim", type=int, default=0, help="homology dimension")
    p.add_argument("--traversal", choices=["bfs", "priority"], default="bfs")
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--trace", metavar="PATH", default=None, help="write per-call CSV")
    p.add_argument("--dump-diagrams", metavar="DIR", default=None,
                   help="dump both diagrams at the best slice found")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("heatmap", help="distance grids over slice space")
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--dim", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory for the CSVs")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("gen", help="generate a random bi-filtration")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--maximal", type=int, required=True)
    p.add_argument("--dim", type=int, required=True, help="dimension of maximal simplices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coord-range", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatchdistError, OSError, ValueError) as exc:
        print(f"matchdist: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
