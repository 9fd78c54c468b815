"""The benchmark's workloads and their seeded input files.

Each workload has one fixed base pair of inputs. The run seed does not
pick a new random pair: it relabels the vertices of each input by a seeded
permutation and shuffles the order of its simplex lines. Every seed thus
hands the program different files that describe the same two
bi-filtrations up to isomorphism. The matching distance, every diagram and
every solver decision are invariant under that relabelling, so all seeds
share one stored reference bracket, one reference grid and one evaluation
count, and the run-to-run spread is timing noise rather than a change of
problem. Seed 0 is the identity and reproduces the base pair as
``matchdist gen`` would write it.

Generation uses ``matchdist.generators`` and is never timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import matchdist as md

# a simplex line: vertex tuple plus its critical values
Line = tuple[tuple[int, ...], tuple[tuple[float, float], ...]]


@dataclass(frozen=True)
class Workload:
    name: str
    job: str  # "solve" (approximate) or "heatmap" (compute_heatmap)
    pair: str  # key of the base pair, see BASE_PAIRS
    epsilon: float = 0.0
    dim: int = 0
    traversal: str = "bfs"
    depth: int = 0

    def config(self) -> md.SolverConfig:
        return md.SolverConfig(
            epsilon=self.epsilon,
            mode="relative",
            bound_kind=md.BoundKind.LOCAL_LINEAR,
            homology_dim=self.dim,
            traversal=self.traversal,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # why each exists: bench/README.md and BENCHMARK.json
        Workload("mid-rel", "solve", "c7", epsilon=0.1),
        Workload("large-rel", "solve", "c10", epsilon=0.5),
        Workload("h1-lowerstar", "solve", "h1", epsilon=0.3, dim=1, traversal="priority"),
        Workload("heatmap-grid", "heatmap", "c7", depth=4),
    )
}


def _lines(F: md.BiFiltration) -> list[Line]:
    return [(tuple(s), tuple(c)) for s, c in zip(F.simplices, F.critical)]


def _random_pair(spec_a: md.GenSpec, spec_b: md.GenSpec) -> tuple[list[Line], list[Line]]:
    return _lines(md.generate_random(spec_a)), _lines(md.generate_random(spec_b))


def _lowerstar_pair() -> tuple[dict, dict]:
    """One random 2-complex with two independent uniform vertex-value
    assignments in [0, 1000]^2. Sharing the complex keeps the H1 essential
    counts equal; two independent complexes give an infinite distance and
    a run that stops after four evaluations."""
    K = md.generate_random(md.GenSpec(n_vertices=30, n_maximal=1200, max_dim=2, seed=30))
    rng = np.random.Generator(np.random.Philox(31))
    simplices = [tuple(s) for s in K.simplices]
    out = []
    for _ in range(2):
        values = {
            v: (float(rng.integers(0, 1000, endpoint=True)),
                float(rng.integers(0, 1000, endpoint=True)))
            for v in K.vertex_ids
        }
        out.append({"values": values, "simplices": simplices})
    return out[0], out[1]


# the c7 and c10 pairs are the ROADMAP baseline pairs (acceptance tests c7, c10)
BASE_PAIRS = {
    "c7": lambda: _random_pair(md.GenSpec(100, 400, 1, seed=7000), md.GenSpec(100, 400, 1, seed=7100)),
    "c10": lambda: _random_pair(md.GenSpec(500, 2000, 1, seed=777), md.GenSpec(500, 2000, 1, seed=888)),
    "h1": _lowerstar_pair,
}


def _num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _permutation(rng: random.Random, vertices: list[int]) -> dict[int, int]:
    image = list(vertices)
    rng.shuffle(image)
    return dict(zip(vertices, image))


def _bifiltration_text(lines: list[Line], rng: random.Random | None) -> str:
    if rng is not None:
        perm = _permutation(rng, sorted({v for s, _ in lines for v in s}))
        lines = [(tuple(perm[v] for v in s), c) for s, c in lines]
        rng.shuffle(lines)
    body = [
        " ".join(map(str, s)) + " ; " + " ".join(f"{_num(x)} {_num(y)}" for x, y in c)
        for s, c in lines
    ]
    return "\n".join(["bifiltration", str(len(lines)), *body]) + "\n"


def _lowerstar_text(data: dict, rng: random.Random | None) -> str:
    values, simplices = data["values"], list(data["simplices"])
    vertices = sorted(values)
    if rng is not None:
        perm = _permutation(rng, vertices)
        values = {perm[v]: xy for v, xy in values.items()}
        simplices = [tuple(perm[v] for v in s) for s in simplices]
        rng.shuffle(simplices)
    body = [f"{_num(values[v][0])} {_num(values[v][1])}" for v in vertices]
    body += [" ".join(map(str, s)) for s in simplices]
    return "\n".join(["lowerstar", f"{len(vertices)} {len(simplices)}", *body]) + "\n"


def write_inputs(w: Workload, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write the workload's pair for this seed; returns the two paths."""
    rng = random.Random(seed) if seed != 0 else None
    a, b = BASE_PAIRS[w.pair]()
    fmt = _lowerstar_text if w.pair == "h1" else _bifiltration_text
    paths = (out_dir / "a.txt", out_dir / "b.txt")
    for path, data in zip(paths, (a, b)):
        path.write_text(fmt(data, rng), encoding="utf-8")
    return paths
