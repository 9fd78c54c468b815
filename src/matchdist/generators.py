"""Deterministic random bi-filtration generation.

Samples M distinct maximal simplices of dimension D on N vertices, gives
each uniform integer coordinates, then walks the dimensions downwards:
every face receives a uniform integer point inside the rectangle between
the origin and the componentwise minimum over its cofaces, which makes the
result a valid 1-critical bi-filtration by construction.

The random stream is a Philox counter-based 64-bit generator seeded from
the spec, so identical specs reproduce identical filtrations byte for
byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .complexes import BiFiltration, Simplex, validate_bifiltration
from .errors import InfeasibleSpec

_REJECTION_FACTOR = 200


@dataclass(frozen=True)
class GenSpec:
    n_vertices: int
    n_maximal: int
    max_dim: int
    seed: int = 0
    coord_range: int = 1000

    def validate(self) -> None:
        if self.n_vertices < 1 or self.n_maximal < 1:
            raise InfeasibleSpec("need at least one vertex and one maximal simplex")
        if self.max_dim < 1:
            raise InfeasibleSpec("maximal dimension must be at least 1")
        if self.coord_range < 0:
            raise InfeasibleSpec("coordinate range must be non-negative")
        available = math.comb(self.n_vertices, self.max_dim + 1)
        if self.n_maximal > available:
            raise InfeasibleSpec(
                f"{self.n_maximal} distinct {self.max_dim}-simplices requested "
                f"but only {available} exist on {self.n_vertices} vertices"
            )


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _sample_maximal(rng: np.random.Generator, spec: GenSpec) -> list[Simplex]:
    chosen: set[Simplex] = set()
    attempts = 0
    cap = max(10_000, _REJECTION_FACTOR * spec.n_maximal)
    while len(chosen) < spec.n_maximal:
        if attempts >= cap:
            raise InfeasibleSpec(
                f"rejection sampling gave up after {cap} attempts "
                f"({len(chosen)}/{spec.n_maximal} distinct simplices)"
            )
        attempts += 1
        verts = rng.choice(spec.n_vertices, size=spec.max_dim + 1, replace=False)
        chosen.add(tuple(sorted(int(v) for v in verts)))
    return sorted(chosen)


def _random_values(
    rng: np.random.Generator, maximal: list[Simplex], coord_range: int
) -> dict[Simplex, tuple[float, float]]:
    """Coordinates for the face closure, top dimension first."""
    values: dict[Simplex, tuple[float, float]] = {}
    for s in maximal:
        x = int(rng.integers(0, coord_range, endpoint=True))
        y = int(rng.integers(0, coord_range, endpoint=True))
        values[s] = (float(x), float(y))

    top_dim = len(maximal[0]) - 1
    current = maximal
    for d in range(top_dim - 1, -1, -1):
        faces: dict[Simplex, tuple[float, float]] = {}
        for s in current:
            sx, sy = values[s]
            for f in combinations(s, d + 1):
                if f in faces:
                    fx, fy = faces[f]
                    faces[f] = (min(fx, sx), min(fy, sy))
                else:
                    faces[f] = (sx, sy)
        for f in sorted(faces):
            cx, cy = faces[f]
            x = int(rng.integers(0, int(cx), endpoint=True))
            y = int(rng.integers(0, int(cy), endpoint=True))
            values[f] = (float(x), float(y))
        current = sorted(faces)
    return values


def generate_random(spec: GenSpec) -> BiFiltration:
    """Random 1-critical bi-filtration; identical specs give identical
    output."""
    return generate_random_kcritical(spec, 1)


def generate_random_kcritical(spec: GenSpec, k: int) -> BiFiltration:
    """Random k-critical bi-filtration on a random complex.

    Overlays k independent coordinate assignments of the same complex;
    each staircase region is the union of the per-assignment quadrants, so
    monotonicity along faces is inherited from the 1-critical case. The
    antichain reduction may leave fewer than k points per simplex.
    """
    spec.validate()
    if k < 1:
        raise InfeasibleSpec("k must be at least 1")
    rng = _rng(spec.seed)
    maximal = _sample_maximal(rng, spec)
    layers = [_random_values(rng, maximal, spec.coord_range) for _ in range(k)]
    simplices = sorted(layers[0], key=lambda s: (len(s), s))
    critical = [[layer[s] for layer in layers] for s in simplices]
    return validate_bifiltration(simplices, critical)
