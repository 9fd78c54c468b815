"""Simplicial complexes with one- or two-parameter filtration values.

A bi-filtration assigns each simplex a non-empty antichain of points in the
plane (a single point in the common 1-critical case); a mono-filtration
assigns a single real. Both are validated against face closure and
monotonicity along faces. Coordinates are plain doubles throughout.
"""

from __future__ import annotations

import copy
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyCriticalSet,
    MissingFace,
    MissingVertexValue,
    MonotonicityViolation,
    NonFiniteCoordinate,
)

Simplex = tuple[int, ...]
Point = tuple[float, float]


def canonical_simplex(vertices: Iterable[int]) -> Simplex:
    """Sorted vertex tuple; rejects empty sets, duplicates, negative ids."""
    vs = tuple(sorted(int(v) for v in vertices))
    if not vs:
        raise ValueError("simplex has no vertices")
    if any(v < 0 for v in vs):
        raise ValueError(f"negative vertex id in simplex {vs}")
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate vertex in simplex {vs}")
    return vs


def facets(simplex: Simplex) -> list[Simplex]:
    """All codimension-1 faces (empty for vertices)."""
    if len(simplex) == 1:
        return []
    return [simplex[:i] + simplex[i + 1 :] for i in range(len(simplex))]


def reduce_antichain(points: Sequence[Point]) -> tuple[Point, ...]:
    """Drop duplicates and dominated points, keeping the minimal antichain.

    A point that dominates another never realizes the minimum push on any
    slice, so the staircase region is unchanged.
    """
    uniq = sorted(set((float(x), float(y)) for x, y in points))
    kept: list[Point] = []
    for x, y in uniq:
        # sorted by x then y: earlier kept points have x <= current x
        if any(ky <= y for _, ky in kept):
            continue
        kept.append((x, y))
    return tuple(kept)


class BiFiltration:
    """Validated bi-filtered complex.

    Immutable after construction; safe to share across workers. Use
    :func:`validate_bifiltration`, :func:`lower_star` or the generators to
    build one. Simplices are stored sorted by (dimension, vertex tuple) so
    all downstream tie-breaking is deterministic.
    """

    def __init__(self, simplices: list[Simplex], critical: list[tuple[Point, ...]]):
        # trusted inputs: validate_bifiltration is the checked entry point
        order = sorted(range(len(simplices)), key=lambda i: (len(simplices[i]), simplices[i]))
        self.simplices: list[Simplex] = [simplices[i] for i in order]
        self.index: dict[Simplex, int] = {s: i for i, s in enumerate(self.simplices)}
        self.n = len(self.simplices)

        self.dims = np.array([len(s) - 1 for s in self.simplices], dtype=np.int64)
        self.facet_indices: list[tuple[int, ...]] = [
            tuple(self.index[f] for f in facets(s)) for s in self.simplices
        ]

        vertex_ids = sorted(s[0] for s in self.simplices if len(s) == 1)
        self.vertex_ids: list[int] = vertex_ids
        # vertices come first in storage order, so a vertex's storage index
        # is its rank among the vertex ids; the edges follow as one block
        self.vertex_count = len(vertex_ids)
        self.edge_count = int(np.count_nonzero(self.dims == 1))
        self._set_critical([critical[i] for i in order])

    def _set_critical(self, critical: list[tuple[Point, ...]]) -> None:
        """Store the critical sets, in storage order, and their flat form."""
        self.critical = critical
        counts = [len(c) for c in self.critical]
        self.offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        flat = [p for c in self.critical for p in c]
        self.px = np.array([p[0] for p in flat], dtype=np.float64)
        self.py = np.array([p[1] for p in flat], dtype=np.float64)
        self.one_critical = bool(all(c == 1 for c in counts))

        self.max_x = float(self.px.max()) if self.n else 0.0
        self.max_y = float(self.py.max()) if self.n else 0.0
        self.c_max = max(self.max_x, self.max_y)

    def __len__(self) -> int:
        return self.n

    @cached_property
    def cofacet_indices(self) -> list[tuple[int, ...]]:
        """Codimension-1 cofaces of each simplex, by storage index.

        Built on first use: only persistence above dimension 0 reads them.
        """
        cof: list[list[int]] = [[] for _ in range(self.n)]
        for i, fs in enumerate(self.facet_indices):
            for f in fs:
                cof[f].append(i)
        return [tuple(c) for c in cof]

    @cached_property
    def merge_candidates(self) -> np.ndarray:
        """Storage indices, ascending, of the edges that can merge two
        components on some slice; dimension-0 persistence of a `pushed`
        mono-filtration reads only these.

        An edge is dropped when, for each of its critical points p, its
        endpoints are joined by kept edges that each have a critical point
        <= p. A slice's value of a simplex is the least push of its
        critical points, and pushes are monotone in both coordinates, so
        on every slice those edges enter no later than the dropped one:
        every sublevel complex has the same components with or without it,
        hence the same H0 module and the same dimension-0 diagram, ties
        included. Values not made that way (a hand-built `MonoFiltration`)
        carry no such guarantee. A monotone shift of all coordinates keeps
        every such <=, so `translated` carries the set over.

        Built on first use by one sweep over the edges' critical points in
        (x, y, storage index) order, keeping a spanning forest of the kept
        points that is minimal in y: a point is dropped when the forest
        path between its endpoints has no y above its own, and otherwise
        linked in, cutting the heaviest link of the cycle it closes. The
        forest holds only points swept earlier, so the storage-index
        tie-break keeps three equal-grade edges of a triangle from
        justifying each other's removal. An edge is kept if any of its
        points is.

        The forest is stored as parent pointers, with a union-find over
        its trees (a cut on a cycle never splits one). A point joining two
        trees costs no walk and re-roots the smaller tree; one closing a
        cycle walks up from both endpoints in turn until the walks meet,
        so it costs about the length of the forest path it checks.
        """
        lo, m = self.vertex_count, self.edge_count
        starts = self.offsets[lo : lo + m + 1]
        owner = np.repeat(np.arange(lo, lo + m), np.diff(starts))
        xs = self.px[starts[0] : starts[-1]]
        ys = self.py[starts[0] : starts[-1]]
        order = np.lexsort((owner, ys, xs)).tolist()
        owner, ys, facets = owner.tolist(), ys.tolist(), self.facet_indices
        parent = list(range(lo))  # roots point at themselves
        link = [0.0] * lo  # y of the link from a vertex to its parent
        tree = list(range(lo))  # union-find over the forest's trees
        size = [1] * lo
        # per vertex and walk side: the last step whose walk reached it, and
        # the heaviest link on the way there with the vertex that holds it
        mark_u, heavy_u, at_u = [-1] * lo, [0.0] * lo, [0] * lo
        mark_v, heavy_v, at_v = [-1] * lo, [0.0] * lo, [0] * lo
        kept = [False] * (lo + m)

        def root(a: int) -> int:
            while tree[a] != a:
                tree[a] = a = tree[tree[a]]
            return a

        for step, i in enumerate(order):
            e, y = owner[i], ys[i]
            v, u = facets[e]
            ru, rv = root(u), root(v)
            if ru != rv:
                if size[ru] > size[rv]:
                    u, v, ru, rv = v, u, rv, ru
                tree[ru] = rv
                size[rv] += size[ru]
            else:
                a, h, ha = u, -np.inf, -1
                b, g, gb = v, -np.inf, -1
                mark_u[a], heavy_u[a], at_u[a] = step, h, ha
                mark_v[b], heavy_v[b], at_v[b] = step, g, gb
                while True:  # the first vertex both walks reach is the meet
                    if parent[a] != a:
                        if link[a] > h:
                            h, ha = link[a], a
                        a = parent[a]
                        if mark_v[a] == step:
                            g, gb = heavy_v[a], at_v[a]
                            break
                        mark_u[a], heavy_u[a], at_u[a] = step, h, ha
                    if parent[b] != b:
                        if link[b] > g:
                            g, gb = link[b], b
                        b = parent[b]
                        if mark_u[b] == step:
                            h, ha = heavy_u[b], at_u[b]
                            break
                        mark_v[b], heavy_v[b], at_v[b] = step, g, gb
                if max(h, g) <= y:
                    continue
                # cut the heaviest link of the cycle; the endpoint below it
                # is then at most its walk's length from its root
                if h >= g:
                    parent[ha] = ha
                else:
                    parent[gb] = gb
                    u, v = v, u
            # re-root u's tree at u and hang it under v
            a, prev, w = u, v, y
            while True:
                up, up_w = parent[a], link[a]
                parent[a], link[a] = prev, w
                if up == a:
                    break
                a, prev, w = up, a, up_w
            kept[e] = True
        out = np.flatnonzero(kept)
        out.flags.writeable = False
        return out

    def __repr__(self) -> str:
        return (
            f"BiFiltration(n={self.n}, vertices={self.vertex_count}, "
            f"X={self.max_x}, Y={self.max_y}, one_critical={self.one_critical})"
        )

    def translated(self, vx: float, vy: float) -> "BiFiltration":
        """New filtration with every critical value shifted by (vx, vy).

        Float rounding is monotone, so the shift keeps face closure and
        monotonicity: the complex structure is shared, not checked again,
        unless rounding merges two coordinates of one critical set.
        """
        out = copy.copy(self)
        out._set_critical([tuple((x + vx, y + vy) for x, y in c) for c in self.critical])
        # a reduced critical set has x strictly rising and y strictly falling
        strict = (np.diff(out.px) > 0.0) & (np.diff(out.py) < 0.0)
        strict[out.offsets[1:-1] - 1] = True  # pairs across two sets
        if not strict.all():
            return validate_bifiltration(self.simplices, out.critical)
        return out


class MonoFiltration:
    """One real value per simplex of a shared complex.

    pushed says that each value is the least push of the simplex's own
    critical points under one map monotone in both coordinates, as
    `restrict` makes them. Dimension-0 persistence then runs over the
    complex's `merge_candidates`; for any other values, over every edge.
    """

    def __init__(self, complex: BiFiltration, values: np.ndarray, pushed: bool = False):
        self.complex = complex
        self.values = np.asarray(values, dtype=np.float64)
        self.pushed = pushed
        if self.values.shape != (complex.n,):
            raise ValueError("one value per simplex required")

    def check_monotone(self) -> None:
        """Raise MonotonicityViolation unless faces enter no later than cofaces."""
        vals = self.values
        for i, fs in enumerate(self.complex.facet_indices):
            for j in fs:
                if vals[j] > vals[i]:
                    raise MonotonicityViolation(
                        f"value({self.complex.simplices[j]})={vals[j]} > "
                        f"value({self.complex.simplices[i]})={vals[i]}"
                    )


def mono_filtration(
    simplices: Iterable[Iterable[int]], values: Iterable[float]
) -> MonoFiltration:
    """Build a validated mono-filtration from raw simplices and values."""
    simps = [canonical_simplex(s) for s in simplices]
    vals = [float(v) for v in values]
    F = validate_bifiltration(simps, [[(v, v)] for v in vals])
    # validate_bifiltration re-sorts; map values onto the storage order
    raw = dict(zip(simps, vals))
    return MonoFiltration(F, np.array([raw[s] for s in F.simplices]))


def validate_bifiltration(
    simplices: Iterable[Iterable[int]],
    critical: Iterable[Iterable[Sequence[float]]],
) -> BiFiltration:
    """Check a raw simplex/critical-set list and build a BiFiltration.

    Checks, in order: simplex well-formedness, critical-set sanity
    (non-empty, finite), face closure, and monotonicity of the staircase
    regions along faces. Face closure is an error, never repaired.
    """
    simps = [canonical_simplex(s) for s in simplices]
    crits_raw = [list(c) for c in critical]
    if len(simps) != len(crits_raw):
        raise ValueError("one critical set per simplex required")
    if len(set(simps)) != len(simps):
        seen: set[Simplex] = set()
        for s in simps:
            if s in seen:
                raise ValueError(f"simplex {s} listed more than once")
            seen.add(s)

    crits: list[tuple[Point, ...]] = []
    for s, c in zip(simps, crits_raw):
        if not c:
            raise EmptyCriticalSet(f"simplex {s} has no critical values")
        pts = []
        for p in c:
            x, y = float(p[0]), float(p[1])
            if not (np.isfinite(x) and np.isfinite(y)):
                raise NonFiniteCoordinate(f"simplex {s} has critical value ({x}, {y})")
            pts.append((x, y))
        crits.append(reduce_antichain(pts))

    present = dict(zip(simps, crits))
    for s in simps:
        for f in facets(s):
            if f not in present:
                raise MissingFace(f"face {f} of {s} is missing")

    # staircase containment against immediate facets suffices by transitivity
    for s in simps:
        for f in facets(s):
            cf = present[f]
            for px, py in present[s]:
                if not any(qx <= px and qy <= py for qx, qy in cf):
                    raise MonotonicityViolation(
                        f"face {f} enters after coface {s}: "
                        f"no critical value of {f} is <= ({px}, {py})"
                    )

    return BiFiltration(simps, crits)


def normalize_pair(
    F1: BiFiltration, F2: BiFiltration
) -> tuple[BiFiltration, BiFiltration, Point]:
    """Translate both filtrations by one common vector into the quadrant.

    The matching distance is invariant only under a shared shift, so a pair
    must never be normalized one side at a time.
    """
    vx = -min(float(F1.px.min()) if F1.n else 0.0, float(F2.px.min()) if F2.n else 0.0)
    vy = -min(float(F1.py.min()) if F1.n else 0.0, float(F2.py.min()) if F2.n else 0.0)
    vx = vx if vx != 0.0 else 0.0
    vy = vy if vy != 0.0 else 0.0
    if vx == 0.0 and vy == 0.0:
        return F1, F2, (0.0, 0.0)
    return F1.translated(vx, vy), F2.translated(vx, vy), (vx, vy)


def lower_star(
    simplices: Iterable[Iterable[int]],
    vertex_values: Mapping[int, Sequence[float]],
) -> BiFiltration:
    """1-critical bi-filtration with each simplex at the componentwise max
    of its vertex values."""
    simps = [canonical_simplex(s) for s in simplices]
    critical = []
    for s in simps:
        for v in s:
            if v not in vertex_values:
                raise MissingVertexValue(f"vertex {v} of {s} has no value")
        xs = [float(vertex_values[v][0]) for v in s]
        ys = [float(vertex_values[v][1]) for v in s]
        critical.append([(max(xs), max(ys))])
    return validate_bifiltration(simps, critical)
