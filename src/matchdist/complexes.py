"""Simplicial complexes with one- or two-parameter filtration values.

A bi-filtration assigns each simplex a non-empty antichain of points in the
plane (a single point in the common 1-critical case); a mono-filtration
assigns a single real. Both are validated against face closure and
monotonicity along faces. Coordinates are plain doubles throughout.

Restriction and persistence read one interface, `CellComplex`: cell
dimensions, critical sets flat in `px`/`py` with offsets, and the
boundary as flat (CSR) arrays, the only incidence data a complex holds.
A `BiFiltration` is a simplicial `CellComplex`. `BiFiltration.reduced(dim)`
is a plain `CellComplex` cut from it, with the same dimension-dim diagram
on every slice, built once per dim: the cells of dimension <= dim and
only the (dim + 1)-cells whose boundaries `_span_sweep` keeps, from the
complex itself for dim 0 and from its chunk reduction for dims >= 1.
Each is exact only for pushes of its own critical points, so it is built
here and handed to `restrict`, never implied inside persistence, which
plans for itself what it reads of a complex whatever its values.
"""

from __future__ import annotations

import copy
import itertools
import operator
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


def homology_dim(dim) -> int:
    """dim as an int, the one check of a homology dimension: operator.index
    takes ints and numpy's integers, not 1.0 or "1"; a non-integer or a
    negative dim raises ValueError."""
    try:
        dim = operator.index(dim)
    except TypeError:
        raise ValueError("homology dimension must be an integer") from None
    if dim < 0:
        raise ValueError("homology dimension must be non-negative")
    return dim


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


def _csr(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, flat): row i is flat[ptr[i]:ptr[i + 1]]."""
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=ptr[1:])
    return ptr, np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=int(ptr[-1]))


class CellComplex:
    """Graded cell complex over the two-element field: what restriction
    and persistence read.

    Cells are stored by dimension, so each dimension is one block of
    storage indices, vertices first, and every face comes before its
    cofaces. Each cell has a grade, a non-empty antichain of critical
    points, kept flat in `px`/`py` with `offsets`. The boundary of cell i
    is `boundary_idx[boundary_ptr[i]:boundary_ptr[i + 1]]`, cells one
    dimension lower. An edge's boundary has two vertices, or none after a
    chunk reduction: such an edge is a cycle.
    """

    def __init__(self, dims: np.ndarray, critical: list[tuple[Point, ...]],
                 boundary_ptr: np.ndarray, boundary_idx: np.ndarray):
        # trusted inputs: cells sorted by dimension, boundaries one lower
        self.n = len(critical)
        self.dims = dims
        self.boundary_ptr = boundary_ptr
        self.boundary_idx = boundary_idx
        self.vertex_count = int(np.count_nonzero(dims == 0))
        self.edge_count = int(np.count_nonzero(dims == 1))
        self._set_critical(critical)

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

    def __len__(self) -> int:
        return self.n


def _span_sweep(K: CellComplex, k: int) -> np.ndarray:
    """Storage indices, ascending, of the (k + 1)-cells of K that the
    dimension-k diagrams need on pushes of K's critical points.

    A (k + 1)-cell acts on H_k only through its boundary. It is dropped
    when, at each of its critical points q, its boundary lies in the span
    of the boundaries of kept cells that have a critical point <= q
    (Lesnick & Wright, arXiv:1902.05708). A slice's value of a cell is the
    least push of its critical points, and pushes are monotone in both
    coordinates, so on every slice those cells enter no later than the
    dropped one: every sublevel complex has the same k-boundaries with or
    without it, hence the same H_k module and the same dimension-k
    diagram, ties included.

    One sweep over the critical points in (x, y, storage index) order
    keeps a pivot-keyed basis of boundaries over the two-element field,
    each row a bitmask over the k-cells with the largest y that went into
    it. A point's boundary is reduced down the pivots, swapping in at a
    row of larger y and carrying the sum of the two on, so the rows with
    y <= y' span all swept points with y <= y' for every y'. A point that
    reduces to zero without a swap lies in the span of swept points that
    are <= it, and is dropped; the storage-index tie-break keeps equal
    boundaries of one grade from justifying each other's removal. A cell
    is kept if any of its points entered the basis.

    At k = 0 a set of edge boundaries is independent exactly when its
    edges form a forest, so the basis is a spanning forest of the swept
    points that is minimal in y. The minimax path weight between two
    vertices is the same in every such forest, so the kept edges do not
    depend on which one the sweep holds.
    """
    a, b, c = np.searchsorted(K.dims, (k, k + 1, k + 2)).tolist()
    ptr, idx = K.boundary_ptr.tolist(), K.boundary_idx.tolist()
    vecs = [sum(1 << (f - a) for f in idx[ptr[t] : ptr[t + 1]]) for t in range(b, c)]
    starts = K.offsets[b : c + 1]
    owner = np.repeat(np.arange(c - b), np.diff(starts))
    xs, ys = K.px[starts[0] : starts[-1]], K.py[starts[0] : starts[-1]]
    order = np.lexsort((owner, ys, xs)).tolist()
    owner, ys = owner.tolist(), ys.tolist()
    basis: dict[int, tuple[int, float]] = {}  # pivot -> (row, its y)
    kept = [False] * (c - b)
    for i in order:
        v, y = vecs[owner[i]], ys[i]
        while v:
            p = v.bit_length() - 1
            row = basis.get(p)
            if row is None or row[1] > y:
                basis[p] = (v, y)
                kept[owner[i]] = True
                if row is None:
                    break
                v, y = v ^ row[0], row[1]
            else:
                v ^= row[0]
    return b + np.flatnonzero(kept)


def _cut(K: CellComplex, k: int, keep: np.ndarray) -> CellComplex:
    """The cells of K of dimension <= k and its (k + 1)-cells `keep`: a
    prefix of storage and part of the next block, so every face keeps its
    storage index and the boundary needs no remapping."""
    cells = K.dims <= k
    cells[keep] = True
    sizes = np.diff(K.boundary_ptr)
    ptr = np.zeros(np.count_nonzero(cells) + 1, dtype=np.int64)
    np.cumsum(sizes[cells], out=ptr[1:])
    return CellComplex(K.dims[cells], [K.critical[i] for i in np.flatnonzero(cells).tolist()],
                       ptr, K.boundary_idx[np.repeat(cells, sizes)])


def _chunk_complex(F: CellComplex) -> CellComplex:
    """The chunk reduction of F (Fugacci & Kerber, arXiv:1812.08580).

    It goes up the storage order, and when a cell t's current boundary
    holds a face s of equal grade it adds t's boundary to every other
    coface of s, which drops s from theirs, and then drops s and t. Two
    cells of equal grade enter together on every slice, and the
    elimination is a filtered chain equivalence, so every slice keeps its
    persistence modules: only the pair's zero-length interval goes, which
    diagrams drop anyway. The grade is the whole critical set, so this is
    exact for k-critical inputs too. A coface r of s stays graded, since
    the faces of t enter no later than t, which enters with s, before r.
    """
    grade = F.critical
    ptr, idx = F.boundary_ptr.tolist(), F.boundary_idx.tolist()
    bd = [set(idx[ptr[t] : ptr[t + 1]]) for t in range(F.n)]
    cob: list[set[int]] = [set() for _ in range(F.n)]
    for t, fs in enumerate(bd):
        for f in fs:
            cob[f].add(t)
    alive = [True] * F.n
    for t in range(F.n):  # t is alive: a face dies at a later coface's turn
        g, tb = grade[t], bd[t]
        s = min((f for f in tb if grade[f] == g), default=None)
        if s is None:
            continue
        for r in cob[s] - {t}:
            bd[r] ^= tb
            for f in tb:
                cob[f] ^= {r}
        for f in bd[s]:
            cob[f].discard(s)
        for f in tb:
            cob[f].discard(t)
        for r in cob[t]:
            bd[r].discard(t)
        alive[s] = alive[t] = False
    keep = [i for i in range(F.n) if alive[i]]
    new = {c: j for j, c in enumerate(keep)}
    bds = [sorted(new[f] for f in bd[c]) for c in keep]
    return CellComplex(F.dims[keep], [F.critical[i] for i in keep], *_csr(bds))


class BiFiltration(CellComplex):
    """Validated bi-filtered simplicial complex.

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
        dims = np.array([len(s) - 1 for s in self.simplices], dtype=np.int64)
        super().__init__(dims, [critical[i] for i in order],
                         *_csr([[self.index[f] for f in facets(s)] for s in self.simplices]))
        # vertices come first in storage order, so a vertex's storage index
        # is its rank among the vertex ids; the edges follow as one block
        self.vertex_ids: list[int] = [s[0] for s in self.simplices[: self.vertex_count]]

    @cached_property
    def distinct_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(xs, ys): the distinct critical points of all cells, in
        lexicographic order, read-only; the points the L bound scans. A
        maximum over a multiset is the maximum over its distinct values,
        and a lower-star filtration repeats a vertex's value in every
        simplex it is the largest vertex of. `translated` drops them."""
        pts = np.unique(np.column_stack((self.px, self.py)), axis=0)
        out = pts[:, 0].copy(), pts[:, 1].copy()
        for a in out:
            a.flags.writeable = False
        return out

    def reduced(self, dim: int) -> CellComplex:
        """A smaller complex whose restriction onto any slice has the same
        dimension-dim diagram as this one's, built on first use and kept,
        one per dim. A non-integer or negative dim raises ValueError.

        It is a plain `CellComplex`, never a `BiFiltration`, cut by
        `_cut`: the cells of dimension <= dim and the (dim + 1)-cells that
        `_span_sweep` keeps, of this complex for dim 0 and of its chunk
        reduction `_chunk_complex`, which is not kept, for dims >= 1. Dim 0
        skips the chunk reduction, which on `generate_random` inputs drops
        few cells or none yet adds to the build's time and memory.
        """
        dim = homology_dim(dim)
        cache = self.__dict__.setdefault("_reduced", {})
        if dim not in cache:
            K = self if dim == 0 else _chunk_complex(self)
            cache[dim] = _cut(K, dim, _span_sweep(K, dim))
        return cache[dim]

    def __repr__(self) -> str:
        return (
            f"BiFiltration(n={self.n}, vertices={self.vertex_count}, "
            f"X={self.max_x}, Y={self.max_y}, one_critical={self.one_critical})"
        )

    def translated(self, vx: float, vy: float) -> "BiFiltration":
        """New filtration with every critical value shifted by (vx, vy).

        Float rounding is monotone, so the shift keeps face closure and
        monotonicity: the complex structure is shared, not checked again,
        unless rounding merges two coordinates of one critical set or
        overflows one to an infinity, which raises NonFiniteCoordinate.
        """
        out = copy.copy(self)
        # its complexes and points are unshifted
        out.__dict__.pop("_reduced", None)
        out.__dict__.pop("distinct_points", None)
        out._set_critical([tuple((x + vx, y + vy) for x, y in c) for c in self.critical])
        if not (np.isfinite(out.px).all() and np.isfinite(out.py).all()):
            return validate_bifiltration(self.simplices, out.critical)
        # a reduced critical set has x strictly rising and y strictly falling
        strict = (np.diff(out.px) > 0.0) & (np.diff(out.py) < 0.0)
        strict[out.offsets[1:-1] - 1] = True  # pairs across two sets
        if not strict.all():
            return validate_bifiltration(self.simplices, out.critical)
        return out


class MonoFiltration:
    """One finite real value per cell of a shared complex.

    Persistence reads every cell of the complex, whatever made the
    values; to compute it on fewer, restrict a `BiFiltration.reduced`.
    A nan or infinite value raises ValueError: a cell that never enters,
    or enters before everything, has no place in a diagram's points.
    """

    def __init__(self, complex: CellComplex, values: np.ndarray):
        self.complex = complex
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.shape != (complex.n,):
            raise ValueError("one value per simplex required")
        if not np.isfinite(self.values).all():
            raise ValueError("filtration values must be finite")

    def check_monotone(self) -> None:
        """Raise MonotonicityViolation unless faces enter no later than cofaces."""
        K, vals = self.complex, self.values
        cells = np.repeat(np.arange(K.n), np.diff(K.boundary_ptr))
        late = np.flatnonzero(vals[K.boundary_idx] > vals[cells])
        if len(late):
            i, j = int(cells[late[0]]), int(K.boundary_idx[late[0]])
            raise MonotonicityViolation(
                f"value of cell {j} ({vals[j]}) > value of its coface {i} ({vals[i]})"
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
