"""Persistence diagrams of mono-filtrations.

A MonoFiltration gives each cell of a `CellComplex` one value. Cells are
ordered by value, faces before cofaces at equal values, and tied cells of
one dimension in whatever order one unstable sort leaves them: with pairs
of zero length dropped, the diagram does not depend on it. Every cell of
the complex given is read, whatever made its values; the solver hands
persistence the smaller complex `BiFiltration.reduced(dim)`, whose
dimension-dim diagram on every slice is the same: the cells of dimension
<= dim with the few (dim + 1)-cells whose boundaries the diagram needs,
cut from the complex itself for dimension 0 and from its chunk reduction
for dimensions >= 1.

What does not depend on the values is planned once per complex and
dimension, by `_plan`, and kept with the complex: for dimension 0 the two
ends of every edge and the number of merges, V minus the component
count; for each k >= 1 the block bounds of the k- and (k + 1)-cells,
the byte width of a column and, per boundary entry, its (k + 1)-cell
and its face's row in the column buffer. A slice sorts its edge values
and those of each higher dimension it reads once, and fills that layout.

Dimension 0 is one union-find pass with the elder rule over the edges in
that order: of two roots, the one with the larger value dies. It stops
after the plan's merges; a merge pairs the dying root's value with its
edge's, and the vertices that never die, one root per component, hold
the essential births. An edge whose boundary is empty, a cycle, is a
loop and merges nothing. Dimensions k >= 1 clear with its negative
edges, the ones that merge two components, and reduce the coboundary
matrix over the two-element field with clearing (Chen & Kerber's twist,
as in Ripser): dimensions go upward, a k-cell that dimension k - 1
paired as a death is skipped, and each remaining k-cell, in reverse of
the order that ranked it in dimension k - 1, has its coboundary column
reduced, so clearing and reduction read one order. A column is an
integer bitmask over the (k + 1)-cells ranked in slice order, the
earliest as the highest bit. All columns of a dimension are built at
once from the flat boundary of the (k + 1)-cells: each entry sets its
cell's bit in its face's row of one packed byte buffer, and each row is
read as an int. A column's pivot is the cofacet that kills the class the
cell creates; a column that reduces to zero is essential. The pairs
equal those of boundary-matrix reduction on the same order.

Pairs with death equal to birth are dropped: they cost nothing in any
bottleneck matching and bloat diagrams on degenerate slices. A Diagram's
`finite` is an (n, 2) float64 array with rows by falling persistence,
the order the bottleneck reads, ties as one argsort leaves them;
`essential` a sorted float64 array; both read-only. Both constructors
store through `_store`: `Diagram(...)` checks any points first, and
`diagram` needs no checks, as a MonoFiltration's values are finite and a
pair's death is never below its birth. Equality and the dumps read the
rows in `lexicographic` (birth, death) order, which ties cannot change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import CellComplex, MonoFiltration, homology_dim


def _store(D: Diagram, pts: np.ndarray, ess: np.ndarray, dim: int) -> None:
    """Set D's fields: the (n, 2) finite points by falling persistence, with
    one argsort (birth - death rises as death - birth falls, bit for bit),
    the essential births sorted, both read-only, and the dimension."""
    pts = pts[np.argsort(pts[:, 0] - pts[:, 1])]
    ess = np.sort(ess)
    pts.flags.writeable = ess.flags.writeable = False
    object.__setattr__(D, "finite", pts)
    object.__setattr__(D, "essential", ess)
    object.__setattr__(D, "homology_dimension", dim)


def lexicographic(pts: np.ndarray) -> np.ndarray:
    """The rows of an (n, 2) array in lexicographic (birth, death) order."""
    return pts[np.lexsort((pts[:, 1], pts[:, 0]))]


@dataclass(frozen=True, eq=False)
class Diagram:
    """Finite (birth, death) points plus essential births, stored sorted.

    A point given in `finite` with death +inf is essential, and is kept as
    its birth in `essential`. A finite point with death < birth or a nan or
    -inf coordinate, an `essential` that is not 1-D or holds a nan, or a
    homology dimension that is not a non-negative integer raises
    ValueError. Two diagrams are equal when their dimensions and their
    multisets of points are.
    """

    finite: np.ndarray
    essential: np.ndarray
    homology_dimension: int = 0

    def __post_init__(self):
        dim = homology_dim(self.homology_dimension)
        pts = np.asarray(self.finite, dtype=np.float64)
        pts = pts.reshape(len(pts), 2)  # (0, 2) when empty; other shapes raise
        # "not >=" also catches a nan in either coordinate; with death >=
        # birth, a -inf is a birth
        if not (pts[:, 1] >= pts[:, 0]).all() or np.isneginf(pts[:, 0]).any():
            raise ValueError("diagram points need -inf < birth <= death and no nan")
        ess = np.asarray(self.essential, dtype=np.float64)
        if ess.ndim != 1 or np.isnan(ess).any():
            raise ValueError("essential births need a 1-D array and no nan")
        if np.isposinf(pts[:, 1]).any():
            ess = np.append(ess, pts[pts[:, 1] == np.inf, 0])
            pts = pts[pts[:, 1] < np.inf]
        _store(self, pts, ess, dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return (
            self.homology_dimension == other.homology_dimension
            and np.array_equal(lexicographic(self.finite), lexicographic(other.finite))
            and np.array_equal(self.essential, other.essential)
        )

    def __len__(self) -> int:
        return len(self.finite) + len(self.essential)


def _merge_edges(vals: list[float], us: list[int], vs: list[int],
                 left: int) -> tuple[list[int], list[int]]:
    """Union-find with the elder rule over edge i, joining us[i] and vs[i],
    in turn, on vertices of values vals: of two roots the one of larger
    value dies, either on a tie, so a root holds its component's minimum.
    The loop stops after `left` merges. Returns, per merge in order, the
    dying root and the merging edge's position i.
    """
    parent = list(range(len(vals)))
    dying: list[int] = []
    merging: list[int] = []
    for i, u, v in zip(range(len(us)), us, vs):
        # find both roots, halving the paths on the way
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            continue
        if vals[u] < vals[v]:
            u, v = v, u
        parent[u] = v  # u is the younger root
        dying.append(u)
        merging.append(i)
        left -= 1
        if not left:
            break
    return dying, merging


def _plan(K: CellComplex, k: int) -> tuple:
    """What persistence reads of K in dimension k, whatever its values,
    built on first use and kept in K's `__dict__`, one per k. It depends
    on the cells and their boundaries only, so `translated` copies, which
    copy that dict, share it.

    For k = 0 it is (us, vs, merges): the two ends of every edge, in
    storage order, and the merges a union-find over them makes, V minus
    the component count. An edge with an empty boundary, a cycle, is a
    loop at vertex 0 and merges nothing: the chunk reduction that leaves
    cycles keeps H0, so a complex with an edge has a vertex.

    For k >= 1 it is (a, b, c, width, owner, row), the layout of the
    packed coboundary columns of the k-cells [a, b): row r of a buffer of
    (b - a) * width bytes, one bit per (k + 1)-cell of [b, c), is the
    column of the k-cell a + r, and boundary entry i sets the bit of
    (k + 1)-cell b + owner[i] in the row at byte offset row[i].
    """
    cache = K.__dict__.setdefault("_plans", {})
    if k not in cache:
        ptr, idx = K.boundary_ptr, K.boundary_idx
        if k == 0:
            n, e = K.vertex_count, K.edge_count
            pair = np.diff(ptr[n : n + e + 1]) == 2
            # idx is read for the two-vertex edges only: it is empty when all are cycles
            us, vs = ends = np.zeros((2, e), dtype=np.int64)
            ends[:, pair] = idx[ptr[n : n + e][pair] + np.arange(2)[:, None]]
            # with a stop no run reaches: n - 1 merges at most
            merges = len(_merge_edges([0.0] * n, us.tolist(), vs.tolist(), n)[0])
            cache[k] = us, vs, merges
        else:
            a, b, c = np.searchsorted(K.dims, (k, k + 1, k + 2)).tolist()
            width = (c - b + 7) // 8
            owner = np.repeat(np.arange(c - b), np.diff(ptr[b : c + 1]))
            cache[k] = a, b, c, width, owner, (idx[ptr[b] : ptr[c]] - a) * width
    return cache[k]


# _ONE_BIT[b] is a byte with only bit b set
_ONE_BIT = (1 << np.arange(8)).astype(np.uint8)


def _coboundary_pairs(M: MonoFiltration, order: np.ndarray, cleared: set[int],
                      dim: int) -> tuple[list, list]:
    """Flattened (cell, pivot cell) pairs and essential cells of dimension
    dim, by reduction with clearing from the negative edges. Each k walks
    its k-cells as dimension k - 1 ranked them, the edges in the
    union-find's order, so clearing and reduction read one total order."""
    K = M.complex
    pairs: list[int] = []
    essential: list[int] = []
    for k in range(1, dim + 1):
        a, b, c, width, owner, row = _plan(K, k)
        up = np.argsort(M.values[b:c])
        # bit p of a column stands for the (k + 1)-cell by_bit[p]: earlier is higher
        bit = np.empty(c - b, dtype=np.int64)
        bit[up] = np.arange(c - b - 1, -1, -1)
        by_bit = (b + up[::-1]).tolist()
        # every column at once: each boundary entry sets its cell's bit in
        # its face's row of one packed little-endian buffer
        at = bit[owner]
        buf = np.zeros((b - a) * width, dtype=np.uint8)
        np.bitwise_or.at(buf, row + (at >> 3), _ONE_BIT[at & 7])
        raw = memoryview(buf)

        reduced: dict[int, int] = {}  # pivot bit -> reduced column
        for s in (a + order[::-1]).tolist():
            if s in cleared:
                continue
            r = (s - a) * width
            col = int.from_bytes(raw[r : r + width], "little")
            while col:
                p = col.bit_length() - 1
                other = reduced.get(p)
                if other is None:
                    reduced[p] = col
                    if k == dim:
                        pairs += (s, by_bit[p])
                    break
                col ^= other
            else:
                if k == dim:
                    essential.append(s)
        cleared = {by_bit[p] for p in reduced}
        order = up
    return pairs, essential


def _trusted_diagram(ends: np.ndarray, essential: np.ndarray, dim: int) -> Diagram:
    """The Diagram of persistence's own pairs, built without Diagram's
    checks. ends holds (birth, death) rows with birth <= death, essential
    the essential births, all finite: MonoFiltration admits finite values
    only, and essential classes never reach ends."""
    D = object.__new__(Diagram)
    _store(D, ends[ends[:, 1] > ends[:, 0]], essential, dim)
    return D


def diagram(M: MonoFiltration, dim: int = 0) -> Diagram:
    """Persistence diagram of M in homology dimension dim.

    Dimension 0 is the union-find diagram over the edges in one sort of
    their values: each connected component contributes one essential
    point at its minimal vertex value. Higher dimensions reduce coboundary
    columns with clearing, starting from the negative edges of the
    union-find and walking the edges in its order. A non-integer or
    negative dim raises ValueError.
    """
    dim = homology_dim(dim)
    K, vals = M.complex, M.values
    n = K.vertex_count
    us, vs, merges = _plan(K, 0)
    order = np.argsort(vals[n : n + len(us)])
    dying, merging = _merge_edges(vals[:n].tolist(), us[order].tolist(), vs[order].tolist(), merges)
    dead = n + order[merging]
    if dim == 0:
        dying = np.fromiter(dying, np.int64, len(dying))  # one conversion, two reads
        alive = np.ones(n, dtype=bool)
        alive[dying] = False
        return _trusted_diagram(np.column_stack((vals[dying], vals[dead])), vals[:n][alive], 0)
    pairs, essential = _coboundary_pairs(M, order, set(dead.tolist()), dim)
    return _trusted_diagram(vals[pairs].reshape(-1, 2), vals[essential], dim)
