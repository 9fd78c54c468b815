"""Persistence diagrams of mono-filtrations.

A MonoFiltration gives each cell of a `CellComplex` one value. Cells are
ordered by (value, storage index) ascending; storage order goes up by
dimension, so faces come before cofaces at equal values. Every cell of
the complex given is read, whatever made its values; the solver hands
persistence the smaller complex `BiFiltration.reduced(dim)`, whose
dimension-dim diagram on every slice is the same: the cells of dimension
<= dim with the few (dim + 1)-cells whose boundaries the diagram needs,
cut from the complex itself for dimension 0 and from its chunk reduction
for dimensions >= 1.

What does not depend on the values is planned once per complex and
dimension, by `_plan`, and kept with the complex: for dimension 0 the
edges and their ends and the number of merges, V minus the component
count; for each k >= 1 the block bounds of the k- and (k + 1)-cells,
the byte width of a column and, per boundary entry, its (k + 1)-cell
and its face's row in the column buffer. A slice only sorts its values
and fills that layout.

Dimension 0 is one union-find pass with the elder rule over the edges in
that order, on vertices relabelled by the rank of their values; it stops
after the plan's merges, and the essential births are the values of the
vertices that never die, one root per component, its minimum. An edge
whose boundary is empty is a cycle and merges nothing.
Dimensions k >= 1 clear with its negative edges, the ones that
merge two components, and reduce the coboundary matrix over the
two-element field with clearing (Chen & Kerber's twist, as in Ripser):
dimensions go upward, a k-cell that dimension k - 1 paired as a death is
skipped, and each remaining k-cell, in reverse order, has its coboundary
column reduced. A column is an integer bitmask over the (k + 1)-cells
ranked in slice order, the earliest as the highest bit. All columns of a
dimension are built at once from the flat boundary of the (k + 1)-cells:
each entry sets its cell's bit in its face's row of one packed byte
buffer, and each row is read as an int. A column's pivot is the cofacet
that kills the class the cell creates; a column that reduces to zero is
essential. The pairs equal those of boundary-matrix reduction on the
same order.

Pairs with death equal to birth are dropped: they cost nothing in any
bottleneck matching and bloat diagrams on degenerate slices. A Diagram's
`finite` is an (n, 2) float64 array with rows in lexicographic (birth,
death) order, `essential` a sorted float64 array, both read-only: the
one form that the bottleneck and the dumps read. `Diagram(...)` checks
and sorts any points into that form. `diagram` builds it directly: a
MonoFiltration's values are finite, and a pair's death is never below
its birth, so its points need only the mask, one lexsort and one sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import CellComplex, MonoFiltration, homology_dim


@dataclass(frozen=True, eq=False)
class Diagram:
    """Finite (birth, death) points plus essential births, made canonical.

    A point given in `finite` with death +inf is essential, and is kept as
    its birth in `essential`. A finite point with death < birth or a nan or
    -inf coordinate, or a nan essential birth, raises ValueError.
    """

    finite: np.ndarray
    essential: np.ndarray
    homology_dimension: int = 0

    def __post_init__(self):
        pts = np.asarray(self.finite, dtype=np.float64)
        pts = pts.reshape(len(pts), 2)  # (0, 2) when empty; other shapes raise
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
        # "not >=" also catches a nan in either coordinate; births ascend,
        # so with death >= birth a -inf shows in the first birth
        if not (pts[:, 1] >= pts[:, 0]).all() or (len(pts) and pts[0, 0] == -np.inf):
            raise ValueError("diagram points need -inf < birth <= death and no nan")
        ess = np.asarray(self.essential, dtype=np.float64)
        if len(pts) and pts[:, 1].max() == np.inf:
            ess = np.append(ess, pts[pts[:, 1] == np.inf, 0])
            pts = pts[pts[:, 1] < np.inf]
        ess = np.sort(ess)
        if len(ess) and np.isnan(ess[-1]):  # nan sorts last
            raise ValueError("essential births need no nan")
        pts.flags.writeable = ess.flags.writeable = False
        object.__setattr__(self, "finite", pts)
        object.__setattr__(self, "essential", ess)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return (
            self.homology_dimension == other.homology_dimension
            and np.array_equal(self.finite, other.finite)
            and np.array_equal(self.essential, other.essential)
        )

    def __len__(self) -> int:
        return len(self.finite) + len(self.essential)


def _merge_edges(n: int, edges: list[int], us: list[int], vs: list[int],
                 left: int) -> tuple[list[int], list[int]]:
    """Union-find with the elder rule over edge i, joining us[i] and vs[i],
    in turn, on the vertices 0..n-1: of two roots the smaller label
    survives, so a root is always its component's smallest label. The
    loop stops after `left` merges; n - 1 at most happen. Returns, per
    merge in order, the dying root and the merging edge.
    """
    parent = list(range(n))
    dying: list[int] = []
    merging: list[int] = []
    for e, u, v in zip(edges, us, vs):
        # find both roots, halving the paths on the way
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            continue
        if u > v:
            u, v = v, u
        parent[v] = u  # v is the younger root
        dying.append(v)
        merging.append(e)
        left -= 1
        if not left:
            break
    return dying, merging


def _plan(K: CellComplex, k: int) -> tuple:
    """What persistence reads of K in dimension k, whatever its values,
    built on first use and kept in K's `__dict__`, one per k. It depends
    on the cells and their boundaries only, so `translated` copies, which
    copy that dict, share it.

    For k = 0 it is (edges, ends, merges): the edges with a two-vertex
    boundary, ascending, an (len(edges), 2) array of the two vertices of
    each, and the merges a union-find over them makes, V minus the
    component count. Every other edge has an empty boundary; it is a
    cycle and never merges components.

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
            lo = K.vertex_count
            edges = lo + np.flatnonzero(np.diff(ptr[lo : lo + K.edge_count + 1]) == 2)
            ends = idx[ptr[edges, None] + np.arange(2)]
            # in storage order, with a stop no run reaches: lo - 1 merges at most
            merges = len(_merge_edges(lo, edges.tolist(), *ends.T.tolist(), lo)[0])
            cache[k] = edges, ends, merges
        else:
            a, b, c = np.searchsorted(K.dims, (k, k + 1, k + 2)).tolist()
            width = (c - b + 7) // 8
            owner = np.repeat(np.arange(c - b), np.diff(ptr[b : c + 1]))
            cache[k] = a, b, c, width, owner, (idx[ptr[b] : ptr[c]] - a) * width
    return cache[k]


# _ONE_BIT[b] is a byte with only bit b set
_ONE_BIT = (1 << np.arange(8)).astype(np.uint8)


def _coboundary_pairs(M: MonoFiltration, cleared: set[int], dim: int) -> tuple[list, list]:
    """Flattened (cell, pivot cell) pairs and essential cells of dimension
    dim, by reduction with clearing from the negative edges."""
    K = M.complex
    pairs: list[int] = []
    essential: list[int] = []
    for k in range(1, dim + 1):
        a, b, c, width, owner, row = _plan(K, k)
        up = np.argsort(M.values[b:c], kind="stable")
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
        for s in (a + np.argsort(M.values[a:b], kind="stable")[::-1]).tolist():
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
    return pairs, essential


def _trusted_diagram(ends: np.ndarray, essential: np.ndarray, dim: int) -> Diagram:
    """The Diagram of persistence's own pairs, built without Diagram's
    checks. ends holds (birth, death) rows with birth <= death, essential
    the essential births, all finite: MonoFiltration admits finite values
    only, and essential classes never reach ends."""
    pts = ends[ends[:, 1] > ends[:, 0]]
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    ess = np.sort(essential)
    pts.flags.writeable = ess.flags.writeable = False
    D = object.__new__(Diagram)
    object.__setattr__(D, "finite", pts)
    object.__setattr__(D, "essential", ess)
    object.__setattr__(D, "homology_dimension", dim)
    return D


def diagram(M: MonoFiltration, dim: int = 0) -> Diagram:
    """Persistence diagram of M in homology dimension dim.

    Dimension 0 is the union-find diagram: each connected component
    contributes one essential point at its minimal vertex value. Higher
    dimensions reduce coboundary columns with clearing, starting from the
    negative edges of the union-find. A non-integer or negative dim
    raises ValueError.
    """
    dim = homology_dim(dim)
    K, vals = M.complex, M.values
    n = K.vertex_count
    edges, ends, merges = _plan(K, 0)
    # rank labels: a component's birth is the value of its smallest label,
    # and of two equal births the vertex later in storage order dies
    vorder = np.argsort(vals[:n], kind="stable")
    rank = np.empty_like(vorder)
    rank[vorder] = np.arange(n)
    order = np.argsort(vals[edges], kind="stable")
    dying, merging = _merge_edges(n, edges[order].tolist(), *rank[ends[order]].T.tolist(), merges)
    if dim == 0:
        dead = vorder[dying]
        alive = np.ones(n, dtype=bool)
        alive[dead] = False
        return _trusted_diagram(np.column_stack((vals[dead], vals[merging])), vals[:n][alive], 0)
    pairs, essential = _coboundary_pairs(M, set(merging), dim)
    return _trusted_diagram(vals[pairs].reshape(-1, 2), vals[essential], dim)
