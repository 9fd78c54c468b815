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

Dimension 0 is one union-find pass with the elder rule over the edges in
that order; an edge whose boundary is empty is a cycle and merges
nothing. Dimensions k >= 1 clear with its negative edges, the ones that
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
one form that the bottleneck and the dumps read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import MonoFiltration, homology_dim


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


def _merge_edges(M: MonoFiltration) -> tuple[list[int], list[int]]:
    """Union-find over all edges in cell order, with the elder rule.

    When an edge merges two components the younger one dies: larger birth
    value, ties broken in favour of the smaller creator-vertex id. A root
    is always its component's creator vertex, and vertex storage indices
    rise with the ids, so births and creators are known before the loop.
    An edge with an empty boundary is a cycle and merges nothing. Returns
    the merges as flattened (dying root, merging edge) pairs, and the
    roots of the components left at the end.
    """
    K = M.complex
    vals = M.values.tolist()
    edges, ends = K.edge_ends
    order = np.argsort(M.values[edges], kind="stable")
    vs, us = ends[order].T.tolist()
    parent = list(range(K.vertex_count))

    merges: list[int] = []  # dying root, merging edge, flattened
    for e, v, u in zip(edges[order].tolist(), vs, us):
        # find both roots, halving the paths on the way
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            continue
        if vals[u] > vals[v] or (vals[u] == vals[v] and u < v):
            u, v = v, u
        parent[v] = u  # v is the younger root
        merges += (v, e)
    return merges, [v for v in range(K.vertex_count) if parent[v] == v]


# _ONE_BIT[b] is a byte with only bit b set
_ONE_BIT = (1 << np.arange(8)).astype(np.uint8)


def _coboundary_pairs(M: MonoFiltration, cleared: set[int], dim: int) -> tuple[list, list]:
    """Flattened (cell, pivot cell) pairs and essential cells of dimension
    dim, by reduction with clearing from the negative edges."""
    K = M.complex
    ptr, idx = K.boundary_ptr, K.boundary_idx
    pairs: list[int] = []
    essential: list[int] = []
    for k in range(1, dim + 1):
        # the k-cells are [a, b), the (k + 1)-cells [b, c)
        a, b, c = np.searchsorted(K.dims, (k, k + 1, k + 2)).tolist()
        up = np.argsort(M.values[b:c], kind="stable")
        # bit p of a column stands for the (k + 1)-cell by_bit[p]: earlier is higher
        bit = np.empty(c - b, dtype=np.int64)
        bit[up] = np.arange(c - b - 1, -1, -1)
        by_bit = (b + up[::-1]).tolist()
        # every column at once: row r of a packed little-endian buffer is the
        # column of the k-cell a + r; a (k + 1)-cell sets its bit in its faces' rows
        width = (c - b + 7) // 8
        at = np.repeat(bit, np.diff(ptr[b : c + 1]))
        row = (idx[ptr[b] : ptr[c]] - a) * width
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


def diagram(M: MonoFiltration, dim: int = 0) -> Diagram:
    """Persistence diagram of M in homology dimension dim.

    Dimension 0 is the union-find diagram: each connected component
    contributes one essential point at its minimal vertex value. Higher
    dimensions reduce coboundary columns with clearing, starting from the
    negative edges of the union-find. A non-integer or negative dim
    raises ValueError.
    """
    dim = homology_dim(dim)
    pairs, essential = _merge_edges(M)
    if dim > 0:
        pairs, essential = _coboundary_pairs(M, set(pairs[1::2]), dim)
    ends = M.values[pairs].reshape(-1, 2)  # (birth, death) rows
    return Diagram(ends[ends[:, 1] > ends[:, 0]], M.values[essential], dim)
