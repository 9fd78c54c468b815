"""Persistence diagrams of mono-filtrations.

Simplices are ordered by (value, storage index) ascending; storage order
is (dimension, vertex tuple), so faces come before cofaces at equal values.

Dimension 0 is one union-find pass with the elder rule over the edges in
that order, only over `BiFiltration.merge_candidates` when the
mono-filtration is `pushed` (made by `restrict`). Dimensions k >= 1 clear
with the negative edges, the ones that merge two components, of a pass
over all edges: on tied values the candidates' negative edges can differ
from the full order's. They reduce the coboundary matrix over the
two-element field with clearing (Chen & Kerber's twist, as in Ripser):
dimensions go upward, a k-simplex that dimension k - 1 paired as a death
is skipped, and each remaining k-simplex, in reverse order, has its
coboundary column reduced. Columns are integer bitmasks with the earliest
cofacet as the highest bit. A column's pivot is the cofacet that kills
the class the simplex creates; a column that reduces to zero is
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

from .complexes import MonoFiltration


@dataclass(frozen=True, eq=False)
class Diagram:
    """Finite (birth, death) points plus essential births, made canonical.

    A finite point with death < birth or a nan coordinate, or a nan
    essential birth, raises ValueError.
    """

    finite: np.ndarray
    essential: np.ndarray
    homology_dimension: int = 0

    def __post_init__(self):
        pts = np.asarray(self.finite, dtype=np.float64)
        pts = pts.reshape(len(pts), 2)  # (0, 2) when empty; other shapes raise
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
        ess = np.sort(np.asarray(self.essential, dtype=np.float64))
        # nan sorts last; "not >=" also catches a nan in either coordinate
        if not (pts[:, 1] >= pts[:, 0]).all() or (len(ess) and np.isnan(ess[-1])):
            raise ValueError("diagram points need death >= birth and no nan")
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


def _merge_edges(M: MonoFiltration, edges: np.ndarray) -> tuple[list[int], list[int]]:
    """Union-find over the given edges in simplex order, with the elder rule.

    edges are storage indices in ascending order: all edges of the
    complex, or its `merge_candidates`. When an edge merges two components
    the younger one dies: larger birth value, ties broken in favour of the
    smaller creator-vertex id. A root is always its component's creator
    vertex, and vertex storage indices rise with the ids, so births and
    creators are known before the loop. Returns the merges as flattened
    (dying root, merging edge) pairs, and the roots of the components left
    at the end.
    """
    K = M.complex
    vals = M.values.tolist()
    lo = K.vertex_count
    edges = edges[np.argsort(M.values[edges], kind="stable")]
    facets = K.facet_indices
    parent = list(range(lo))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    merges: list[int] = []  # dying root, merging edge, flattened
    for e in edges.tolist():
        v, u = facets[e]
        ra, rb = find(u), find(v)
        if ra == rb:
            continue
        ba, bb = vals[ra], vals[rb]
        if ba > bb or (ba == bb and ra < rb):
            ra, rb = rb, ra
        parent[rb] = ra  # rb is the younger root
        merges += (rb, e)
    return merges, [v for v in range(lo) if parent[v] == v]


def _coboundary_pairs(M: MonoFiltration, cleared: set[int], dim: int) -> tuple[list, list]:
    """Flattened (simplex, pivot simplex) pairs and essential simplices of
    dimension dim, by reduction with clearing from the negative edges."""
    K = M.complex
    vals = M.values.tolist()
    cofacets = K.cofacet_indices
    rev = np.argsort(M.values, kind="stable")[::-1]
    # bit b of a column stands for the simplex rev[b]: earlier is higher
    bit = np.empty(K.n, dtype=np.int64)
    bit[rev] = np.arange(K.n)
    bit = bit.tolist()
    by_bit = rev.tolist()
    rev_dims = K.dims[rev]

    pairs: list[int] = []
    essential: list[int] = []
    for k in range(1, dim + 1):
        reduced: dict[int, int] = {}  # pivot bit -> reduced column
        for s in rev[rev_dims == k].tolist():
            if s in cleared:
                continue
            col = 0
            for t in cofacets[s]:
                col |= 1 << bit[t]
            while col:
                p = col.bit_length() - 1
                other = reduced.get(p)
                if other is None:
                    reduced[p] = col
                    # on lower-star slices most pairs die at birth: skip them
                    if k == dim and vals[by_bit[p]] > vals[s]:
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

    Dimension 0 is the union-find diagram, over the complex's
    `merge_candidates` when M is `pushed`: each connected component of the
    full complex contributes one essential point at its minimal vertex
    value. Higher dimensions reduce coboundary columns with clearing,
    starting from the negative edges of the union-find over all edges.
    """
    K = M.complex
    lo = K.vertex_count
    if dim == 0 and M.pushed:
        edges = K.merge_candidates
    else:
        edges = np.arange(lo, lo + K.edge_count)
    pairs, essential = _merge_edges(M, edges)
    if dim > 0:
        pairs, essential = _coboundary_pairs(M, set(pairs[1::2]), dim)
    ends = M.values[pairs].reshape(-1, 2)  # (birth, death) rows
    return Diagram(ends[ends[:, 1] > ends[:, 0]], M.values[essential], dim)
