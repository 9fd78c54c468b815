"""Persistence diagrams of mono-filtrations.

Simplices are ordered by (value, storage index) ascending; storage order
is (dimension, vertex tuple), so faces come before cofaces at equal values.

Dimension 0 is one union-find pass over the edges in that order with the
elder rule. The same pass finds the negative edges, the ones that merge
two components. Dimensions k >= 1 reduce the coboundary matrix over the
two-element field with clearing (Chen & Kerber's twist, as in Ripser):
dimensions go upward, a k-simplex that dimension k - 1 paired as a death
is skipped, and each remaining k-simplex, in reverse order, has its
coboundary column reduced. Columns are integer bitmasks with the earliest
cofacet as the highest bit. A column's pivot is the cofacet that kills the
class the simplex creates; a column that reduces to zero is essential.
The pairs equal those of boundary-matrix reduction on the same order.

Pairs with death equal to birth are dropped: they cost nothing in any
bottleneck matching and bloat diagrams on degenerate slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import MonoFiltration


@dataclass(frozen=True)
class Diagram:
    """Multiset of finite (birth, death) points plus essential births."""

    finite: tuple[tuple[float, float], ...]
    essential: tuple[float, ...]
    homology_dimension: int = 0

    @staticmethod
    def make(finite, essential, dim: int = 0) -> "Diagram":
        return Diagram(
            tuple(sorted((float(b), float(d)) for b, d in finite)),
            tuple(sorted(float(b) for b in essential)),
            dim,
        )

    def __len__(self) -> int:
        return len(self.finite) + len(self.essential)


def _merge_edges(M: MonoFiltration) -> tuple[list[tuple[float, float]], list[float], set[int]]:
    """Union-find over the edges in simplex order, with the elder rule.

    When an edge merges two components the younger one dies: larger birth
    value, ties broken in favour of the smaller creator-vertex id. A root
    is always its component's creator vertex, and vertex storage indices
    rise with the ids, so births and creators are known before the loop.
    Returns the finite dimension-0 pairs, the births of the components
    left at the end, and the set of merging (negative) edges.
    """
    K = M.complex
    vals = M.values.tolist()
    lo = K.vertex_count
    edges = lo + np.argsort(M.values[lo : lo + K.edge_count], kind="stable")
    facets = K.facet_indices
    parent = list(range(lo))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    finite: list[tuple[float, float]] = []
    negative: set[int] = set()
    for e in edges.tolist():
        v, u = facets[e]
        ra, rb = find(u), find(v)
        if ra == rb:
            continue
        ba, bb = vals[ra], vals[rb]
        if ba > bb or (ba == bb and ra < rb):
            ra, rb, bb = rb, ra, ba
        # rb is the younger root, born at bb
        if vals[e] > bb:
            finite.append((bb, vals[e]))
        parent[rb] = ra
        negative.add(e)
    essential = [vals[v] for v in range(lo) if parent[v] == v]
    return finite, essential, negative


def diagram(M: MonoFiltration, dim: int = 0) -> Diagram:
    """Persistence diagram of M in homology dimension dim.

    Dimension 0 is the union-find diagram: each connected component of the
    full complex contributes one essential point at its minimal vertex
    value. Higher dimensions reduce coboundary columns with clearing,
    starting from the negative edges.
    """
    finite, essential, cleared = _merge_edges(M)
    if dim == 0:
        return Diagram.make(finite, essential, 0)
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

    finite, essential = [], []
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
                    t = by_bit[p]
                    if k == dim and vals[t] > vals[s]:
                        finite.append((vals[s], vals[t]))
                    break
                col ^= other
            else:
                if k == dim:
                    essential.append(vals[s])
        cleared = {by_bit[p] for p in reduced}
    return Diagram.make(finite, essential, dim)
