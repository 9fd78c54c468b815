"""Bottleneck distance between two persistence diagrams.

Matched points cost the sup-norm of their difference (inf - inf = 0, so
essential points compare by birth and a finite/infinite match is
impossible); unmatched points cost half their persistence. Since essential
points can only match essential points, the distance is infinite exactly
when the essential counts differ, and otherwise splits into an independent
essential part (sorted 1-d pairing, which is optimal for min-max matching
on a line) and a finite part.

The finite part is solved exactly: the answer is the smallest feasible
value among the finitely many pairwise sup-distances and half-persistences.
Feasibility of a threshold t asks for a matching in the t-threshold graph
covering every point whose diagonal cost exceeds t on either side; by the
Mendelsohn-Dulmage theorem it is enough to saturate each side separately,
which is a plain maximum bipartite matching: scipy's
maximum_bipartite_matching (Hopcroft-Karp) at every graph size.

Every point pays at least the smaller of its nearest-partner distance and
its diagonal cost, so the largest such value, lb, bounds the answer from
below, and it is itself a candidate. The answer exceeds lb only when
points competing for the same partners push one of them above its own
cheapest option at the top cost. On slice diagrams that is rare: lb was
the answer in all but 25 of the 4,040 calls the four workloads of bench/
make. So the search probes lb first, and one feasibility check usually
settles it. Only otherwise does it sort the candidates above lb, gallop
upward through indices 0, 1, 3, 7, ... until a probe is feasible, and
bisect the last gap. Feasibility is monotone in t, so this finds the same
smallest feasible candidate as a bisection of the whole set, with at most
about twice its probes in the worst case.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import DimensionMismatch
from .persistence import Diagram


def _saturates(adj: np.ndarray) -> bool:
    """True when some matching covers every row of the boolean biadjacency.

    The CSR graph is built directly: np.nonzero lists the edges row-major
    with sorted columns, and the cumulative row degrees are the row pointers.
    """
    nrows, ncols = adj.shape
    if nrows == 0:
        return True
    if ncols == 0:
        return False
    degrees = adj.sum(axis=1)
    if not degrees.all():
        return False
    indptr = np.zeros(nrows + 1, dtype=np.int32)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.nonzero(adj)[1].astype(np.int32)
    graph = csr_matrix(
        (np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(nrows, ncols)
    )
    m = maximum_bipartite_matching(graph, perm_type="column")
    return int((m >= 0).sum()) == nrows


def _finite_bottleneck(a: np.ndarray, b: np.ndarray) -> float:
    """Exact bottleneck distance of the finite parts (n x 2 arrays)."""
    n1, n2 = len(a), len(b)
    diag1 = (a[:, 1] - a[:, 0]) / 2.0 if n1 else np.empty(0)
    diag2 = (b[:, 1] - b[:, 0]) / 2.0 if n2 else np.empty(0)
    if n1 == 0 and n2 == 0:
        return 0.0
    if n1 == 0:
        return float(diag2.max())
    if n2 == 0:
        return float(diag1.max())

    dist = np.maximum(
        np.abs(a[:, 0, None] - b[None, :, 0]),
        np.abs(a[:, 1, None] - b[None, :, 1]),
    )
    # every point either matches (>= its best pairwise distance) or pays its
    # diagonal cost, which gives a lower bound; matching nothing gives an
    # upper bound; only candidates in between matter
    lb = max(
        float(np.minimum(dist.min(axis=1), diag1).max()),
        float(np.minimum(dist.min(axis=0), diag2).max()),
    )
    ub = max(float(diag1.max()), float(diag2.max()))

    def feasible(t: float) -> bool:
        high1 = diag1 > t
        high2 = diag2 > t
        if high1.any() and not _saturates(dist[high1, :] <= t):
            return False
        if high2.any() and not _saturates(dist[:, high2].T <= t):
            return False
        return True

    if feasible(lb):
        return lb
    # ub, the all-unmatched cost, is always feasible, so here ub > lb and
    # the candidates above lb are not empty; gallop to the first feasible
    # probe, then bisect the gap behind it
    pool = np.concatenate([dist.ravel(), diag1, diag2])
    candidates = np.unique(pool[(pool > lb) & (pool <= ub)])
    lo, hi = 0, len(candidates) - 1
    probe = 0
    while probe < hi:
        if feasible(float(candidates[probe])):
            hi = probe
            break
        lo = probe + 1
        probe = 2 * probe + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def bottleneck_distance(D1: Diagram, D2: Diagram) -> float:
    """Bottleneck distance; inf when the essential counts differ."""
    if D1.homology_dimension != D2.homology_dimension:
        raise DimensionMismatch(
            f"dimension {D1.homology_dimension} vs {D2.homology_dimension}"
        )
    if len(D1.essential) != len(D2.essential):
        return float("inf")
    ess = 0.0
    for x, y in zip(D1.essential, D2.essential):  # both sorted
        ess = max(ess, abs(x - y))
    fin = _finite_bottleneck(
        np.array(D1.finite, dtype=np.float64).reshape(-1, 2),
        np.array(D2.finite, dtype=np.float64).reshape(-1, 2),
    )
    return max(ess, fin)
