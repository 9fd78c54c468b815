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
Mendelsohn-Dulmage theorem it is enough to saturate each side separately.
That check is done in numpy (_saturates): the nearest partners place most
points, greedy rounds over the distance rows place almost all of the rest,
and an alternating breadth-first search, one vectorized step per level,
either completes the matching or proves it impossible.

Every point pays at least the smaller of its nearest-partner distance and
its diagonal cost, so the largest such value, lb, bounds the answer from
below, and it is itself a candidate. On slice diagrams lb is almost always
the answer: it was in all but 14 of the 1,858 calls the four workloads of
bench/ make at seed 0. So lb, and the feasibility check at lb, are
computed from as few rows of the n1 x n2 distance matrix as possible:

- Each side is sorted by falling diagonal cost. A point whose diagonal
  cost is at most the running lb cannot raise lb, and the check at lb
  must cover only the points that cost more than lb. Both are a prefix
  of the sorted side, so the rows the check needs are rows already
  computed for lb.
- Both sides are seeded before either continues: the rows of the first
  _SEED points of each side give a first lb, and only then does each side
  add the rows of its remaining points that cost more than the running
  lb. A high lb from one side spares rows of the other. A side of at most
  _SEED points is covered by its seed; when both sides are, the second
  seed block is the transpose of the first.
- Every point above lb has its nearest partner within lb, because
  min(nearest, diagonal) <= lb < diagonal. If the nearest partners of a
  side's points above lb are pairwise distinct, they are a matching that
  saturates the side: the first step of _saturates places every row, and
  the greedy rounds and the search run only when they collide.

When lb is infeasible, the search above it reads the same rows with the
same check. For every t >= lb this is exact:

- a point costing more than t costs more than lb, so its row was computed;
- its nearest partner lies within lb <= t, so distinct nearest partners
  still saturate its side;
- feasibility above lb changes only at an entry of these rows or at a
  diagonal cost, so those are the whole candidate set.

Feasibility is monotone in t, and ub, the all-unmatched cost, is always
feasible, so bisecting the candidates in (lb, ub) finds the answer.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .persistence import Diagram


def _saturates(rows: np.ndarray, t: float) -> bool:
    """True when some matching in the t-graph of the distance rows covers
    every row: row i and column j are adjacent when rows[i, j] <= t.

    The geometry places almost every row before any search. Each column
    goes to the first row whose nearest partner it is. Then, in rounds,
    each row left over takes its nearest untaken column within t; rows
    that pick the same column go to the first of them, and the others pick
    again. Rows with no untaken column within t are left to _augment, and
    so are all rows left once a round places fewer than a fifth of its
    rows: rows with equal distances keep picking one column, one placed
    per round, where one phase of the search spreads them.
    """
    nrows, ncols = rows.shape
    if nrows > ncols:
        return False
    if nrows == 0:
        return True
    if rows.min(axis=1).max() > t:  # a row without an edge
        return False
    row_mate, col_mate = [-1] * nrows, [-1] * ncols
    taken, free = [], []
    for r, c in enumerate(rows.argmin(axis=1).tolist()):
        if col_mate[c] < 0:
            row_mate[r], col_mate[c] = c, r
            taken.append(c)
        else:
            free.append(r)
    stuck = False
    sub = rows[free]
    while free:
        sub[:, taken] = np.inf
        picks = zip(free, sub.argmin(axis=1).tolist(), sub.min(axis=1).tolist())
        again, taken = [], []
        for i, (r, c, d) in enumerate(picks):
            if d > t:
                stuck = True
            elif col_mate[c] < 0:
                row_mate[r], col_mate[c] = c, r
                taken.append(c)
            else:
                again.append(i)
        if len(taken) * 4 < len(again):
            stuck = True
            break
        sub, free = sub[again], [free[i] for i in again]
    return not stuck or _augment(rows <= t, np.array(row_mate), np.array(col_mate))


def _augment(adj: np.ndarray, row_mate: np.ndarray, col_mate: np.ndarray) -> bool:
    """True when the matching row_mate/col_mate of the biadjacency adj
    extends to one covering every row.

    Each phase grows alternating trees from all free rows at once,
    breadth-first, one vectorized step per level: the rows of a level
    reach the columns not reached before, and the mates of those columns
    are the next level. At the first level that reaches free columns, each
    tree augments along its path to one of them; the trees share no
    vertex, so the paths are disjoint. A phase that reaches no free column
    found no augmenting path, and then no matching covers every row
    (Berge's theorem).
    """
    free = np.flatnonzero(row_mate < 0)
    while len(free):
        parent = np.full(adj.shape[1], -1)  # the row each column was reached from
        unseen = np.ones(adj.shape[1], dtype=bool)
        level = free
        while True:
            reach = adj[level]
            reach &= unseen
            new = np.flatnonzero(reach.any(axis=0))
            if len(new) == 0:
                return False
            reach = reach[:, new]
            pick = reach.argmax(axis=0)  # the first row of the level reaching each column
            if level is free:
                # the first level, whose rows are the roots: column q goes to
                # root q mod len(free) when adjacent, so that roots with equal
                # neighbourhoods reach different columns
                q = np.arange(len(new))
                spread = q % len(free)
                pick = np.where(reach[spread, q], spread, pick)
            parent[new] = level[pick]
            unseen[new] = False
            level = col_mate[new]
            if level.min() < 0:
                break
        parents, mates, roots = parent.tolist(), row_mate.tolist(), set()
        for c in new[level < 0].tolist():
            path = []
            while c >= 0:
                r = parents[c]
                path.append((r, c))
                c = mates[r]
            if path[-1][0] not in roots:  # one path per tree
                roots.add(path[-1][0])
                for r, c in path:
                    row_mate[r], col_mate[c] = c, r
        free = np.flatnonzero(row_mate < 0)
    return True


_SEED = 32  # rows per side in the first block, computed before lb is known


def _sup_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sup-norm distances from the points of p (rows) to those of q."""
    rows = np.subtract.outer(p[:, 0], q[:, 0])
    other = np.subtract.outer(p[:, 1], q[:, 1])
    np.abs(rows, out=rows)
    np.abs(other, out=other)
    return np.maximum(rows, other, out=rows)


def _above(diag: np.ndarray, t: float) -> int:
    """How many points pay more than t to go to the diagonal.

    The sides are sorted by falling diagonal cost, so these points are a
    prefix of their side.
    """
    return int(np.count_nonzero(diag > t))


def _lb_of(rows: np.ndarray, diag: np.ndarray) -> float:
    """The largest min(nearest-partner distance, diagonal cost) over the rows."""
    return float(np.minimum(rows.min(axis=1), diag[: len(rows)]).max())


def _search_above(rows: list[np.ndarray], diags: tuple[np.ndarray, np.ndarray],
                  feasible: Callable[[float], bool], lb: float) -> float:
    """The smallest feasible candidate above an infeasible lb.

    No point costs more than ub, so ub is feasible; lb is not, so ub > lb
    is the last candidate, and only the ones before it are bisected.
    """
    ub = max(float(diags[0][0]), float(diags[1][0]))
    pool = np.concatenate([rows[0].ravel(), rows[1].ravel(), *diags])
    candidates = np.unique(pool[(pool > lb) & (pool <= ub)]).tolist()
    return candidates[bisect_left(candidates, True, hi=len(candidates) - 1, key=feasible)]


def _finite_bottleneck(a: np.ndarray, b: np.ndarray) -> float:
    """Exact bottleneck distance of the finite parts (n x 2 arrays)."""
    diag1 = (a[:, 1] - a[:, 0]) / 2.0
    diag2 = (b[:, 1] - b[:, 0]) / 2.0
    if len(a) == 0 or len(b) == 0:  # every point goes to the diagonal
        return float(np.concatenate((diag1, diag2)).max(initial=0.0))

    order1 = np.argsort(diag1)[::-1]
    order2 = np.argsort(diag2)[::-1]
    pts = (a[order1], b[order2])
    diags = (diag1[order1], diag2[order2])
    # seed both sides before continuing either: a high lb from one side
    # spares rows of the other
    rows = [_sup_rows(pts[0][:_SEED], pts[1])]
    # when both sides fit in their seeds, the second block is the first's
    # transpose: |x - y| and |y - x| are equal bit for bit
    small = len(a) <= _SEED and len(b) <= _SEED
    rows.append(rows[0].T if small else _sup_rows(pts[1][:_SEED], pts[0]))
    lb = max(_lb_of(rows[0], diags[0]), _lb_of(rows[1], diags[1]))
    for s in (0, 1):
        done, k = len(rows[s]), _above(diags[s], lb)
        if k > done:
            more = _sup_rows(pts[s][done:k], pts[1 - s])
            rows[s] = np.concatenate([rows[s], more])
            lb = max(lb, _lb_of(rows[s], diags[s]))

    def feasible(t: float) -> bool:
        # exact for t >= lb: the rows of the points above t are computed
        return all(_saturates(rows[s][: _above(diags[s], t)], t) for s in (0, 1))

    return lb if feasible(lb) else _search_above(rows, diags, feasible, lb)


def essential_distance(D1: Diagram, D2: Diagram) -> float:
    """Bottleneck distance of the essential parts: the largest gap between
    births of equal rank (both are sorted), inf when the counts differ.

    Equal births cost 0, infinite ones included, where inf - inf would
    give nan.
    """
    e1, e2 = D1.essential, D2.essential
    if len(e1) != len(e2):
        return float("inf")
    return max((abs(a - b) for a, b in zip(e1.tolist(), e2.tolist()) if a != b), default=0.0)


def half_persistence(D: Diagram) -> float:
    """Half the largest finite persistence of D, 0.0 without finite points:
    the cost of matching every finite point of D to the diagonal."""
    return float((D.finite[:, 1] - D.finite[:, 0]).max(initial=0.0)) / 2.0


def bottleneck_distance(D1: Diagram, D2: Diagram) -> float:
    """Bottleneck distance; inf when the essential counts differ."""
    if D1.homology_dimension != D2.homology_dimension:
        raise DimensionMismatch(
            f"dimension {D1.homology_dimension} vs {D2.homology_dimension}"
        )
    ess = essential_distance(D1, D2)
    if ess == float("inf"):
        return ess
    return max(ess, _finite_bottleneck(D1.finite, D2.finite))
