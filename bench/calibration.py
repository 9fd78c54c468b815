"""A fixed, program-independent workload that measures the machine's speed.

On a shared host the same job can take 1.7 times longer in one minute than
in the next. Timing this workload around every repetition and scaling the
repetition by ``REFERENCE_S / calibration`` removes most of that drift
while keeping every change to matchdist visible, because nothing here
imports matchdist. The mix imitates a slice evaluation: a pure-Python
union-find (dim-0 persistence), big-integer XOR column reduction (dim >= 1
persistence), and small numpy and scipy matching calls (bottleneck).
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

# seconds one pass typically took on the 2-vCPU machine where the bounds
# were set; a scaled time reads as seconds at that machine's speed
REFERENCE_S = 0.06

_rng = random.Random(5)
_N = 2000
_EDGES = sorted(((_rng.randrange(_N), _rng.randrange(_N)) for _ in range(4 * _N)),
                key=lambda e: (e[1] * 7919 + e[0]) % 10007)
_COLUMNS = [_rng.getrandbits(1200) for _ in range(400)]
_PTS = np.random.default_rng(5).random((120, 2))
_ADJ = csr_matrix(np.random.default_rng(6).random((120, 120)) < 0.05)


def _union_find() -> int:
    parent = list(range(_N))
    merges = 0
    for u, v in _EDGES:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v
            merges += 1
    return merges


def _reduce() -> int:
    pivots: dict[int, int] = {}
    kept = 0
    for col in _COLUMNS:
        while col:
            low = col.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                kept += 1
                break
            col ^= other
    return kept


def _match() -> int:
    a = _PTS
    d = np.maximum(np.abs(a[:, 0, None] - a[None, :, 0]), np.abs(a[:, 1, None] - a[None, :, 1]))
    return len(np.unique(d.ravel())) + int((maximum_bipartite_matching(_ADJ) >= 0).sum())


def _one_pass() -> float:
    t0 = perf_counter()
    for _ in range(4):
        _union_find()
        _reduce()
    for _ in range(40):
        _match()
    return perf_counter() - t0


def calibrate() -> float:
    """Seconds one pass of the fixed workload takes now: the median of
    three passes, about 0.2 s in all."""
    return sorted(_one_pass() for _ in range(3))[1]


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two calibrations to seconds
    at the reference speed."""
    return 2.0 * REFERENCE_S / (before + after)
