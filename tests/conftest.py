"""Shared fixtures, test-only helpers and independent oracles.

The oracles deliberately avoid the code paths they check: the geometric
push oracle goes through angles and trigonometry instead of the closed
formulas, the bottleneck oracles either enumerate every partial matching
or solve assignment problems on the diagonal-augmented matrix, and the
persistence oracle reduces the full boundary matrix where the package
uses union-find and coboundary reduction with clearing.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from matchdist.bounds import _rise_fall, box_bound, capped_bound
from matchdist.complexes import BiFiltration, MonoFiltration, lower_star, validate_bifiltration
from matchdist.generators import GenSpec, generate_random
from matchdist.persistence import Diagram
from matchdist.slices import (
    SLICE_TYPES,
    ParamBox,
    Slice,
    SliceType,
    pair_extents,
    weighted_push,
)
from matchdist.solver import eval_slice


def wpush_geometric(px: float, py: float, L: Slice) -> float:
    """Weighted push via the angle parameterization; requires lam > 0.

    Intersects the boundary of the upper-right quadrant of p with the
    line, takes the signed distance from the slice origin, and scales by
    sin(angle) for flat slices and cos(angle) for steep ones.
    """
    assert L.lam > 0.0
    slope = L.lam if L.stype.is_flat else 1.0 / L.lam
    gamma = math.atan(slope)
    ox, oy = (L.mu, 0.0) if L.stype.is_x else (0.0, L.mu)
    w = math.sin(gamma) if L.stype.is_flat else math.cos(gamma)
    line_y = oy + slope * (px - ox)
    if py >= line_y:
        qx, qy = ox + (py - oy) / slope, py
    else:
        qx, qy = px, line_y
    signed_dist = (qx - ox) * math.cos(gamma) + (qy - oy) * math.sin(gamma)
    return w * signed_dist


def weighted_push_grid(
    px: float, py: float, lams: np.ndarray, mus: np.ndarray, stype: SliceType
) -> np.ndarray:
    """Weighted push of one point onto many slices; lams and mus broadcast
    against each other."""
    if stype is SliceType.FLAT_Y:
        return np.maximum(py - mus, lams * px)
    if stype is SliceType.STEEP_Y:
        return np.maximum(lams * (py - mus), px)
    if stype is SliceType.FLAT_X:
        return np.maximum(py, lams * (px - mus))
    return np.maximum(lams * py, px - mus)


def variation_point(px: float, py: float, B: ParamBox) -> float:
    """The package's per-point variation rule (corners against the center
    slice of B) for one point: the larger of its rise and fall."""
    rise, fall = _rise_fall(np.array([px]), np.array([py]), [B], [])
    return float(max(rise[0, 0], fall[0, 0]))


def variation_filtration(F: BiFiltration, B: ParamBox) -> float:
    """Largest variation over B of all critical values of F against the
    center slice of B, the larger of their rise and fall; for
    multi-critical simplices it bounds the min-push variation above."""
    rise, fall = _rise_fall(F.px, F.py, [B], [])
    return float(max(rise[0, 0], fall[0, 0]))


def own_bound(kind, F1: BiFiltration, F2: BiFiltration, B: ParamBox, ref) -> float:
    """B's bound under rule kind against ref, the record of B's center."""
    return capped_bound(ref, *box_bound(kind, F1, F2, [B]).rise_fall[0])


def four_corner_variation(xs, ys, B: ParamBox, ref: Slice) -> np.ndarray:
    """Per-point largest |push(corner) - push(ref)| over the four corners
    of B, one weighted_push per corner: the rule the L bound uses, written
    without its monotonicity shortcut."""
    c = weighted_push(xs, ys, ref)
    corners = [Slice(lam, mu, B.stype)
               for lam in (B.lam_min, B.lam_max) for mu in (B.mu_min, B.mu_max)]
    return np.max([np.abs(weighted_push(xs, ys, L) - c) for L in corners], axis=0)


def four_corner_rise_fall(xs, ys, B: ParamBox, ref: Slice) -> tuple[float, float]:
    """The rise and fall of the points over B against ref: the largest
    signed push(corner) - push(ref) and push(ref) - push(corner) over the
    points and the four corners of B, one weighted_push per corner, each
    at least 0; the L bound's scans, written without their monotonicity
    shortcut."""
    c = weighted_push(xs, ys, ref)
    diffs = [weighted_push(xs, ys, Slice(lam, mu, B.stype)) - c
             for lam in (B.lam_min, B.lam_max) for mu in (B.mu_min, B.mu_max)]
    return float(np.max(diffs, initial=0.0)), float(np.max(np.negative(diffs), initial=0.0))


def shift_capped_bound(ref, rf1: tuple[float, float], rf2: tuple[float, float]) -> float:
    """The bound rules' combine of a reference record with the rise and
    fall (A_i, B_i) of each filtration, written from its derivation with
    Python's min and max: S is the smallest v1(c) + v2(c) over one common
    shift c of the reference diagrams, v_i(c) = max(A_i - c, B_i + c), and
    each half-persistence takes its own best shift."""
    (A1, B1), (A2, B2) = rf1, rf2
    S = max(A1 + B2, A2 + B1, ((A1 + B1) + (A2 + B2)) / 2.0)
    return min(ref.d + S, max(ref.h1 + (A1 + B1) / 2.0, ref.h2 + (A2 + B2) / 2.0, ref.e + S))


def diagram_shifted(D: Diagram, r: float) -> Diagram:
    """Every coordinate of D plus r."""
    return Diagram(D.finite + r, D.essential + r, D.homology_dimension)


def diagram_scaled(D: Diagram, s: float) -> Diagram:
    """Every coordinate of D times s."""
    return Diagram(D.finite * s, D.essential * s, D.homology_dimension)


def persistence_boundary_oracle(M: MonoFiltration, dim: int) -> Diagram:
    """Diagram by reduction of the full boundary matrix, in every dimension.

    Simplices are ordered by (value, storage index); columns are bitmasks
    over the sorted positions, reduced left to right over the two-element
    field. Every column is reduced, vertices included, with no clearing
    and no union-find, so it shares no pairing logic with the package.
    """
    K = M.complex
    vals = M.values
    order = np.lexsort((np.arange(K.n), vals))
    pos_of = np.empty(K.n, dtype=np.int64)
    pos_of[order] = np.arange(K.n)

    cols: list[int] = []
    pivot_of_low: dict[int, int] = {}
    paired = [False] * K.n
    finite: list[tuple[float, float]] = []
    essential: list[float] = []
    for j in range(K.n):
        idx = int(order[j])
        col = 0
        for f in K.boundary_idx[K.boundary_ptr[idx] : K.boundary_ptr[idx + 1]]:
            col ^= 1 << int(pos_of[f])
        while col:
            low = col.bit_length() - 1
            k = pivot_of_low.get(low)
            if k is None:
                break
            col ^= cols[k]
        cols.append(col)
        if col:
            low = col.bit_length() - 1
            pivot_of_low[low] = j
            paired[low] = True
            paired[j] = True
            if K.dims[order[low]] == dim:
                b = float(vals[order[low]])
                d = float(vals[idx])
                if d > b:
                    finite.append((b, d))
    for j in range(K.n):
        if not paired[j] and cols[j] == 0 and K.dims[order[j]] == dim:
            essential.append(float(vals[order[j]]))
    return Diagram(finite, essential, dim)


def bottleneck_brute(D1: Diagram, D2: Diagram) -> float:
    """Exhaustive minimum over all partial matchings (small diagrams only)."""
    pts1 = D1.finite.tolist() + [(b, math.inf) for b in D1.essential.tolist()]
    pts2 = D2.finite.tolist() + [(b, math.inf) for b in D2.essential.tolist()]

    def cost_match(p, q):
        if math.isinf(p[1]) and math.isinf(q[1]):
            return abs(p[0] - q[0])
        if math.isinf(p[1]) or math.isinf(q[1]):
            return math.inf
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    def cost_diag(p):
        return math.inf if math.isinf(p[1]) else (p[1] - p[0]) / 2.0

    best = math.inf
    n2 = len(pts2)

    def rec(i: int, used: int, cur: float):
        nonlocal best
        if cur > best:
            return
        if i == len(pts1):
            total = cur
            for j in range(n2):
                if not (used >> j) & 1:
                    total = max(total, cost_diag(pts2[j]))
            best = min(best, total)
            return
        rec(i + 1, used, max(cur, cost_diag(pts1[i])))
        for j in range(n2):
            if not (used >> j) & 1:
                rec(i + 1, used | (1 << j), max(cur, cost_match(pts1[i], pts2[j])))

    rec(0, 0, 0.0)
    return best


def bottleneck_assignment(D1: Diagram, D2: Diagram) -> float:
    """Finite-part bottleneck distance by threshold search over assignments.

    The standard (n1+n2) x (n1+n2) augmentation: row i < n1 is a point of
    D1, row n1 + j the diagonal copy of point j of D2; column j < n2 is a
    point of D2, column n2 + i the diagonal copy of point i of D1. A point
    may take only its own diagonal copy, and diagonal copies match each
    other for free. A threshold is feasible iff the 0/1 assignment problem
    with cost 1 on every entry above it has optimum 0.
    """
    a, b = D1.finite, D2.finite
    n1, n2 = len(a), len(b)
    if n1 + n2 == 0:
        return 0.0
    cost = np.full((n1 + n2, n1 + n2), math.inf)
    cost[:n1, :n2] = np.maximum(
        np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1])
    )
    cost[np.arange(n1), n2 + np.arange(n1)] = (a[:, 1] - a[:, 0]) / 2.0
    cost[n1 + np.arange(n2), np.arange(n2)] = (b[:, 1] - b[:, 0]) / 2.0
    cost[n1:, n2:] = 0.0

    def feasible(t: float) -> bool:
        over = (cost > t).astype(np.int8)
        r, c = linear_sum_assignment(over)
        return int(over[r, c].sum()) == 0

    candidates = np.unique(cost[np.isfinite(cost)])
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def grid_slices(B: ParamBox, n: int) -> list[Slice]:
    """n x n slice grid over the box, endpoints included."""
    lams = np.linspace(B.lam_min, B.lam_max, n)
    mus = np.linspace(B.mu_min, B.mu_max, n)
    return [Slice(float(l), float(m), B.stype) for l in lams for m in mus]


def dmatch_sampled(F1, F2, n: int = 64, dim: int = 0) -> float:
    """Lower bound of the matching distance on an n x n grid per type."""
    X, Y, _ = pair_extents(F1, F2)
    best = 0.0
    for t in SLICE_TYPES:
        R = X if t.is_x else Y
        for lam in np.linspace(0.0, 1.0, n):
            for mu in np.linspace(0.0, R, n):
                d = eval_slice(F1, F2, Slice(float(lam), float(mu), t), dim)
                if d > best:
                    best = d
    return best


def scaled_copy(F: BiFiltration, denom: float = 1024.0) -> BiFiltration:
    """Same filtration with all coordinates divided by a power of two."""
    return validate_bifiltration(
        F.simplices, [[(x / denom, y / denom) for x, y in c] for c in F.critical]
    )


def random_diagram(rng: np.random.Generator, max_pts: int = 4, dim: int = 0) -> Diagram:
    """Small diagram on a coarse value grid so ties are frequent."""
    n_total = int(rng.integers(0, max_pts + 1))
    n_ess = int(rng.integers(0, n_total + 1)) if n_total else 0
    finite = []
    for _ in range(n_total - n_ess):
        b = int(rng.integers(0, 9)) / 4.0
        d = b + (1 + int(rng.integers(0, 8))) / 4.0
        finite.append((b, d))
    essential = [int(rng.integers(0, 9)) / 4.0 for _ in range(n_ess)]
    return Diagram(finite, essential, dim)


def h1_sides() -> list[BiFiltration]:
    """The benchmark's `h1` pair at seed 0: one random 2-complex with two
    sets of integer vertex values in [0, 1000]^2, not normalized."""
    K = generate_random(GenSpec(30, 1200, 2, seed=30))
    rng = np.random.Generator(np.random.Philox(31))
    return [lower_star(K.simplices, {v: (float(rng.integers(0, 1000, endpoint=True)),
                                         float(rng.integers(0, 1000, endpoint=True)))
                                     for v in K.vertex_ids}) for _ in range(2)]


def random_genspec(rng: np.random.Generator, seed: int, n_hi: int = 9, m_hi: int = 7,
                   d_hi: int = 3):
    """Feasible random generation parameters (m capped by the simplex count)."""
    import math

    from matchdist.generators import GenSpec

    n = int(rng.integers(3, n_hi))
    d = int(rng.integers(1, min(d_hi, n - 1) + 1))
    m = min(int(rng.integers(2, m_hi)), math.comb(n, d + 1))
    return GenSpec(n, m, d, seed=seed)


def random_box(rng: np.random.Generator, mu_hi: float = 5.0) -> ParamBox:
    t = SLICE_TYPES[int(rng.integers(0, 4))]
    a, b = sorted(rng.uniform(0.0, 1.0, size=2))
    c, d = sorted(rng.uniform(0.0, mu_hi, size=2))
    return ParamBox(float(a), float(b), float(c), float(d), t)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(20240811))
