"""Upper bounds for the bottleneck distance over a parameter box.

Three interchangeable rules, ordered by tightness on subdivision boxes
(linear <= constant <= global), each bounding how far the critical values
of each filtration move over the box from a reference slice, as a rise
A_i (how far above its reference value a critical value can go) and a
fall B_i (how far below):

* local linear: exact per-point rise and fall against a reference slice,
  maximized over the distinct critical values in one vectorized scan;
  linear time in their number. On non-negative points a push is
  nondecreasing in lam and nonincreasing in mu, so over a box it is
  largest at (lam_max, mu_min) and smallest at (lam_min, mu_max):
  A = max(hi - c) and B = max(c - lo) over the points, both at least 0.
* local constant: a closed-form per-type bound vbar on the variation that
  only depends on the box and the coordinate maxima; constant time.
  Both filtrations get A = B = vbar.
* global: the constant bound relaxed using only the subdivision level,
  A = B = g = C * 2**-level for both filtrations.

The reference is an evaluated slice r, given as a Reference record: the
distance d at r, half the largest finite persistence h1 and h2 of each
restricted diagram at r (0 without finite points) and the essential part
e of the distance at r. Every rule then combines its rises and falls the
same way:

    min(d + S, max(h1 + (A1 + B1) / 2, h2 + (A2 + B2) / 2, e + S))
    S = max(A1 + B2, A2 + B1, ((A1 + B1) + (A2 + B2)) / 2)

The bottleneck distance does not change when both diagrams are translated
by the same c along the diagonal, nor does any persistence, so the bound
may compare each slice of the box with the reference diagrams shifted by
a common c. Against the shifted reference, filtration i moves by at most
v_i(c) = max(A_i - c, B_i + c), and S is the smallest v1(c) + v2(c) over
c. The first term is stability (Cohen-Steiner, Edelsbrunner & Harer) for
both filtrations against one shifted reference pair. The second, the
trivial-matching cap, holds because at any slice L of the box:

* the distance is at most max(e_L, h1_L, h2_L): every finite point can go
  to the diagonal, and the essential points match in sorted order;
* stability moves each half-persistence by at most v_i(c) for every c,
  so h_i(L) <= h_i + (A_i + B_i) / 2, each at its own best c;
* stability moves each sorted essential birth by at most v_i(c), so
  e_L <= e + S, with one c for both, as the essential counts are the
  Betti numbers of the whole complex, the same at every slice (e is inf
  at all slices or at none).

The stability and essential terms must share one c; taking each v_i at
its own best c would not be sound. With A_i = B_i = v_i the formula is
min(d + v1 + v2, max(h1 + v1, h2 + v2, e + v1 + v2)), and it is never
larger than that for A_i, B_i <= v_i, so the shift only tightens.

The two-corner rule holds against any reference slice, in the box or
not. box_bound makes one pass over boxes of one slice type: the four
children of a split, or one level-0 box. Per filtration, one push_at call
gives the pushes at the two corners and the center of every box and at
the evaluated reference slices, and one scan each gives the rises and the
falls of every box against every reference and against its own center.
The first give the boxes' pre-bounds, the smallest over the references;
the solver passes the split box's center and the centers of its two
nearest evaluated ancestors. The second give a box's own bound once its
center is evaluated, capped_bound with that record, with no second scan.
A maximum over a multiset is the maximum over its distinct values, so
the scans read each filtration's distinct critical points
(BiFiltration.distinct_points): a lower-star filtration repeats a
vertex's value in every simplex it is the largest vertex of.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .complexes import BiFiltration
from .errors import InvalidLevel
from .slices import ParamBox, Slice, SliceType, pair_extents, push_at

_LEVEL_TOL = 1e-12
INF = float("inf")


class Reference(NamedTuple):
    """An evaluated slice with what the bounds need from its two diagrams:
    the distance d, half the largest finite persistence h1 and h2 of each
    diagram, and the distance e of the essential parts."""

    slice: Slice
    d: float
    h1: float
    h2: float
    e: float


def capped_bound(ref: Reference, A1: float, B1: float, A2: float, B2: float) -> float:
    """min(d + S, max(h1 + (A1 + B1) / 2, h2 + (A2 + B2) / 2, e + S)),
    S = max(A1 + B2, A2 + B1, ((A1 + B1) + (A2 + B2)) / 2): the bound over a
    box whose critical values rise by at most A_i and fall by at most B_i
    from ref's.

    x + S is taken as the largest of x + A1 + B2, x + B1 + A2 and
    x + m1 + m2 with m_i = (A_i + B_i) / 2: each is rounded no higher than
    x + v1 + v2 for A_i, B_i <= v_i, and all three are x + v1 + v2 bit for
    bit when A_i = B_i = v_i. Python floats: a bound combines a handful of
    numbers, too few for numpy's per-call cost to pay off.
    """
    m1, m2 = (A1 + B1) / 2.0, (A2 + B2) / 2.0
    d, e = ref.d, ref.e
    return min(max(d + A1 + B2, d + B1 + A2, d + m1 + m2),
               max(ref.h1 + m1, ref.h2 + m2, e + A1 + B2, e + B1 + A2, e + m1 + m2))


class BoundKind(enum.Enum):
    GLOBAL = "g"
    LOCAL_CONSTANT = "c"
    LOCAL_LINEAR = "l"

    def __str__(self) -> str:
        return self.value


def _pushes(xs: np.ndarray, ys: np.ndarray, boxes: list[ParamBox], refs: Sequence[Slice]
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(hi, lo, own, at): the pushes of the points (xs, ys) at the corners
    (lam_max, mu_min) and (lam_min, mu_max) and at the center of each of
    the k boxes, (k, n) each, and at the r slices refs, (r, n), all from
    one push_at call; boxes and refs share one slice type.

    Requires xs, ys >= 0 (approximate enforces it): the push is then
    largest at the first corner and smallest at the second, so against a
    reference push c, max(hi - c, c - lo) equals the largest |corner - c|
    over all four corners bit for bit.
    """
    stype = boxes[0].stype
    if any(B.stype is not stype for B in boxes) or any(L.stype is not stype for L in refs):
        raise ValueError("boxes and references must share one slice type")
    k = len(boxes)
    lam, mu = np.array([(B.lam_max, B.mu_min) for B in boxes] + [(B.lam_min, B.mu_max) for B in boxes]
                       + [((B.lam_min + B.lam_max) / 2.0, (B.mu_min + B.mu_max) / 2.0) for B in boxes]
                       + [(L.lam, L.mu) for L in refs]).T[:, :, None]
    P = push_at(xs, ys, lam, mu, stype)
    return P[:k], P[k : 2 * k], P[2 * k : 3 * k], P[3 * k :]


def _rise_fall(xs: np.ndarray, ys: np.ndarray, boxes: list[ParamBox],
               refs: Sequence[Slice]) -> tuple[np.ndarray, np.ndarray]:
    """How far the points (xs, ys) rise and fall over each of the k boxes,
    max(hi - c) and max(c - lo) over the points, each at least 0: two
    (1 + r, k) arrays, row 0 against each box's own center slice and row j
    against refs[j - 1]. The corner pushes do not depend on the reference,
    so one scan each gives the rises and the falls against all r.
    """
    hi, lo, own, at = _pushes(xs, ys, boxes, refs)
    at = at[:, None]
    rise = np.vstack(((hi - own).max(axis=1, initial=0.0), (hi - at).max(axis=2, initial=0.0)))
    fall = np.vstack(((own - lo).max(axis=1, initial=0.0), (at - lo).max(axis=2, initial=0.0)))
    return rise, fall


RiseFall = tuple[float, float, float, float]


class BoundPass(NamedTuple):
    """box_bound's result, one entry per box. pre is the smallest bound
    against the evaluated references, inf under C and G or without a
    reference. rise_fall is (A1, B1, A2, B2) over the box against its own
    center slice: capped_bound with the record of that center is the
    box's own bound."""

    pre: list[float]
    rise_fall: list[RiseFall]


def _pass_L(F1: BiFiltration, F2: BiFiltration, boxes: list[ParamBox],
            refs: Sequence[Reference]) -> BoundPass:
    slices = [r.slice for r in refs]
    # (1 + r, k, 4): the rise and fall of both filtrations per box, against
    # its own center and then against each reference
    rf = np.stack((*_rise_fall(*F1.distinct_points, boxes, slices),
                   *_rise_fall(*F2.distinct_points, boxes, slices)), axis=-1).tolist()
    pre = [min((capped_bound(r, *row[i]) for r, row in zip(refs, rf[1:])), default=INF)
           for i in range(len(boxes))]
    return BoundPass(pre, [tuple(q) for q in rf[0]])


def _vbar_constant(B: ParamBox, X: float, Y: float) -> float:
    """Closed-form per-type bound on the point variation over B, valid for
    every point inside [0, X] x [0, Y]."""
    lam_c = (B.lam_min + B.lam_max) / 2.0
    if B.stype is SliceType.FLAT_Y:
        return 0.5 * (B.dmu + X * B.dlam)
    if B.stype is SliceType.STEEP_Y:
        return 0.5 * (lam_c * B.dmu + (Y - B.mu_min) * B.dlam)
    if B.stype is SliceType.FLAT_X:
        return 0.5 * (lam_c * B.dmu + (X - B.mu_min) * B.dlam)
    return 0.5 * (B.dmu + Y * B.dlam)  # steep x


def _g_global(B: ParamBox, C: float) -> float:
    """g = C * 2**-level. Only valid for boxes produced by
    initial_boxes/subdivide, whose lam width is exactly 2**-level and whose
    mu height is at most C * 2**-level."""
    g = C * 2.0 ** (-B.level)
    if B.dlam != 2.0 ** (-B.level):
        raise InvalidLevel(
            f"lam width {B.dlam} does not match level {B.level}"
        )
    if B.dmu > g * (1.0 + _LEVEL_TOL):
        raise InvalidLevel(
            f"mu height {B.dmu} exceeds C * 2**-level = {g}"
        )
    return g


def box_bound(
    kind: BoundKind,
    F1: BiFiltration,
    F2: BiFiltration,
    boxes: list[ParamBox],
    refs: Sequence[Reference] = (),
) -> BoundPass:
    """One bound pass over boxes of one slice type under rule kind: each
    box's pre-bound against the evaluated slices refs and its rise and
    fall against its own center. The solver makes one pass per split,
    over the children, and one per level-0 box.

    Under L a reference need not lie in the box; one reference gives the
    plain two-corner rule. C and G take their closed forms as the rise and
    the fall of both filtrations and bound nothing before an evaluation.
    """
    if kind is BoundKind.LOCAL_LINEAR:
        return _pass_L(F1, F2, boxes, refs) if boxes else BoundPass([], [])
    X, Y, C = pair_extents(F1, F2)
    if kind is BoundKind.LOCAL_CONSTANT:
        v = [_vbar_constant(B, X, Y) for B in boxes]
    else:
        v = [_g_global(B, C) for B in boxes]
    return BoundPass([INF] * len(boxes), [(x, x, x, x) for x in v])
