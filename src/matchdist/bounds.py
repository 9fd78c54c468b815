"""Upper bounds for the bottleneck distance over a parameter box.

Three interchangeable rules, ordered by tightness on subdivision boxes
(linear <= constant <= global), each bounding how far the critical values
of each filtration move over the box from a reference slice, as a rise
A_i (how far above its reference value a critical value can go) and a
fall B_i (how far below):

* local linear: exact per-point rise and fall against a reference slice,
  maximized over all critical values in one vectorized scan; linear time
  in the number of critical values. On non-negative points a push is
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
not. bound_L bounds one box against its own center. bounds_from_reference
bounds boxes of one slice type, such as the four children of a split,
against several evaluated slices at once and keeps the smallest bound per
box; the solver passes the split box's center and the centers of its two
nearest evaluated ancestors. The corner pushes do not depend on the
reference, so they are computed once per filtration for all the boxes;
each reference then adds one weighted push per filtration and the scans
max(hi - c) and max(c - lo).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from functools import partial
from typing import NamedTuple

import numpy as np

from .complexes import BiFiltration
from .errors import InvalidLevel
from .slices import ParamBox, Slice, SliceType, pair_extents, push_at, weighted_push

_LEVEL_TOL = 1e-12


class Reference(NamedTuple):
    """An evaluated slice with what the bounds need from its two diagrams:
    the distance d, half the largest finite persistence h1 and h2 of each
    diagram, and the distance e of the essential parts."""

    slice: Slice
    d: float
    h1: float
    h2: float
    e: float


def _capped(ref: Reference, A1: float, B1: float, A2: float, B2: float) -> float:
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

    def plus_S(x: float) -> float:
        return max(x + A1 + B2, x + B1 + A2, x + m1 + m2)

    return min(plus_S(ref.d), max(ref.h1 + m1, ref.h2 + m2, plus_S(ref.e)))


class BoundKind(enum.Enum):
    GLOBAL = "g"
    LOCAL_CONSTANT = "c"
    LOCAL_LINEAR = "l"

    def __str__(self) -> str:
        return self.value


def _corner_pushes(xs: np.ndarray, ys: np.ndarray, boxes: list[ParamBox]) -> tuple[np.ndarray, np.ndarray]:
    """The pushes at (lam_max, mu_min) and at (lam_min, mu_max) of boxes of
    one slice type, a row per box, from one push_at call each.

    Requires xs, ys >= 0 (approximate enforces it): the push is then
    largest at the first corner and smallest at the second, so against a
    reference push c, max(hi - c, c - lo) equals the largest |corner - c|
    over all four corners bit for bit.
    """
    stype = boxes[0].stype
    if any(B.stype is not stype for B in boxes):
        raise ValueError("boxes must share one slice type")
    lam_max, mu_min, lam_min, mu_max = np.array(
        [(B.lam_max, B.mu_min, B.lam_min, B.mu_max) for B in boxes]
    ).T[:, :, None]
    return push_at(xs, ys, lam_max, mu_min, stype), push_at(xs, ys, lam_min, mu_max, stype)


def _rise_fall(xs: np.ndarray, ys: np.ndarray, boxes: list[ParamBox], refs: Sequence[Slice]) -> list[tuple[list, list]]:
    """How far the points (xs, ys) rise and fall over each box against
    ref: (max(hi - c), max(c - lo)) over the points, each at least 0, as
    two lists over the boxes per reference.

    The corner pushes do not depend on the reference, so they are computed
    once; each reference adds one weighted push and the two scans.
    Scanning one reference at a time keeps every temporary as small as the
    corner pushes.
    """
    hi, lo = _corner_pushes(xs, ys, boxes)
    out = []
    for L in refs:
        c = weighted_push(xs, ys, L)
        out.append(((hi - c).max(axis=1, initial=0.0).tolist(), (c - lo).max(axis=1, initial=0.0).tolist()))
    return out


def bounds_from_reference(
    F1: BiFiltration,
    F2: BiFiltration,
    boxes: list[ParamBox],
    refs: Sequence[Reference],
) -> list[float]:
    """L bound of each box against the evaluated slices refs: the smallest
    over the references of the capped bound with the rise and fall of F1
    and of F2 over the box against that reference. A reference need not
    lie in the box; one reference gives the plain two-corner rule.
    """
    if not boxes:
        return []
    slices = [r.slice for r in refs]
    rf1 = _rise_fall(F1.px, F1.py, boxes, slices)
    rf2 = _rise_fall(F2.px, F2.py, boxes, slices)
    per_ref = [list(map(partial(_capped, r), A1, B1, A2, B2))
               for r, (A1, B1), (A2, B2) in zip(refs, rf1, rf2)]
    return [min(col) for col in zip(*per_ref)]


def bound_L(F1: BiFiltration, F2: BiFiltration, B: ParamBox, ref: Reference) -> float:
    """Local linear bound against ref, the record of B's center: the
    two-corner rule of bounds_from_reference for the one box B."""
    return bounds_from_reference(F1, F2, [B], [ref])[0]


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


def bound_C(F1: BiFiltration, F2: BiFiltration, B: ParamBox, ref: Reference) -> float:
    """Local constant bound against ref, the record of B's center: the
    per-type closed form vbar, point-independent, as the rise and the
    fall of both filtrations."""
    X, Y, _ = pair_extents(F1, F2)
    vbar = _vbar_constant(B, X, Y)
    return _capped(ref, vbar, vbar, vbar, vbar)


def bound_G(F1: BiFiltration, F2: BiFiltration, B: ParamBox, ref: Reference) -> float:
    """Global bound against ref, the record of B's center: g = C * 2**-level
    with C = max{X, Y} for both filtrations.

    Only valid for boxes produced by initial_boxes/subdivide, whose lam
    width is exactly 2**-level and whose mu height is at most C * 2**-level.
    """
    _, _, C = pair_extents(F1, F2)
    g = C * 2.0 ** (-B.level)
    if B.dlam != 2.0 ** (-B.level):
        raise InvalidLevel(
            f"lam width {B.dlam} does not match level {B.level}"
        )
    if B.dmu > g * (1.0 + _LEVEL_TOL):
        raise InvalidLevel(
            f"mu height {B.dmu} exceeds C * 2**-level = {g}"
        )
    return _capped(ref, g, g, g, g)


def box_bound(
    kind: BoundKind, F1: BiFiltration, F2: BiFiltration, B: ParamBox, ref: Reference
) -> float:
    """Dispatch to the configured bound rule; ref is the record of B's center."""
    if kind is BoundKind.GLOBAL:
        return bound_G(F1, F2, B, ref)
    if kind is BoundKind.LOCAL_CONSTANT:
        return bound_C(F1, F2, B, ref)
    return bound_L(F1, F2, B, ref)
