"""Upper bounds for the bottleneck distance over a parameter box.

Three interchangeable rules, ordered by tightness on subdivision boxes
(linear <= constant <= global):

* local linear: exact per-point variation against a reference slice,
  maximized over all critical values in one vectorized scan; linear time
  in the number of critical values. On non-negative points a push is
  nondecreasing in lam and nonincreasing in mu, so the variation over a
  box is attained at two corners, (lam_max, mu_min) and (lam_min, mu_max).
* local constant: a closed-form per-type bound on the variation that only
  depends on the box and the coordinate maxima; constant time.
* global: the constant bound relaxed using only the subdivision level.

All three return d_center + (variation bound for F1) + (variation bound
for F2), so a bound is always at least the bottleneck distance at the
center slice.

The two-corner rule holds against any reference slice, in the box or
not. bound_L takes the box's center; bounds_from_reference bounds any
boxes, such as the children of an evaluated box, against a given slice.
"""

from __future__ import annotations

import enum

import numpy as np

from .complexes import BiFiltration
from .errors import InvalidLevel
from .slices import ParamBox, Slice, SliceType, center, pair_extents, push_at, weighted_push

_LEVEL_TOL = 1e-12


class BoundKind(enum.Enum):
    GLOBAL = "g"
    LOCAL_CONSTANT = "c"
    LOCAL_LINEAR = "l"

    def __str__(self) -> str:
        return self.value


def _point_variations(xs: np.ndarray, ys: np.ndarray, B: ParamBox, c: np.ndarray) -> np.ndarray:
    """Per-point maximal push change over B against the reference pushes c.

    Requires xs, ys >= 0 (approximate enforces it): the push is then
    largest at (lam_max, mu_min) and smallest at (lam_min, mu_max), and
    max(hi - c, c - lo) equals the largest |corner - c| over all four
    corners bit for bit.
    """
    hi = push_at(xs, ys, B.lam_max, B.mu_min, B.stype)
    lo = push_at(xs, ys, B.lam_min, B.mu_max, B.stype)
    return np.maximum(hi - c, c - lo)


def _variations(F: BiFiltration, boxes: list[ParamBox], ref: Slice) -> list[float]:
    """v(F, B; ref), the maximal point variation against ref, per box."""
    c = weighted_push(F.px, F.py, ref)
    return [float(_point_variations(F.px, F.py, B, c).max(initial=0.0)) for B in boxes]


def bounds_from_reference(
    F1: BiFiltration, F2: BiFiltration, boxes: list[ParamBox], ref: Slice, d_ref: float
) -> list[float]:
    """L bound of each box against the slice ref, where the distance d_ref
    is known: d_ref + v(F1, B; ref) + v(F2, B; ref). The reference need
    not lie in the box."""
    v1, v2 = _variations(F1, boxes, ref), _variations(F2, boxes, ref)
    return [d_ref + a + b for a, b in zip(v1, v2)]


def variation_filtration(F: BiFiltration, B: ParamBox) -> float:
    """Maximal variation over B of all critical values against its center;
    for multi-critical simplices it bounds the min-push variation above."""
    return _variations(F, [B], center(B))[0]


def bound_L(F1: BiFiltration, F2: BiFiltration, B: ParamBox, d_center: float) -> float:
    """Local linear bound: v(F1, B) + d_center + v(F2, B)."""
    return bounds_from_reference(F1, F2, [B], center(B), d_center)[0]


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


def bound_C(F1: BiFiltration, F2: BiFiltration, B: ParamBox, d_center: float) -> float:
    """Local constant bound: the per-type closed form, point-independent."""
    X, Y, _ = pair_extents(F1, F2)
    vbar = _vbar_constant(B, X, Y)
    return d_center + vbar + vbar


def bound_G(F1: BiFiltration, F2: BiFiltration, B: ParamBox, d_center: float) -> float:
    """Global bound: d_center + 2 * C * 2**-level with C = max{X, Y}.

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
    return d_center + g + g


def box_bound(
    kind: BoundKind, F1: BiFiltration, F2: BiFiltration, B: ParamBox, d_center: float
) -> float:
    """Dispatch to the configured bound rule."""
    if kind is BoundKind.GLOBAL:
        return bound_G(F1, F2, B, d_center)
    if kind is BoundKind.LOCAL_CONSTANT:
        return bound_C(F1, F2, B, d_center)
    return bound_L(F1, F2, B, d_center)
