"""Slice parameterization, weighted pushes, and restriction onto slices.

A slice is a non-vertical line of positive slope. Its origin is the point
where it enters the positive quadrant, which lies on the positive x-axis
(x-slice) or positive y-axis (y-slice). The slope parameter lam is the
slope for flat slices (slope <= 1) and the inverse slope for steep slices
(slope >= 1), so lam is always in [0, 1]; mu is the non-trivial origin
coordinate. lam = 0 is the horizontal (flat) or vertical (steep) limit.

The weighted push of a point p onto a slice L is w(L) times the signed
distance from the origin of L to the minimal point of L dominating p, with
w = sin(angle) for flat and cos(angle) for steep slices. In these
parameters it reduces to the maximum of two affine expressions; the two
branches agree exactly on the line, so points on the line take the upper
branch by construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .complexes import BiFiltration, MonoFiltration
from .errors import DegenerateBox


class SliceType(enum.Enum):
    """The four slice families, in canonical iteration order."""

    FLAT_X = "flat-x"
    STEEP_X = "steep-x"
    FLAT_Y = "flat-y"
    STEEP_Y = "steep-y"

    @property
    def is_flat(self) -> bool:
        return self in (SliceType.FLAT_X, SliceType.FLAT_Y)

    @property
    def is_x(self) -> bool:
        return self in (SliceType.FLAT_X, SliceType.STEEP_X)

    def __str__(self) -> str:
        return self.value


SLICE_TYPES: tuple[SliceType, ...] = (
    SliceType.FLAT_X,
    SliceType.STEEP_X,
    SliceType.FLAT_Y,
    SliceType.STEEP_Y,
)


@dataclass(frozen=True)
class Slice:
    lam: float
    mu: float
    stype: SliceType

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam={self.lam} outside [0, 1]")
        if not (self.mu >= 0.0 and np.isfinite(self.mu)):
            raise ValueError(f"mu={self.mu} must be finite and >= 0")


@dataclass(frozen=True)
class ParamBox:
    """Axis-parallel rectangle of slice parameters with a fixed type.

    The level records the depth in the subdivision quad-tree; it is stored
    rather than recomputed so level-based bounds need no float log.
    """

    lam_min: float
    lam_max: float
    mu_min: float
    mu_max: float
    stype: SliceType
    level: int = 0

    def __post_init__(self):
        if not (0.0 <= self.lam_min <= self.lam_max <= 1.0):
            raise ValueError("lam range must satisfy 0 <= min <= max <= 1")
        if not (0.0 <= self.mu_min <= self.mu_max):
            raise ValueError("mu range must satisfy 0 <= min <= max")
        if self.level < 0:
            raise ValueError("level must be non-negative")

    @property
    def dlam(self) -> float:
        return self.lam_max - self.lam_min

    @property
    def dmu(self) -> float:
        return self.mu_max - self.mu_min


def weighted_push(xs: np.ndarray | float, ys: np.ndarray | float, L: Slice) -> np.ndarray:
    """Weighted push of the points (xs, ys) onto L, elementwise.

    Each slice type selects one of two affine branches depending on whether
    a point lies above or below the line; the selected branch is always the
    larger one, so the value is their maximum. Scalars give a numpy scalar.
    """
    return push_at(xs, ys, L.lam, L.mu, L.stype)


def push_at(xs, ys, lam: float, mu: float, stype: SliceType) -> np.ndarray:
    """weighted_push onto the slice (lam, mu) of type stype, for callers
    that scan box corners and would otherwise build a Slice per corner.

    On points with x, y >= 0 the push is nondecreasing in lam and
    nonincreasing in mu for every type: a branch that falls with lam
    (lam * (y - mu) with y < mu) is negative and loses to the other,
    non-negative branch.
    """
    if stype is SliceType.FLAT_Y:
        return np.maximum(ys - mu, lam * xs)
    if stype is SliceType.STEEP_Y:
        return np.maximum(lam * (ys - mu), xs)
    if stype is SliceType.FLAT_X:
        return np.maximum(ys, lam * (xs - mu))
    return np.maximum(lam * ys, xs - mu)  # steep x


def restrict(F: BiFiltration, L: Slice) -> MonoFiltration:
    """Weighted restriction of F onto L.

    Each simplex takes the minimum weighted push over its critical set
    (the slice meets the staircase boundary at the smallest push)."""
    wp = weighted_push(F.px, F.py, L)
    if F.one_critical:
        values = wp
    else:
        values = np.minimum.reduceat(wp, F.offsets[:-1])
    return MonoFiltration(F, values, pushed=True)


def pair_extents(F1: BiFiltration, F2: BiFiltration) -> tuple[float, float, float]:
    """(X, Y, C): coordinate maxima over both filtrations and their max."""
    X = max(F1.max_x, F2.max_x)
    Y = max(F1.max_y, F2.max_y)
    return X, Y, max(X, Y)


def _require_quadrant(F: BiFiltration) -> None:
    if F.n and (float(F.px.min()) < 0.0 or float(F.py.min()) < 0.0):
        raise ValueError("filtration has negative coordinates; normalize first")


def initial_boxes(F1: BiFiltration, F2: BiFiltration) -> list[ParamBox]:
    """The four level-0 parameter boxes covering every relevant slice.

    Slices enter the positive quadrant, so both filtrations must lie in it
    (ValueError otherwise). mu beyond the coordinate maximum never changes
    a weighted push, so the mu range is clamped to [0, X] for x-slices and
    [0, Y] for y-slices.
    """
    _require_quadrant(F1)
    _require_quadrant(F2)
    X, Y, _ = pair_extents(F1, F2)
    return [
        ParamBox(0.0, 1.0, 0.0, X, SliceType.FLAT_X, 0),
        ParamBox(0.0, 1.0, 0.0, X, SliceType.STEEP_X, 0),
        ParamBox(0.0, 1.0, 0.0, Y, SliceType.FLAT_Y, 0),
        ParamBox(0.0, 1.0, 0.0, Y, SliceType.STEEP_Y, 0),
    ]


def center(B: ParamBox) -> Slice:
    return Slice((B.lam_min + B.lam_max) / 2.0, (B.mu_min + B.mu_max) / 2.0, B.stype)


def subdivide(B: ParamBox) -> list[ParamBox]:
    """Split at the center into four equal quadrants, one level deeper.

    Degenerate ranges are shared by the children; a box that is a single
    point cannot be split."""
    if B.dlam == 0.0 and B.dmu == 0.0:
        raise DegenerateBox(f"cannot subdivide point box {B}")
    lc = (B.lam_min + B.lam_max) / 2.0
    mc = (B.mu_min + B.mu_max) / 2.0
    lv = B.level + 1
    t = B.stype
    return [
        ParamBox(B.lam_min, lc, B.mu_min, mc, t, lv),
        ParamBox(lc, B.lam_max, B.mu_min, mc, t, lv),
        ParamBox(B.lam_min, lc, mc, B.mu_max, t, lv),
        ParamBox(lc, B.lam_max, mc, B.mu_max, t, lv),
    ]
