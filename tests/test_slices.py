import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_monotone, wpush_geometric
from matchdist.complexes import validate_bifiltration
from matchdist.errors import DegenerateBox
from matchdist.slices import (
    SLICE_TYPES,
    ParamBox,
    Slice,
    SliceType,
    center,
    initial_boxes,
    restrict,
    subdivide,
    weighted_push,
)

finite_lam = st.floats(0.0, 1.0, allow_nan=False)
pos_lam = st.floats(0.001, 1.0, allow_nan=False)
coord = st.floats(0.0, 8.0, allow_nan=False)
types = st.sampled_from(SLICE_TYPES)


def test_wpush_examples():
    assert weighted_push(2.0, 3.0, Slice(0.5, 1.0, SliceType.FLAT_Y)) == 2.0
    assert weighted_push(2.0, 1.5, Slice(0.5, 1.0, SliceType.FLAT_Y)) == 1.0
    assert weighted_push(3.0, 5.0, Slice(0.0, 0.0, SliceType.STEEP_X)) == 3.0


@settings(max_examples=300, deadline=None)
@given(coord, coord, pos_lam, coord, types)
def test_wpush_matches_geometric_oracle(px, py, lam, mu, stype):
    L = Slice(lam, mu, stype)
    assert weighted_push(px, py, L) == pytest.approx(
        wpush_geometric(px, py, L), abs=1e-9
    )


@given(st.floats(0.0, 6.0), coord, coord)
def test_type_boundary_consistency(mu, px, py):
    # lam = 1 parameterizes the slope-one line in both the flat and steep family
    for flat, steep in ((SliceType.FLAT_Y, SliceType.STEEP_Y),
                        (SliceType.FLAT_X, SliceType.STEEP_X)):
        a = weighted_push(px, py, Slice(1.0, mu, flat))
        b = weighted_push(px, py, Slice(1.0, mu, steep))
        assert a == b


@given(finite_lam, coord, coord)
def test_origin_consistency(lam, px, py):
    # mu = 0 lines pass through the origin regardless of the axis family
    assert weighted_push(px, py, Slice(lam, 0.0, SliceType.FLAT_X)) == weighted_push(
        px, py, Slice(lam, 0.0, SliceType.FLAT_Y)
    )
    assert weighted_push(px, py, Slice(lam, 0.0, SliceType.STEEP_X)) == weighted_push(
        px, py, Slice(lam, 0.0, SliceType.STEEP_Y)
    )


@given(finite_lam, st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 4.0),
       st.floats(0.0, 4.0))
def test_large_mu_irrelevant_for_y_slices(lam, px, py, mu_extra1, mu_extra2):
    # with every point below the line the push only depends on lam
    Y = 3.0
    for t in (SliceType.FLAT_Y, SliceType.STEEP_Y):
        a = weighted_push(px, py, Slice(lam, Y + mu_extra1, t))
        b = weighted_push(px, py, Slice(lam, Y + mu_extra2, t))
        assert a == b


@settings(max_examples=200, deadline=None)
@given(coord, coord, finite_lam, finite_lam, st.floats(0.0, 6.0), st.floats(0.0, 6.0),
       st.booleans())
def test_lipschitz_bounds_per_type(px, py, lam1, lam2, mu1, mu2, flat):
    # closed-form sensitivity of the push in (lam, mu), per slice family
    X = Y = 8.0
    dl, dm = abs(lam1 - lam2), abs(mu1 - mu2)
    if flat:
        d = abs(weighted_push(px, py, Slice(lam1, mu1, SliceType.FLAT_Y))
                - weighted_push(px, py, Slice(lam2, mu2, SliceType.FLAT_Y)))
        assert d <= dm + X * dl + 1e-9
        d = abs(weighted_push(px, py, Slice(lam1, mu1, SliceType.FLAT_X))
                - weighted_push(px, py, Slice(lam2, mu2, SliceType.FLAT_X)))
        assert d <= lam1 * dm + (X - mu2) * dl + 1e-9
    else:
        d = abs(weighted_push(px, py, Slice(lam1, mu1, SliceType.STEEP_X))
                - weighted_push(px, py, Slice(lam2, mu2, SliceType.STEEP_X)))
        assert d <= dm + Y * dl + 1e-9
        d = abs(weighted_push(px, py, Slice(lam1, mu1, SliceType.STEEP_Y))
                - weighted_push(px, py, Slice(lam2, mu2, SliceType.STEEP_Y)))
        assert d <= lam1 * dm + (Y - mu2) * dl + 1e-9


def test_restrict_examples():
    F = validate_bifiltration([[0]], [[(2.0, 3.0)]])
    M = restrict(F, Slice(0.5, 1.0, SliceType.FLAT_Y))
    assert M.values[0] == 2.0

    G = validate_bifiltration([[0]], [[(1.0, 3.0), (3.0, 1.0)]])
    M = restrict(G, Slice(0.5, 0.0, SliceType.FLAT_Y))
    assert M.values[0] == 1.5


def test_restrict_deterministic():
    F = validate_bifiltration(
        [[0], [1], [0, 1]], [[(0.0, 1.0)], [(2.0, 0.0)], [(2.0, 1.0)]]
    )
    L = Slice(0.75, 0.5, SliceType.STEEP_X)
    a = restrict(F, L).values
    b = restrict(F, L).values
    assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), finite_lam, st.floats(0.0, 3.0), types)
def test_restrict_is_monotone(seed, lam, mu, stype):
    from matchdist.generators import GenSpec, generate_random, generate_random_kcritical

    rng = np.random.Generator(np.random.Philox(seed))
    spec = GenSpec(5, int(rng.integers(2, 6)), int(rng.integers(1, 3)), seed=seed)
    F = generate_random(spec) if seed % 2 else generate_random_kcritical(spec, 3)
    check_monotone(restrict(F, Slice(lam, mu, stype)))


def test_initial_boxes_shapes():
    F1 = validate_bifiltration([[0]], [[(1.0, 2.0)]])
    F2 = validate_bifiltration([[0]], [[(0.5, 0.5)]])
    boxes = initial_boxes(F1, F2)
    assert [b.stype for b in boxes] == list(SLICE_TYPES)
    assert all(b.lam_min == 0.0 and b.lam_max == 1.0 and b.level == 0 for b in boxes)
    assert boxes[0].mu_max == 1.0 and boxes[1].mu_max == 1.0  # x types
    assert boxes[2].mu_max == 2.0 and boxes[3].mu_max == 2.0  # y types


def test_initial_boxes_degenerate_axis():
    F = validate_bifiltration([[0]], [[(0.0, 2.0)]])
    boxes = initial_boxes(F, F)
    assert boxes[0].mu_min == boxes[0].mu_max == 0.0
    assert len(boxes) == 4


def test_initial_boxes_unit_square():
    F = validate_bifiltration([[0]], [[(1.0, 1.0)]])
    for b in initial_boxes(F, F):
        assert (b.lam_min, b.lam_max, b.mu_min, b.mu_max) == (0.0, 1.0, 0.0, 1.0)


def test_subdivide_quadrants():
    B = ParamBox(0.0, 1.0, 0.0, 2.0, SliceType.FLAT_Y, 0)
    kids = subdivide(B)
    assert [(k.lam_min, k.lam_max, k.mu_min, k.mu_max) for k in kids] == [
        (0.0, 0.5, 0.0, 1.0),
        (0.5, 1.0, 0.0, 1.0),
        (0.0, 0.5, 1.0, 2.0),
        (0.5, 1.0, 1.0, 2.0),
    ]
    assert all(k.level == 1 for k in kids)
    # exact cover with disjoint interiors
    assert sum(k.dlam * k.dmu for k in kids) == B.dlam * B.dmu


def test_subdivide_degenerate_mu():
    B = ParamBox(0.0, 1.0, 3.0, 3.0, SliceType.STEEP_X, 2)
    kids = subdivide(B)
    assert all(k.mu_min == k.mu_max == 3.0 for k in kids)
    assert sorted({(k.lam_min, k.lam_max) for k in kids}) == [(0.0, 0.5), (0.5, 1.0)]


@pytest.mark.parametrize("make, args, message", [
    (Slice, (-0.5, 0.0, SliceType.FLAT_X), r"lam=-0.5 outside \[0, 1\]"),
    (Slice, (1.5, 0.0, SliceType.FLAT_Y), r"lam=1.5 outside \[0, 1\]"),
    (Slice, (0.5, -1.0, SliceType.STEEP_X), "mu=-1.0 must be finite and >= 0"),
    (Slice, (0.5, np.inf, SliceType.STEEP_Y), "mu=inf must be finite and >= 0"),
    (Slice, (0.5, np.nan, SliceType.STEEP_Y), "mu=nan must be finite and >= 0"),
    (ParamBox, (0.75, 0.25, 0.0, 1.0, SliceType.FLAT_X), "lam range"),
    (ParamBox, (0.0, 1.5, 0.0, 1.0, SliceType.FLAT_X), "lam range"),
    (ParamBox, (0.0, 1.0, 2.0, 1.0, SliceType.FLAT_Y), "mu range"),
    (ParamBox, (0.0, 1.0, -1.0, 1.0, SliceType.FLAT_Y), "mu range"),
    (ParamBox, (0.0, 1.0, 0.0, 1.0, SliceType.STEEP_X, -1), "level must be non-negative"),
])
def test_slices_and_boxes_reject_parameters_outside_their_ranges(make, args, message):
    with pytest.raises(ValueError, match=message):
        make(*args)


def test_subdivide_point_box_fails():
    with pytest.raises(DegenerateBox):
        subdivide(ParamBox(0.5, 0.5, 1.0, 1.0, SliceType.FLAT_X, 3))


def test_center():
    B = ParamBox(0.0, 1.0, 0.0, 2.0, SliceType.FLAT_Y, 0)
    c = center(B)
    assert (c.lam, c.mu) == (0.5, 1.0)
    pt = ParamBox(0.25, 0.25, 1.5, 1.5, SliceType.STEEP_Y, 4)
    assert (center(pt).lam, center(pt).mu) == (0.25, 1.5)
    for k in subdivide(B):
        assert (center(k).lam, center(k).mu) != (c.lam, c.mu)


@given(coord, coord, pos_lam, st.floats(0.0, 6.0), types)
def test_points_vectorization_matches_scalar(px, py, lam, mu, stype):
    L = Slice(lam, mu, stype)
    xs = np.array([px, px / 2.0])
    ys = np.array([py, py / 3.0])
    vec = weighted_push(xs, ys, L)
    assert vec[0] == weighted_push(px, py, L)
    assert vec[1] == weighted_push(px / 2.0, py / 3.0, L)
