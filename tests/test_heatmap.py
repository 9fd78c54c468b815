import re

import numpy as np
import pytest

from conftest import scaled_copy, variation_filtration
from matchdist.complexes import validate_bifiltration
from matchdist.errors import DepthTooLarge
from matchdist.generators import GenSpec, generate_random
from matchdist.heatmap import compute_heatmap
from matchdist.slices import (
    ParamBox,
    Slice,
    SliceType,
    center,
    initial_boxes,
    pair_extents,
    subdivide,
)
from matchdist.solver import SolverConfig, approximate, eval_slice


@pytest.fixture(scope="module")
def pair():
    F1 = scaled_copy(generate_random(GenSpec(7, 8, 1, seed=1001)))
    F2 = scaled_copy(generate_random(GenSpec(7, 8, 1, seed=1002)))
    return F1, F2


def test_negative_dimension_is_rejected(pair):
    # it used to give the dimension-0 grids
    with pytest.raises(ValueError, match="homology dimension must be non-negative"):
        compute_heatmap(*pair, 1, -1)


def test_depth_zero_is_initial_centers(pair):
    F1, F2 = pair
    hm = compute_heatmap(F1, F2, 0)
    for box in initial_boxes(F1, F2):
        assert hm.grids[box.stype][0, 0] == eval_slice(F1, F2, center(box), 0)


def test_cells_are_centers_of_subdivided_boxes(pair):
    # cell [i][j] is the level-2 quad-tree box in mu bucket i, lam bucket j
    F1, F2 = pair
    n = 4
    hm = compute_heatmap(F1, F2, 2)
    for box in initial_boxes(F1, F2):
        cells = [cell for child in subdivide(box) for cell in subdivide(child)]
        where = {(round(c.mu_min / box.mu_max * n), round(c.lam_min * n)): c for c in cells}
        assert len(where) == n * n
        for (i, j), c in where.items():
            assert hm.grids[box.stype][i, j] == eval_slice(F1, F2, center(c), 0)


def test_collapsed_mu_range_keeps_lam_along_columns():
    # every x coordinate is 0, so x-slices have the one origin mu = 0; a
    # steep x-slice pushes (0, y) to lam * y, so its columns differ
    F1 = validate_bifiltration([[0]], [[(0.0, 1.0)]])
    F2 = validate_bifiltration([[0]], [[(0.0, 3.0)]])
    hm = compute_heatmap(F1, F2, 2)
    grid = hm.grids[SliceType.STEEP_X]
    for j in range(4):
        expected = eval_slice(F1, F2, Slice((j + 0.5) / 4, 0.0, SliceType.STEEP_X), 0)
        assert expected == 2.0 * (j + 0.5) / 4
        assert grid[:, j].tolist() == [expected] * 4


def test_negative_coordinates_are_refused_as_by_approximate(pair):
    # one side partly below the x-axis, and one side wholly in the negative
    # quadrant: the grid would miss slices or have no valid mu range
    F1, F2 = pair
    for G1, G2 in ((F1.translated(0.0, -1.0), F2), (F1, F2.translated(-50.0, -50.0))):
        with pytest.raises(ValueError) as refused:
            approximate(G1, G2)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            compute_heatmap(G1, G2, 0)


def test_depth_must_be_a_non_negative_integer(pair):
    for depth in (1.0, 1.5, "1", None, -1):
        with pytest.raises(ValueError, match="depth must be a non-negative integer"):
            compute_heatmap(*pair, depth)
    assert compute_heatmap(*pair, np.int64(0)).depth == 0


def test_depth_cap():
    F = generate_random(GenSpec(3, 2, 1, seed=1))
    with pytest.raises(DepthTooLarge):
        compute_heatmap(F, F, 11)


def test_composite_layout(pair):
    F1, F2 = pair
    k = 2
    n = 2**k
    hm = compute_heatmap(F1, F2, k)
    comp = hm.composite()
    assert comp.shape == (2 * n, 2 * n)
    # spot-check all four blocks against the documented orientation
    fx, fy = hm.grids[SliceType.FLAT_X], hm.grids[SliceType.FLAT_Y]
    sx, sy = hm.grids[SliceType.STEEP_X], hm.grids[SliceType.STEEP_Y]
    assert comp[0, 0] == fx[n - 1, 0]          # flattest, origin farthest on x-axis
    assert comp[0, 2 * n - 1] == fy[n - 1, 0]  # flattest, origin farthest on y-axis
    assert comp[2 * n - 1, 0] == sx[n - 1, 0]  # steepest, origin farthest on x-axis
    assert comp[n, n] == sy[0, n - 1]          # just past the central slope-1 origin cell


def _pair_variation(F1, F2, B):
    return variation_filtration(F1, B) + variation_filtration(F2, B)


def test_seam_consistency(pair):
    """Cells facing each other across a seam sample nearby lines: their
    difference is controlled by the push variation over the straddled
    parameter ranges, which shrinks with depth."""
    F1, F2 = pair
    k = 3
    n = 2**k
    h = 2.0**-k
    X, Y, _ = pair_extents(F1, F2)
    hm = compute_heatmap(F1, F2, k)

    # slope-one seam: last flat lambda bucket vs last steep lambda bucket,
    # same mu bucket; connect both through the shared lam = 1 line
    for flat_t, steep_t, R in ((SliceType.FLAT_Y, SliceType.STEEP_Y, Y),
                               (SliceType.FLAT_X, SliceType.STEEP_X, X)):
        for i in range(n):
            mu_c = (i + 0.5) * R * h
            gap = abs(hm.grids[flat_t][i, n - 1] - hm.grids[steep_t][i, n - 1])
            straddle = 2.0 * (
                _pair_variation(F1, F2, ParamBox(1.0 - h, 1.0, mu_c, mu_c, flat_t, 0))
                + _pair_variation(F1, F2, ParamBox(1.0 - h, 1.0, mu_c, mu_c, steep_t, 0))
            )
            assert gap <= straddle + 1e-9

    # through-origin seam: first x mu bucket vs first y mu bucket, same
    # lambda bucket; connect through the shared mu = 0 line
    for x_t, y_t in ((SliceType.FLAT_X, SliceType.FLAT_Y),
                     (SliceType.STEEP_X, SliceType.STEEP_Y)):
        for j in range(n):
            lam_c = (j + 0.5) * h
            gap = abs(hm.grids[x_t][0, j] - hm.grids[y_t][0, j])
            straddle = 2.0 * (
                _pair_variation(F1, F2, ParamBox(lam_c, lam_c, 0.0, X * h, x_t, 0))
                + _pair_variation(F1, F2, ParamBox(lam_c, lam_c, 0.0, Y * h, y_t, 0))
            )
            assert gap <= straddle + 1e-9


def test_grid_max_below_solver_upper_bound(pair):
    F1, F2 = pair
    eps = 0.2
    res = approximate(F1, F2, SolverConfig(epsilon=eps))
    hm = compute_heatmap(F1, F2, 3)
    grid_max = max(float(g.max()) for g in hm.grids.values())
    assert grid_max <= res.delta + eps + 1e-9
