import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import bottleneck_assignment, bottleneck_brute, random_diagram
from matchdist.bottleneck import _saturates, bottleneck_distance
from matchdist.errors import DimensionMismatch
from matchdist.persistence import Diagram


def D(finite=(), essential=(), dim=0):
    return Diagram.make(finite, essential, dim)


def test_identity_is_zero():
    d = D([(0.5, 2.0), (1.0, 4.0)], [0.0])
    assert bottleneck_distance(d, d) == 0.0


def test_single_unmatched_point():
    assert bottleneck_distance(D([(1.0, 3.0)]), D()) == 1.0


def test_match_beats_diagonal():
    # matching the long pair and dropping the short one costs 0.5
    assert bottleneck_distance(D([(0.0, 4.0), (1.0, 2.0)]), D([(0.5, 4.5)])) == 0.5


def test_essential_matching():
    assert bottleneck_distance(D(essential=[0.0]), D(essential=[0.3])) == 0.3
    assert bottleneck_distance(D(essential=[0.0]), D()) == math.inf


def test_essential_count_mismatch_is_infinite():
    assert bottleneck_distance(D([(0.0, 1.0)], [0.0, 1.0]), D([(0.0, 1.0)], [0.0])) == math.inf


def test_two_diagram_example_distance_eighth():
    # one close match plus one point dropped to the diagonal
    d1 = D([(0.1, 0.6), (0.5, 0.75)])
    d2 = D([(0.15, 0.55)])
    assert bottleneck_brute(d1, d2) == 0.125
    assert bottleneck_distance(d1, d2) == 0.125


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bottleneck_distance(D(dim=0), D(dim=1))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matches_exhaustive_oracle(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    d1 = random_diagram(rng)
    d2 = random_diagram(rng)
    assert bottleneck_distance(d1, d2) == bottleneck_brute(d1, d2)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_symmetry_and_triangle_inequality(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    a, b, c = (random_diagram(rng) for _ in range(3))
    dab = bottleneck_distance(a, b)
    assert dab == bottleneck_distance(b, a)
    dac = bottleneck_distance(a, c)
    dbc = bottleneck_distance(b, c)
    if math.isfinite(dab) and math.isfinite(dbc):
        assert dac <= dab + dbc + 1e-9
    # triangle inequality also holds with infinities involved: an infinite
    # right side never constrains


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-12, 12))
def test_shift_invariance(seed, quarter_r):
    # diagram values and shifts share a dyadic grid, so sums are exact
    r = quarter_r / 4.0
    rng = np.random.Generator(np.random.Philox(seed))
    a, b = random_diagram(rng), random_diagram(rng)
    assert bottleneck_distance(a.shifted(r), b.shifted(r)) == bottleneck_distance(a, b)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 8.0))
def test_homogeneity(seed, s):
    rng = np.random.Generator(np.random.Philox(seed))
    a, b = random_diagram(rng), random_diagram(rng)
    base = bottleneck_distance(a, b)
    scaled = bottleneck_distance(a.scaled(s), b.scaled(s))
    if math.isinf(base):
        assert math.isinf(scaled)
    elif base == 0.0:
        assert scaled == 0.0
    else:
        assert scaled == pytest.approx(s * base, rel=1e-12)


def _saturates_by_assignment(adj: np.ndarray) -> bool:
    # with at least as many columns as rows every row gets assigned, and an
    # optimum of 0 means every assigned pair is an edge
    nrows, ncols = adj.shape
    if nrows > ncols:
        return False
    if nrows == 0:
        return True
    cost = (~adj).astype(np.int8)
    r, c = linear_sum_assignment(cost)
    return int(cost[r, c].sum()) == 0


def test_saturates_matches_assignment_across_sizes():
    # sizes from 1 x 1 to 120 x 150, small graphs and ones with more than
    # 4096 potential edges, sparse to dense, with edgeless rows, empty sides
    # and more rows than columns
    rng = np.random.Generator(np.random.Philox(4096))
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (64, 64), (65, 64), (120, 150), (150, 120)]
    shapes += [(int(rng.integers(1, 121)), int(rng.integers(1, 151))) for _ in range(240)]
    large = 0
    for nrows, ncols in shapes:
        for density in (0.02, 0.1, 0.5):
            adj = rng.random((nrows, ncols)) < density
            if nrows > 2 and rng.random() < 0.2:
                adj[int(rng.integers(0, nrows))] = False
            expected = _saturates_by_assignment(adj)
            assert _saturates(adj) == expected, (nrows, ncols, density)
            # the row-saturation answer does not depend on the memory layout
            assert _saturates(np.asfortranarray(adj)) == expected
            large += nrows * ncols > 4096
    assert large > 100


def _grid_diagram(rng: np.random.Generator, n: int) -> Diagram:
    # dyadic values, so every candidate cost is exact and ties are frequent
    births = rng.integers(0, 257, size=n) / 4.0
    lengths = rng.integers(1, 65, size=n) / 4.0
    return D(list(zip(births, births + lengths)))


@pytest.mark.parametrize("seed", range(8))
def test_matches_assignment_oracle_on_large_diagrams(seed):
    rng = np.random.Generator(np.random.Philox(900 + seed))
    n1, n2 = (int(x) for x in rng.integers(50, 201, size=2))
    d1, d2 = _grid_diagram(rng, n1), _grid_diagram(rng, n2)
    assert bottleneck_distance(d1, d2) == bottleneck_assignment(d1, d2)
    assert bottleneck_distance(d2, d1) == bottleneck_assignment(d1, d2)


def test_assignment_oracle_agrees_with_exhaustive_oracle():
    rng = np.random.Generator(np.random.Philox(77))
    for _ in range(200):
        d1 = random_diagram(rng, max_pts=4)
        d2 = random_diagram(rng, max_pts=4)
        d1, d2 = D(d1.finite), D(d2.finite)
        assert bottleneck_assignment(d1, d2) == bottleneck_brute(d1, d2)
