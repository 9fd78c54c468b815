import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import (
    bottleneck_assignment,
    bottleneck_brute,
    diagram_scaled,
    diagram_shifted,
    is_x,
    random_diagram,
)
import matchdist.bottleneck as bottleneck_module
from matchdist.bottleneck import _saturates, bottleneck_distance, essential_distance, half_persistence
from matchdist.errors import DimensionMismatch
from matchdist.generators import GenSpec, generate_random
from matchdist.persistence import Diagram, _trusted_diagram, diagram, lexicographic
from matchdist.slices import SLICE_TYPES, Slice, pair_extents, restrict


def D(finite=(), essential=(), dim=0):
    return Diagram(finite, essential, dim)


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


def test_infinite_essential_births():
    # equal births cost 0 even at inf, where inf - inf is nan
    inf = math.inf
    for f in (essential_distance, bottleneck_distance):
        assert f(D(essential=[inf]), D(essential=[inf])) == 0.0
        assert f(D(essential=[0.5, inf]), D(essential=[0.25, inf])) == 0.25
        assert f(D(essential=[inf]), D(essential=[1.0])) == inf
        assert f(D(essential=[1.0, inf]), D(essential=[inf])) == inf  # counts differ


def test_infinite_deaths_in_finite_are_essential():
    # a (birth, inf) row is an essential point: it is matched by birth
    inf = math.inf
    assert bottleneck_distance(D([(1.0, inf)]), D([(2.0, inf)])) == 1.0
    assert bottleneck_distance(D([(1.0, inf)]), D(essential=[2.0])) == 1.0
    assert bottleneck_distance(D([(1.0, inf), (0.0, 4.0)]), D([(0.0, 4.0)], [1.5])) == 0.5


def test_half_persistence():
    assert half_persistence(D()) == 0.0
    assert half_persistence(D([(0.0, 1.0), (2.0, 5.0), (3.0, 4.0)], [0.0])) == 1.5
    assert half_persistence(D(essential=[0.0, 2.0])) == 0.0


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
    assert bottleneck_distance(diagram_shifted(a, r), diagram_shifted(b, r)) == bottleneck_distance(a, b)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 8.0))
def test_homogeneity(seed, s):
    rng = np.random.Generator(np.random.Philox(seed))
    a, b = random_diagram(rng), random_diagram(rng)
    base = bottleneck_distance(a, b)
    scaled = bottleneck_distance(diagram_scaled(a, s), diagram_scaled(b, s))
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
            rows = (~adj).astype(float)
            assert _saturates(rows, 0.0) == expected, (nrows, ncols, density)
            # the row-saturation answer does not depend on the memory layout
            assert _saturates(np.asfortranarray(rows), 0.0) == expected
            large += nrows * ncols > 4096
    assert large > 100


def test_saturates_matches_assignment_on_integer_costs_with_ties():
    # few distinct costs, so many rows share nearest partners and distances
    # tie; every threshold from below the smallest cost to the largest
    rng = np.random.Generator(np.random.Philox(19))
    shapes = [(int(rng.integers(1, 13)), int(rng.integers(1, 13))) for _ in range(400)]
    shapes += [(int(rng.integers(20, 81)), int(rng.integers(20, 101))) for _ in range(40)]
    for nrows, ncols in shapes:
        top = int(rng.integers(1, 6))
        rows = rng.integers(0, top + 1, size=(nrows, ncols)).astype(float)
        for t in range(-1, top + 1):
            assert _saturates(rows, t) == _saturates_by_assignment(rows <= t), (nrows, ncols, t)


def _count_augment(monkeypatch) -> list[bool]:
    results = []
    augment = bottleneck_module._augment

    def counting(adj, row_mate, col_mate):
        results.append(augment(adj, row_mate, col_mate))
        return results[-1]

    monkeypatch.setattr("matchdist.bottleneck._augment", counting)
    return results


def test_saturates_paths_on_tiny_graphs(monkeypatch):
    searches = _count_augment(monkeypatch)
    # greedy only: both rows are nearest to column 0, the second takes column 1
    assert _saturates(np.array([[0.0, 1.0], [0.0, 1.0]]), 1.0)
    assert searches == []
    # augmenting path: the second row reaches only column 0, whose row moves on
    assert _saturates(np.array([[0.0, 1.0], [0.0, 5.0]]), 1.0)
    assert searches == [True]
    # Hall violation: two rows whose one neighbour is column 0
    assert not _saturates(np.array([[0.0, 5.0, 5.0], [0.0, 5.0, 5.0]]), 1.0)
    assert searches == [True, False]
    # a row without an edge, more rows than columns, and empty sides
    assert not _saturates(np.array([[0.0, 1.0], [5.0, 5.0]]), 1.0)
    assert not _saturates(np.zeros((3, 2)), 0.0)
    assert _saturates(np.zeros((0, 3)), 0.0)
    assert _saturates(np.zeros((0, 0)), 0.0)
    assert not _saturates(np.zeros((2, 0)), 0.0)
    assert searches == [True, False]


def test_clustered_diagrams_match_assignment_oracle(monkeypatch):
    # 100 points uniform in [0, 1] x [5, 6] on both sides: every point costs
    # more than 2 on the diagonal, so the answer needs a perfect matching,
    # and the nearest partners collide on most rows
    searches = _count_augment(monkeypatch)
    rng = np.random.Generator(np.random.Philox(100))
    d1, d2 = (D(np.column_stack([rng.uniform(0, 1, 100), rng.uniform(5, 6, 100)]))
              for _ in range(2))
    expected = bottleneck_assignment(d1, d2)
    assert expected < 1.0
    assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1) == expected
    assert True in searches and False in searches


def test_repeated_points_match_assignment_oracle():
    # many copies of one point, of the 9 points of a 3 x 3 grid, and of 20
    # points in a cluster: rows with equal distances pick the same columns
    rng = np.random.Generator(np.random.Philox(9))
    locs = np.column_stack([rng.uniform(0, 1, 20), rng.uniform(5, 6, 20)])
    for n in (40, 150):
        grid = [np.column_stack([rng.integers(0, 3, n), rng.integers(10, 13, n)]).astype(float)
                for _ in range(2)]
        pairs = [(np.tile([0.0, 10.0], (n, 1)), np.tile([0.0, 10.0], (n + 1, 1))), tuple(grid),
                 (locs[rng.integers(0, 20, n)], locs[rng.integers(0, 20, n)])]
        for a, b in pairs:
            d1, d2 = D(a), D(b)
            expected = bottleneck_assignment(d1, d2)
            assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1) == expected, n
    same = np.zeros((200, 201))
    assert _saturates(same, 0.0)
    same[:, :2] = 1.0  # 200 equal rows, 199 columns within 0
    assert not _saturates(same, 0.0)


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


def _lb_and_candidates(d1: Diagram, d2: Diagram) -> tuple[float, list[float]]:
    """The finite part's lower bound and the candidate costs above it.

    Every point pays at least the smaller of its nearest-partner distance
    and its diagonal cost; the candidates are the pairwise sup-distances
    and half-persistences in (lb, ub], ub being the all-unmatched cost.
    """
    pts1, pts2 = d1.finite.tolist(), d2.finite.tolist()

    def sup(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    def half(p):
        return (p[1] - p[0]) / 2.0

    lb = max([min([half(p)] + [sup(p, q) for q in pts2]) for p in pts1]
             + [min([half(q)] + [sup(p, q) for p in pts1]) for q in pts2])
    ub = max(half(p) for p in pts1 + pts2)
    pool = {sup(p, q) for p in pts1 for q in pts2} | {half(p) for p in pts1 + pts2}
    return lb, sorted(c for c in pool if lb < c <= ub)


def _tiny_diagram(rng: np.random.Generator, max_pts: int = 4) -> Diagram:
    # finite points on a coarse dyadic grid, so ties are frequent
    n = int(rng.integers(1, max_pts + 1))
    births = rng.integers(0, 9, size=n) / 4.0
    return D(list(zip(births, births + rng.integers(1, 9, size=n) / 4.0)))


def _tiny_pairs() -> list[tuple[Diagram, Diagram]]:
    rng = np.random.Generator(np.random.Philox(4))
    return [(_tiny_diagram(rng), _tiny_diagram(rng)) for _ in range(300)]


# lb = 0 (each point has a twin on the other side) is infeasible: one of
# the two copies must go to the diagonal, at cost 5
TWIN_PAIR = (D([(0, 10)]), D([(0, 10), (0, 10)]))


def _shift_pair(k: int) -> tuple[Diagram, Diagram]:
    """k + 1 points against k on the line of births, all dying at 4k.

    One of the k + 1 must go to the diagonal, cheapest the one born at k
    (cost 1.5k), and the rest shift by at most lb = 1. The candidates above
    lb are the distances 2, ..., k and then the diagonal costs from 1.5k
    up, so the answer is the k-th candidate, past all the distances.
    """
    births1 = [0] + list(range(2, k + 1))
    return D([(b, 4 * k) for b in births1]), D([(b, 4 * k) for b in range(k + 1)])


def test_answer_above_lb_matches_exhaustive_oracle():
    assert _lb_and_candidates(*TWIN_PAIR) == (0.0, [5.0])
    for k in (5, 40):
        lb, candidates = _lb_and_candidates(*_shift_pair(k))
        assert lb == 1.0 and candidates.index(1.5 * k) == k - 1
    assert bottleneck_brute(*_shift_pair(5)) == 7.5
    assert bottleneck_assignment(*_shift_pair(40)) == 60.0
    for (d1, d2), expected in ((TWIN_PAIR, 5.0), (_shift_pair(5), 7.5), (_shift_pair(40), 60.0)):
        assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1) == expected

    above = 0
    for d1, d2 in _tiny_pairs():
        expected = bottleneck_brute(d1, d2)
        assert bottleneck_distance(d1, d2) == expected
        assert bottleneck_distance(d2, d1) == expected
        above += expected > _lb_and_candidates(d1, d2)[0]
    assert above >= 10


def _count_saturates(monkeypatch) -> list[tuple[int, int]]:
    calls = []

    def counting(rows, t):
        calls.append(rows.shape)
        return _saturates(rows, t)

    monkeypatch.setattr("matchdist.bottleneck._saturates", counting)
    return calls


def test_answer_at_lb_takes_one_probe_per_side(monkeypatch):
    calls = _count_saturates(monkeypatch)
    d1 = D([(0.1, 0.6), (0.5, 0.75)])
    d2 = D([(0.15, 0.55)])
    assert _lb_and_candidates(d1, d2)[0] == 0.125
    assert bottleneck_distance(d1, d2) == 0.125
    # a bisection of [lb, ub] = {0.125, 0.2, 0.25} would make two
    # feasibility checks, four matchings
    assert len(calls) <= 2


def test_search_above_lb_probe_count(monkeypatch):
    # the lb check plus a bisection of the n candidates above lb make at
    # most 2 * ceil(log2(n)) + 1 feasibility checks, and each check matches
    # each side at most once
    calls = _count_saturates(monkeypatch)
    pairs = [TWIN_PAIR, _shift_pair(5), _shift_pair(40)]
    pairs += [(d1, d2) for d1, d2 in _tiny_pairs()
              if bottleneck_brute(d1, d2) > _lb_and_candidates(d1, d2)[0]]
    assert len(pairs) >= 12
    for d1, d2 in pairs:
        lb, candidates = _lb_and_candidates(d1, d2)
        checks = 2 * math.ceil(math.log2(len(candidates))) + 1
        for x, y in ((d1, d2), (d2, d1)):
            calls.clear()
            assert bottleneck_distance(x, y) > lb
            assert len(calls) <= 2 * checks, (x, y, len(calls))


def test_matches_assignment_oracle_on_c7_slice_diagrams():
    # the roughly 100-point diagrams the solver sees on the c7 pair,
    # on seeded slices of every type
    F1 = generate_random(GenSpec(100, 400, 1, seed=7000))
    F2 = generate_random(GenSpec(100, 400, 1, seed=7100))
    X, Y, _ = pair_extents(F1, F2)
    rng = np.random.Generator(np.random.Philox(7))
    for i in range(32):
        stype = SLICE_TYPES[i % 4]
        L = Slice(float(rng.uniform()), float(rng.uniform(0.0, X if is_x(stype) else Y)), stype)
        # the finite parts: essential points are paired apart from the search
        d1 = D(diagram(restrict(F1, L), 0).finite)
        d2 = D(diagram(restrict(F2, L), 0).finite)
        expected = bottleneck_assignment(d1, d2)
        assert bottleneck_distance(d1, d2) == expected, L
        assert bottleneck_distance(d2, d1) == expected, L


def _perturbed(d: Diagram, m: int, rng: np.random.Generator) -> Diagram:
    """The first m points of d in lexicographic order, each coordinate
    moved by at most 1/4."""
    pts = np.array(lexicographic(d.finite)[:m], dtype=np.float64).reshape(-1, 2)
    pts += rng.integers(-2, 3, size=pts.shape) / 8.0
    pts[:, 1] = np.maximum(pts[:, 1], pts[:, 0] + 0.125)
    return D([tuple(p) for p in pts])


def _tied_diagram(rng: np.random.Generator, n: int, length: float) -> Diagram:
    births = rng.integers(0, 257, size=n) / 4.0
    return D(list(zip(births, births + length)))


def _count_search_above(monkeypatch) -> list[float]:
    calls = []
    search = bottleneck_module._search_above

    def counting(rows, diags, feasible, lb):
        calls.append(lb)
        return search(rows, diags, feasible, lb)

    monkeypatch.setattr("matchdist.bottleneck._search_above", counting)
    return calls


def test_sweep_matches_assignment_oracle_around_the_seed_block(monkeypatch):
    # side sizes on both sides of the 32-row seed block, independent pairs
    # (lb often infeasible) and perturbed copies (lb usually the answer)
    assert bottleneck_module._SEED == 32
    fallbacks = _count_search_above(monkeypatch)
    rng = np.random.Generator(np.random.Philox(32))
    sizes = (0, 1, 31, 32, 33, 64, 65, 500)
    pairs = [(_grid_diagram(rng, 1), _grid_diagram(rng, 400))]
    for i, n1 in enumerate(sizes):
        for n2 in sizes[i:]:
            d2 = _grid_diagram(rng, n2)
            pairs += [(_grid_diagram(rng, n1), d2), (_perturbed(d2, n1, rng), d2)]
    # ties in diagonal cost across the seed boundary: every point of a side,
    # or the points around positions 31 and 32, cost the same
    for n in (33, 40, 64):
        pairs.append((_tied_diagram(rng, n, 8.0), _tied_diagram(rng, n, 8.0)))
    long = np.concatenate([_tied_diagram(rng, 28, 40.0).finite,
                           _tied_diagram(rng, 8, 16.0).finite])
    pairs.append((D(np.concatenate([long, _grid_diagram(rng, 30).finite])),
                  _tied_diagram(rng, 36, 16.0)))
    at_lb = 0
    for d1, d2 in pairs:
        expected = bottleneck_assignment(d1, d2)
        before = len(fallbacks)
        assert bottleneck_distance(d1, d2) == expected, (len(d1.finite), len(d2.finite))
        assert bottleneck_distance(d2, d1) == expected, (len(d1.finite), len(d2.finite))
        at_lb += len(fallbacks) == before
    assert 10 <= at_lb < len(pairs) - 10


def test_the_order_of_tied_points_does_not_change_the_distance(monkeypatch):
    # a Diagram leaves points of equal persistence in whatever order its
    # argsort gives them, and that order decides which points fill a seed
    # block; store tie-heavy multisets in several row orders, through
    # Diagram of permuted points and _trusted_diagram of permuted rows
    fallbacks = _count_search_above(monkeypatch)
    rng = np.random.Generator(np.random.Philox(31))
    pairs = [(_tied_diagram(rng, n, 8.0), _tied_diagram(rng, n, 8.0)) for n in (20, 33, 40, 64)]
    long = np.concatenate([_tied_diagram(rng, 28, 40.0).finite,
                           _tied_diagram(rng, 8, 16.0).finite])
    pairs.append((D(long), _tied_diagram(rng, 36, 16.0)))
    for d1, d2 in pairs:
        expected = bottleneck_assignment(d1, d2)
        stored, values = set(), set()
        for _ in range(4):
            x = D(rng.permutation(d1.finite))
            y = _trusted_diagram(rng.permutation(d2.finite), np.empty(0), 0)
            assert x == d1 and y == d2
            stored.add(x.finite.tobytes())
            values |= {bottleneck_distance(x, y), bottleneck_distance(y, x)}
        assert values == {expected}, (len(d1.finite), len(d2.finite))
        assert len(stored) > 1  # the orders stored differ
    assert fallbacks  # some lb is infeasible, so the candidates are searched too


def _ladder(n: int, shift: float, outlier: float) -> tuple[Diagram, Diagram]:
    """n points born at 0 and dying 10 apart, against copies shifted by shift.

    The copy of the shortest point is shifted by outlier instead, so that
    point sets lb = outlier, and it is the last of its side in falling
    diagonal cost.
    """
    deaths = [1000.0 + 10 * i for i in range(n)]
    moved = [outlier] + [shift] * (n - 1)
    return D([(0.0, d) for d in deaths]), D([(0.0, d + s) for d, s in zip(deaths, moved)])


def test_rows_past_the_seed_block_raise_lb():
    # all 100 points of each side are far above lb, so the 32 seed rows per
    # side see only the small shifts; lb is the outlier's
    d1, d2 = _ladder(100, 0.25, 3.0)
    assert bottleneck_assignment(d1, d2) == 3.0
    assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1) == 3.0


def test_both_sides_are_seeded_before_either_continues(monkeypatch):
    # side 1: 200 points with diagonal costs 2..201, each with a twin on
    # side 2 a quarter away; side 2's longest point is far from side 1 and
    # costs 300 on the diagonal, which is lb. Seeded from side 2 too, lb is
    # known before any continuation, and no side needs rows past its seed.
    side1 = [(0.0, 4.0 + 2 * i) for i in range(200)]
    side2 = [(0.0, d + 0.25) for _, d in side1] + [(500.0, 1100.0)]
    d1, d2 = D(side1), D(side2)
    rows = []
    sup_rows = bottleneck_module._sup_rows

    def counting(p, q):
        rows.append((len(p), len(q)))
        return sup_rows(p, q)

    monkeypatch.setattr("matchdist.bottleneck._sup_rows", counting)
    assert bottleneck_distance(d1, d2) == 300.0
    assert sorted(rows) == [(32, 200), (32, 201)]
    assert bottleneck_assignment(d1, d2) == 300.0


def test_high_rows_exclude_points_costing_exactly_lb():
    # both points cost lb = 1 on the diagonal and are 5 apart: lb is the
    # answer only if a point costing exactly lb may stay unmatched
    d1, d2 = D([(0.0, 2.0)]), D([(5.0, 7.0)])
    assert bottleneck_brute(d1, d2) == 1.0
    assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1) == 1.0
    d1, d2 = _ladder(40, 0.25, 3.0)
    d2 = D(np.concatenate([d2.finite, [(0.0, 6.0), (100.0, 106.0)]]))
    assert bottleneck_assignment(d1, d2) == 3.0
    assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1) == 3.0


def test_distinct_nearest_partners_certify_lb_without_matching(monkeypatch):
    searches = _count_augment(monkeypatch)
    d1, d2 = D([(0.0, 4.0), (1.0, 6.0)]), D([(0.25, 4.0), (1.0, 6.5)])
    assert _lb_and_candidates(d1, d2)[0] == 0.5
    assert bottleneck_brute(d1, d2) == 0.5
    assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1) == 0.5
    assert searches == []


def test_colliding_nearest_partners_with_a_matching_at_lb(monkeypatch):
    # both points of d1 are nearest to (0, 10); (0.25, 10.5) can still take
    # (1, 11) at lb = 0.75: one check at lb, each side once, and one search,
    # on d1's side, whose nearest partners collide. d1's points tie in
    # persistence and are stored as listed: with (0.25, 10.5) first it takes
    # (0, 10), and (0, 10.25) is left to the search
    calls = _count_saturates(monkeypatch)
    searches = _count_augment(monkeypatch)
    d1, d2 = D([(0.25, 10.5), (0.0, 10.25)]), D([(0.0, 10.0), (1.0, 11.0)])
    assert d1.finite.tolist() == [[0.25, 10.5], [0.0, 10.25]]
    assert _lb_and_candidates(d1, d2)[0] == 0.75
    assert bottleneck_brute(d1, d2) == 0.75
    assert bottleneck_distance(d1, d2) == 0.75
    assert calls == [(2, 2), (2, 2)]
    calls.clear()
    assert bottleneck_distance(d2, d1) == 0.75
    assert calls == [(2, 2), (2, 2)]
    assert searches == [True, True]


def test_colliding_nearest_partners_without_a_matching_at_lb(monkeypatch):
    # both points of d2 are nearest to d1's only point; one of them goes to
    # the diagonal, the cheaper at 3.75
    calls = _count_saturates(monkeypatch)
    fallbacks = _count_search_above(monkeypatch)
    d1, d2 = D([(0.0, 8.0)]), D([(0.0, 8.5), (0.5, 8.0)])
    assert _lb_and_candidates(d1, d2)[0] == 0.5
    assert bottleneck_brute(d1, d2) == 3.75
    assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1) == 3.75
    assert (2, 1) in calls
    assert fallbacks == [0.5, 0.5]


def test_answer_at_lb_on_large_diagrams_skips_the_search(monkeypatch):
    rng = np.random.Generator(np.random.Philox(500))
    fallbacks = _count_search_above(monkeypatch)
    d2 = _grid_diagram(rng, 500)
    d1 = _perturbed(d2, 500, rng)
    lb, _ = _lb_and_candidates(d1, d2)
    assert bottleneck_assignment(d1, d2) == lb
    assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1) == lb
    assert fallbacks == []


def test_search_above_lb_computes_no_rows_beyond_the_sweep(monkeypatch):
    # the search reads the rows the sweep computed for lb: sides of at most
    # 32 points are covered by their seed blocks, and an independent pair
    # of 40 and 48 points has an infeasible lb past both seeds
    rng = np.random.Generator(np.random.Philox(0))
    independent = (_grid_diagram(rng, 40), _grid_diagram(rng, 48))
    rows = []
    sup_rows = bottleneck_module._sup_rows

    def counting(p, q):
        rows.append(len(p))
        return sup_rows(p, q)

    monkeypatch.setattr("matchdist.bottleneck._sup_rows", counting)
    for d1, d2 in (TWIN_PAIR, _shift_pair(40), independent):
        assert bottleneck_assignment(d1, d2) > _lb_and_candidates(d1, d2)[0]
        for x, y in ((d1, d2), (d2, d1)):
            rows.clear()
            bottleneck_distance(x, y)
            assert sum(rows) <= len(x.finite) + len(y.finite), (len(x.finite), len(y.finite))


def test_small_pairs_compute_one_distance_block(monkeypatch):
    # when both sides fit in their seeds, the second side's block is the
    # first's transpose: one block of distances, the same answer either way
    rng = np.random.Generator(np.random.Philox(5))
    rows = []
    sup_rows = bottleneck_module._sup_rows

    def counting(p, q):
        rows.append((len(p), len(q)))
        return sup_rows(p, q)

    monkeypatch.setattr("matchdist.bottleneck._sup_rows", counting)
    for n1, n2 in ((1, 1), (1, 32), (32, 32), (7, 20), (32, 33)):
        d1, d2 = _grid_diagram(rng, n1), _grid_diagram(rng, n2)
        want = bottleneck_assignment(d1, d2)
        for x, y in ((d1, d2), (d2, d1)):
            rows.clear()
            assert bottleneck_distance(x, y) == want
            n, m = len(x.finite), len(y.finite)
            assert rows[:2] == ([(n, m)] if max(n, m) <= 32 else [(min(n, 32), m), (min(m, 32), n)])
