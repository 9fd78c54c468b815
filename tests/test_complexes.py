from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchdist.complexes as complexes
from matchdist.complexes import (
    lower_star,
    mono_filtration,
    normalize_pair,
    reduce_antichain,
    validate_bifiltration,
)
from matchdist.errors import (
    EmptyCriticalSet,
    MissingFace,
    MissingVertexValue,
    MonotonicityViolation,
    NonFiniteCoordinate,
)
from matchdist.generators import GenSpec, generate_random, generate_random_kcritical


def test_single_vertex():
    F = validate_bifiltration([[0]], [[(1.0, 2.0)]])
    assert F.n == 1
    assert F.max_x == 1.0 and F.max_y == 2.0 and F.c_max == 2.0


def test_monotonicity_violation():
    with pytest.raises(MonotonicityViolation):
        validate_bifiltration(
            [[0], [1], [0, 1]],
            [[(1.0, 0.0)], [(0.0, 0.0)], [(0.0, 0.0)]],
        )


def test_triangle_componentwise_max_is_valid():
    verts = {0: (1.0, 1.0), 1: (2.0, 0.0), 2: (0.0, 3.0)}
    simplices = [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]
    F = lower_star(simplices, verts)
    # brute force: every face pair must be ordered componentwise
    for s in F.simplices:
        for t in F.simplices:
            if set(t) < set(s):
                (px, py), (qx, qy) = F.critical[F.index[s]][0], F.critical[F.index[t]][0]
                assert qx <= px and qy <= py
    assert F.critical[F.index[(0, 1, 2)]][0] == (2.0, 3.0)


def test_missing_face():
    with pytest.raises(MissingFace):
        validate_bifiltration([[0], [0, 1]], [[(0.0, 0.0)], [(1.0, 1.0)]])


def test_empty_critical_set():
    with pytest.raises(EmptyCriticalSet):
        validate_bifiltration([[0]], [[]])


def test_nonfinite_coordinate():
    with pytest.raises(NonFiniteCoordinate):
        validate_bifiltration([[0]], [[(float("nan"), 0.0)]])


def test_duplicate_simplex_rejected():
    with pytest.raises(ValueError):
        validate_bifiltration([[0], [0]], [[(0.0, 0.0)], [(1.0, 1.0)]])


def test_antichain_reduction():
    # dominated and duplicate points disappear, minima stay
    pts = reduce_antichain([(1.0, 3.0), (3.0, 1.0), (2.0, 4.0), (1.0, 3.0)])
    assert pts == ((1.0, 3.0), (3.0, 1.0))
    F = validate_bifiltration([[0]], [[(1.0, 3.0), (2.0, 4.0), (3.0, 1.0)]])
    assert F.critical[0] == ((1.0, 3.0), (3.0, 1.0))
    assert not F.one_critical


def test_validation_accepts_equal_critical_values():
    # distinctness of critical values is not required
    F = validate_bifiltration(
        [[0], [1], [0, 1]], [[(1.0, 1.0)], [(1.0, 1.0)], [(1.0, 1.0)]]
    )
    assert F.n == 3


def test_normalize_identity():
    F = validate_bifiltration([[0], [1]], [[(0.0, 2.0)], [(3.0, 0.0)]])
    G, _, shift = normalize_pair(F, F)
    assert shift == (0.0, 0.0)
    assert G is F


def test_normalize_single_point():
    F = validate_bifiltration([[0]], [[(-1.0, 5.0)]])
    G, _, shift = normalize_pair(F, F)
    assert shift == (1.0, -5.0)
    assert G.critical[0][0] == (0.0, 0.0)


def test_normalize_two_points():
    F = validate_bifiltration([[0], [1]], [[(-2.0, 1.0)], [(0.0, 3.0)]])
    G, _, shift = normalize_pair(F, F)
    assert shift == (2.0, -1.0)
    assert G.critical[G.index[(0,)]][0] == (0.0, 0.0)
    assert G.critical[G.index[(1,)]][0] == (2.0, 2.0)


def test_normalize_idempotent_and_difference_preserving():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(20):
        # integer grid inputs: differences are exact in doubles
        pts = [(float(rng.integers(-50, 50)), float(rng.integers(-50, 50))) for _ in range(6)]
        F = validate_bifiltration([[i] for i in range(6)], [[p] for p in pts])
        G, _, _ = normalize_pair(F, F)
        assert float(G.px.min()) == 0.0 and float(G.py.min()) == 0.0
        H, _, shift2 = normalize_pair(G, G)
        assert shift2 == (0.0, 0.0)
        for i in range(6):
            for j in range(6):
                pi, pj = G.critical[i][0], G.critical[j][0]
                qi, qj = F.critical[i][0], F.critical[j][0]
                assert pi[0] - pj[0] == qi[0] - qj[0]
                assert pi[1] - pj[1] == qi[1] - qj[1]


def test_normalize_pair_uses_common_shift():
    F1 = validate_bifiltration([[0]], [[(-1.0, 4.0)]])
    F2 = validate_bifiltration([[0]], [[(3.0, -2.0)]])
    G1, G2, shift = normalize_pair(F1, F2)
    assert shift == (1.0, 2.0)
    assert G1.critical[0][0] == (0.0, 6.0)
    assert G2.critical[0][0] == (4.0, 0.0)


def _shifted_by_validation(F, vx, vy):
    return validate_bifiltration(
        F.simplices, [[(x + vx, y + vy) for x, y in c] for c in F.critical]
    )


def _assert_same_filtration(G, H):
    assert G.simplices == H.simplices and G.critical == H.critical
    assert np.array_equal(G.px, H.px) and np.array_equal(G.py, H.py)
    assert np.array_equal(G.offsets, H.offsets)
    assert (G.max_x, G.max_y, G.c_max) == (H.max_x, H.max_y, H.c_max)
    assert G.one_critical == H.one_critical


def _counting_validation(monkeypatch) -> list[int]:
    calls = []
    validate = complexes.validate_bifiltration

    def counting(*args):
        calls.append(1)
        return validate(*args)

    monkeypatch.setattr(complexes, "validate_bifiltration", counting)
    return calls


def test_translated_shares_structure_without_validation(monkeypatch):
    spec = GenSpec(12, 20, 2, seed=41)
    rng = np.random.Generator(np.random.Philox(41))
    base = generate_random(spec)
    values = {v: tuple(rng.uniform(-30.0, 30.0, size=2)) for v in base.vertex_ids}
    inputs = [base, generate_random_kcritical(spec, 3), lower_star(base.simplices, values)]
    assert not inputs[1].one_critical
    shift = (0.1, -7.3)  # not exact in binary: every coordinate is rounded
    expected = [_shifted_by_validation(F, *shift) for F in inputs]
    calls = _counting_validation(monkeypatch)
    for F, H in zip(inputs, expected):
        G = F.translated(*shift)
        _assert_same_filtration(G, H)
        assert G.facet_indices is F.facet_indices and G.index is F.index
    assert calls == []


def test_translated_reduces_a_critical_set_that_rounding_merges(monkeypatch):
    # the shift rounds both x coordinates to 1.0, so (1.0, 3.0) dominates
    # (1.0, 10.0), which validation drops
    F = validate_bifiltration([[0]], [[(1e-17, 10.0), (2e-17, 3.0)]])
    assert F.critical[0] == ((1e-17, 10.0), (2e-17, 3.0))
    H = _shifted_by_validation(F, 1.0, 0.0)
    assert H.critical[0] == ((1.0, 3.0),)
    calls = _counting_validation(monkeypatch)
    _assert_same_filtration(F.translated(1.0, 0.0), H)
    assert calls == [1]


def test_lower_star_edge():
    F = lower_star([[0], [1], [0, 1]], {0: (1.0, 4.0), 1: (3.0, 2.0)})
    assert F.critical[F.index[(0, 1)]][0] == (3.0, 4.0)
    assert F.critical[F.index[(0,)]][0] == (1.0, 4.0)


def test_lower_star_missing_vertex_value():
    with pytest.raises(MissingVertexValue):
        lower_star([[0], [1], [0, 1]], {0: (0.0, 0.0)})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lower_star_output_validates(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    n = int(rng.integers(3, 7))
    m = min(int(rng.integers(2, 5)), n * (n - 1) // 2)
    complex_f = generate_random(GenSpec(n, m, 1, seed=seed))
    verts = {v: (float(rng.integers(0, 20)), float(rng.integers(0, 20)))
             for v in complex_f.vertex_ids}
    F = lower_star(complex_f.simplices, verts)
    # componentwise max along faces: re-validation is the check
    assert validate_bifiltration(F.simplices, F.critical).n == F.n


def test_mono_filtration_checks_faces():
    M = mono_filtration([[0], [1], [0, 1]], [0.0, 1.0, 2.0])
    M.check_monotone()
    with pytest.raises(MonotonicityViolation):
        mono_filtration([[0], [1], [0, 1]], [0.0, 1.0, 0.5])


def test_storage_sorted_by_dimension_then_vertices():
    F = validate_bifiltration(
        [[0, 1], [1], [0]], [[(2.0, 2.0)], [(1.0, 1.0)], [(0.0, 0.0)]]
    )
    assert F.simplices == [(0,), (1,), (0, 1)]


def _assert_merge_certificate(F):
    # brute force: at each critical point p of a dropped edge, a BFS over
    # the kept edges with a critical point <= p joins its endpoints
    kept = F.merge_candidates.tolist()
    lo = F.vertex_count
    assert kept == sorted(set(kept)) and set(kept) <= set(range(lo, lo + F.edge_count))
    for e in sorted(set(range(lo, lo + F.edge_count)) - set(kept)):
        u, v = F.facet_indices[e]
        for px, py in F.critical[e]:
            adj = {}
            for k in kept:
                if any(qx <= px and qy <= py for qx, qy in F.critical[k]):
                    a, b = F.facet_indices[k]
                    adj.setdefault(a, []).append(b)
                    adj.setdefault(b, []).append(a)
            reached, todo = {u}, [u]
            while todo:
                for w in adj.get(todo.pop(), ()):
                    if w not in reached:
                        reached.add(w)
                        todo.append(w)
            assert v in reached, (F.simplices[e], (px, py))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 1000]))
def test_dropped_edges_are_joined_by_kept_edges_that_enter_no_later(seed, coord_range):
    rng = np.random.Generator(np.random.Philox(seed))
    n = int(rng.integers(3, 9))
    d = int(rng.integers(1, 3))
    m = min(int(rng.integers(2, 12)), comb(n, d + 1))
    spec = GenSpec(n, m, d, seed=seed, coord_range=coord_range)
    for F in (generate_random(spec), generate_random_kcritical(spec, int(rng.integers(2, 4)))):
        _assert_merge_certificate(F)


def test_equal_grade_triangle_keeps_two_of_its_edges():
    # each edge is joined by the other two, but not all three may go
    simplices = [[0], [1], [2], [0, 1], [0, 2], [1, 2]]
    F = validate_bifiltration(simplices, [[(0.0, 0.0)]] * 3 + [[(1.0, 1.0)]] * 3)
    assert F.merge_candidates.tolist() == [3, 4]
    # a two-point critical set needs a path at each of its points
    G = validate_bifiltration(simplices, [[(0.0, 0.0)]] * 3 + [[(1.0, 1.0)]] * 2
                              + [[(0.0, 2.0), (2.0, 0.0)]])
    assert G.merge_candidates.tolist() == [3, 4, 5]
    _assert_merge_certificate(G)


def test_c7_pair_keeps_under_60_percent_of_its_edges():
    for seed in (7000, 7100):
        F = generate_random(GenSpec(100, 400, 1, seed=seed))
        assert len(F.merge_candidates) < 0.6 * F.edge_count


def test_translated_carries_the_merge_candidates_over():
    F = generate_random(GenSpec(8, 12, 2, seed=5, coord_range=4))
    assert "merge_candidates" not in F.__dict__  # built on first use
    kept = F.merge_candidates
    assert not kept.flags.writeable
    G = F.translated(0.1, -7.3)
    assert G.merge_candidates is kept
    _assert_merge_certificate(G)
