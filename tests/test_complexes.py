import itertools
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import h1_sides
import matchdist.complexes as complexes
from matchdist.complexes import (
    BiFiltration,
    CellComplex,
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
from matchdist.heatmap import compute_heatmap
from matchdist.persistence import _plan, diagram
from matchdist.slices import Slice, SliceType
from matchdist.solver import eval_slice


def test_single_vertex():
    F = validate_bifiltration([[0]], [[(1.0, 2.0)]])
    assert F.n == 1
    assert F.max_x == 1.0 and F.max_y == 2.0


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
    assert (G.max_x, G.max_y) == (H.max_x, H.max_y)
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
        assert G.boundary_idx is F.boundary_idx and G.index is F.index
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


def test_translated_rejects_a_shift_that_overflows_to_an_infinity():
    # normalize_pair shifts x by 1e308, which takes 1e308 to inf; the
    # check comes before any arithmetic on the infinity, so no warning
    F = validate_bifiltration([[0], [1], [0, 1]], [[(-1e308, 0.0)], [(1e308, 0.0)], [(1e308, 0.0)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteCoordinate, match="inf"):
            normalize_pair(F, F)
        with pytest.raises(NonFiniteCoordinate, match="-inf"):
            F.translated(-1e308, 0.0)
        with pytest.raises(NonFiniteCoordinate):
            F.translated(0.0, float("inf"))


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
    kept = complexes._span_sweep(F, 0).tolist()
    lo = F.vertex_count
    ends = _plan(F, 0)[1].tolist()  # edge e is row e - lo
    assert kept == sorted(set(kept)) and set(kept) <= set(range(lo, lo + F.edge_count))
    for e in sorted(set(range(lo, lo + F.edge_count)) - set(kept)):
        u, v = ends[e - lo]
        for px, py in F.critical[e]:
            adj = {}
            for k in kept:
                if any(qx <= px and qy <= py for qx, qy in F.critical[k]):
                    a, b = ends[k - lo]
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
    assert complexes._span_sweep(F, 0).tolist() == [3, 4]
    # a two-point critical set needs a path at each of its points
    G = validate_bifiltration(simplices, [[(0.0, 0.0)]] * 3 + [[(1.0, 1.0)]] * 2
                              + [[(0.0, 2.0), (2.0, 0.0)]])
    assert complexes._span_sweep(G, 0).tolist() == [3, 4, 5]
    _assert_merge_certificate(G)


def test_c7_pair_keeps_under_60_percent_of_its_edges():
    for seed in (7000, 7100):
        F = generate_random(GenSpec(100, 400, 1, seed=seed))
        assert F.reduced(0).edge_count < 0.6 * F.edge_count


def test_distinct_points_are_rebuilt_after_a_shift():
    # a lower-star filtration repeats each vertex's value in the simplices
    # it is the largest vertex of; a shift must not keep the old points
    K = generate_random(GenSpec(8, 12, 2, seed=5, coord_range=4))
    rng = np.random.Generator(np.random.Philox(5))
    F = lower_star(K.simplices, {v: tuple(rng.integers(-3, 4, size=2).tolist()) for v in K.vertex_ids})
    assert "distinct_points" not in F.__dict__  # built on first use
    xs, ys = F.distinct_points
    assert F.distinct_points[0] is xs and not xs.flags.writeable
    assert xs.size < F.px.size
    assert list(zip(xs.tolist(), ys.tolist())) == sorted(set(zip(F.px.tolist(), F.py.tolist())))
    G = F.translated(0.5, 0.25)
    assert np.array_equal(G.distinct_points[0], xs + 0.5)
    assert np.array_equal(G.distinct_points[1], ys + 0.25)
    H, _, (vx, vy) = normalize_pair(F, F)
    assert vx > 0.0 and vy > 0.0
    assert np.array_equal(H.distinct_points[0], xs + vx)
    assert np.array_equal(H.distinct_points[1], ys + vy)


def _assert_same_cut(R, S):
    assert np.array_equal(S.dims, R.dims)
    assert np.array_equal(S.boundary_ptr, R.boundary_ptr)
    assert np.array_equal(S.boundary_idx, R.boundary_idx)


def test_reduced_complex_is_rebuilt_after_a_shift():
    F = generate_random(GenSpec(8, 12, 2, seed=5, coord_range=4))
    R = F.reduced(0)
    assert F.reduced(0) is R  # built once
    assert isinstance(R, CellComplex) and not isinstance(R, BiFiltration)
    # the cut: every vertex at its own index, each kept edge with its two ends
    lo = F.vertex_count
    keep = [*range(lo), *complexes._span_sweep(F, 0).tolist()]
    rows = [F.boundary_idx[F.boundary_ptr[i] : F.boundary_ptr[i + 1]].tolist() for i in keep]
    assert R.dims.tolist() == [int(F.dims[i]) for i in keep]
    assert R.boundary_ptr.tolist() == [0, *itertools.accumulate(len(r) for r in rows)]
    assert R.boundary_idx.tolist() == [f for r in rows for f in r]
    assert R.critical == [F.critical[i] for i in keep]
    G = F.translated(0.5, 0.25)
    S = G.reduced(0)
    assert S is not R
    _assert_same_cut(R, S)
    assert np.array_equal(S.px, R.px + 0.5) and np.array_equal(S.py, R.py + 0.25)


def test_chunk_reduced_complex_is_rebuilt_after_a_shift():
    F = generate_random(GenSpec(8, 12, 2, seed=5, coord_range=4))
    before = set(F.__dict__)
    R = {dim: F.reduced(dim) for dim in (1, 2)}
    assert set(F.__dict__) - before == {"_reduced"}  # only the cuts are kept
    assert R[1] is not R[2]  # one cut of the chunk reduction per dim
    G = F.translated(0.5, 0.25)
    for dim in (1, 2):
        assert F.reduced(dim) is R[dim]  # built once
        assert type(R[dim]) is CellComplex
        assert R[dim].n < F.n and R[dim].vertex_count >= 1
        assert R[dim].dims.max() <= dim + 1
        S = G.reduced(dim)
        assert S is not R[dim]
        _assert_same_cut(R[dim], S)
        assert np.array_equal(S.px, R[dim].px + 0.5) and np.array_equal(S.py, R[dim].py + 0.25)


def test_reduced_rejects_a_negative_dimension_before_building_anything():
    F1 = generate_random(GenSpec(8, 12, 2, seed=5, coord_range=4))
    F2 = generate_random(GenSpec(8, 12, 2, seed=6, coord_range=4))
    before = set(F1.__dict__)
    with pytest.raises(ValueError, match="non-negative"):
        F1.reduced(-1)
    with pytest.raises(ValueError, match="non-negative"):
        eval_slice(F1, F2, Slice(0.5, 1.0, SliceType.FLAT_X), -1)
    with pytest.raises(ValueError, match="non-negative"):
        compute_heatmap(F1, F2, 1, -1)
    assert set(F1.__dict__) == before and set(F2.__dict__) == before
    assert "_reduced" not in before


def test_a_non_integer_dimension_is_rejected_before_building_anything():
    # 1.0 used to build reduced(1.0) and fail in persistence with a
    # TypeError, and 0.0 ran as dimension 0 under a cache key of its own
    F1 = generate_random(GenSpec(8, 12, 2, seed=5, coord_range=4))
    F2 = generate_random(GenSpec(8, 12, 2, seed=6, coord_range=4))
    M = mono_filtration([[0], [1], [0, 1]], [0.0, 0.0, 1.0])
    for dim in (1.0, 0.0, 1.5, "1", None):
        with pytest.raises(ValueError, match="homology dimension must be an integer"):
            compute_heatmap(F1, F2, 0, dim)
        with pytest.raises(ValueError, match="homology dimension must be an integer"):
            eval_slice(F1, F2, Slice(0.5, 1.0, SliceType.FLAT_X), dim)
        with pytest.raises(ValueError, match="homology dimension must be an integer"):
            diagram(M, dim)
        with pytest.raises(ValueError, match="homology dimension must be an integer"):
            F1.reduced(dim)
        assert "_reduced" not in F1.__dict__ and "_reduced" not in F2.__dict__
    # numpy's integers are integers, and share the int's cache entry
    assert F1.reduced(np.int64(1)) is F1.reduced(1)
    assert diagram(M, np.int64(0)) == diagram(M, 0)


def _f2_rank(rows: list[list[int]], width: int) -> int:
    # Gaussian elimination on a boolean matrix, one row per boundary
    M = np.zeros((len(rows), width), dtype=bool)
    for i, r in enumerate(rows):
        M[i, r] = True
    rank = 0
    for col in range(width):
        hit = np.flatnonzero(M[rank:, col])
        if not len(hit):
            continue
        M[[rank, rank + hit[0]]] = M[[rank + hit[0], rank]]
        others = M[:, col].copy()
        others[rank] = False
        M[others] ^= M[rank]
        rank += 1
    return rank


def _block(K, dim):
    ptr, idx = K.boundary_ptr, K.boundary_idx
    return [(K.critical[c], tuple(idx[ptr[c] : ptr[c + 1]].tolist()))
            for c in np.flatnonzero(K.dims == dim).tolist()]


def _assert_relation_certificate(F, k):
    # reduced(k) is the chunk complex's cells of dimension <= k, unchanged,
    # plus some of its (k + 1)-cells; at every critical point q of each
    # dropped one, an F2 rank shows its boundary in the span of the
    # boundaries of kept cells with a critical point <= q
    K, R = complexes._chunk_complex(F), F.reduced(k)
    lo = int(np.count_nonzero(K.dims <= k))
    assert R.dims.tolist() == K.dims[:lo].tolist() + [k + 1] * (R.n - lo)
    assert R.critical[:lo] == K.critical[:lo]
    assert np.array_equal(R.boundary_ptr[: lo + 1], K.boundary_ptr[: lo + 1])
    assert np.array_equal(R.boundary_idx[: R.boundary_ptr[lo]], K.boundary_idx[: K.boundary_ptr[lo]])
    kept, every = _block(R, k + 1), _block(K, k + 1)
    dropped = list(every)
    for cell in kept:  # kept is a sub-multiset of the block
        dropped.remove(cell)
    for grade, bd in dropped:
        for qx, qy in grade:
            span = [b for g, b in kept if any(x <= qx and y <= qy for x, y in g)]
            assert _f2_rank(span + [bd], lo) == _f2_rank(span, lo), (grade, bd, (qx, qy))
    return len(dropped)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_dropped_cell_has_a_rank_certificate(seed):
    # integer coordinates in [0, 3]: many tied grades
    rng = np.random.Generator(np.random.Philox(seed))
    n = int(rng.integers(4, 9))
    d = int(rng.integers(2, 4))
    m = min(int(rng.integers(3, 14)), comb(n, d + 1))
    spec = GenSpec(n, m, d, seed=seed, coord_range=3)
    F = generate_random(spec)
    values = {v: tuple(rng.integers(0, 4, size=2).tolist()) for v in F.vertex_ids}
    for G in (F, generate_random_kcritical(spec, int(rng.integers(2, 4))),
              lower_star(F.simplices, values)):
        for k in (1, 2):
            _assert_relation_certificate(G, k)


def test_rank_certificate_covers_dense_complexes():
    # random 3-complexes on 7 vertices, so that both dims drop many cells
    rng = np.random.Generator(np.random.Philox(903))
    dropped = {1: 0, 2: 0}
    for seed in range(6):
        spec = GenSpec(7, 25, 3, seed=900 + seed, coord_range=3)
        F = generate_random(spec)
        values = {v: tuple(rng.integers(0, 4, size=2).tolist()) for v in F.vertex_ids}
        for G in (F, generate_random_kcritical(spec, 2), lower_star(F.simplices, values)):
            for k in (1, 2):
                dropped[k] += _assert_relation_certificate(G, k)
    assert dropped[1] > 100 and dropped[2] > 20


def test_equal_grade_cells_with_equal_boundaries_keep_the_lower_index():
    # eliminating the diagonals (0, 2) and (1, 3) with the triangles
    # (0, 1, 2) and (0, 1, 3) leaves (0, 2, 3) and (1, 2, 3) with the same
    # boundary, the square, at the same grade
    crit = {(0,): (0, 0), (1,): (0, 0), (2,): (0, 0), (3,): (0, 0),
            (0, 1): (1, 0), (1, 2): (1, 0), (2, 3): (1, 0), (0, 3): (1, 0),
            (0, 2): (1, 1), (1, 3): (1, 1), (0, 1, 2): (1, 1), (0, 1, 3): (1, 1),
            (0, 2, 3): (2, 2), (1, 2, 3): (2, 2)}
    F = validate_bifiltration(list(crit), [[p] for p in crit.values()])
    K = complexes._chunk_complex(F)
    ptr, idx = K.boundary_ptr, K.boundary_idx
    tri = np.flatnonzero(K.dims == 2).tolist()
    assert len(tri) == 2
    assert idx[ptr[tri[0]] : ptr[tri[0] + 1]].tolist() == idx[ptr[tri[1]] : ptr[tri[1] + 1]].tolist()
    assert complexes._span_sweep(K, 1).tolist() == [tri[0]]
    assert F.reduced(1).n == tri[0] + 1


def test_h1_pair_keeps_a_few_of_its_triangles():
    chunk, kept = [], []
    for F in h1_sides():
        # reduced(2) keeps every triangle of the chunk reduction
        chunk.append(int(np.count_nonzero(F.reduced(2).dims == 2)))
        kept.append(int(np.count_nonzero(F.reduced(1).dims == 2)))
        assert int(np.count_nonzero(F.dims == 2)) == 1200
    assert chunk == [821, 828] and kept == [46, 74]


def test_cell_complex_boundary_faces_are_one_dimension_lower():
    for F in (generate_random(GenSpec(9, 14, 3, seed=8, coord_range=3)),
              generate_random_kcritical(GenSpec(9, 14, 2, seed=9, coord_range=2), 3)):
        for K in (F, F.reduced(0), F.reduced(1)):
            ptr, faces = K.boundary_ptr, K.boundary_idx
            down = {(int(f), t) for t in range(K.n) for f in faces[ptr[t] : ptr[t + 1]]}
            assert down and all(K.dims[t] == K.dims[f] + 1 for f, t in down)
            assert np.all(np.diff(K.dims) >= 0)  # one block per dimension
