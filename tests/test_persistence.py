import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_monotone, h1_sides, persistence_boundary_oracle, random_genspec
from matchdist import persistence
from matchdist.bottleneck import bottleneck_distance
from matchdist.complexes import (
    MonoFiltration,
    _span_sweep,
    lower_star,
    mono_filtration,
    normalize_pair,
    validate_bifiltration,
)
from matchdist.generators import GenSpec, generate_random, generate_random_kcritical
from matchdist.persistence import Diagram, _plan, diagram
from matchdist.slices import SLICE_TYPES, Slice, restrict
from matchdist.solver import SolverConfig, approximate


def path_complex():
    # four vertices on a path, components born at 0, 0.1, 0.4, 0.5 and the
    # younger three dying at 0.2, 0.6, 0.8
    simplices = [[0], [1], [2], [3], [0, 1], [1, 2], [2, 3]]
    values = [0.0, 0.1, 0.4, 0.5, 0.2, 0.6, 0.8]
    return mono_filtration(simplices, values)


def test_path_complex_diagram():
    D = diagram(path_complex(), 0)
    assert D == Diagram([(0.1, 0.2), (0.4, 0.6), (0.5, 0.8)], [0.0], 0)


def test_single_vertex():
    D = diagram(mono_filtration([[0]], [2.5]), 0)
    assert D == Diagram([], [2.5], 0)


def test_zero_persistence_pair_discarded():
    M = mono_filtration([[0], [1], [0, 1]], [0.0, 1.0, 1.0])
    assert diagram(M, 0) == Diagram([], [0.0], 0)


def test_elder_rule_tie_breaking():
    # equal births: the union-find lets either root die, and either gives
    # the same point
    M = mono_filtration([[0], [1], [0, 1]], [0.5, 0.5, 1.0])
    assert diagram(M, 0) == Diagram([(0.5, 1.0)], [0.5], 0)


def test_hollow_triangle_dim1():
    simplices = [[0], [1], [2], [0, 1], [0, 2], [1, 2]]
    M = mono_filtration(simplices, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    assert diagram(M, 1) == Diagram([], [1.0], 1)


def test_filled_triangle_dim1():
    simplices = [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]
    M = mono_filtration(simplices, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0])
    assert diagram(M, 1) == Diagram([(1.0, 2.0)], [], 1)


def _random_mono(seed: int):
    rng = np.random.Generator(np.random.Philox(seed))
    F = generate_random(random_genspec(rng, seed, d_hi=2))
    t = SLICE_TYPES[int(rng.integers(0, 4))]
    L = Slice(float(rng.uniform(0, 1)), float(rng.uniform(0, 500)), t)
    return restrict(F, L)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dim0_matches_general_reduction(seed):
    M = _random_mono(seed)
    assert diagram(M, 0) == persistence_boundary_oracle(M, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_point_count_bound(seed):
    M = _random_mono(seed)
    D = diagram(M, 0)
    assert len(D.finite) + len(D.essential) <= M.complex.vertex_count


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.5))
def test_stability_under_perturbation(seed, eps):
    M = _random_mono(seed)
    rng = np.random.Generator(np.random.Philox(seed ^ 0xABCDEF))
    noisy = M.values + rng.uniform(-eps, eps, size=M.values.shape)
    # repair monotonicity; facets precede cofaces in storage order so one
    # forward pass suffices, and the repair stays within eps of the input
    vals = noisy.copy()
    ptr, faces = M.complex.boundary_ptr, M.complex.boundary_idx
    for i in range(M.complex.n):
        for j in faces[ptr[i] : ptr[i + 1]]:
            vals[i] = max(vals[i], vals[j])
    M2 = MonoFiltration(M.complex, vals)
    check_monotone(M2)
    assert np.all(np.abs(vals - M.values) <= eps + 1e-12)
    d = bottleneck_distance(diagram(M, 0), diagram(M2, 0))
    assert d <= eps + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-5.0, 5.0))
def test_shift_equivariance(seed, r):
    M = _random_mono(seed)
    D = diagram(M, 0)
    D2 = diagram(MonoFiltration(M.complex, M.values + r), 0)
    # shifting every value shifts every diagram coordinate
    assert D2 == Diagram(D.finite + r, D.essential + r, 0)


def test_dimension_beyond_complex_is_empty():
    M = mono_filtration([[0], [1], [0, 1]], [0.0, 0.0, 1.0])
    assert diagram(M, 2) == Diagram([], [], 2)
    triangle = mono_filtration(
        [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]], [0, 0, 0, 1, 1, 1, 2]
    )
    for dim in (3, 4):
        assert diagram(triangle, dim) == Diagram((), (), dim)


def test_negative_dimension_is_rejected():
    # it used to be computed as dimension 0
    with pytest.raises(ValueError, match="homology dimension must be non-negative"):
        diagram(path_complex(), -1)


def _tetrahedron(filled: bool):
    # vertices at 0, edges at 1, triangles at 2, the solid at 3
    simplices = [[v] for v in range(4)]
    simplices += [[a, b] for a in range(4) for b in range(a + 1, 4)]
    simplices += [[a, b, c] for a in range(4) for b in range(a + 1, 4) for c in range(b + 1, 4)]
    values = [float(len(s) - 1) for s in simplices]
    if filled:
        simplices.append([0, 1, 2, 3])
        values.append(3.0)
    return mono_filtration(simplices, values)


def test_hollow_tetrahedron_has_an_essential_void():
    M = _tetrahedron(filled=False)
    # three independent loops are born with the edges and filled in at 2
    assert diagram(M, 1) == Diagram(((1.0, 2.0),) * 3, (), 1)
    assert diagram(M, 2) == Diagram((), (2.0,), 2)
    assert diagram(M, 3) == Diagram((), (), 3)


def test_filled_tetrahedron_void_dies():
    # the void is a finite pair only if the dim-1 pass clears the three
    # triangles that kill loops, leaving the fourth to pair with the solid
    M = _tetrahedron(filled=True)
    assert diagram(M, 1) == Diagram(((1.0, 2.0),) * 3, (), 1)
    assert diagram(M, 2) == Diagram(((2.0, 3.0),), (), 2)
    assert diagram(M, 3) == Diagram((), (), 3)
    assert diagram(M, 0) == Diagram(((0.0, 1.0),) * 3, (0.0,), 0)


def _multicritical_square():
    # a square with two-point critical sets and one diagonal; the triangle
    # on one side fills it, the loop on the other side stays open
    crit = {
        (0,): [(0, 0)], (1,): [(1, 0)], (2,): [(1, 1)], (3,): [(0, 1)],
        (0, 1): [(1, 2), (2, 1)], (1, 2): [(1, 1)], (2, 3): [(1, 3), (3, 1)],
        (0, 3): [(0, 2)], (0, 2): [(2, 2)], (0, 1, 2): [(4, 2), (2, 4)],
    }
    return validate_bifiltration(list(crit), list(crit.values()))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_general_matches_boundary_oracle(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    spec = random_genspec(rng, seed, n_hi=9, m_hi=9, d_hi=3)
    complexes = [
        generate_random(spec),
        generate_random_kcritical(spec, int(rng.integers(2, 4))),
        _multicritical_square(),
    ]
    for F in complexes:
        for _ in range(3):
            t = SLICE_TYPES[int(rng.integers(0, 4))]
            L = Slice(float(rng.uniform(0, 1)), float(rng.uniform(0, 6)), t)
            M = restrict(F, L)
            for dim in range(4):
                assert diagram(M, dim) == persistence_boundary_oracle(M, dim)


def test_general_matches_oracle_on_random_three_complexes():
    # dense complexes, so that voids and their deaths occur at dims 2 and 3
    rng = np.random.Generator(np.random.Philox(606))
    nontrivial = 0
    for i in range(40):
        F = generate_random(random_genspec(rng, seed=60_000 + i, n_hi=9, m_hi=14, d_hi=3))
        for t in SLICE_TYPES:
            M = restrict(F, Slice(float(rng.uniform(0, 1)), float(rng.uniform(0, 500)), t))
            for dim in (1, 2, 3):
                D = diagram(M, dim)
                assert D == persistence_boundary_oracle(M, dim)
                nontrivial += dim >= 2 and len(D) > 0
    assert nontrivial >= 20


def _disjoint_union(F, G):
    shift = max(F.vertex_ids) + 1
    simplices = F.simplices + [tuple(v + shift for v in s) for s in G.simplices]
    return validate_bifiltration(simplices, F.critical + G.critical)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dim0_over_reduced_complex_matches_every_edge_on_tied_slices(seed):
    # integer coordinates in [0, 4] and slices at lam in {0, 0.5, 1} and
    # integer mu: many simplices share a value on every slice
    rng = np.random.Generator(np.random.Philox(seed))
    spec = random_genspec(rng, seed, n_hi=9, m_hi=12, d_hi=2)
    spec = GenSpec(spec.n_vertices, spec.n_maximal, spec.max_dim, seed=seed, coord_range=4)
    F = generate_random(spec)
    K = generate_random_kcritical(spec, int(rng.integers(2, 4)))
    complexes = [F, K, _disjoint_union(F, K), F.translated(0.5, 0.25),
                 validate_bifiltration([[0], [1], [2]], [[(1, 3)], [(0, 4)], [(2, 2), (3, 0)]])]
    for G in complexes:
        for t in SLICE_TYPES:
            for lam in (0.0, 0.5, 1.0):
                for mu in range(5):
                    L = Slice(lam, float(mu), t)
                    M = restrict(G, L)
                    D = diagram(restrict(G.reduced(0), L), 0)
                    assert D == persistence_boundary_oracle(M, 0)
                    assert D == diagram(M, 0)


def _tied_slices():
    # lam in {0, 0.5, 1} and integer mu: on integer coordinates many cells
    # share a value on every slice
    return [Slice(lam, float(mu), t)
            for t in SLICE_TYPES for lam in (0.0, 0.5, 1.0) for mu in range(4)]


def _assert_chunk_reduction_exact(F, slices):
    for dim in (1, 2):
        R = F.reduced(dim)
        for L in slices:
            assert diagram(restrict(R, L), dim) == persistence_boundary_oracle(restrict(F, L), dim)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_chunk_reduced_complex_matches_boundary_oracle_on_tied_slices(seed):
    # integer coordinates in [0, 3]: many equal grades, so many eliminations
    rng = np.random.Generator(np.random.Philox(seed))
    spec = random_genspec(rng, seed, n_hi=9, m_hi=12, d_hi=3)
    spec = GenSpec(spec.n_vertices, spec.n_maximal, spec.max_dim, seed=seed, coord_range=3)
    F = generate_random(spec)
    values = {v: tuple(rng.integers(0, 4, size=2).tolist()) for v in F.vertex_ids}
    for G in (F, generate_random_kcritical(spec, int(rng.integers(2, 4))),
              lower_star(F.simplices, values)):
        _assert_chunk_reduction_exact(G, _tied_slices())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_boundary_oracle_agrees_on_each_reduced_complex_and_its_parent(seed):
    # the oracle reads any CellComplex, so it checks the reductions with no
    # help from the package's union-find or coboundary columns
    rng = np.random.Generator(np.random.Philox(seed))
    spec = random_genspec(rng, seed, n_hi=8, m_hi=10, d_hi=3)
    spec = GenSpec(spec.n_vertices, spec.n_maximal, spec.max_dim, seed=seed, coord_range=3)
    F = generate_random(spec)
    values = {v: tuple(rng.integers(0, 4, size=2).tolist()) for v in F.vertex_ids}
    for G in (F, generate_random_kcritical(spec, int(rng.integers(2, 4))),
              lower_star(F.simplices, values)):
        for L in _tied_slices():
            for d in (0, 1, 2):
                assert (persistence_boundary_oracle(restrict(G.reduced(d), L), d)
                        == persistence_boundary_oracle(restrict(G, L), d))


def _renamed(F, seed):
    """F with its vertex ids permuted by a seeded permutation, which moves
    tied cells to other storage positions, and that permutation."""
    perm = np.random.Generator(np.random.Philox(seed)).permutation(max(F.vertex_ids) + 1).tolist()
    return validate_bifiltration([[perm[v] for v in s] for s in F.simplices], F.critical), perm


def test_diagrams_do_not_depend_on_how_ties_are_broken(monkeypatch):
    # renaming the vertices of a tie-heavy input moves its tied cells in
    # storage, and the unstable edge sort breaks ties as it pleases, so the
    # copy's union-find merges along other edges; every diagram, on the
    # input and on its reduced complexes, must still agree with the oracle
    merged = []
    merge_edges = persistence._merge_edges

    def recorded(vals, us, vs, left):
        dying, merging = merge_edges(vals, us, vs, left)
        merged.append([(us[i], vs[i]) for i in merging])
        return dying, merging

    monkeypatch.setattr(persistence, "_merge_edges", recorded)
    other_merges = 0
    for i, (coord_range, k) in enumerate([(2, 1), (2, 2), (3, 1), (3, 2)] * 2):
        F = generate_random_kcritical(GenSpec(7, 10, 3, seed=80_800 + i, coord_range=coord_range), k)
        G, perm = _renamed(F, 80_900 + i)
        for L in _tied_slices():
            diagram(restrict(F, L), 0)
            ours = {frozenset(perm[F.vertex_ids[u]] for u in e) for e in merged[-1]}
            diagram(restrict(G, L), 0)
            theirs = {frozenset(G.vertex_ids[u] for u in e) for e in merged[-1]}
            other_merges += ours != theirs
            for dim in (0, 1, 2):
                D = persistence_boundary_oracle(restrict(F, L), dim)
                for K in (F, G, F.reduced(dim), G.reduced(dim)):
                    assert diagram(restrict(K, L), dim) == D
    assert other_merges > 0


def test_chunk_reduced_three_complexes_match_boundary_oracle():
    # dense lower-star and random 3-complexes, so that dims 2 and 3 have
    # cells left after the reduction
    rng = np.random.Generator(np.random.Philox(717))
    eliminated = nontrivial = 0
    for i in range(12):
        K = generate_random(GenSpec(8, 20, 3, seed=70_000 + i, coord_range=3))
        values = {v: tuple(rng.integers(0, 4, size=2).tolist()) for v in K.vertex_ids}
        for F in (K, lower_star(K.simplices, values), _multicritical_square()):
            slices = _tied_slices()[::3] + [Slice(float(rng.uniform(0, 1)), float(rng.uniform(0, 4)), t)
                                            for t in SLICE_TYPES]
            _assert_chunk_reduction_exact(F, slices)
            eliminated += F.n - F.reduced(1).n
            nontrivial += len(diagram(restrict(F.reduced(2), slices[-1]), 2)) > 0
    assert eliminated > 0 and nontrivial > 0


def _assert_canonical(M, dim):
    D = diagram(M, dim)
    assert D == persistence_boundary_oracle(M, dim)
    assert D == Diagram(D.finite, D.essential, dim)  # the checked constructor agrees
    for arr in (D.finite, D.essential):
        assert arr.dtype == np.float64 and not arr.flags.writeable
    pts = D.finite
    assert pts.shape == (len(pts), 2) and np.isfinite(pts).all() and np.isfinite(D.essential).all()
    assert (pts[:, 1] > pts[:, 0]).all()
    assert (np.diff(pts[:, 1] - pts[:, 0]) <= 0).all()  # by falling persistence
    assert (np.diff(D.essential) >= 0).all()
    return D


def test_chunk_reduction_leaves_an_edge_with_an_empty_boundary():
    # lower star on a triangle whose vertex values rise along 0, 1, 2:
    # eliminating vertex 1 with edge (0, 1) turns the boundary of edge
    # (1, 2) into {0, 2}, and eliminating vertex 2 with edge (0, 2) then
    # adds {0, 2} to it, which leaves a cycle
    hollow = lower_star([[0], [1], [2], [0, 1], [0, 2], [1, 2]],
                        {0: (0, 0), 1: (1, 1), 2: (2, 2)})
    filled = validate_bifiltration(hollow.simplices + [(0, 1, 2)],
                                   [*hollow.critical, [(3.0, 3.0)]])
    for F, dims in ((hollow, [0, 1]), (filled, [0, 1, 2])):
        R = F.reduced(1)
        assert R.dims.tolist() == dims
        assert R.boundary_ptr[:3].tolist() == [0, 0, 0]  # the vertex and the cycle
        us, vs, merges = _plan(R, 0)
        assert (us.tolist(), vs.tolist(), merges) == ([0], [0], 0)  # the cycle is a loop
        for L in _tied_slices():  # dim 0 too: the union-find skips the cycle
            for dim in (0, 1, 2):
                D = _assert_canonical(restrict(R, L), dim)
                assert D == persistence_boundary_oracle(restrict(F, L), dim)
    L = Slice(0.5, 1.0, SLICE_TYPES[0])
    assert diagram(restrict(hollow.reduced(1), L), 1) == Diagram([], [2.0], 1)
    assert diagram(restrict(filled.reduced(1), L), 1) == Diagram([(2.0, 3.0)], [], 1)


def test_hand_built_values_keep_every_edge_in_dim0():
    # relation pruning of an equal-grade triangle drops edge (1, 2), which
    # is sound for pushes of its critical points but not for arbitrary values
    K = mono_filtration([[0], [1], [2], [0, 1], [0, 2], [1, 2]], [0, 0, 0, 1, 1, 1])
    assert _span_sweep(K.complex, 0).tolist() == [3, 4]
    M = MonoFiltration(K.complex, [0.0, 0.0, 0.0, 5.0, 5.0, 1.0])
    D = diagram(M, 0)
    assert D == persistence_boundary_oracle(M, 0)
    assert D.finite.tolist() == [[0.0, 5.0], [0.0, 1.0]]


def test_diagram_canonical_form():
    rng = np.random.Generator(np.random.Philox(11))
    # ties in birth, repeated points, and an essential birth equal to one
    pts = [(0.5, 1.0), (0.1, 0.9), (0.1, 0.3), (0.5, 1.0), (-0.25, 4.0)]
    ess = [2.0, 0.0, 1.0, 0.0]
    src = np.array(pts)
    D = Diagram(src, ess, 1)
    # by falling persistence; the one tie is between equal rows
    assert D.finite.tolist() == [[-0.25, 4.0], [0.1, 0.9], [0.5, 1.0], [0.5, 1.0], [0.1, 0.3]]
    assert (np.diff(D.finite[:, 1] - D.finite[:, 0]) <= 0).all()
    assert D.essential.tolist() == [0.0, 0.0, 1.0, 2.0]
    assert D.finite.dtype == D.essential.dtype == np.float64
    for _ in range(10):
        E = Diagram([pts[i] for i in rng.permutation(len(pts))],
                    [ess[i] for i in rng.permutation(len(ess))], 1)
        assert E == D
        assert np.array_equal(E.finite, D.finite) and np.array_equal(E.essential, D.essential)
    # read-only, without freezing the caller's array
    for arr in (D.finite, D.essential):
        with pytest.raises(ValueError):
            arr[0] = 7.0
    src[0, 0] = 7.0
    assert D.finite[3, 0] == 0.5
    assert D != Diagram(pts, ess, 0)
    assert D != Diagram(pts[:-1], ess, 1)
    assert Diagram([], [], 0).finite.shape == (0, 2)
    for malformed in ([(0.0, 1.0, 2.0), (1.0, 2.0, 3.0)], [0.0, 1.0]):
        with pytest.raises(ValueError):
            Diagram(malformed, [], 0)


def test_diagram_rejects_points_below_the_diagonal_and_nan():
    # such points used to sit at bottleneck distance 0 from the empty diagram
    nan, inf = float("nan"), float("inf")
    for finite, essential in (([(3.0, 1.0)], []), ([(nan, 1.0)], []), ([(1.0, nan)], []),
                              ([(0.0, 1.0), (2.0, 1.5)], [0.0]), ([], [nan]), ([], [1.0, nan, 0.0]),
                              ([(-inf, 1.0)], []), ([(-inf, -inf)], []), ([(0.0, 1.0), (-inf, inf)], []),
                              ([], [[0.0, 1.0]]), ([], 2.0)):
        with pytest.raises(ValueError):
            Diagram(finite, essential, 0)
    # a 2-D essential used to be stored as given, counted as one point and
    # fail a bottleneck distance with a TypeError
    with pytest.raises(ValueError, match="1-D"):
        Diagram([], [[0.0, 1.0]], 0)
    # a point on the diagonal and an infinite death are well formed; the
    # infinite death makes its point essential
    D = Diagram([(1.0, 1.0), (0.0, inf)], [], 0)
    assert len(D) == 2
    assert D == Diagram([(1.0, 1.0)], [0.0], 0)
    assert Diagram([(2.0, inf), (0.5, 1.0)], [3.0, 1.0], 0).essential.tolist() == [1.0, 2.0, 3.0]
    # and the dimension: "0" used to be stored as given, and a bottleneck
    # distance against a dimension-0 diagram then raised "dimension 0 vs 0"
    for dim in ("0", -1, 1.5, 1.0, None):
        with pytest.raises(ValueError, match="homology dimension"):
            Diagram([(0.0, 1.0)], [0.0], dim)
    D = Diagram([(0.0, 1.0)], [0.0], np.int64(1))
    assert type(D.homology_dimension) is int and D.homology_dimension == 1
    assert D == Diagram([(0.0, 1.0)], [0.0], 1)


def test_mono_filtration_rejects_non_finite_values():
    # the path 0-1-2 with edges (0, 1) and (1, 2); with each of these a
    # diagram used to come out wrong, or fail only by accident
    K = mono_filtration([[0], [1], [2], [0, 1], [1, 2]], [0, 1, 2, 3, 4]).complex
    nan, inf = float("nan"), float("inf")
    for values in ([0, nan, 2, 3, 4],  # lost the point (1, 3)
                   [0, 1, 2, -inf, 4],  # dropped the merge at -inf as below the diagonal
                   [nan, 1, 2, 3, 4],  # raised only as an essential birth
                   [0, 1, 2, 3, inf]):  # turned the merge at inf into an essential birth
        with pytest.raises(ValueError, match="filtration values must be finite"):
            MonoFiltration(K, values)
    assert diagram(MonoFiltration(K, [0, 1, 2, 3, 4]), 0) == Diagram([(1, 3), (2, 4)], [0], 0)


def _with_isolated_vertices(F, count):
    first = max(F.vertex_ids) + 1
    return validate_bifiltration(F.simplices + [(first + i,) for i in range(count)],
                                 F.critical + [[(float(i % 4), float(3 - i % 4))] for i in range(count)])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_persistence_output_is_canonical(seed):
    # integer coordinates and tied slices, disconnected complexes with
    # isolated vertices, and chunk-reduced complexes
    rng = np.random.Generator(np.random.Philox(seed))
    spec = random_genspec(rng, seed, n_hi=8, m_hi=10, d_hi=2)
    spec = GenSpec(spec.n_vertices, spec.n_maximal, spec.max_dim, seed=seed, coord_range=4)
    F = generate_random(spec)
    G = _with_isolated_vertices(_disjoint_union(F, generate_random_kcritical(spec, 2)), 3)
    for K in (F, G, G.reduced(0), G.reduced(1), G.reduced(2)):
        for L in _tied_slices()[::2]:
            M = restrict(K, L)
            for dim in (0, 1, 2):
                _assert_canonical(M, dim)


def _record_plans(monkeypatch):
    # (complex, k, plan) per call; holding each plan keeps its id unique,
    # so each distinct id is one build
    calls = []
    plan = persistence._plan

    def recorded(K, k):
        out = plan(K, k)
        calls.append((K, k, out))
        return out

    monkeypatch.setattr(persistence, "_plan", recorded)
    return calls


def test_plan_is_built_once_per_complex_and_dimension(monkeypatch):
    calls = _record_plans(monkeypatch)
    F1, F2, _ = normalize_pair(*h1_sides())
    res = approximate(F1, F2, SolverConfig(epsilon=0.3, mode="relative", homology_dim=1,
                                           traversal="priority"))
    assert res.calls == 52
    # two diagrams per evaluation, each reading dims 0 and 1 of one reduced complex
    builds = {(id(K), k, id(out)) for K, k, out in calls}
    assert sorted((K, k) for K, k, _ in builds) == sorted(
        (id(F.reduced(1)), k) for F in (F1, F2) for k in (0, 1))
    assert "_plans" not in F1.__dict__ and "_plans" not in F2.__dict__


def test_plan_is_structural_and_shared_by_translated_copies():
    rng = np.random.Generator(np.random.Philox(404))
    slices = _tied_slices()[::3]
    for i in range(6):
        spec = GenSpec(8, 12, 2, seed=40_400 + i, coord_range=4)
        F = _with_isolated_vertices(generate_random_kcritical(spec, 2), 2)
        for L in slices:  # build F's plans first
            diagram(restrict(F, L), 2)
        vx, vy = (float(x) for x in rng.integers(1, 4, size=2))
        G = F.translated(vx, vy)
        fresh = validate_bifiltration(F.simplices, [[(x + vx, y + vy) for x, y in c] for c in F.critical])
        assert all(_plan(G, k) is _plan(F, k) for k in (0, 1, 2))
        for L in slices:
            for dim in (0, 1, 2):
                D = diagram(restrict(fresh, L), dim)
                assert diagram(restrict(G, L), dim) == D
                assert diagram(restrict(G.reduced(dim), L), dim) == D
                assert diagram(restrict(fresh.reduced(dim), L), dim) == D


def test_dim0_essential_births_are_the_component_minima():
    F = generate_random(GenSpec(6, 5, 1, seed=3, coord_range=4))
    G = _with_isolated_vertices(_disjoint_union(F, generate_random(GenSpec(5, 4, 1, seed=4, coord_range=4))), 2)
    # components by a search over the edges
    adj = {v: set() for v in range(G.vertex_count)}
    for s in G.simplices:
        if len(s) == 2:
            u, v = (G.index[(x,)] for x in s)
            adj[u].add(v)
            adj[v].add(u)
    comps, seen = [], set()
    for v in adj:
        if v not in seen:
            comp, todo = set(), [v]
            while todo:
                w = todo.pop()
                if w not in comp:
                    comp.add(w)
                    todo.extend(adj[w])
            seen |= comp
            comps.append(sorted(comp))
    assert len(comps) >= 4
    assert _plan(G, 0)[2] == G.vertex_count - len(comps)  # merges
    rng = np.random.Generator(np.random.Philox(5))
    for t in SLICE_TYPES:
        M = restrict(G, Slice(float(rng.uniform(0, 1)), float(rng.uniform(0, 4)), t))
        minima = sorted(float(M.values[c].min()) for c in comps)
        assert diagram(M, 0).essential.tolist() == minima
