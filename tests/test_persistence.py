import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import persistence_boundary_oracle, random_genspec
from matchdist.bottleneck import bottleneck_distance
from matchdist.complexes import MonoFiltration, mono_filtration, validate_bifiltration
from matchdist.generators import GenSpec, generate_random, generate_random_kcritical
from matchdist.persistence import Diagram, _merge_edges, diagram
from matchdist.slices import SLICE_TYPES, Slice, restrict


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
    # equal births: the component created by the smaller vertex id dies
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
    for i, fs in enumerate(M.complex.facet_indices):
        for j in fs:
            vals[i] = max(vals[i], vals[j])
    M2 = MonoFiltration(M.complex, vals)
    M2.check_monotone()
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


def _full_union_find(M):
    """Dimension-0 diagram from the union-find over every edge."""
    lo = M.complex.vertex_count
    pairs, essential = _merge_edges(M, np.arange(lo, lo + M.complex.edge_count))
    ends = M.values[pairs].reshape(-1, 2)
    return Diagram(ends[ends[:, 1] > ends[:, 0]], M.values[essential], 0)


def _disjoint_union(F, G):
    shift = max(F.vertex_ids) + 1
    simplices = F.simplices + [tuple(v + shift for v in s) for s in G.simplices]
    return validate_bifiltration(simplices, F.critical + G.critical)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dim0_over_merge_candidates_matches_every_edge_on_tied_slices(seed):
    # integer coordinates in [0, 4] and slices at lam in {0, 0.5, 1} and
    # integer mu: many simplices share a value on every slice
    rng = np.random.Generator(np.random.Philox(seed))
    spec = random_genspec(rng, seed, n_hi=9, m_hi=12, d_hi=2)
    spec = GenSpec(spec.n_vertices, spec.n_maximal, spec.max_dim, seed=seed, coord_range=4)
    F = generate_random(spec)
    K = generate_random_kcritical(spec, int(rng.integers(2, 4)))
    kept = F.merge_candidates  # built before the shift, which carries it over
    shifted = F.translated(0.5, 0.25)
    assert shifted.merge_candidates is kept
    complexes = [F, K, _disjoint_union(F, K), shifted,
                 validate_bifiltration([[0], [1], [2]], [[(1, 3)], [(0, 4)], [(2, 2), (3, 0)]])]
    for G in complexes:
        for t in SLICE_TYPES:
            for lam in (0.0, 0.5, 1.0):
                for mu in range(5):
                    M = restrict(G, Slice(lam, float(mu), t))
                    D = diagram(M, 0)
                    assert D == persistence_boundary_oracle(M, 0)
                    assert D == _full_union_find(M)


def test_hand_built_values_keep_every_edge_in_dim0():
    # the candidates of an equal-grade triangle drop edge (1, 2), which is
    # sound for pushes of its critical points but not for arbitrary values
    K = mono_filtration([[0], [1], [2], [0, 1], [0, 2], [1, 2]], [0, 0, 0, 1, 1, 1])
    assert not K.pushed
    assert K.complex.merge_candidates.tolist() == [3, 4]
    M = MonoFiltration(K.complex, [0.0, 0.0, 0.0, 5.0, 5.0, 1.0])
    assert not M.pushed
    D = diagram(M, 0)
    assert D == persistence_boundary_oracle(M, 0)
    assert D.finite.tolist() == [[0.0, 1.0], [0.0, 5.0]]
    assert restrict(K.complex, Slice(1.0, 0.0, SLICE_TYPES[0])).pushed


def test_diagram_canonical_form():
    rng = np.random.Generator(np.random.Philox(11))
    # ties in birth, repeated points, and an essential birth equal to one
    pts = [(0.5, 1.0), (0.1, 0.9), (0.1, 0.3), (0.5, 1.0), (-0.25, 4.0)]
    ess = [2.0, 0.0, 1.0, 0.0]
    src = np.array(pts)
    D = Diagram(src, ess, 1)
    assert D.finite.tolist() == [[-0.25, 4.0], [0.1, 0.3], [0.1, 0.9], [0.5, 1.0], [0.5, 1.0]]
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
    nan = float("nan")
    for finite, essential in (([(3.0, 1.0)], []), ([(nan, 1.0)], []), ([(1.0, nan)], []),
                              ([(0.0, 1.0), (2.0, 1.5)], [0.0]), ([], [nan]), ([], [1.0, nan, 0.0])):
        with pytest.raises(ValueError):
            Diagram(finite, essential, 0)
    # a point on the diagonal and an infinite death are well formed
    assert len(Diagram([(1.0, 1.0), (0.0, float("inf"))], [], 0)) == 2
