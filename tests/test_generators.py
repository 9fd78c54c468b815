import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdist.complexes import validate_bifiltration
from matchdist.errors import InfeasibleSpec
from matchdist.generators import GenSpec, generate_random, generate_random_kcritical
from matchdist.io import format_bifiltration


def test_single_edge_structure():
    F = generate_random(GenSpec(2, 1, 1, seed=5))
    assert F.simplices == [(0,), (1,), (0, 1)]
    ex, ey = F.critical[F.index[(0, 1)]][0]
    for v in ((0,), (1,)):
        vx, vy = F.critical[F.index[v]][0]
        assert vx <= ex and vy <= ey


def test_determinism_bytes():
    a = format_bifiltration(generate_random(GenSpec(5, 4, 1, seed=77)))
    b = format_bifiltration(generate_random(GenSpec(5, 4, 1, seed=77)))
    assert a == b
    c = format_bifiltration(generate_random(GenSpec(5, 4, 1, seed=78)))
    assert a != c


def test_infeasible_specs():
    with pytest.raises(InfeasibleSpec):
        generate_random(GenSpec(3, 4, 1))  # only C(3,2) = 3 edges exist
    with pytest.raises(InfeasibleSpec):
        generate_random(GenSpec(0, 1, 1))
    with pytest.raises(InfeasibleSpec):
        generate_random(GenSpec(3, 1, 0))
    with pytest.raises(InfeasibleSpec, match="coordinate range must be non-negative"):
        generate_random(GenSpec(3, 1, 1, coord_range=-1))
    with pytest.raises(InfeasibleSpec, match="k must be at least 1"):
        generate_random_kcritical(GenSpec(3, 1, 1), 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_output_validates(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    n = int(rng.integers(2, 9))
    d = int(rng.integers(1, min(3, n - 1) + 1))
    m_max = math.comb(n, d + 1)
    m = int(rng.integers(1, m_max + 1))
    F = generate_random(GenSpec(n, m, d, seed=seed, coord_range=int(rng.integers(0, 50))))
    # revalidation from raw pieces exercises closure and monotonicity
    assert validate_bifiltration(F.simplices, F.critical).n == F.n
    assert F.one_critical


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_coordinates_are_integers_in_range(seed):
    rng = int(np.random.Generator(np.random.Philox(seed)).integers(5, 60))
    F = generate_random(GenSpec(6, 5, 1, seed=seed, coord_range=rng))
    for c in F.critical:
        for x, y in c:
            assert x == int(x) and y == int(y)
            assert 0 <= x <= rng and 0 <= y <= rng


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_large_scale_generation(n):
    t0 = time.perf_counter()
    F = generate_random(GenSpec(n, 4 * n, 1, seed=42))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert F.n >= 4 * n
    assert F.one_critical


def test_kcritical_valid_and_bounded():
    F = generate_random_kcritical(GenSpec(6, 5, 1, seed=3), 3)
    assert validate_bifiltration(F.simplices, F.critical).n == F.n
    assert all(1 <= len(c) <= 3 for c in F.critical)
