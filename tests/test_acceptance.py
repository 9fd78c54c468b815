"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Random inputs are seeded, so every run checks identical instances.
"""

import functools
import math
import time

import numpy as np
import pytest

from conftest import (
    bottleneck_brute,
    diagram_scaled,
    diagram_shifted,
    dmatch_sampled,
    grid_slices,
    own_bound,
    persistence_boundary_oracle,
    random_diagram,
    random_genspec,
    scaled_copy,
    variation_filtration,
    variation_point,
    weighted_push_grid,
    wpush_geometric,
)
from matchdist.bottleneck import bottleneck_distance
from matchdist.bounds import BoundKind
from matchdist.complexes import mono_filtration
from matchdist.generators import GenSpec, generate_random, generate_random_kcritical
from matchdist.persistence import Diagram, diagram
from matchdist.slices import (
    SLICE_TYPES,
    ParamBox,
    Slice,
    center,
    pair_extents,
    restrict,
    weighted_push,
)
from matchdist.solver import SolverConfig, approximate, eval_reference, eval_slice


def criterion(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {num:2d} FAIL: {desc}")
                raise
            print(f"\n[acceptance] criterion {num:2d} PASS: {desc}")

        return wrapper

    return deco


def _scaled_pair(seed_a: int, seed_b: int, n=7, m=8):
    F1 = scaled_copy(generate_random(GenSpec(n, m, 1, seed=seed_a)))
    F2 = scaled_copy(generate_random(GenSpec(n, m, 1, seed=seed_b)))
    return F1, F2


@criterion(1, "closed-form pushes match the geometric oracle (1e-9)")
def test_c1_push_formulas_against_geometry():
    rng = np.random.Generator(np.random.Philox(101))
    t0 = time.perf_counter()
    for stype in SLICE_TYPES:
        for _ in range(1000):
            px, py = rng.uniform(0, 6, size=2)
            lam = float(rng.uniform(1e-9, 1.0))
            mu = float(rng.uniform(0, 6))
            L = Slice(lam, mu, stype)
            assert abs(weighted_push(px, py, L) - wpush_geometric(px, py, L)) <= 1e-9
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "corner rule equals the dense-grid variation (1e-9 / 1e-3)")
def test_c2_corner_maximization():
    rng = np.random.Generator(np.random.Philox(202))
    t0 = time.perf_counter()
    for stype in SLICE_TYPES:
        for _ in range(200):
            a, b = sorted(rng.uniform(0.0, 1.0, size=2))
            c, d = sorted(rng.uniform(0.0, 6.0, size=2))
            B = ParamBox(float(a), float(b), float(c), float(d), stype)
            px, py = (float(v) for v in rng.uniform(0, 6, size=2))
            v = variation_point(px, py, B)
            lams = np.linspace(B.lam_min, B.lam_max, 101)
            mus = np.linspace(B.mu_min, B.mu_max, 101)
            grid = weighted_push_grid(px, py, lams[:, None], mus[None, :], stype)
            dmax = float(np.abs(grid - weighted_push(px, py, center(B))).max())
            assert dmax <= v + 1e-9
            assert v <= dmax + 1e-3
    assert time.perf_counter() - t0 < 10.0


@criterion(3, "bound chain L <= C <= G, all dominating sampled distances")
def test_c3_bound_chain():
    boxes = []
    # twenty-one pairs: children retired by their parent's pre-bound are
    # never evaluated, and the trivial-matching cap and the common shift of
    # the reference diagrams retire more boxes, so eleven pairs trace only
    # 113 boxes
    for seed in range(21):
        F1, F2 = _scaled_pair(300 + seed, 400 + seed)
        res = approximate(F1, F2, SolverConfig(epsilon=0.3))
        boxes.extend((F1, F2, row.box) for row in res.trace)
    assert len(boxes) >= 200
    step = len(boxes) // 200
    checked = 0
    for F1, F2, B in boxes[:: max(1, step)][:200]:
        ref = eval_reference(F1, F2, center(B), 0)
        l = own_bound(BoundKind.LOCAL_LINEAR, F1, F2, B, ref)
        c = own_bound(BoundKind.LOCAL_CONSTANT, F1, F2, B, ref)
        g = own_bound(BoundKind.GLOBAL, F1, F2, B, ref)
        assert l <= c <= g
        for L in grid_slices(B, 5):
            assert eval_slice(F1, F2, L, 0) <= l + 1e-9
        checked += 1
    assert checked == 200


@criterion(4, "bottleneck matches exhaustive matching; metric properties hold")
def test_c4_bottleneck_oracle():
    rng = np.random.Generator(np.random.Philox(404))
    for _ in range(500):
        d1, d2 = random_diagram(rng), random_diagram(rng)
        assert bottleneck_distance(d1, d2) == bottleneck_brute(d1, d2)
    for _ in range(150):
        a, b, c = (random_diagram(rng) for _ in range(3))
        dab = bottleneck_distance(a, b)
        assert dab == bottleneck_distance(b, a)
        dbc, dac = bottleneck_distance(b, c), bottleneck_distance(a, c)
        if math.isfinite(dab) and math.isfinite(dbc):
            assert dac <= dab + dbc + 1e-9
        r = int(rng.integers(-12, 13)) / 4.0  # dyadic shift, exact sums
        assert bottleneck_distance(diagram_shifted(a, r), diagram_shifted(b, r)) == dab
        s = float(rng.uniform(0.1, 8.0))
        ds = bottleneck_distance(diagram_scaled(a, s), diagram_scaled(b, s))
        if math.isinf(dab):
            assert math.isinf(ds)
        else:
            assert ds == pytest.approx(s * dab, rel=1e-12, abs=0.0) or (
                dab == 0.0 and ds == 0.0
            )


@criterion(5, "union-find and matrix-reduction diagrams agree; path example exact")
def test_c5_persistence_cross_check():
    D = diagram(
        mono_filtration(
            [[0], [1], [2], [3], [0, 1], [1, 2], [2, 3]],
            [0.0, 0.1, 0.4, 0.5, 0.2, 0.6, 0.8],
        ),
        0,
    )
    assert D == Diagram([(0.1, 0.2), (0.4, 0.6), (0.5, 0.8)], [0.0], 0)

    rng = np.random.Generator(np.random.Philox(505))
    for i in range(300):
        F = generate_random(random_genspec(rng, seed=50_000 + i, d_hi=2))
        assert F.n <= 50
        t = SLICE_TYPES[int(rng.integers(0, 4))]
        L = Slice(float(rng.uniform(0, 1)), float(rng.uniform(0, 800)), t)
        M = restrict(F, L)
        assert diagram(M, 0) == persistence_boundary_oracle(M, 0)


@criterion(6, "absolute runs bracket the sampled distance; level cap holds")
def test_c6_end_to_end_sandwich():
    t0 = time.perf_counter()
    for i in range(30):
        F1, F2 = _scaled_pair(600 + i, 700 + i)
        _, _, C = pair_extents(F1, F2)
        oracle = dmatch_sampled(F1, F2, n=64)
        for eps in (0.5, 0.1):
            res = approximate(F1, F2, SolverConfig(epsilon=eps))
            assert not res.not_converged
            assert res.delta == res.rho
            assert res.rho == max(r.rho for r in res.trace)
            assert res.delta + eps >= oracle - 1e-9
            cap = max(0, math.ceil(math.log2(2.0 * C / eps)))
            assert res.deepest_level <= cap
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0


@criterion(7, "call counts order statistically: G >= C >= L on average")
def test_c7_bound_efficiency():
    ratios_gc, ratios_cl = [], []
    for i in range(20):
        F1 = generate_random(GenSpec(100, 400, 1, seed=7000 + i))
        F2 = generate_random(GenSpec(100, 400, 1, seed=7100 + i))
        calls = {}
        for kind in BoundKind:
            res = approximate(
                F1, F2,
                SolverConfig(epsilon=0.5, mode="relative", bound_kind=kind),
            )
            assert not res.not_converged
            calls[kind] = res.calls
        ratios_gc.append(calls[BoundKind.GLOBAL] / calls[BoundKind.LOCAL_CONSTANT])
        ratios_cl.append(calls[BoundKind.LOCAL_CONSTANT] / calls[BoundKind.LOCAL_LINEAR])
    mean_gc = sum(ratios_gc) / len(ratios_gc)
    mean_cl = sum(ratios_cl) / len(ratios_cl)
    print(f"\n[acceptance] criterion  7 ratios: calls G/C mean {mean_gc:.2f} "
          f"(min {min(ratios_gc):.2f} max {max(ratios_gc):.2f}), "
          f"C/L mean {mean_cl:.2f} (min {min(ratios_cl):.2f} max {max(ratios_cl):.2f})")
    assert mean_gc >= 1.0
    assert mean_cl >= 1.0


@criterion(8, "multi-critical restriction is valid and variation-bounded")
def test_c8_kcritical_soundness():
    rng = np.random.Generator(np.random.Philox(808))
    for i in range(100):
        spec = random_genspec(rng, seed=80_000 + i, n_hi=7, d_hi=2)
        k = int(rng.integers(1, 4))
        F = generate_random_kcritical(spec, k) if k > 1 else generate_random(spec)
        assert all(len(c) <= k for c in F.critical)
        t = SLICE_TYPES[int(rng.integers(0, 4))]
        a, b = sorted(rng.uniform(0.0, 1.0, size=2))
        c, d = sorted(rng.uniform(0.0, 900.0, size=2))
        B = ParamBox(float(a), float(b), float(c), float(d), t)
        mc = restrict(F, center(B))
        mc.check_monotone()
        v = variation_filtration(F, B)
        for L in grid_slices(B, 3):
            ml = restrict(F, L)
            ml.check_monotone()
            assert np.all(np.abs(ml.values - mc.values) <= v + 1e-9)


@criterion(9, "gen, dist, and heatmap are byte-deterministic")
def test_c9_cli_determinism(tmp_path):
    from test_cli import run_cli

    outs = []
    p = tmp_path / "gen.txt"
    for _ in range(2):
        code, out, _ = run_cli(["gen", "--vertices", "9", "--maximal", "12", "--dim", "1",
                                "--seed", "3", "--out", str(p)])
        assert code == 0
        outs.append((p.read_bytes(), out))
    assert outs[0] == outs[1]

    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli(["gen", "--vertices", "8", "--maximal", "10", "--dim", "1", "--seed", "4",
             "--out", str(a)])
    run_cli(["gen", "--vertices", "8", "--maximal", "10", "--dim", "1", "--seed", "5",
             "--out", str(b)])
    dist_args = ["dist", str(a), str(b), "--epsilon", "0.5", "--relative"]
    r1 = run_cli(dist_args)
    r2 = run_cli(dist_args)
    assert r1[0] == r2[0] == 0
    assert r1[1] == r2[1]

    hm = []
    for tag in ("h1", "h2"):
        out_dir = tmp_path / tag
        code, _, _ = run_cli(["heatmap", str(a), str(b), "--depth", "2",
                              "--out", str(out_dir)])
        assert code == 0
        hm.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
    assert hm[0] == hm[1]


@criterion(10, "one large random pair finishes within the time box")
def test_c10_scale_smoke():
    F1 = generate_random(GenSpec(500, 2000, 1, seed=777))
    F2 = generate_random(GenSpec(500, 2000, 1, seed=888))
    t0 = time.perf_counter()
    res = approximate(
        F1, F2,
        SolverConfig(epsilon=0.5, mode="relative", bound_kind=BoundKind.LOCAL_LINEAR),
    )
    elapsed = time.perf_counter() - t0
    print(f"\n[acceptance] criterion 10 timing: {elapsed:.1f}s, {res.calls} calls")
    assert not res.not_converged
    assert elapsed < 900.0
