import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import dmatch_sampled, grid_slices, own_bound, scaled_copy
from matchdist import solver
from matchdist.bounds import BoundKind, box_bound
from matchdist.complexes import lower_star, normalize_pair
from matchdist.errors import InvalidConfig
from matchdist.generators import GenSpec, generate_random
from matchdist.slices import SLICE_TYPES, center, initial_boxes, pair_extents, subdivide
from matchdist.solver import (
    ApproxResult,
    SolverConfig,
    approximate,
    eval_reference,
    eval_slice,
    reduction_rate,
)


def small_pair(seed_a=21, seed_b=22, n=7, m=8):
    F1 = scaled_copy(generate_random(GenSpec(n, m, 1, seed=seed_a)))
    F2 = scaled_copy(generate_random(GenSpec(n, m, 1, seed=seed_b)))
    return F1, F2


def test_config_validation():
    with pytest.raises(InvalidConfig):
        SolverConfig(epsilon=0.0).validate()
    with pytest.raises(InvalidConfig):
        SolverConfig(epsilon=0.1, budget_ms=10.0, traversal="bfs").validate()
    with pytest.raises(InvalidConfig):
        SolverConfig(epsilon=0.1, traversal="dfs").validate()
    with pytest.raises(InvalidConfig):
        SolverConfig(epsilon=0.1, mode="nearest").validate()
    # a bound rule's letter is not a BoundKind, and box_bound would read it as G
    for kind in ("l", "c", "g", None):
        with pytest.raises(InvalidConfig):
            SolverConfig(epsilon=0.1, bound_kind=kind).validate()
    # a non-finite epsilon, and a budget that is not >= 0, are refused;
    # an infinite budget means no budget
    for eps in (math.inf, math.nan, -math.inf):
        with pytest.raises(InvalidConfig):
            SolverConfig(epsilon=eps).validate()
    for budget in (math.nan, -1.0, -math.inf):
        with pytest.raises(InvalidConfig):
            SolverConfig(traversal="priority", budget_ms=budget).validate()
    SolverConfig(traversal="priority", budget_ms=math.inf).validate()
    # a dimension must be an integer, numpy's included
    for dim in (1.0, 1.5, "1", None):
        with pytest.raises(InvalidConfig, match="homology dimension"):
            SolverConfig(homology_dim=dim).validate()
    SolverConfig(homology_dim=np.int64(0)).validate()


def test_identical_absolute_is_zero():
    F1, _ = small_pair()
    res = approximate(F1, F1, SolverConfig(epsilon=0.1))
    assert res.delta == 0.0 and res.rho == 0.0
    assert not res.not_converged
    assert res.calls >= 4
    # every retired box is certified at or below the threshold
    assert all(e <= 0.1 for _, e in res.retired_boxes)


def test_identical_relative_does_not_converge(monkeypatch):
    monkeypatch.setattr(solver, "ZERO_STALL_LEVEL", 4)
    F1, _ = small_pair()
    res = approximate(F1, F1, SolverConfig(epsilon=0.5, mode="relative"))
    assert res.not_converged
    assert res.deepest_level == 4
    assert res.rho == 0.0
    assert res.residual_upper > 0.0
    assert res.delta == res.residual_upper
    assert res.rel_error == math.inf


def test_absolute_guarantee_against_sampled_oracle():
    F1, F2 = small_pair()
    eps = 0.05
    res = approximate(F1, F2, SolverConfig(epsilon=eps))
    assert not res.not_converged
    assert res.delta == res.rho
    # delta is an evaluated bottleneck distance, hence a lower bound
    sampled = dmatch_sampled(F1, F2, n=24)
    assert res.delta + eps >= sampled - 1e-9
    # rho is the running max of the eval values
    assert res.rho == max(r.rho for r in res.trace)


def test_relative_guarantee_brackets_absolute_run():
    F1, F2 = small_pair(31, 32)
    ref = approximate(F1, F2, SolverConfig(epsilon=0.001)).delta  # near-exact
    res = approximate(F1, F2, SolverConfig(epsilon=0.25, mode="relative"))
    assert not res.not_converged
    assert res.delta == pytest.approx((1 + 0.25) * res.rho, rel=1e-15)
    assert res.rho <= ref + 0.001 + 1e-12
    assert res.delta >= ref - 1e-12


def test_rho_monotone_along_trace():
    F1, F2 = small_pair(41, 42)
    res = approximate(F1, F2, SolverConfig(epsilon=0.1))
    rhos = [r.rho for r in res.trace]
    assert rhos == sorted(rhos)


def test_level_cap_absolute():
    F1, F2 = small_pair(51, 52)
    for eps in (0.5, 0.1):
        res = approximate(F1, F2, SolverConfig(epsilon=eps))
        _, _, C = pair_extents(F1, F2)
        cap = math.ceil(math.log2(2.0 * C / eps)) if 2.0 * C > eps else 0
        assert res.deepest_level <= cap


def test_boxes_left_at_the_level_cap_stay_in_the_trace_upper(monkeypatch):
    # a box left unresolved at MAX_LEVEL still bounds the distance, so every
    # row's upper counts it; only under priority do evaluations follow it
    monkeypatch.setattr(solver, "MAX_LEVEL", 2)
    F1, F2, _ = normalize_pair(*(generate_random(GenSpec(12, 20, 1, seed=s)) for s in (1, 2)))
    for traversal in ("bfs", "priority"):
        res = approximate(F1, F2, SolverConfig(epsilon=0.01, traversal=traversal))
        assert res.unresolved_boxes and {b.level for b, _ in res.unresolved_boxes} == {2}
        uppers = [r.upper for r in res.trace]
        assert uppers == sorted(uppers, reverse=True)
        assert min(uppers) >= max(e for _, e in res.unresolved_boxes)
        assert uppers[-1] >= res.residual_upper


@pytest.mark.parametrize("traversal", ["bfs", "priority"])
def test_terminal_boxes_cover_initial_boxes(traversal):
    F1, F2 = small_pair(61, 62)
    res = approximate(F1, F2, SolverConfig(epsilon=0.2, traversal=traversal))
    per_type = {t: Fraction(0) for t in SLICE_TYPES}
    for box, _ in res.retired_boxes + res.unresolved_boxes:
        per_type[box.stype] += Fraction(1, 4**box.level)
    assert all(v == 1 for v in per_type.values())


def test_pruned_boxes_are_sound():
    # every retired box, evaluated or retired by its pre-bound, stores a
    # bound above every distance in it and at most the threshold. A parent
    # that is split has its certified bound above the threshold, so a child
    # retired unevaluated stores less than its parent-center pre-bound only
    # through the grandparent's or great-grandparent's center
    unevaluated = below_parent_center = 0
    for a in (71, 73, 75):
        F1, F2 = small_pair(a, a + 100)
        for cfg in (SolverConfig(epsilon=0.3),
                    SolverConfig(epsilon=0.3, mode="relative"),
                    SolverConfig(epsilon=0.3, mode="relative", traversal="priority")):
            res = approximate(F1, F2, cfg)
            assert not res.not_converged
            evaluated = {r.box for r in res.trace}
            parent_of = {c: r.box for r in res.trace for c in subdivide(r.box)}
            for box, eff in res.retired_boxes:
                # a converged run's residual upper bound is its final threshold
                assert eff <= res.residual_upper
                d_max = max(eval_slice(F1, F2, L, 0) for L in grid_slices(box, 5))
                assert d_max <= eff + 1e-9
                if box not in evaluated:
                    unevaluated += 1
                    below_parent_center += eff < _parent_center_prebound(F1, F2, box, parent_of[box])
    assert unevaluated > 0
    assert below_parent_center > 0


def _parent_center_prebound(F1, F2, box, parent):
    """The L bound of box against its parent's center alone, the first
    reference of its pre-bound."""
    ref = eval_reference(F1, F2, center(parent))
    [bound] = box_bound(BoundKind.LOCAL_LINEAR, F1, F2, 0, [box], [ref]).pre
    return bound


def test_retired_bounds_never_exceed_the_linear_bound():
    # an evaluated box stores its own L bound or a tighter inherited one,
    # never the looser C bound in place of an L bound it could have had; a
    # child retired unevaluated stores at most its L bound against its
    # parent's center, the first of the three references of its pre-bound
    for i in range(6):
        F1, F2 = small_pair(21 + i, 121 + i)
        for cfg in (SolverConfig(epsilon=0.2),
                    SolverConfig(epsilon=0.3, mode="relative")):
            res = approximate(F1, F2, cfg)
            assert res.retired_boxes and not res.not_converged
            parent_of = {c: r.box for r in res.trace for c in subdivide(r.box)}
            evaluated = {r.box for r in res.trace}
            for box, eff in res.retired_boxes:
                if box in evaluated:
                    own = eval_reference(F1, F2, center(box))
                    assert eff <= own_bound(BoundKind.LOCAL_LINEAR, F1, F2, 0, box, own)
                    continue
                assert eff <= res.residual_upper
                assert eff <= _parent_center_prebound(F1, F2, box, parent_of[box])


def test_traversals_agree_on_guarantee():
    F1, F2 = small_pair(81, 82)
    results = {}
    for trav in ("bfs", "priority"):
        res = approximate(F1, F2, SolverConfig(epsilon=0.2, traversal=trav))
        assert not res.not_converged
        results[trav] = res
    deltas = {t: r.delta for t, r in results.items()}
    lows = {t: r.rho for t, r in results.items()}
    # same guarantee bracket even though traversal orders differ
    assert max(lows.values()) <= min(d + 0.2 for d in deltas.values()) + 1e-12


def test_determinism_bfs_and_dfs():
    F1, F2 = small_pair(91, 92)
    for trav in ("bfs", "priority"):
        cfg = SolverConfig(epsilon=0.2, traversal=trav)
        a = approximate(F1, F2, cfg)
        b = approximate(F1, F2, cfg)
        assert a.delta == b.delta and a.calls == b.calls
        assert [(r.call, r.rho, r.upper, r.box) for r in a.trace] == [
            (r.call, r.rho, r.upper, r.box) for r in b.trace
        ]


def _budgeted(epsilon: float, budget_ms: float) -> SolverConfig:
    return SolverConfig(epsilon=epsilon, mode="relative", traversal="priority",
                        budget_ms=budget_ms)


def test_budgeted_with_huge_budget_matches_plain_run():
    F1, F2 = small_pair(101, 102)
    plain = approximate(F1, F2, SolverConfig(epsilon=0.5, mode="relative", traversal="priority"))
    res = approximate(F1, F2, _budgeted(0.5, 1e9))
    assert not res.not_converged
    assert res.delta == plain.delta
    assert res.calls == plain.calls


def test_budgeted_with_zero_budget_stops_after_initial_boxes():
    F1, F2 = small_pair(111, 112)
    res = approximate(F1, F2, _budgeted(0.5, 0.0))
    assert res.calls == 4
    assert res.not_converged
    assert res.rho <= res.residual_upper
    assert res.residual_upper >= res.delta - 1e-12


def test_budgeted_relative_error_non_increasing():
    F1, F2 = small_pair(121, 122)
    res = approximate(F1, F2, _budgeted(0.3, 1e9))
    errs = [r.rel_error for r in res.trace]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12
    # trace rows stop at the last eval; the drained result is tighter
    assert res.rel_error <= 0.3


@pytest.mark.parametrize("cfg", [
    SolverConfig(epsilon=0.2),
    SolverConfig(epsilon=0.2, traversal="priority"),
    SolverConfig(epsilon=0.2, traversal="priority", budget_ms=0.0),
], ids=["bfs", "priority", "zero-budget"])
def test_trace_has_one_row_per_evaluation(cfg):
    F1, F2 = small_pair(131, 132)
    res = approximate(F1, F2, cfg)
    assert len(res.trace) == res.calls
    assert [r.call for r in res.trace] == list(range(1, res.calls + 1))
    assert res.trace[-1].rho == res.rho


def _within_epsilon(rho: float, t: float, eps: float) -> bool:
    exact = (1 + Fraction(eps)) * Fraction(rho)
    return Fraction(t) <= exact and solver._rel_error(rho, t) <= eps


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.5])
def test_relative_threshold_is_the_largest_float_within_epsilon(eps):
    rng = random.Random(int(eps * 10))
    cfg = SolverConfig(epsilon=eps, mode="relative")
    rounded_up = 0
    for _ in range(1000):
        rho = rng.uniform(1e-3, 1e4)
        t = solver._threshold(rho, cfg)
        assert _within_epsilon(rho, t, eps)
        assert not _within_epsilon(rho, math.nextafter(t, math.inf), eps)
        rounded_up += t < (1.0 + eps) * rho
    # the plain product overshoots for a good share of rho
    assert rounded_up > 100
    assert solver._threshold(0.0, cfg) == 0.0
    assert solver._threshold(math.inf, cfg) == math.inf
    # (1 + eps) * rho past the largest float: the largest float, not an error
    huge = SolverConfig(epsilon=1e308, mode="relative")
    assert solver._threshold(2.0, huge) == sys.float_info.max
    assert solver._threshold(2.0, SolverConfig(epsilon=eps)) == 2.0 + eps


def test_converged_relative_runs_report_at_most_epsilon():
    rounded_down = 0
    for i in range(4):
        F1, F2 = small_pair(141 + i, 241 + i)
        for eps in (0.1, 0.3, 0.5):
            res = approximate(F1, F2, SolverConfig(epsilon=eps, mode="relative"))
            assert not res.not_converged
            assert res.delta == res.residual_upper
            assert _within_epsilon(res.rho, res.delta, eps)
            assert res.rel_error <= eps
            rounded_down += res.delta < (1.0 + eps) * res.rho
    assert rounded_down > 0


def test_reduction_rate_examples():
    # calls and the deepest evaluated level are read off the trace: the
    # four level-0 rows, then four rows per level down a chain to level 3;
    # a row's other fields do not enter
    def rows(boxes):
        return [solver.TraceRow(0, 0.0, 0.0, 0.0, b) for b in boxes]

    F1, _ = small_pair()
    boxes = initial_boxes(F1, F1)
    r = ApproxResult(0.1, "absolute", BoundKind.LOCAL_LINEAR, trace=rows(boxes))
    assert reduction_rate(r) == 0.0
    for _ in range(3):
        boxes = subdivide(boxes[0])
        r.trace += rows(boxes)
    assert (r.calls, r.deepest_evaluated_level) == (16, 3)
    assert reduction_rate(r) == 0.9375


def test_bound_kinds_all_converge_and_order_statistically():
    calls = {k: 0 for k in BoundKind}
    for seed in range(6):
        F1, F2 = small_pair(200 + seed, 300 + seed, n=6, m=6)
        for kind in BoundKind:
            res = approximate(
                F1, F2, SolverConfig(epsilon=0.4, mode="relative", bound_kind=kind)
            )
            assert not res.not_converged
            calls[kind] += res.calls
    assert calls[BoundKind.LOCAL_LINEAR] <= calls[BoundKind.LOCAL_CONSTANT]
    assert calls[BoundKind.LOCAL_CONSTANT] <= calls[BoundKind.GLOBAL]


def _summary(res):
    return (res.delta, res.rho, res.residual_upper, res.calls, res.deepest_level,
            res.deepest_evaluated_level, res.not_converged)


def _invariance_pair(dim, seed):
    """Two dim-0 inputs of GenSpec(8, 12, 1); for dim 1, two sets of
    lower-star vertex values on the complex of GenSpec(7, 9, 2), since two
    independent 2-complexes mostly differ in H1 and are infinitely apart."""
    if dim == 0:
        return [generate_random(GenSpec(8, 12, 1, seed=s, coord_range=10))
                for s in (seed, seed + 50)]
    return _lower_stars_on_one_complex(seed, 2)


def _lower_stars_on_one_complex(seed, count):
    """count sets of lower-star vertex values in [0, 10]^2 on the complex
    of GenSpec(7, 9, 2): any two are finitely apart in every dimension."""
    K = generate_random(GenSpec(7, 9, 2, seed=seed, coord_range=10))
    rng = np.random.Generator(np.random.Philox(seed))
    return [lower_star(K.simplices, dict(zip(K.vertex_ids, rng.integers(0, 11, (K.vertex_count, 2)))))
            for _ in range(count)]


@pytest.mark.parametrize("dim", [0, 1])
def test_brackets_obey_the_triangle_inequality(dim):
    # each rho is at most the distance and each certified upper bound at
    # least it, so for every ordering of three inputs on one complex
    # rho(A, C) <= d(A, C) <= d(A, B) + d(B, C) <= upper(A, B) + upper(B, C)
    configs = [SolverConfig(epsilon=0.25, homology_dim=dim),
               SolverConfig(epsilon=0.5, mode="relative", homology_dim=dim)]
    checked, rho_max = 0, 0.0
    for seed in range(3):
        F = _lower_stars_on_one_complex(seed, 3)
        for cfg in configs:
            res = {}
            for i, j in itertools.combinations(range(3), 2):
                res[i, j] = res[j, i] = approximate(F[i], F[j], cfg)
                rho_max = max(rho_max, res[i, j].rho)
            for a, b, c in itertools.permutations(range(3)):
                assert res[a, c].rho <= res[a, b].residual_upper + res[b, c].residual_upper
                checked += 1
    assert checked == 3 * 2 * 6
    assert 0.0 < rho_max < math.inf


@pytest.mark.parametrize("dim", [0, 1])
def test_solver_is_symmetric_shift_invariant_and_scales_exactly(dim):
    # the matching distance is symmetric, invariant under a common shift
    # and scales with the coordinates; with the same boxes, bounds and
    # thresholds the solver's bracket, counts and depths do too: exactly,
    # since the shift is undone by normalize_pair and the scale is 4
    configs = [SolverConfig(epsilon=0.5, mode="relative", homology_dim=dim),
               SolverConfig(epsilon=0.5, mode="relative", traversal="priority",
                            homology_dim=dim),
               SolverConfig(epsilon=1.0, homology_dim=dim)]
    for seed in range(10):
        F1, F2, _ = normalize_pair(*_invariance_pair(dim, seed))
        G1, G2, _ = normalize_pair(F1.translated(3, 5), F2.translated(3, 5))
        for cfg in configs:
            res = approximate(F1, F2, cfg)
            assert res.rho < math.inf
            assert _summary(approximate(F2, F1, cfg)) == _summary(res)
            assert _summary(approximate(G1, G2, cfg)) == _summary(res)
            if cfg.mode == "relative":
                big = approximate(scaled_copy(F1, 0.25), scaled_copy(F2, 0.25), cfg)
                assert (big.delta, big.rho, big.residual_upper) == (
                    4 * res.delta, 4 * res.rho, 4 * res.residual_upper)
                assert _summary(big)[3:] == _summary(res)[3:]
