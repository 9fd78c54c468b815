import math
import random
import sys
from fractions import Fraction

import pytest

from conftest import dmatch_sampled, four_corner_variation, grid_slices, scaled_copy
from matchdist import solver
from matchdist.bounds import BoundKind, bound_L
from matchdist.errors import InvalidConfig
from matchdist.generators import GenSpec, generate_random
from matchdist.slices import SLICE_TYPES, center, pair_extents, subdivide
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
    # a non-finite epsilon, and a budget that is not >= 0, are refused;
    # an infinite budget means no budget
    for eps in (math.inf, math.nan, -math.inf):
        with pytest.raises(InvalidConfig):
            SolverConfig(epsilon=eps).validate()
    for budget in (math.nan, -1.0, -math.inf):
        with pytest.raises(InvalidConfig):
            SolverConfig(traversal="priority", budget_ms=budget).validate()
    SolverConfig(traversal="priority", budget_ms=math.inf).validate()


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
    """The L bound of box against its parent's center, by a four-corner scan."""
    ref = center(parent)
    return (eval_slice(F1, F2, ref)
            + float(four_corner_variation(F1.px, F1.py, box, ref).max())
            + float(four_corner_variation(F2.px, F2.py, box, ref).max()))


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
                    assert eff <= bound_L(F1, F2, box, eval_reference(F1, F2, center(box)))
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
    r = ApproxResult(0, 0, 0, calls=4, deepest_level=0, deepest_evaluated_level=0,
                     not_converged=False, epsilon=0.1, mode="absolute",
                     bound_kind=BoundKind.LOCAL_LINEAR, elapsed_ms=0.0)
    assert reduction_rate(r) == 0.0
    r.calls, r.deepest_evaluated_level = 16, 3
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
