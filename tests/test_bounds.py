import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    four_corner_rise_fall,
    four_corner_variation,
    grid_slices,
    own_bound,
    random_box,
    shift_capped_bound,
    variation_filtration,
    variation_point,
    weighted_push_grid,
)
from matchdist.bounds import (
    BoundKind,
    Reference,
    _pushes,
    _vbar_constant,
    box_bound,
    capped_bound,
)
from matchdist.bottleneck import bottleneck_distance
from matchdist.complexes import lower_star, validate_bifiltration
from matchdist.errors import InvalidLevel
from matchdist.generators import GenSpec, generate_random, generate_random_kcritical
from matchdist.persistence import diagram
from matchdist.slices import (
    SLICE_TYPES,
    ParamBox,
    Slice,
    SliceType,
    center,
    initial_boxes,
    pair_extents,
    restrict,
    subdivide,
    weighted_push,
)
from matchdist.solver import eval_reference, eval_slice


def symmetric_bound(ref: Reference, v1: float, v2: float) -> float:
    """The combine with rise = fall = v_i for each filtration, written with
    Python's min and max: min(d + v1 + v2, max(h1 + v1, h2 + v2, e + v1 + v2)).
    The C and G rules give exactly this; the L rule never exceeds it."""
    return min(ref.d + v1 + v2, max(ref.h1 + v1, ref.h2 + v2, ref.e + v1 + v2))


def grid_variation(px: float, py: float, B: ParamBox, n: int = 101) -> float:
    """Dense-grid estimate of the maximal push change over B (endpoints
    included, so corner values are part of the scan)."""
    lams = np.linspace(B.lam_min, B.lam_max, n)
    mus = np.linspace(B.mu_min, B.mu_max, n)
    grid = weighted_push_grid(px, py, lams[:, None], mus[None, :], B.stype)
    c = weighted_push(px, py, center(B))
    return float(np.abs(grid - c).max())


def test_variation_point_degenerate_box():
    B = ParamBox(0.3, 0.3, 1.0, 1.0, SliceType.FLAT_Y, 5)
    assert variation_point(2.0, 1.0, B) == 0.0


def test_variation_point_example():
    B = ParamBox(0.0, 1.0, 0.0, 0.0, SliceType.FLAT_Y, 0)
    assert variation_point(2.0, 1.0, B) == 1.0
    assert grid_variation(2.0, 1.0, B) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_variation_point_matches_grid(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    B = random_box(rng)
    px, py = float(rng.uniform(0, 8)), float(rng.uniform(0, 8))
    v = variation_point(px, py, B)
    g = grid_variation(px, py, B)
    assert g <= v + 1e-9          # corners dominate the whole box
    assert v <= g + 1e-3          # and the grid contains the corners


def _points_on_line(L: Slice, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-negative points where both push branches of L agree."""
    lam, mu = L.lam, L.mu
    if L.stype is SliceType.FLAT_Y:
        return t, mu + lam * t
    if L.stype is SliceType.STEEP_Y:
        return lam * t, mu + t
    if L.stype is SliceType.FLAT_X:
        return mu + t, lam * t
    return mu + lam * t, t


def test_two_corner_rule_equals_four_corner_max():
    rng = np.random.Generator(np.random.Philox(4242))
    for stype in SLICE_TYPES:
        for k in range(60):
            B = random_box(rng, mu_hi=6.0)
            B = ParamBox(B.lam_min, B.lam_max, B.mu_min, B.mu_max, stype)
            if k % 4 == 1:  # zero lam width
                B = ParamBox(B.lam_min, B.lam_min, B.mu_min, B.mu_max, stype)
            elif k % 4 == 2:  # zero mu height
                B = ParamBox(B.lam_min, B.lam_max, B.mu_max, B.mu_max, stype)
            elif k % 4 == 3:  # a single slice
                B = ParamBox(B.lam_max, B.lam_max, B.mu_min, B.mu_min, stype)
            t = rng.uniform(0.0, 6.0, size=8)
            on_lines = [_points_on_line(L, t) for L in (
                center(B), Slice(B.lam_min, B.mu_max, stype), Slice(B.lam_max, B.mu_min, stype))]
            below = rng.uniform(0.0, B.mu_min, size=8)  # y < mu (steep-y), x < mu (flat-x)
            xs = np.concatenate([rng.uniform(0, 8, 32), *(x for x, _ in on_lines), below,
                                 rng.uniform(0, 8, 8), [0.0, 0.0, 3.0]])
            ys = np.concatenate([rng.uniform(0, 8, 32), *(y for _, y in on_lines),
                                 rng.uniform(0, 8, 8), below, [0.0, 3.0, 0.0]])
            # against the center, as a box's own bound scans, and against a slice
            # outside the box, as an ancestor's center can be
            refs = [center(B), Slice(float(rng.uniform(0.0, 1.0)), B.mu_max + 1.0, stype)]
            hi, lo, _, _ = _pushes(xs, ys, [B], [])
            for ref in refs:
                c = weighted_push(xs, ys, ref)
                assert np.array_equal(np.maximum(hi[0] - c, c - lo[0]),
                                      four_corner_variation(xs, ys, B, ref))


def test_child_prebounds_are_four_corner_scans_against_the_parent_center():
    F1, F2 = _pair(13, 14)
    for stype in SLICE_TYPES:
        B = ParamBox(0.25, 0.75, 1.0, 9.0, stype, 1)
        ref = eval_reference(F1, F2, center(B), 0)
        pre = box_bound(BoundKind.LOCAL_LINEAR, F1, F2, subdivide(B), [ref]).pre
        want = [shift_capped_bound(ref, four_corner_rise_fall(F1.px, F1.py, child, ref.slice),
                                   four_corner_rise_fall(F2.px, F2.py, child, ref.slice))
                for child in subdivide(B)]
        assert pre == pytest.approx(want, rel=1e-12, abs=1e-12)
        for child, b in zip(subdivide(B), pre):
            for L in grid_slices(child, 4):
                assert eval_slice(F1, F2, L, 0) <= b + 1e-9
    flat = ParamBox(0.5, 0.5, 2.0, 2.0, SliceType.FLAT_X, 3)  # degenerate: no variation
    ref = eval_reference(F1, F2, center(flat), 0)
    assert box_bound(BoundKind.LOCAL_LINEAR, F1, F2, [flat] * 4, [ref]).pre == [ref.d] * 4


@pytest.mark.parametrize("kcritical", [False, True])
def test_any_reference_slice_gives_a_sound_bound(kcritical):
    # the two-corner rule against a slice at the center, at a corner and
    # outside the box, the last as a sibling's center would be; small boxes
    # keep the variation below the distance differences across the space
    rng = np.random.Generator(np.random.Philox(909 + kcritical))
    spec_a = GenSpec(6, 7, 1, seed=31, coord_range=20)
    F1 = generate_random_kcritical(spec_a, 3) if kcritical else generate_random(spec_a)
    F2 = generate_random(GenSpec(6, 7, 1, seed=32, coord_range=20))
    assert F1.one_critical is not kcritical
    finite = 0
    for stype in SLICE_TYPES:
        for k in range(6):
            B = random_box(rng, mu_hi=20.0)
            shrink = 16.0 if k % 2 else 1.0
            B = ParamBox(B.lam_min, B.lam_min + B.dlam / shrink,
                         B.mu_min, B.mu_min + B.dmu / shrink, stype)
            corner = Slice(float(rng.choice([B.lam_min, B.lam_max])),
                           float(rng.choice([B.mu_min, B.mu_max])), stype)
            lam, mu = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 25.0))
            if B.lam_min <= lam <= B.lam_max and B.mu_min <= mu <= B.mu_max:
                mu = B.mu_max + 1.0
            for L_ref in (center(B), corner, Slice(lam, mu, stype)):
                ref = eval_reference(F1, F2, L_ref, 0)
                finite += np.isfinite(ref.d)
                [bound] = box_bound(BoundKind.LOCAL_LINEAR, F1, F2, [B], [ref]).pre
                for L in grid_slices(B, 5):
                    assert eval_slice(F1, F2, L, 0) <= bound + 1e-9
    assert finite > 0
    point = ParamBox(0.5, 0.5, 3.0, 3.0, SliceType.FLAT_X, 9)  # zero variation
    ref = eval_reference(F1, F2, center(point), 0)
    assert box_bound(BoundKind.LOCAL_LINEAR, F1, F2, [point], [ref]).pre == [ref.d]


@pytest.mark.parametrize("kcritical", [False, True])
def test_several_references_give_the_smallest_sound_bound(kcritical):
    # the children of a box against its center and its ancestors' centers,
    # as a split bounds them, plus a reference outside the ancestors
    rng = np.random.Generator(np.random.Philox(1212 + kcritical))
    spec_a = GenSpec(6, 7, 1, seed=41, coord_range=20)
    F1 = generate_random_kcritical(spec_a, 3) if kcritical else generate_random(spec_a)
    F2 = generate_random(GenSpec(6, 7, 1, seed=42, coord_range=20))
    assert F1.one_critical is not kcritical
    tighter = 0
    for stype in SLICE_TYPES:
        for _ in range(3):
            ancestors = [ParamBox(0.0, 1.0, 0.0, 20.0, stype, 0)]
            for _ in range(3):
                ancestors.append(subdivide(ancestors[-1])[int(rng.integers(0, 4))])
            children = subdivide(ancestors[-1])
            outside = Slice(float(rng.uniform(0.0, 1.0)), 25.0, stype)
            refs = [eval_reference(F1, F2, L, 0)
                    for L in [center(A) for A in ancestors[::-1]] + [outside]]
            multi = box_bound(BoundKind.LOCAL_LINEAR, F1, F2, children, refs).pre
            single = [box_bound(BoundKind.LOCAL_LINEAR, F1, F2, children, [r]).pre
                      for r in refs]
            assert multi == [min(col) for col in zip(*single)]
            tighter += sum(m < s for m, s in zip(multi, single[0]))
            for child, bound in zip(children, multi):
                for L in grid_slices(child, 5):
                    assert eval_slice(F1, F2, L, 0) <= bound + 1e-9
    assert tighter > 0  # an ancestor's center beat the parent's for some child
    assert box_bound(BoundKind.LOCAL_LINEAR, F1, F2, [], refs).pre == []
    # against the box's own center, the rule is the capped four-corner scan
    for B in children:
        ref = eval_reference(F1, F2, center(B), 0)
        want = shift_capped_bound(ref, four_corner_rise_fall(F1.px, F1.py, B, ref.slice),
                                  four_corner_rise_fall(F2.px, F2.py, B, ref.slice))
        assert box_bound(BoundKind.LOCAL_LINEAR, F1, F2, [B], [ref]).pre == [
            pytest.approx(want, rel=1e-12, abs=1e-12)]
    with pytest.raises(ValueError):  # boxes of one slice type
        box_bound(BoundKind.LOCAL_LINEAR, F1, F2, [children[0], initial_boxes(F1, F2)[0]], refs)


def test_no_reference_bounds_nothing():
    F1 = generate_random(GenSpec(8, 12, 1, seed=51))
    F2 = generate_random(GenSpec(8, 12, 1, seed=52))
    boxes = subdivide(initial_boxes(F1, F2)[1])
    assert box_bound(BoundKind.LOCAL_LINEAR, F1, F2, boxes, []).pre == [math.inf] * 4
    for kind in BoundKind:  # the solver's pass over a level-0 box
        assert box_bound(kind, F1, F2, boxes).pre == [math.inf] * 4
        assert box_bound(kind, F1, F2, []) == ([], [])  # no boxes, an empty pass


@pytest.mark.parametrize("kind", ["1-critical", "k-critical", "lower-star"])
def test_one_pass_equals_the_per_box_rule(kind):
    # the pass over a split's children (or one level-0 box) against 0-3
    # references, at levels 0-6 of all four slice types, against the rule
    # applied to one box and one reference at a time over every critical
    # value, repeated ones included: the same floats, not nearly the same
    rng = np.random.Generator(np.random.Philox(1515))
    F1, F2 = _one_complex_pairs(72)[kind]
    if kind == "lower-star":
        assert F1.distinct_points[0].size < F1.px.size
    X, Y, C = pair_extents(F1, F2)
    for top in initial_boxes(F1, F2):
        chain = [top]
        for _ in range(6):
            chain.append(subdivide(chain[-1])[int(rng.integers(0, 4))])
        for level in range(7):
            boxes = subdivide(chain[level - 1]) if level else [top]
            # the nearest ancestors' centers, after a slice outside the top
            # box at odd levels
            slices = [center(A) for A in chain[level - 1 :: -1]] if level else []
            if level % 2:
                slices.insert(0, Slice(float(rng.uniform(0.0, 1.0)), top.mu_max + 1.0, top.stype))
            refs = [eval_reference(F1, F2, L, 0) for L in slices[: level % 4]]
            got = box_bound(BoundKind.LOCAL_LINEAR, F1, F2, boxes, refs)
            for B, pre, rise_fall in zip(boxes, got.pre, got.rise_fall):
                def rf(L):
                    return (*four_corner_rise_fall(F1.px, F1.py, B, L),
                            *four_corner_rise_fall(F2.px, F2.py, B, L))
                assert pre == min((capped_bound(r, *rf(r.slice)) for r in refs), default=math.inf)
                assert pre == pytest.approx(min(
                    (shift_capped_bound(r, rf(r.slice)[:2], rf(r.slice)[2:]) for r in refs),
                    default=math.inf), rel=1e-12, abs=1e-12)
                assert rise_fall == rf(center(B))
                own = eval_reference(F1, F2, center(B), 0)
                assert (own_bound(BoundKind.LOCAL_LINEAR, F1, F2, B, own)
                        == capped_bound(own, *rf(center(B))))
                vbar, g = _vbar_constant(B, X, Y), C * 2.0 ** -B.level
                assert (own_bound(BoundKind.LOCAL_CONSTANT, F1, F2, B, own)
                        == symmetric_bound(own, vbar, vbar))
                assert own_bound(BoundKind.GLOBAL, F1, F2, B, own) == symmetric_bound(own, g, g)
            for rule, v in ((BoundKind.LOCAL_CONSTANT, lambda B: _vbar_constant(B, X, Y)),
                            (BoundKind.GLOBAL, lambda B: C * 2.0 ** -B.level)):
                assert box_bound(rule, F1, F2, boxes, refs) == (
                    [math.inf] * len(boxes), [(v(B),) * 4 for B in boxes])


def _record_oracle(F1, F2, L: Slice, dim: int) -> Reference:
    """The reference record at L, each field from its definition."""
    D1, D2 = diagram(restrict(F1, L), dim), diagram(restrict(F2, L), dim)

    def half(D):
        return max(((b - a) / 2.0 for a, b in D.finite.tolist()), default=0.0)

    e1, e2 = D1.essential.tolist(), D2.essential.tolist()
    e = math.inf if len(e1) != len(e2) else max(
        (0.0 if a == b else abs(a - b) for a, b in zip(e1, e2)), default=0.0)
    return Reference(L, bottleneck_distance(D1, D2), half(D1), half(D2), e)


def _one_complex_pairs(seed: int) -> dict:
    """Pairs on one random 2-complex, so the essential counts agree in
    every dimension and the distance is finite: a lower-star, a 3-critical
    and a random 1-critical filtration, each against one lower-star."""
    spec = GenSpec(7, 8, 2, seed=seed, coord_range=20)
    K = generate_random(spec)
    rng = np.random.Generator(np.random.Philox(seed))

    def star():
        return lower_star(K.simplices, {v: tuple(rng.integers(0, 21, size=2).tolist())
                                        for v in K.vertex_ids})

    lower = star()
    return {"lower-star": (star(), lower), "k-critical": (generate_random_kcritical(spec, 3), lower),
            "1-critical": (K, lower)}


@pytest.mark.parametrize("dim", [0, 1])
def test_trivial_matching_cap_is_sound(dim):
    # every rule against the record of a reference slice: the center, a
    # corner and a slice outside the box, on whole level-0 boxes and on
    # level-4 boxes of 1/16 their size; each bound is the capped formula
    # and dominates the distance on a 7 x 7 grid over the box
    rng = np.random.Generator(np.random.Philox(1313 + dim))
    capped = checked = 0
    pairs = _one_complex_pairs(69)
    for F1, F2 in (pairs["lower-star"], pairs["k-critical"]):
        X, Y, C = pair_extents(F1, F2)
        for top in initial_boxes(F1, F2):
            boxes = [top]
            for _ in range(2):
                B = top
                for _ in range(4):
                    B = subdivide(B)[int(rng.integers(0, 4))]
                boxes.append(B)
            for B in boxes:
                d_max = max(eval_slice(F1, F2, L, dim) for L in grid_slices(B, 7))
                corner = Slice(float(rng.choice([B.lam_min, B.lam_max])),
                               float(rng.choice([B.mu_min, B.mu_max])), B.stype)
                outside = Slice(float(rng.uniform(0.0, 1.0)), B.mu_max + 1.0, B.stype)
                for L_ref in (center(B), corner, outside):
                    ref = eval_reference(F1, F2, L_ref, dim)
                    assert ref == _record_oracle(F1, F2, L_ref, dim)
                    rf1, rf2 = (four_corner_rise_fall(F.px, F.py, B, L_ref) for F in (F1, F2))
                    (A1, B1), (A2, B2) = rf1, rf2
                    [bound] = box_bound(BoundKind.LOCAL_LINEAR, F1, F2, [B], [ref]).pre
                    assert bound == pytest.approx(shift_capped_bound(ref, rf1, rf2), rel=1e-12, abs=1e-12)
                    assert d_max <= bound + 1e-9
                    capped += bound < ref.d + max(A1 + B2, A2 + B1, (A1 + B1 + A2 + B2) / 2)
                    checked += 1
                ref = eval_reference(F1, F2, center(B), dim)
                vbar, g = _vbar_constant(B, X, Y), C * 2.0 ** -B.level
                l, c, g_bound = (own_bound(BoundKind.LOCAL_LINEAR, F1, F2, B, ref),
                                 own_bound(BoundKind.LOCAL_CONSTANT, F1, F2, B, ref),
                                 own_bound(BoundKind.GLOBAL, F1, F2, B, ref))
                assert l == pytest.approx(shift_capped_bound(
                    ref, *(four_corner_rise_fall(F.px, F.py, B, ref.slice) for F in (F1, F2))),
                    rel=1e-12, abs=1e-12)
                # C and G take rise = fall = v: the symmetric combine, bit for bit
                assert c == symmetric_bound(ref, vbar, vbar)
                assert g_bound == symmetric_bound(ref, g, g)
                assert d_max <= min(l, c, g_bound) + 1e-9
    assert checked == 2 * 4 * 3 * 3
    assert capped > 0  # the cap is strictly below the stability term for some box


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["1-critical", "k-critical", "lower-star"]),
       st.integers(0, 1))
@example(2, "k-critical", 0)
@example(38, "1-critical", 1)
@example(33, "lower-star", 1)
def test_common_shift_bound_dominates_the_distance(seed, kind, dim):
    # the shift-invariant rule against a reference at the center, at a
    # corner and outside the box, on a level-2 and a level-4 box; taking
    # each filtration's variation at its own best shift is not sound, and
    # fails each of the explicit examples
    rng = np.random.Generator(np.random.Philox(seed))
    F1, F2 = _one_complex_pairs(seed)[kind]
    B = initial_boxes(F1, F2)[int(rng.integers(0, 4))]
    for level in range(1, 5):
        B = subdivide(B)[int(rng.integers(0, 4))]
        if level % 2:
            continue
        d_max = max(eval_slice(F1, F2, L, dim) for L in grid_slices(B, 7))
        corner = Slice(float(rng.choice([B.lam_min, B.lam_max])),
                       float(rng.choice([B.mu_min, B.mu_max])), B.stype)
        outside = Slice(float(rng.uniform(0.0, 1.0)), B.mu_max + 1.0, B.stype)
        for L_ref in (center(B), corner, outside):
            ref = eval_reference(F1, F2, L_ref, dim)
            [bound] = box_bound(BoundKind.LOCAL_LINEAR, F1, F2, [B], [ref]).pre
            assert d_max <= bound + 1e-9


@pytest.mark.parametrize("dim", [0, 1])
def test_common_shift_never_loosens_the_symmetric_rule(dim):
    # against any reference the rule is at most the symmetric combine of
    # v_i = max(A_i, B_i); against the corner (lam_min, mu_max), where
    # every push is smallest, nothing falls (B_i = 0), so S = max(A1, A2)
    # and the bound is strictly below d + A1 + A2 and its cap when both
    # filtrations move
    rng = np.random.Generator(np.random.Philox(1414 + dim))
    strict = 0
    for F1, F2 in _one_complex_pairs(71).values():
        for top in initial_boxes(F1, F2):
            for depth in range(4):
                B = top
                for _ in range(depth):
                    B = subdivide(B)[int(rng.integers(0, 4))]
                stype = B.stype
                low = Slice(B.lam_min, B.mu_max, stype)
                outside = Slice(float(rng.uniform(0.0, 1.0)), B.mu_max + 1.0, stype)
                for L_ref in (center(B), low, outside):
                    ref = eval_reference(F1, F2, L_ref, dim)
                    v1, v2 = (float(four_corner_variation(F.px, F.py, B, L_ref).max())
                              for F in (F1, F2))
                    [bound] = box_bound(BoundKind.LOCAL_LINEAR, F1, F2, [B], [ref]).pre
                    assert bound <= symmetric_bound(ref, v1, v2)
                    if L_ref is low and v1 > 0 and v2 > 0:
                        assert math.isfinite(ref.d)
                        assert four_corner_rise_fall(F1.px, F1.py, B, low)[1] == 0.0
                        assert bound < symmetric_bound(ref, v1, v2)
                        strict += 1
    assert strict >= 24


def _pair(seed_a=11, seed_b=12, n=6, m=6):
    F1 = generate_random(GenSpec(n, m, 1, seed=seed_a))
    F2 = generate_random(GenSpec(n, m, 1, seed=seed_b))
    return F1, F2


def test_variation_filtration_is_max_over_points():
    F1, _ = _pair()
    B = ParamBox(0.25, 0.5, 0.0, 100.0, SliceType.STEEP_Y, 2)
    v = variation_filtration(F1, B)
    per_point = [variation_point(x, y, B) for x, y in zip(F1.px, F1.py)]
    assert v == max(per_point)
    assert variation_filtration(F1, ParamBox(0.5, 0.5, 3.0, 3.0, SliceType.FLAT_X, 9)) == 0.0


def _uncapped(B: ParamBox, d: float) -> Reference:
    """A record whose infinite half-persistences leave the stability term."""
    return Reference(center(B), d, math.inf, math.inf, 0.0)


def test_bound_L_examples():
    F1, F2 = _pair()
    B = ParamBox(0.5, 0.5, 7.0, 7.0, SliceType.FLAT_X, 7)  # degenerate
    assert own_bound(BoundKind.LOCAL_LINEAR, F1, F2, B, _uncapped(B, 0.25)) == 0.25
    ref = Reference(center(B), 0.25, 0.125, 0.0625, 0.0)
    assert own_bound(BoundKind.LOCAL_LINEAR, F1, F2, B, ref) == 0.125
    B2 = ParamBox(0.0, 0.5, 0.0, 50.0, SliceType.FLAT_Y, 1)
    # a filtration against itself: d = e = 0, so the bound is the spread
    # A + B of its critical values, the rise plus the fall
    rise, fall = four_corner_rise_fall(F1.px, F1.py, B2, center(B2))
    assert 0.0 < rise + fall < 2.0 * variation_filtration(F1, B2)
    ref = eval_reference(F1, F1, center(B2))
    assert own_bound(BoundKind.LOCAL_LINEAR, F1, F1, B2, ref) == rise + fall


def test_bound_C_formula():
    F1 = validate_bifiltration([[0]], [[(2.0, 1.0)]])
    B = ParamBox(0.25, 0.75, 0.4, 0.6, SliceType.FLAT_Y, 1)
    # vbar = (dmu + X * dlam) / 2 = (0.2 + 2 * 0.5) / 2 = 0.6
    assert (own_bound(BoundKind.LOCAL_CONSTANT, F1, F1, B, _uncapped(B, 0.0))
            == pytest.approx(1.2, abs=1e-12))
    # the cap adds vbar to h1 and 2 vbar to e: max(1.0 + 0.6, 0.6, 1.2) < 0.5 + 1.2
    ref = Reference(center(B), 0.5, 1.0, 0.0, 0.0)
    assert own_bound(BoundKind.LOCAL_CONSTANT, F1, F1, B, ref) == pytest.approx(1.6, abs=1e-12)
    degenerate = ParamBox(0.5, 0.5, 0.3, 0.3, SliceType.STEEP_X, 4)
    assert own_bound(BoundKind.LOCAL_CONSTANT, F1, F1, degenerate,
                     _uncapped(degenerate, 0.7)) == 0.7


def test_bound_G_level_and_errors():
    F1 = validate_bifiltration([[0]], [[(1.0, 1.0)]])
    B = ParamBox(0.0, 0.125, 0.0, 0.125, SliceType.STEEP_Y, 3)
    assert own_bound(BoundKind.GLOBAL, F1, F1, B, _uncapped(B, 0.0)) == 0.25  # 2 * 1 * 2**-3
    # the cap: max(0.25 + 0.125, 0.125, 0.25) < 0.5 + 0.25
    ref = Reference(center(B), 0.5, 0.25, 0.0, 0.0)
    assert own_bound(BoundKind.GLOBAL, F1, F1, B, ref) == 0.375
    B0 = ParamBox(0.0, 1.0, 0.0, 1.0, SliceType.FLAT_X, 0)
    F2 = validate_bifiltration([[0]], [[(2.0, 1.0)]])
    assert (own_bound(BoundKind.GLOBAL, F2, F2, B0, _uncapped(B0, 0.5))
            == pytest.approx(0.5 + 4.0, abs=0))
    bad = ParamBox(0.0, 1.0, 0.0, 1.0, SliceType.FLAT_X, 3)
    with pytest.raises(InvalidLevel):
        own_bound(BoundKind.GLOBAL, F1, F1, bad, _uncapped(bad, 0.0))
    bad = ParamBox(0.0, 0.125, 0.0, 0.9, SliceType.FLAT_X, 3)
    with pytest.raises(InvalidLevel):
        own_bound(BoundKind.GLOBAL, F1, F1, bad, _uncapped(bad, 0.0))


def _subdivision_boxes(F1, F2, depth=3):
    out = []
    stack = list(initial_boxes(F1, F2))
    while stack:
        b = stack.pop()
        out.append(b)
        if b.level < depth:
            stack.extend(subdivide(b))
    return out


def test_bound_chain_on_subdivision_boxes():
    F1, F2 = _pair()
    for B in _subdivision_boxes(F1, F2):
        ref = eval_reference(F1, F2, center(B), 0)
        l = own_bound(BoundKind.LOCAL_LINEAR, F1, F2, B, ref)
        c = own_bound(BoundKind.LOCAL_CONSTANT, F1, F2, B, ref)
        g = own_bound(BoundKind.GLOBAL, F1, F2, B, ref)
        assert l <= c <= g


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bounds_dominate_sampled_slices(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    F1, F2 = _pair(int(rng.integers(0, 1000)), int(rng.integers(1000, 2000)), n=5, m=5)
    boxes = _subdivision_boxes(F1, F2, depth=2)
    B = boxes[int(rng.integers(0, len(boxes)))]
    l = own_bound(BoundKind.LOCAL_LINEAR, F1, F2, B, eval_reference(F1, F2, center(B), 0))
    for L in grid_slices(B, 5):
        assert eval_slice(F1, F2, L, 0) <= l + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kcritical_variation_bound(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    spec = GenSpec(5, int(rng.integers(2, 6)), 1, seed=seed)
    F = generate_random_kcritical(spec, int(rng.integers(2, 4)))
    B = random_box(rng, mu_hi=500.0)
    v = variation_filtration(F, B)
    mc = restrict(F, center(B))
    for L in grid_slices(B, 3):
        ml = restrict(F, L)
        assert np.all(np.abs(ml.values - mc.values) <= v + 1e-9)
