"""Branch-and-bound driver approximating the matching distance.

The matching distance of two bi-filtrations is the supremum over all
slices of the bottleneck distance between the weighted restrictions. The
driver covers the slice space with four parameter boxes, evaluates the
bottleneck distance at each box center, bounds the distance over the box,
and subdivides boxes whose bound exceeds the current pruning threshold:
rho + eps in absolute mode, (1 + eps) * rho rounded down in relative mode,
where rho is the largest evaluated distance so far.

A box is evaluated and bounded when it is queued, so the four level-0
boxes are evaluated even under a zero budget. Evaluating a center slice
gives a bounds.Reference record, (slice, d, h1, h2, e), read off the two
diagrams the distance was computed from; bounds.py explains how every
bound rule caps the stability bound by the trivial matching with it.

Each split makes one bound pass over its four children
(bounds.box_bound), and each level-0 box a pass of its own. Under the
local linear bound the pass bounds each child against the evaluated
center slices of the box and of its two nearest ancestors, with their
records, and keeps the smallest of these pre-bounds. The inherited bound
already holds each ancestor's bound, but over the whole ancestor box; the
same center bounds the smaller child more tightly. A child whose
pre-bound already meets the threshold retires without an evaluation. The
same pass gives each child's rise and fall against its own center, so an
evaluated child's own bound is bounds.capped_bound with its record, with
no second scan of the critical values; under C and G the pass gives the
closed forms and no pre-bound.
One heap holds the queue: bfs pops it in queue order, priority pops the
largest bound first.

Every queue entry carries the tightest bound certified for its region by
any ancestor ("inherited"); a box's certified bound is the minimum of its
own bound and the inherited one. This keeps the reported global upper
bound monotone non-increasing and lets fully certified subtrees retire
without rescanning critical values.

The run's record is its ApproxResult: approximate creates it first and
appends each evaluation to its trace and each disposed-of box to its
retired or unresolved list as it goes. The bracket (rho, the threshold
and the unresolved bounds), the call count and the depths are read off
that record, not kept beside it.
"""

from __future__ import annotations

import heapq
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bottleneck import bottleneck_distance, essential_distance, half_persistence
from .bounds import BoundKind, Reference, RiseFall, box_bound, capped_bound
from .complexes import BiFiltration, homology_dim
from .errors import InvalidConfig
from .persistence import diagram
from .slices import ParamBox, Slice, center, initial_boxes, restrict, subdivide

INF = float("inf")
# subdivision depth cap; a box at this level is left unresolved
MAX_LEVEL = 40
# the relative variant cannot terminate when the matching distance is zero,
# so a run whose lower bound is still exactly zero stops once boxes reach
# this level and reports an honest residual instead
ZERO_STALL_LEVEL = 6
# evaluated slices a split bounds its children against: the box's own
# center and the centers of its nearest evaluated ancestors
REFERENCES = 3

_Refs = tuple[Reference, ...]


def _diagrams(F1: BiFiltration, F2: BiFiltration, L: Slice, dim: int):
    """Both diagrams at L, each computed on its complex's `reduced(dim)`."""
    return (diagram(restrict(F1.reduced(dim), L), dim),
            diagram(restrict(F2.reduced(dim), L), dim))


def eval_slice(F1: BiFiltration, F2: BiFiltration, L: Slice, dim: int = 0) -> float:
    """Bottleneck distance between the weighted restrictions onto L."""
    return bottleneck_distance(*_diagrams(F1, F2, L, dim))


def eval_reference(F1: BiFiltration, F2: BiFiltration, L: Slice, dim: int = 0) -> Reference:
    """eval_slice at L as the record the bound rules take, read off the
    same two diagrams."""
    d1, d2 = _diagrams(F1, F2, L, dim)
    return Reference(L, bottleneck_distance(d1, d2), half_persistence(d1),
                     half_persistence(d2), essential_distance(d1, d2))


@dataclass
class SolverConfig:
    """Knobs for :func:`approximate`.

    epsilon is the absolute error in absolute mode and the relative error
    in relative mode. traversal is "bfs" or "priority"; a budget_ms
    requires priority.

    A budgeted run (mode="relative", traversal="priority", a budget_ms)
    splits the box with the largest certified bound first. epsilon then
    only retires boxes that are already certified; the meaningful output
    is the pair (rho, residual_upper) and the guaranteed relative error,
    whatever they are when the budget runs out. A large enough budget
    drains the queue and reproduces the unbudgeted result.
    """

    epsilon: float = 0.1
    mode: str = "absolute"  # or "relative"
    bound_kind: BoundKind = BoundKind.LOCAL_LINEAR
    homology_dim: int = 0
    traversal: str = "bfs"  # or "priority"
    budget_ms: Optional[float] = None

    def validate(self) -> None:
        if not (0.0 < self.epsilon < INF):
            raise InvalidConfig("epsilon must be positive and finite")
        if self.mode not in ("absolute", "relative"):
            raise InvalidConfig(f"unknown mode {self.mode!r}")
        if not isinstance(self.bound_kind, BoundKind):
            raise InvalidConfig(f"bound_kind {self.bound_kind!r} is not a BoundKind")
        if self.traversal not in ("bfs", "priority"):
            raise InvalidConfig(f"unknown traversal {self.traversal!r}")
        if self.budget_ms is not None:
            if self.traversal != "priority":
                raise InvalidConfig("a budget requires priority traversal")
            # inf means no budget; nan is not a budget
            if not (self.budget_ms >= 0):
                raise InvalidConfig("budget must be non-negative")
        try:
            homology_dim(self.homology_dim)
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from None


def _rel_error(rho: float, upper: float) -> float:
    """(upper - rho) / rho, or 0.0 when the bracket is exact (even at 0, inf)."""
    if upper == rho:
        return 0.0
    return INF if rho == 0.0 else (upper - rho) / rho


def _threshold(rho: float, cfg: SolverConfig) -> float:
    """The pruning threshold at rho: rho + eps in absolute mode. In
    relative mode it is the largest float t <= (1 + eps) * rho, taken
    exactly, whose _rel_error(rho, t) is at most eps, so rounding never
    reports a converged run above its epsilon."""
    eps = cfg.epsilon
    if cfg.mode == "absolute":
        return rho + eps
    if rho == 0.0 or rho == INF:
        return rho
    exact = (1 + Fraction(eps)) * Fraction(rho)
    t = float(min(exact, Fraction(sys.float_info.max)))
    while Fraction(t) > exact or _rel_error(rho, t) > eps:
        t = math.nextafter(t, 0.0)
    return t


@dataclass(frozen=True)
class TraceRow:
    call: int
    elapsed_ms: float
    rho: float
    upper: float
    box: ParamBox

    @property
    def rel_error(self) -> float:
        """Guaranteed relative error (upper - rho) / rho after this call."""
        return _rel_error(self.rho, self.upper)


@dataclass
class ApproxResult:
    """The record of a solver run, filled in while it runs.

    trace holds one row per evaluation, in call order; retired_boxes and
    unresolved_boxes hold every box the run disposed of, with its certified
    bound. rho is the largest evaluated distance and best_slice the
    evaluated slice that attained it. The bracket, counts and depths below
    are read off this record.
    """

    epsilon: float
    mode: str
    bound_kind: BoundKind
    rho: float = 0.0
    best_slice: Optional[Slice] = None
    elapsed_ms: float = 0.0
    trace: list[TraceRow] = field(default_factory=list)
    retired_boxes: list[tuple[ParamBox, float]] = field(default_factory=list)
    unresolved_boxes: list[tuple[ParamBox, float]] = field(default_factory=list)

    @property
    def calls(self) -> int:
        """Slice evaluations, one per trace row."""
        return len(self.trace)

    @property
    def deepest_evaluated_level(self) -> int:
        return max((r.box.level for r in self.trace), default=0)

    @property
    def deepest_level(self) -> int:
        """Deepest level of any box the run made. Every child of a split
        is either evaluated or retired unevaluated by its pre-bound, so no
        box is deeper than those in the trace and the retired boxes."""
        return max(self.deepest_evaluated_level,
                   max((b.level for b, _ in self.retired_boxes), default=0))

    @property
    def not_converged(self) -> bool:
        """A budget, a stall or the level cap left boxes open."""
        return bool(self.unresolved_boxes)

    @property
    def residual_upper(self) -> float:
        """Upper bound on the true matching distance: the final threshold,
        or the largest bound of an unresolved box above it."""
        return max([_threshold(self.rho, self), *(e for _, e in self.unresolved_boxes)])

    @property
    def delta(self) -> float:
        """The returned approximation: rho for a converged absolute run,
        else residual_upper, which is (1 + eps) * rho rounded down for a
        converged relative run."""
        if self.mode == "absolute" and not self.not_converged:
            return self.rho
        return self.residual_upper

    @property
    def rel_error(self) -> float:
        """Guaranteed relative error (residual_upper - rho) / rho."""
        return _rel_error(self.rho, self.residual_upper)


class _MaxTracker:
    """Maximum of a float multiset with lazy deletion."""

    def __init__(self):
        self._heap: list[float] = []
        self._counts: dict[float, int] = {}

    def add(self, v: float) -> None:
        heapq.heappush(self._heap, -v)
        self._counts[v] = self._counts.get(v, 0) + 1

    def remove(self, v: float) -> None:
        self._counts[v] -= 1

    def max(self) -> float:
        while self._heap and self._counts.get(-self._heap[0], 0) == 0:
            v = -heapq.heappop(self._heap)
            self._counts.pop(v, None)
        return -self._heap[0] if self._heap else -INF


def approximate(
    F1: BiFiltration, F2: BiFiltration, cfg: SolverConfig | None = None
) -> ApproxResult:
    """Approximate the matching distance of two normalized bi-filtrations.

    Absolute mode returns delta with dmatch - eps <= delta <= dmatch;
    relative mode returns delta with dmatch <= delta <= (1 + eps) * dmatch
    whenever it converges. Non-convergence (budget or level caps, or a
    relative run whose lower bound stays zero) is reported on the result,
    which then carries the honest residual upper bound as delta.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    res = ApproxResult(cfg.epsilon, cfg.mode, cfg.bound_kind)
    trace, retired, unresolved = res.trace, res.retired_boxes, res.unresolved_boxes
    by_bound = cfg.traversal == "priority"
    prebound = cfg.bound_kind is BoundKind.LOCAL_LINEAR
    # entries are (key, seq, box, eff, refs) with refs the records of the
    # center slices of the box and its nearest evaluated ancestors, the
    # box's own first; bfs keys every entry 0.0, so the rising seq alone
    # orders the heap and it pops first in, first out
    heap: list[tuple[float, int, ParamBox, float, _Refs]] = []
    # rho changes only on a new maximum, so the threshold is kept with it
    threshold = _threshold(0.0, cfg)
    cover = _MaxTracker()
    t0 = time.perf_counter()

    def elapsed_ms() -> float:
        return (time.perf_counter() - t0) * 1000.0

    def push(box: ParamBox, inherited: float, in_flight: float, ancestors: _Refs,
             rise_fall: RiseFall) -> None:
        nonlocal threshold
        L = center(box)
        ref = eval_reference(F1, F2, L, cfg.homology_dim)
        if ref.d > res.rho or res.best_slice is None:
            res.rho, res.best_slice = ref.d, L
            threshold = _threshold(ref.d, cfg)
        # in_flight covers this box and its unqueued siblings
        call = len(trace) + 1
        trace.append(TraceRow(call, elapsed_ms(), res.rho,
                              max(threshold, cover.max(), in_flight), box))
        eff = min(capped_bound(ref, *rise_fall), inherited)
        refs = (ref,) + ancestors[: REFERENCES - 1]
        # each push makes exactly one evaluation, so call is a rising seq
        heapq.heappush(heap, (-eff if by_bound else 0.0, call, box, eff, refs))
        cover.add(eff)

    for b in initial_boxes(F1, F2):
        [rise_fall] = box_bound(cfg.bound_kind, F1, F2, cfg.homology_dim, [b]).rise_fall
        push(b, INF, INF, (), rise_fall)

    while heap:
        if cfg.budget_ms is not None and elapsed_ms() >= cfg.budget_ms:
            break
        _, _, box, eff, refs = heapq.heappop(heap)
        # a box leaves the cover once retired or split; one left at the
        # level cap stays in every later row's upper
        if eff <= threshold:
            cover.remove(eff)
            retired.append((box, eff))
        elif cfg.mode == "relative" and res.rho == 0.0 and box.level >= ZERO_STALL_LEVEL:
            # the relative rule compares against (1 + eps) * rho = 0 while
            # rho is exactly zero, so no box would ever be pruned
            unresolved.append((box, eff))
            break
        elif box.level >= MAX_LEVEL:
            unresolved.append((box, eff))
        else:
            cover.remove(eff)
            children = subdivide(box)
            pre, rise_fall = box_bound(cfg.bound_kind, F1, F2, cfg.homology_dim, children, refs)
            bounds = [min(p, eff) for p in pre]
            for i, child in enumerate(children):
                if prebound and bounds[i] <= threshold:
                    retired.append((child, bounds[i]))
                else:
                    push(child, bounds[i], max(bounds[i:]), refs, rise_fall[i])
    if heap:
        # stopped by the budget or a stall: every queued box stays open
        unresolved.extend((b, e) for _, _, b, e, _ in heap)
    res.elapsed_ms = elapsed_ms()
    return res


def reduction_rate(result: ApproxResult) -> float:
    """Fraction of the level-k brute force avoided: 1 - calls / 4**(k+1)
    with k the deepest level actually evaluated. The brute force evaluates
    every center of the 4 * 4**k level-k boxes, as heatmap --depth k does.
    Runs that stop at different depths are compared with different grids,
    so a run with fewer calls can read lower: compare their `calls`."""
    return 1.0 - result.calls / math.pow(4.0, result.deepest_evaluated_level + 1)
