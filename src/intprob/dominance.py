"""Interval distribution functions and interval stochastic dominance.

The interval distribution function of a variable ``X`` under an
interval measure is the piecewise-constant map ``t -> Q_r({X <= t})``.
It changes value only at attained values of ``X``, so it is stored as a
breakpoint table (:class:`IntervalCDF`).

``X`` stochastically dominates ``Y`` when, at every ``t``, the left
endpoint of ``X``'s distribution stays below that of ``Y`` and the
width of ``Y``'s interval stays below that of ``X``'s.  Both functions
are constant between the merged breakpoints, so checking every segment
of the merged grid decides the predicate exactly.

For distribution functions built from capacity intervals the width
inequality is where the theory frays: :func:`find_width_caveat`
searches capacities and pointwise-ordered variable pairs for a ``t``
where the dominated variable's interval is *wider*.  With the clamped
capacity interval this can never happen (its widths are anti-monotone
under event inclusion for every monotone capacity, and sublevel events
of pointwise-ordered variables are nested).  With the absorbed variant
(``capacity_interval_prime``) distortion capacities still cannot
produce a witness when the distortion is concave — the width is a
concave increment ``g(P(H) + L) - g(P(H))``, which shrinks as the base
grows and the length shrinks — but general sub-additive capacity
tables can, and the search finds such witnesses.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .capacity import Capacity, capacity_interval, capacity_interval_prime
from .errors import ConstraintError, clipped
from .measure import (
    ONE,
    ZERO,
    Interval,
    ProbabilityMeasure,
    RandomVariable,
    RationalLike,
    UncertaintyDegree,
    _sublevels,
    as_rational,
    check_order,
    interval_measure,
)
from .space import Event, check_space

__all__ = [
    "IntervalCDF",
    "interval_cdf",
    "capacity_interval_cdf",
    "ClosedFormComparison",
    "stratified_cdf_closed_form",
    "DominanceVerdict",
    "dominates",
    "CaveatWitness",
    "find_width_caveat",
]


@dataclass(frozen=True)
class IntervalCDF:
    """A piecewise-constant interval distribution function.

    ``breakpoints`` are the attained values of the variable, strictly
    increasing.  ``segments`` has one interval per region:
    ``segments[0]`` holds below the first breakpoint and
    ``segments[i]`` holds on ``[breakpoints[i-1], breakpoints[i])``
    (taking the final region as unbounded).  The left endpoints are
    nondecreasing and the terminal segment is exactly [1, 1].
    """

    breakpoints: tuple[Fraction, ...]
    segments: tuple[Interval, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        object.__setattr__(self, "segments", tuple(self.segments))
        if len(self.segments) != len(self.breakpoints) + 1:
            raise ConstraintError(
                "need exactly one segment per region between breakpoints "
                f"plus the leading region: {len(self.breakpoints)} breakpoints, "
                f"{len(self.segments)} segments"
            )
        if not self.breakpoints:
            raise ConstraintError("a distribution needs at least one breakpoint")
        check_order("breakpoints", self.breakpoints, strict=True)
        check_order("distribution left endpoints", [s.lo for s in self.segments])
        if self.segments[-1] != Interval(ONE, ONE):
            raise ConstraintError(
                f"terminal segment must be [1, 1], got {self.segments[-1]}"
            )

    def at(self, t: RationalLike) -> Interval:
        """The interval holding at ``t``."""
        return self.segments[bisect_right(self.breakpoints, as_rational(t))]

    def regions(self) -> tuple[tuple[str, Interval], ...]:
        """Human-readable (region, interval) rows, in order."""
        rows = [(f"t < {self.breakpoints[0]}", self.segments[0])]
        for i, start in enumerate(self.breakpoints):
            if i + 1 < len(self.breakpoints):
                label = f"{start} <= t < {self.breakpoints[i + 1]}"
            else:
                label = f"t >= {start}"
            rows.append((label, self.segments[i + 1]))
        return tuple(rows)


def _build_cdf(
    x: RandomVariable, event_interval: Callable[[Event], Interval]
) -> IntervalCDF:
    levels = dict(_sublevels(x.columns, x.space.full_mask))
    segments = [event_interval(Event(x.space, mask)) for mask in (0, *levels.values())]
    return IntervalCDF(tuple(levels), tuple(segments))


def interval_cdf(
    p: ProbabilityMeasure, r: UncertaintyDegree, x: RandomVariable
) -> IntervalCDF:
    """Distribution function ``t -> Q_r({X <= t})`` under the interval measure.

    Below every attained value the event is empty, so the leading
    segment is ``Q_r({}) = [0, E[r]]``; at and beyond the maximum the
    event is the universe, giving [1, 1].
    """
    check_space(x.space, p, r)
    return _build_cdf(x, lambda event: interval_measure(p, r, event))


def capacity_interval_cdf(
    nu: Capacity,
    r: UncertaintyDegree,
    x: RandomVariable,
    *,
    prime: bool = False,
) -> IntervalCDF:
    """Distribution function under a capacity interval measure.

    With ``prime=False`` each segment is ``capacity_interval`` of the
    sublevel event; with ``prime=True`` it is
    ``capacity_interval_prime``.
    """
    check_space(x.space, nu, r)
    rule = capacity_interval_prime if prime else capacity_interval
    return _build_cdf(x, lambda event: rule(nu, r, event))


@dataclass(frozen=True)
class ClosedFormComparison:
    """A closed-form distribution value next to the directly computed one.

    ``closed_lo`` / ``closed_hi`` are the raw closed-form endpoints; no
    interval invariant is imposed on them, because on some inputs the
    closed form dips below the direct value far enough to invert the
    endpoints.  ``direct`` is the interval measure of the sublevel
    event, which is the normative value.  Disagreements are data, not
    errors: they are surfaced through :attr:`matches`.
    """

    t: Fraction
    closed_lo: Fraction
    closed_hi: Fraction
    direct: Interval

    @property
    def matches(self) -> bool:
        return self.closed_lo == self.direct.lo and self.closed_hi == self.direct.hi

    @property
    def closed_is_interval(self) -> bool:
        """Whether the closed-form endpoints even form a valid interval."""
        return ZERO <= self.closed_lo <= self.closed_hi <= ONE


def stratified_cdf_closed_form(
    p: ProbabilityMeasure,
    t_values: Sequence[RationalLike],
    y: RandomVariable,
    t: RationalLike,
    *,
    floor: RationalLike | None = None,
) -> ClosedFormComparison:
    """Closed-form candidate for the r=1 distribution of a stratified variable.

    The setting: one threshold ``t_j`` per incompatibility class, in
    nondecreasing order, and a variable ``y`` whose values on class
    ``j`` lie in ``(t_{j-1}, t_j]`` (the first class is bounded below
    by ``floor``, unbounded when ``floor`` is omitted).  The closed
    form proposes::

        [P(Y <= t), 1 - P(Z_{i*}) * delta_t]

    where ``i*`` is the class whose stratum contains ``t`` and
    ``delta_t`` is 1 exactly when some value of ``y`` lies strictly
    between ``t_{i*-1}`` and ``t``.  For ``t`` at or above the last
    threshold every class is absorbed and the closed form is [1, 1].

    The direct value ``Q_1({Y <= t})`` is computed alongside and
    returned in the same record: whenever class ``i*`` is only
    partially absorbed the closed form can disagree with the direct
    value, so callers get both and the comparison, never a silent
    reconciliation.
    """
    space = p.space
    check_space(space, y)
    classes = space.z_classes
    thresholds = [as_rational(v) for v in t_values]
    if len(thresholds) != len(classes):
        raise ConstraintError(
            f"need one threshold per incompatibility class "
            f"({len(classes)}), got {len(thresholds)}"
        )
    check_order("thresholds", thresholds)
    lower_bound = None if floor is None else as_rational(floor)
    for j, z in enumerate(classes):
        lower = thresholds[j - 1] if j else lower_bound
        for i in z:
            v = y.values[i]
            if v > thresholds[j] or (lower is not None and v <= lower):
                raise ConstraintError(
                    f"value {clipped(v)} of class {j + 1} outside its stratum "
                    f"({'-inf' if lower is None else clipped(lower)}, {clipped(thresholds[j])}]",
                    witness=(space.eventuality_name(i), clipped(v)),
                )

    point = as_rational(t)
    ones = UncertaintyDegree.ones(space)
    direct = interval_measure(p, ones, y.sublevel(point))

    i_star = next((j for j, tj in enumerate(thresholds) if point < tj), None)
    if i_star is None:
        return ClosedFormComparison(point, ONE, ONE, direct)
    lower_star = thresholds[i_star - 1] if i_star else lower_bound
    delta = any(
        (lower_star is None or v > lower_star) and v < point for v in y.values
    )
    closed_hi = ONE - p(classes[i_star]) if delta else ONE
    return ClosedFormComparison(point, direct.lo, closed_hi, direct)


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of the dominance check, with a witness on failure.

    ``witness_t`` is the start of the merged-grid region where
    ``failed_inequality`` (``"left-endpoint"`` or ``"width"``) breaks;
    the violation holds from there to the next merged breakpoint.
    """

    dominates: bool
    witness_t: Fraction | None = None
    failed_inequality: str | None = None


def _merged_grid(cdf_x: IntervalCDF, cdf_y: IntervalCDF) -> list[Fraction]:
    values = sorted({*cdf_x.breakpoints, *cdf_y.breakpoints})
    return [values[0] - 1, *values]


def dominates(
    p: ProbabilityMeasure,
    r: UncertaintyDegree,
    x: RandomVariable,
    y: RandomVariable,
) -> DominanceVerdict:
    """Decide whether ``x`` stochastically dominates ``y`` under ``Q_r``.

    Writing ``F`` and ``G`` for the distribution functions of ``x`` and
    ``y``, dominance demands ``lo(F(t)) <= lo(G(t))`` and
    ``width(G(t)) <= width(F(t))`` for every ``t`` — both non-strict,
    with no strictness-at-some-point clause, so equal variables
    dominate each other.  Both distribution functions are constant
    between merged breakpoints, so the sweep over the merged grid (plus
    one point below the minimum) is exhaustive.
    """
    check_space(x.space, p, r, y)
    cdf_x = interval_cdf(p, r, x)
    cdf_y = interval_cdf(p, r, y)
    for t in _merged_grid(cdf_x, cdf_y):
        f = cdf_x.at(t)
        g = cdf_y.at(t)
        if f.lo > g.lo:
            return DominanceVerdict(False, t, "left-endpoint")
        if g.width > f.width:
            return DominanceVerdict(False, t, "width")
    return DominanceVerdict(True)


@dataclass(frozen=True)
class CaveatWitness:
    """A found violation of the dominance width inequality.

    For the recorded capacity and variable pair (with ``x >= y``
    pointwise), at ``t`` the dominated variable's distribution interval
    is wider: ``width_g > width_f``.
    """

    capacity_index: int
    pair_index: int
    t: Fraction
    width_f: Fraction
    width_g: Fraction


def find_width_caveat(
    capacities: Sequence[Capacity],
    variable_pairs: Sequence[tuple[RandomVariable, RandomVariable]],
    r: UncertaintyDegree | None = None,
    *,
    prime: bool = True,
) -> CaveatWitness | None:
    """Search for a width violation under capacity-interval distributions.

    Scans every capacity against every pair ``(x, y)`` with ``x >= y``
    pointwise (pairs not pointwise ordered are skipped), builds both
    distribution functions under ``capacity_interval_prime`` (or
    ``capacity_interval`` with ``prime=False``), and returns the first
    grid point where ``y``'s interval is strictly wider than ``x``'s
    — the inequality that interval dominance would need.  Returns
    ``None`` when the whole search space is clean; see the module
    docstring for which families provably can never yield a witness.
    """
    for ci, nu in enumerate(capacities):
        degree = r if r is not None else UncertaintyDegree.ones(nu.space)
        for pi, (x, y) in enumerate(variable_pairs):
            if any(xv < yv for xv, yv in zip(x.values, y.values)):
                continue
            cdf_x = capacity_interval_cdf(nu, degree, x, prime=prime)
            cdf_y = capacity_interval_cdf(nu, degree, y, prime=prime)
            for t in _merged_grid(cdf_x, cdf_y):
                wf = cdf_x.at(t).width
                wg = cdf_y.at(t).width
                if wg > wf:
                    return CaveatWitness(ci, pi, t, wf, wg)
    return None
