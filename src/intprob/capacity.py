"""Monotone capacities, Choquet integration, and capacity interval measures.

A capacity generalizes a probability measure: it is any set function
with ``nu({}) = 0``, ``nu(Omega) = 1`` that is monotone under set
inclusion — additivity is not required.  Capacities here are explicit
tables with one exact rational per subset of a small space, so every
Choquet integral is a finite exact sum over the integrand's level grid.

Two interval measures are derived from a capacity ``nu`` and an
uncertainty degree ``r``:

* ``capacity_interval``:  ``[nu(H), nu(H) + ∫ nu(H_ind ∩ {r >= t}) dt]``
  intersected with [0, 1];
* ``capacity_interval_prime``:  ``[nu(H), ∫ nu(H ∪ (H_ind ∩ {r >= t})) dt]``,
  which absorbs the graded indecisive part into the capacity's argument.

For super-additive ``nu`` the first is always contained in the second.

Every level-grid functional here and in ``conditioning.py`` is one
integral ``∫_0^1 nu(base ∪ (support ∩ {r >= t})) dt`` over two masks::

    functional                  support            base
    choquet                     Omega              {}
    capacity_interval           H_ind              {}
    capacity_interval_prime     H_ind              H
    I(B)  (effective_weight)    B ∩ H_ind          B ∩ H
    J(B)  (uncertainty_weight)  B ∩ (H ∪ H_ind)    {}
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .errors import ConstraintError, PreconditionError, clipped
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
    check_ends,
    check_mass,
    check_order,
    check_unit,
)
from .space import (
    DIGIT_LIMIT,
    PAIR_LIMIT,
    TABLE_LIMIT,
    TOO_LONG,
    Event,
    Space,
    check_size,
    check_space,
    disjoint_pairs,
    indecisive_set,
    lattice_edges,
)

__all__ = [
    "Capacity",
    "capacity_from_table",
    "belief_from_mass",
    "distort",
    "power_distortion",
    "PiecewiseLinear",
    "choquet",
    "capacity_interval",
    "capacity_interval_prime",
    "AdditivityProfile",
    "is_superadditive",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Capacity:
    """A monotone set function as an explicit subset table.

    ``table[mask]`` is the value on the event with that bitmask.  Use
    :func:`capacity_from_table`, :func:`belief_from_mass`, or
    :func:`distort` to build validated instances.  Equality is object
    identity, which lets expensive per-capacity analyses be cached.
    """

    space: Space
    table: tuple[Fraction, ...]

    def __call__(self, event: Event) -> Fraction:
        check_space(self.space, event)
        return self.of_mask(event.mask)

    def of_mask(self, mask: int) -> Fraction:
        """The value on the event with bitmask ``mask``: every kernel read goes here."""
        return self.table[mask]

    def is_additive(self) -> bool:
        """True when the table is a probability measure's subset sums."""
        singles = [self.table[1 << i] for i in range(self.space.omega_size)]
        return list(self.table) == _subset_sums(singles)


def _subset_sums(values: Sequence[Fraction]) -> list[Fraction]:
    """``sums[mask]``: the sum of ``values`` over the points of ``mask``."""
    sums = [ZERO] * (1 << len(values))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


def capacity_from_table(space: Space, table: Sequence[RationalLike]) -> Capacity:
    """Validate and wrap an explicit subset table.

    Checks the boundary values and monotonicity over every single-element
    extension (which implies monotonicity for all nested pairs).  A
    violation is rejected with the offending pair as witness.
    """
    check_size("capacity_from_table", space.omega_size, TABLE_LIMIT)
    n_events = 1 << space.omega_size
    values = tuple(as_rational(v) for v in table)
    if len(values) != n_events:
        raise ConstraintError(
            f"capacity table must have {n_events} entries, got {len(values)}"
        )
    check_ends("capacity on {} and Omega", values[0], values[-1])
    for mask, ext in lattice_edges(space.omega_size):
        if values[ext] < values[mask]:
            raise ConstraintError(
                "capacity not monotone",
                witness=(Event(space, mask), Event(space, ext)),
            )
    return Capacity(space, values)


def belief_from_mass(
    space: Space, m: Mapping[Event, RationalLike]
) -> Capacity:
    """Belief function of a mass assignment: ``nu(A) = sum of m(B) for B <= A``.

    ``m`` must assign nonnegative mass summing to 1 to events of
    ``space``, with no mass on the empty event.  The result is monotone
    and super-additive by construction.
    """
    check_size("belief_from_mass", space.omega_size, TABLE_LIMIT)
    focal: dict[int, Fraction] = {}
    for event, raw in m.items():
        if not isinstance(event, Event) or event.space != space:
            raise ConstraintError("mass assignment keys must be events of the space")
        focal[event.mask] = as_rational(raw)
    check_mass(list(focal.values()))
    if focal.get(0):
        raise ConstraintError("the empty event cannot carry mass", witness=clipped(focal[0]))
    table = [ZERO] * (1 << space.omega_size)
    for mask, w in focal.items():
        table[mask] = w
    # Zeta transform: once bits 0..b are done, table[A] sums the masses of
    # the subsets of A that agree with A on every higher bit.
    for b in range(space.omega_size):
        step = 1 << b
        for block in range(step, len(table), 2 * step):  # the masks with bit b set
            for mask in range(block, block + step):
                if table[mask ^ step]:
                    table[mask] += table[mask ^ step]
    return Capacity(space, tuple(table))


def power_distortion(exponent: int) -> Callable[[Fraction], Fraction]:
    """The map ``t -> t**exponent`` (convex for exponent >= 1).

    A power with a part that must exceed ``DIGIT_LIMIT`` digits is refused unbuilt.
    """
    if not isinstance(exponent, int) or exponent < 1:
        raise ConstraintError(f"exponent must be a positive integer, got {exponent!r}")

    def power(t: Fraction) -> Fraction:
        # A part of b bits is at least 2^(b-1); its power has exponent*(b-1) bits or more.
        bits = max(t.numerator.bit_length(), t.denominator.bit_length())
        if exponent * (bits - 1) >= TOO_LONG.bit_length():
            raise PreconditionError(
                f"({clipped(t)})**{exponent} needs more than {DIGIT_LIMIT} digits",
                witness=clipped(t),
            )
        return t**exponent

    return power


@dataclass(frozen=True)
class PiecewiseLinear:
    """A piecewise-linear map on [0, 1] through exact rational points.

    ``points`` must start at x = 0, end at x = 1, have strictly
    increasing x and nondecreasing y.  Evaluation interpolates exactly.
    """

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = tuple((as_rational(x), as_rational(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2 or pts[0][0] != 0 or pts[-1][0] != 1:
            raise ConstraintError("breakpoints must run from x=0 to x=1")
        check_order("breakpoint x-values", [x for x, _ in pts], strict=True)
        check_order("breakpoint y-values", [y for _, y in pts])

    def __call__(self, t: Fraction) -> Fraction:
        check_unit("argument", (t,))
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            if t <= x1:
                return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
        raise AssertionError("unreachable: t <= 1 is always inside a segment")


def distort(
    p: ProbabilityMeasure, g: Callable[[Fraction], Fraction]
) -> Capacity:
    """The distorted capacity ``nu(A) = g(P(A))``.

    ``g`` must fix 0 and 1 and be nondecreasing; this is verified on
    every probability value the measure actually attains (which is all
    the table ever evaluates), and a violation is rejected with the
    witnessing argument pair.  ``g`` must return exact rationals.
    """
    check_size("distort", p.space.omega_size, TABLE_LIMIT)
    probs = _subset_sums(p.values)

    def apply(t: Fraction) -> Fraction:
        out = g(t)
        if not isinstance(out, (Fraction, int)) or isinstance(out, bool):
            raise ConstraintError(
                f"distortion must return exact rationals, got {out!r}", witness=out
            )
        return Fraction(out)

    attained = sorted({ZERO, ONE, *probs})
    images = {t: apply(t) for t in attained}
    check_ends("distortion g(0) and g(1)", images[ZERO], images[ONE])
    for t0, t1 in zip(attained, attained[1:]):
        if images[t1] < images[t0]:
            raise ConstraintError(
                "distortion is not monotone",
                witness=tuple((clipped(t), clipped(images[t])) for t in (t0, t1)),
            )
    table = tuple(images[prob] for prob in probs)
    return Capacity(p.space, table)


def _grid_integral(nu: Capacity, values: Sequence[Fraction], support: int, base: int = 0) -> Fraction:
    """Exact ``∫_0^1 nu(base ∪ (support ∩ {values >= t})) dt``.

    The one integrand of every level-grid functional; the module docstring
    tables each one's two masks.  It is a step function of ``t``: it changes
    only at the distinct positive values attained on the support, where
    ``{values >= t}`` is the support minus the sublevel set of the value
    below ``t``.  The integral is the sum of stratum widths times the
    capacity on each stratum, plus the top stratum ``(1 - t_max) * nu(base)``.
    """
    total = prev = ZERO
    below = 0
    for t, upto in _sublevels(values, support):
        # Values lie in [0, 1], so a level at 0 adds a stratum of width 0.
        total += (t - prev) * nu.of_mask(base | (support & ~below))
        prev = t
        below = upto
    return total + (ONE - prev) * nu.of_mask(base)


def choquet(nu: Capacity, g: RandomVariable) -> Fraction:
    """Choquet integral ``∫_0^1 nu({g >= t}) dt`` for ``0 <= g <= 1``.

    Computed exactly on the level grid of ``g``.  For an additive
    capacity this is the ordinary expectation; for an indicator it is
    the capacity of the indicated event.
    """
    check_space(nu.space, g)
    check_unit("integrand value", g.values)
    return _grid_integral(nu, g.values, nu.space.full_mask)


def capacity_interval(
    nu: Capacity, r: UncertaintyDegree, h: Event
) -> Interval:
    """``[nu(H), nu(H) + ∫ nu(H_ind ∩ {r >= t}) dt]`` clamped to [0, 1].

    The integral is the Choquet integral of ``r * 1_{H_ind}``.  For an
    additive capacity this coincides with the measure-based interval.
    The clamp is part of the definition; if it fires (which needs a
    capacity inflating disjoint unions enough that the raw sum exceeds
    1) the event is logged.
    """
    check_space(nu.space, r, h)
    lo = nu.of_mask(h.mask)
    raw_hi = lo + _grid_integral(nu, r.values, indecisive_set(h.space, h).mask)
    if raw_hi > 1:
        logger.info("capacity interval right endpoint %s clamped to 1 for %r", raw_hi, h)
    return Interval(lo, min(raw_hi, ONE))


def capacity_interval_prime(
    nu: Capacity, r: UncertaintyDegree, h: Event
) -> Interval:
    """``[nu(H), ∫ nu(H ∪ (H_ind ∩ {r >= t})) dt]``.

    Strata of ``t`` where the graded indecisive part is exhausted
    contribute ``nu(H)`` (the base alone), so the right endpoint is
    always at least ``nu(H)``.  It never exceeds 1: every stratum value
    is at most 1 and the stratum widths sum to 1.
    Super-additivity is not demanded here — the map is defined for any
    capacity — but only super-additive capacities guarantee that
    ``capacity_interval`` is contained in this interval.
    """
    check_space(nu.space, r, h)
    ind_mask = indecisive_set(h.space, h).mask
    return Interval(nu.of_mask(h.mask), _grid_integral(nu, r.values, ind_mask, h.mask))


@dataclass(frozen=True)
class AdditivityProfile:
    """Result of the disjoint-pair sweep over a capacity.

    ``superadditive`` / ``subadditive`` state whether
    ``nu(A) + nu(B) <= nu(A | B)`` (resp. ``>=``) holds for every pair
    of disjoint nonempty events; each failed direction carries one
    witnessing pair.  An additive capacity satisfies both.
    """

    superadditive: bool
    superadditive_witness: tuple[Event, Event] | None
    subadditive: bool
    subadditive_witness: tuple[Event, Event] | None


@lru_cache(maxsize=16)  # bounded: each entry pins a whole capacity table
def is_superadditive(nu: Capacity) -> AdditivityProfile:
    """Classify a capacity by sweeping all disjoint pairs of events.

    The sweep touches 3^|Omega| pairs and is limited to universes of at
    most ``PAIR_LIMIT`` eventualities.  Results are cached per capacity
    object, for the 16 most recently used capacities.
    """
    size = nu.space.omega_size
    check_size("additivity sweep", size, PAIR_LIMIT)
    table = nu.table
    super_w: tuple[Event, Event] | None = None
    sub_w: tuple[Event, Event] | None = None
    for a, b in disjoint_pairs(size):
        lhs = table[a] + table[b]
        rhs = table[a | b]
        if lhs > rhs and super_w is None:
            super_w = (Event(nu.space, a), Event(nu.space, b))
        if lhs < rhs and sub_w is None:
            sub_w = (Event(nu.space, a), Event(nu.space, b))
        if super_w is not None and sub_w is not None:
            return AdditivityProfile(False, super_w, False, sub_w)
    return AdditivityProfile(super_w is None, super_w, sub_w is None, sub_w)
