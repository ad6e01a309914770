"""Conditional interval measures and capacity-based conditioning rules.

Four conditioning notions appear here, all exact:

* ``conditional_interval`` — the interval measure of ``A`` given ``H``
  under a probability measure and uncertainty degree.  At ``r = 1`` it
  collapses to ordinary conditional probabilities given the event
  "everything except the weak complement of H".
* ``ds_conditional`` — the Dempster–Shafer update of a capacity, which
  renormalizes after transferring the complement's weight.
* ``ds_conditional_weak`` — the same rule with the ordinary complement
  replaced by the weak complement; for an additive capacity it lands
  exactly on the left endpoint of ``conditional_interval`` at ``r = 1``.
* ``capacity_conditional`` / ``capacity_conditional_prime`` — graded
  capacity conditionals built from two level-grid functionals.  These
  generalize the first notion to capacities, but the construction is
  tentative (a partial definition, not a settled theory), so results
  carry flags instead of being bare intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .capacity import Capacity, _grid_integral, is_superadditive
from .errors import PreconditionError
from .measure import (
    ONE,
    Interval,
    ProbabilityMeasure,
    UncertaintyDegree,
    _masked_sum,
)
from .space import PAIR_LIMIT, Event, check_space, indecisive_set, weak_complement

__all__ = [
    "conditional_interval",
    "ds_conditional",
    "ds_conditional_weak",
    "effective_weight",
    "uncertainty_weight",
    "ConditionalOutcome",
    "capacity_conditional",
    "capacity_conditional_prime",
]


def conditional_interval(
    p: ProbabilityMeasure,
    r: UncertaintyDegree,
    a: Event,
    h: Event,
    *,
    allow_null_conditioning: bool = False,
) -> Interval:
    """The interval measure of ``a`` conditioned on ``h``.

    With ``d = P(H) + E[r * 1_{H_ind}]`` the endpoints are::

        lo = (P(A ∩ H) + E[r * 1_{A ∩ H_ind}]) / d
        hi = E[(1_A + r * 1_{A_ind}) * (1_H + r * 1_{H_ind})] / d

    Both factors in the ``hi`` integrand are at most 1 pointwise, so
    ``lo <= hi <= 1`` always holds.  At ``r = 1`` this equals the pair
    of ordinary conditional probabilities
    ``[P(A | (H_w^c)^c), P((A_w^c)^c | (H_w^c)^c)]``.

    By default conditioning requires ``P(H) > 0``.  Passing
    ``allow_null_conditioning=True`` relaxes this to the weaker
    requirement that the denominator ``d`` is positive, which can hold
    with ``P(H) = 0`` when the indecisive part carries graded mass.
    """
    space = h.space
    check_space(space, p, r, a)
    h_ind = indecisive_set(space, h).mask
    a_ind = indecisive_set(space, a).mask
    mass, degree = p.values, r.values
    p_h = _masked_sum(h.mask, mass)
    if not allow_null_conditioning and p_h == 0:
        raise PreconditionError("conditioning event has probability zero", witness=h)
    denom = p_h + _masked_sum(h_ind, mass, degree)
    if denom == 0:
        raise PreconditionError(
            "conditioning denominator is zero even with graded uncertainty",
            witness=h,
        )
    # The hi integrand is 1 on A ∩ H, r on A ∩ H_ind and on A_ind ∩ H,
    # r² on A_ind ∩ H_ind and 0 elsewhere.
    lo_num = _masked_sum(a.mask & h.mask, mass) + _masked_sum(a.mask & h_ind, mass, degree)
    hi_num = lo_num + _masked_sum(a_ind & h.mask, mass, degree)
    hi_num += _masked_sum(a_ind & h_ind, mass, degree, degree)
    return Interval(lo_num / denom, hi_num / denom)


def ds_conditional(nu: Capacity, a: Event, h: Event) -> Fraction:
    """Dempster–Shafer conditional ``(nu((A∩H) ∪ H^c) - nu(H^c)) / (1 - nu(H^c))``.

    Requires ``nu(H^c) != 1``.  For an additive capacity this is the
    ordinary Bayes ratio ``P(A ∩ H) / P(H)``; for non-additive
    capacities it genuinely differs from Bayesian updating.
    """
    refusal = "Dempster-Shafer conditioning undefined: complement has capacity 1"
    return _ds_update(nu, a, h, h.complement().mask, refusal)  # (A∩H) ∪ H^c = A ∪ H^c


def ds_conditional_weak(nu: Capacity, a: Event, h: Event) -> Fraction:
    """Dempster–Shafer conditioning with the weak complement.

    ``(nu(A ∪ H_w^c) - nu(H_w^c)) / (1 - nu(H_w^c))``, defined whenever
    ``nu(H_w^c) != 1``.  When ``nu`` is the additive capacity of a
    measure ``P`` this equals the left endpoint of
    ``conditional_interval(P, 1, A, H)``.
    """
    refusal = "weak Dempster-Shafer conditioning undefined: weak complement has capacity 1"
    return _ds_update(nu, a, h, weak_complement(nu.space, h).mask, refusal)


def _ds_update(nu: Capacity, a: Event, h: Event, c: int, refusal: str) -> Fraction:
    """``(nu(A ∪ C) - nu(C)) / (1 - nu(C))`` for the complement mask ``c`` of ``h``."""
    check_space(nu.space, a, h)
    base = nu.of_mask(c)
    if base == 1:
        raise PreconditionError(refusal, witness=h)
    return (nu.of_mask(a.mask | c) - base) / (ONE - base)


def effective_weight(
    nu: Capacity, r: UncertaintyDegree, h: Event, b: Event
) -> Fraction:
    """The level-grid functional ``I(B) = ∫ nu(B ∩ (H ∪ (H_ind ∩ {r >= t}))) dt``.

    Weights ``B`` through the conditioning core ``H`` plus the part of
    the indecisive fringe still active at grade ``t``.  Monotone in
    ``B``; ``I(Omega)`` is at least ``nu(H)``.  The active fringe
    ``S = H_ind ∩ {r >= t}`` lies inside ``H_ind``, so
    ``B ∩ (H ∪ S) = (B ∩ H) ∪ ((B ∩ H_ind) ∩ {r >= t})``: ``I`` is the one
    level-grid integral with support ``B ∩ H_ind`` and base ``B ∩ H``.
    """
    check_space(nu.space, r, h, b)
    h_ind = indecisive_set(nu.space, h).mask
    return _grid_integral(nu, r.values, b.mask & h_ind, b.mask & h.mask)


def uncertainty_weight(
    nu: Capacity, r: UncertaintyDegree, h: Event, b: Event
) -> Fraction:
    """The level-grid functional ``J(B) = ∫ nu(B ∩ (H ∪ H_ind) ∩ {r >= t}) dt``.

    Unlike :func:`effective_weight`, the grade cut applies to the whole
    argument, so ``J(B) <= I(B)`` for every monotone capacity.
    """
    check_space(nu.space, r, h, b)
    h_ind = indecisive_set(nu.space, h).mask
    return _grid_integral(nu, r.values, b.mask & (h.mask | h_ind))


@dataclass(frozen=True)
class ConditionalOutcome:
    """A graded capacity conditional together with its qualifier flags.

    ``interval`` is the (possibly clamped) result.  ``clamped`` records
    whether the raw right endpoint exceeded 1.  ``superadditive`` is the
    sweep verdict on the capacity, or ``None`` when the universe is too
    large to sweep.  ``tentative`` is always true: this construction is
    a partial definition whose outputs should be treated as provisional.
    """

    interval: Interval
    clamped: bool
    superadditive: bool | None
    tentative: bool = True


def _graded_core(
    nu: Capacity, r: UncertaintyDegree, a: Event, h: Event
) -> tuple[bool | None, int, int, Fraction, Fraction]:
    """The super-additivity flag, ``H_ind``, ``A_ind``, ``I(Omega)`` and ``I(A)`` of both rules."""
    space = nu.space
    check_space(space, r, a, h)
    if nu.of_mask(h.mask) == 0:
        raise PreconditionError("graded conditioning requires nu(H) > 0", witness=h)
    flag = is_superadditive(nu).superadditive if space.omega_size <= PAIR_LIMIT else None
    h_ind = indecisive_set(space, h).mask
    total = _grid_integral(nu, r.values, h_ind, h.mask)  # B = Omega
    weight_a = _grid_integral(nu, r.values, a.mask & h_ind, a.mask & h.mask)
    return flag, h_ind, indecisive_set(space, a).mask, total, weight_a


def capacity_conditional(
    nu: Capacity, r: UncertaintyDegree, a: Event, h: Event
) -> ConditionalOutcome:
    """Graded conditional ``[I(A)/I(Omega), (I(A) + J(A_ind))/I(Omega)]``.

    ``I`` and ``J`` are :func:`effective_weight` and
    :func:`uncertainty_weight` for the pair ``(nu, r, h)``.  Requires
    ``nu(H) > 0`` (which makes ``I(Omega) >= nu(H)`` positive).  A
    non-super-additive capacity is accepted but flagged, since the
    containment properties of this construction are only guaranteed in
    the super-additive case.  The raw right endpoint can exceed 1; it
    is clamped and the clamp recorded on the outcome.
    """
    super_flag, h_ind, a_ind, total, weight_a = _graded_core(nu, r, a, h)
    raw_hi = (weight_a + _grid_integral(nu, r.values, a_ind & (h.mask | h_ind))) / total
    clamped = raw_hi > 1
    return ConditionalOutcome(
        interval=Interval(weight_a / total, ONE if clamped else raw_hi),
        clamped=clamped,
        superadditive=super_flag,
    )


def capacity_conditional_prime(
    nu: Capacity, r: UncertaintyDegree, a: Event, h: Event
) -> ConditionalOutcome:
    """Widened graded conditional ``[I(A)/I(Omega), I(A ∪ A_ind)/I(Omega)]``.

    The right endpoint evaluates ``I`` on the complement of the weak
    complement of ``A`` (that is, ``A ∪ A_ind``), so it never exceeds
    ``I(Omega)`` and the outcome is never clamped.
    """
    super_flag, h_ind, a_ind, total, weight_a = _graded_core(nu, r, a, h)
    widened = a.mask | a_ind
    hi = _grid_integral(nu, r.values, widened & h_ind, widened & h.mask) / total
    return ConditionalOutcome(
        interval=Interval(weight_a / total, hi),
        clamped=False,
        superadditive=super_flag,
    )
