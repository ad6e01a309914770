"""Exact probability measures, interval measures, and axiom validation.

Everything here is exact rational arithmetic (:class:`fractions.Fraction`);
no floating point enters any computation, so every identity the test
suite asserts is an equality of rationals, not an approximation.

The central object is the *interval measure* built from a probability
measure ``P`` and an uncertainty degree ``r``:

    Q_r(H) = [P(H), P(H) + E[r * 1_{H_ind}]]

whose width collects the mass of the indecisive part of ``H``, graded
by ``r``.  ``validate_imprecise`` checks the two axioms that make a map
``H -> [lo, hi]`` an imprecise probability in this setting: the left
endpoints form a probability measure, and widths shrink as events grow.

Sums over the points of an event run in integers.  Measures, degrees
and variables each cache their values once as two integer columns,
numerators and denominators.  A masked sum multiplies the columns point
by point and adds each numerator product into one integer accumulator
per distinct denominator product; only those accumulators become
``Fraction``s, added in pairs.  One common denominator for every term is avoided on
purpose: the lcm of many distinct denominators is huge (4096 odd primes
give one of about 37,800 bits), and every term would be scaled up to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import ConstraintError, clipped
from .space import (
    DIGIT_LIMIT,
    EDGE_LIMIT,
    PAIR_LIMIT,
    Event,
    Space,
    check_size,
    check_space,
    disjoint_pairs,
    indecisive_set,
    iter_bits,
    lattice_edges,
)

__all__ = [
    "Rational",
    "as_rational",
    "Interval",
    "ProbabilityMeasure",
    "RandomVariable",
    "UncertaintyDegree",
    "uncertainty_variable",
    "expectation",
    "interval_measure",
    "marginal_mass",
    "ValidationReport",
    "validate_imprecise",
]

#: Exact rational numbers.  The stdlib type already stores lowest terms
#: with a positive denominator and arbitrary-precision integers, which
#: is exactly the contract needed here.
Rational = Fraction

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def _literal_digits(text: str) -> int:
    """Upper bound on the digits of the numerator and denominator of ``text``.

    ``p/q`` needs the longer of ``p`` and ``q``; a decimal ``m.d e k``
    needs at most ``len(md) + |k| + 1``.
    """
    mantissa, e, exponent = text.lower().partition("e")
    shift = "".join(c for c in exponent if c.isdigit()).lstrip("0")
    if len(shift) > len(str(DIGIT_LIMIT)):
        return DIGIT_LIMIT + 1
    digits = max(sum(c.isdigit() for c in part) for part in mantissa.split("/"))
    return digits + int(shift or 0) + 1 if e or "." in mantissa else digits


def check_mass(masses: Sequence[Fraction]) -> None:
    """Refuse a mass assignment with a negative mass or a total other than 1."""
    for m in masses:
        if m < 0:
            raise ConstraintError(f"negative mass {clipped(m)}", witness=clipped(m))
    total = sum(masses)
    if total != 1:
        raise ConstraintError(
            f"masses must sum to exactly 1, got {clipped(total)}",
            witness=clipped(total),
        )


def check_unit(what: str, values: Iterable[Fraction]) -> None:
    """Refuse any of ``values`` outside [0, 1]; ``what`` names one value."""
    for v in values:
        if not (ZERO <= v <= ONE):
            raise ConstraintError(f"{what} {clipped(v)} outside [0, 1]", witness=clipped(v))


def check_order(what: str, values: Sequence[Fraction], *, strict: bool = False) -> None:
    """Refuse an adjacent pair of ``values`` that decreases, or with ``strict`` repeats."""
    for a, b in zip(values, values[1:]):
        if b < a or (strict and b == a):
            raise ConstraintError(
                f"{what} must {'strictly increase' if strict else 'not decrease'}",
                witness=(clipped(a), clipped(b)),
            )


def check_ends(what: str, first: Fraction, last: Fraction) -> None:
    """Refuse a map whose value ``first`` at its bottom is not 0 or ``last`` at its top not 1."""
    if first != 0 or last != 1:
        raise ConstraintError(
            f"{what} must be 0 and 1, got {clipped(first)} and {clipped(last)}",
            witness=(clipped(first), clipped(last)),
        )


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` (Fraction, int, or a string like ``"3/4"``) exactly.

    Floats are rejected: binary floats silently misrepresent decimal
    inputs, and this package promises exact results.  A string whose
    value would need more than :data:`DIGIT_LIMIT` digits is rejected
    before it is built, and error messages quote at most 40 characters
    of it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConstraintError(f"not a rational: {value!r}", witness=value)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = clipped(value)
        # Without an exponent a literal has no more digits than characters.
        suspect = len(value) > DIGIT_LIMIT or "e" in value or "E" in value
        if suspect and _literal_digits(value) > DIGIT_LIMIT:
            raise ConstraintError(
                f"rational {text!r} needs more than {DIGIT_LIMIT} digits",
                witness=text,
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConstraintError(
                f"cannot parse rational {text!r}", witness=text
            ) from exc
    raise ConstraintError(
        f"not an exact rational: {clipped(value)} (floats are rejected)", witness=value
    )


@dataclass(frozen=True)
class Interval:
    """A closed subinterval of [0, 1] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo = as_rational(self.lo)
        hi = as_rational(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not (ZERO <= lo <= hi <= ONE):
            raise ConstraintError(
                f"invalid interval [{clipped(lo)}, {clipped(hi)}]: need 0 <= lo <= hi <= 1",
                witness=(lo, hi),
            )

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def encloses(self, other: Interval) -> bool:
        """True when ``other`` is contained in ``self``."""
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        return f"[{clipped(self.lo)}, {clipped(self.hi)}]"

    def __repr__(self) -> str:
        return f"Interval({clipped(self.lo)}, {clipped(self.hi)})"


def _set_values(obj, what: str) -> tuple[Fraction, ...]:
    """Store ``obj.values`` as one exact rational per eventuality, and return them."""
    out = tuple(as_rational(v) for v in obj.values)
    if len(out) != obj.space.omega_size:
        raise ConstraintError(
            f"{what} needs one value per eventuality "
            f"({obj.space.omega_size}), got {len(out)}"
        )
    object.__setattr__(obj, "values", out)
    return out


def _values_from_map(
    space: Space, mapping: Mapping[str, RationalLike], default: Fraction
) -> tuple[Fraction, ...]:
    values = [default] * space.omega_size
    for name, raw in mapping.items():
        values[space.parse_eventuality(name)] = as_rational(raw)
    return tuple(values)


#: A value column as integers: each value's numerator, and its denominator.
Columns = tuple[tuple[int, ...], tuple[int, ...]]


def _columns(self) -> Columns:
    """``self.values`` as two integer columns, numerators and denominators."""
    return (
        tuple(v.numerator for v in self.values),
        tuple(v.denominator for v in self.values),
    )


def _masked_sum(mask: int, *columns: Columns) -> Fraction:
    """Exact sum over the points ``i`` of ``mask`` of ``columns[0][i] * columns[1][i] * ...``.

    Numerator products add into one integer per distinct denominator
    product, and only those sums become ``Fraction``s.
    """
    points = list(iter_bits(mask))
    num_col, den_col = columns[0]
    nums = map(num_col.__getitem__, points)
    dens = map(den_col.__getitem__, points)
    for num_col, den_col in columns[1:]:
        nums = map(mul, nums, map(num_col.__getitem__, points))
        dens = map(mul, dens, map(den_col.__getitem__, points))
    acc: dict[int, int] = {}
    get = acc.get
    for num, den in zip(nums, dens):
        acc[den] = get(den, 0) + num
    parts = list(map(Fraction, acc.values(), acc))
    # In pairs: each addition to one running total would cost that total's growing length.
    while len(parts) > 1:
        parts = [sum(parts[i + 1 : i + 2], parts[i]) for i in range(0, len(parts), 2)]
    return parts[0] if parts else ZERO


def _sublevels(columns: Columns, mask: int) -> Iterator[tuple[Fraction, int]]:
    """Each value ``t`` taken on ``mask``, ascending, with ``{i in mask : values[i] <= t}``."""
    nums, dens = columns
    groups: dict[tuple[int, int], list[int]] = {}  # one pass; only distinct values are sorted
    for i in iter_bits(mask):
        groups.setdefault((nums[i], dens[i]), []).append(i)
    levels = sorted((Fraction(*key), key) for key in groups)
    below = 0
    for t, key in levels:
        for i in groups[key]:
            below |= 1 << i
        yield t, below


@dataclass(frozen=True)
class ProbabilityMeasure:
    """A probability measure given by one exact mass per eventuality.

    Masses must be nonnegative and sum to exactly 1; no silent
    renormalization is ever performed.
    """

    space: Space
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        check_mass(_set_values(self, "a probability measure"))

    columns = cached_property(_columns)

    @classmethod
    def uniform(cls, space: Space) -> ProbabilityMeasure:
        share = Fraction(1, space.omega_size)
        return cls(space, (share,) * space.omega_size)

    @classmethod
    def from_map(
        cls, space: Space, mapping: Mapping[str, RationalLike]
    ) -> ProbabilityMeasure:
        """Build from an eventuality-name map; omitted entries get mass 0."""
        return cls(space, _values_from_map(space, mapping, ZERO))

    def __call__(self, event: Event) -> Fraction:
        """P(event)."""
        check_space(self.space, event)
        return _masked_sum(event.mask, self.columns)


@dataclass(frozen=True)
class RandomVariable:
    """A rational-valued variable given pointwise on a space."""

    space: Space
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _set_values(self, "a random variable")

    columns = cached_property(_columns)

    @classmethod
    def constant(cls, space: Space, value: RationalLike) -> RandomVariable:
        return cls(space, (as_rational(value),) * space.omega_size)

    @classmethod
    def indicator(cls, event: Event) -> RandomVariable:
        values = tuple(
            ONE if i in event else ZERO for i in range(event.space.omega_size)
        )
        return cls(event.space, values)

    @classmethod
    def from_map(
        cls,
        space: Space,
        mapping: Mapping[str, RationalLike],
        default: RationalLike = 0,
    ) -> RandomVariable:
        return cls(space, _values_from_map(space, mapping, as_rational(default)))

    def sublevel(self, t: RationalLike) -> Event:
        """The event {self <= t}."""
        bound = as_rational(t)
        nested = [m for v, m in _sublevels(self.columns, self.space.full_mask) if v <= bound]
        return Event(self.space, nested[-1] if nested else 0)

    def attained(self) -> tuple[Fraction, ...]:
        """Distinct attained values, ascending."""
        return tuple(sorted(set(self.values)))


@dataclass(frozen=True)
class UncertaintyDegree:
    """A degree map ``r``: one rational in [0, 1] per eventuality."""

    space: Space
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        check_unit("uncertainty degree", _set_values(self, "an uncertainty degree"))

    columns = cached_property(_columns)

    @classmethod
    def constant(cls, space: Space, value: RationalLike) -> UncertaintyDegree:
        return cls(space, (as_rational(value),) * space.omega_size)

    @classmethod
    def ones(cls, space: Space) -> UncertaintyDegree:
        return cls.constant(space, 1)

    @classmethod
    def from_map(
        cls,
        space: Space,
        mapping: Mapping[str, RationalLike],
        default: RationalLike = 1,
    ) -> UncertaintyDegree:
        """Build from an eventuality-name map; omitted entries default to 1."""
        return cls(space, _values_from_map(space, mapping, as_rational(default)))


def uncertainty_variable(
    space: Space, h: Event, r: UncertaintyDegree
) -> RandomVariable:
    """The variable ``r * 1_{H_ind}``: the degree on ``h``'s indecisive set.

    Identically zero when the indecisive set is empty (and, trivially,
    when ``r`` is identically zero).
    """
    check_space(space, h, r)
    ind_mask = indecisive_set(space, h).mask
    values = tuple(
        r.values[i] if (ind_mask >> i) & 1 else ZERO for i in range(space.omega_size)
    )
    return RandomVariable(space, values)


def expectation(p: ProbabilityMeasure, v: RandomVariable) -> Fraction:
    """Exact expectation of ``v`` under ``p``."""
    check_space(p.space, v)
    return _masked_sum(p.space.full_mask, p.columns, v.columns)


def interval_measure(
    p: ProbabilityMeasure, r: UncertaintyDegree, h: Event
) -> Interval:
    """The interval measure ``Q_r(H) = [P(H), P(H) + E[r * 1_{H_ind}]]``.

    The right endpoint never exceeds 1, since ``H_ind`` lies in the
    complement of ``H`` and ``r <= 1``.  With ``r`` identically 1 the
    right endpoint equals ``1 - P(H_w^c)``, the probability left once
    the weak complement is excluded.
    """
    check_space(h.space, p, r)
    lo = p(h)
    ind = indecisive_set(h.space, h).mask
    return Interval(lo, lo + _masked_sum(ind, p.columns, r.columns))


def marginal_mass(p: ProbabilityMeasure, bits: str) -> Fraction:
    """Mass of the bit pattern: ``f(bits) = sum over labels of P(label, bits)``."""
    space = p.space
    value = space.index_of(space.e_labels[0], bits)  # validates ``bits``
    block = 1 << space.n
    mask = sum(1 << (e_idx * block + value) for e_idx in range(len(space.e_labels)))
    return _masked_sum(mask, p.columns)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the imprecise-probability axiom sweep.

    ``mode`` records how the sweep was performed:

    * ``"exhaustive-pairs"`` (|Omega| <= ``PAIR_LIMIT``): every disjoint
      pair is checked for left-endpoint additivity and every nested pair
      for width anti-monotonicity; the witness lists are complete.
    * ``"lattice-edges"`` (up to ``EDGE_LIMIT``): only single-element
      extensions ``S -> S + {x}`` are checked.  This is equivalent:
      edge additivity plus ``lo({}) = 0`` forces ``lo(S)`` to equal the
      sum of its singletons (induction on |S|), which is finite
      additivity; and width anti-monotonicity along edges extends to
      any nested pair by walking a chain of single-element insertions.
      Witness lists then contain violating edges rather than all pairs.
    """

    boundary_ok: bool
    additive: bool
    additivity_witnesses: tuple[tuple[Event, Event], ...]
    widths_antimonotone: bool
    width_witnesses: tuple[tuple[Event, Event], ...]
    mode: str
    boundary_detail: str | None = field(default=None)

    @property
    def passed(self) -> bool:
        return self.boundary_ok and self.additive and self.widths_antimonotone


def validate_imprecise(q: Mapping[Event, Interval]) -> ValidationReport:
    """Check the two imprecise-probability axioms on a complete event map.

    ``q`` must assign an :class:`Interval` to *every* event of one
    space with at most ``EDGE_LIMIT`` eventualities.  The report states
    whether

    a. ``H -> lo(q(H))`` is finitely additive with ``lo(q({})) = 0``
       and ``lo(q(Omega)) = 1``, and
    b. ``H1 <= H2`` implies ``width(q(H2)) <= width(q(H1))``,

    listing the violating pairs for each failed axiom (all of them in
    exhaustive mode, all violating lattice edges above ``PAIR_LIMIT``
    — see :class:`ValidationReport`).
    """
    if not q:
        raise ConstraintError("empty interval map")
    space = next(iter(q)).space
    size = space.omega_size
    check_size("validate_imprecise", size, EDGE_LIMIT)
    n_events = 1 << size
    if len(q) != n_events:
        raise ConstraintError(
            f"interval map must cover all {n_events} events, got {len(q)}"
        )

    lo = [ZERO] * n_events
    width = [ZERO] * n_events
    for event, interval in q.items():
        if event.space != space:
            raise ConstraintError("interval map mixes spaces")
        lo[event.mask] = interval.lo
        width[event.mask] = interval.width

    full = n_events - 1
    boundary_ok = lo[0] == 0 and lo[full] == 1
    detail = None
    if not boundary_ok:
        detail = f"lo({{}}) = {clipped(lo[0])}, lo(Omega) = {clipped(lo[full])}"

    additivity_bad: list[tuple[Event, Event]] = []
    width_bad: list[tuple[Event, Event]] = []

    if size <= PAIR_LIMIT:
        mode = "exhaustive-pairs"
        for a, b in disjoint_pairs(size):
            if lo[a | b] != lo[a] + lo[b]:
                additivity_bad.append((Event(space, a), Event(space, b)))
        for sup in range(n_events):
            w_sup = width[sup]
            sub = sup
            while True:
                if width[sub] < w_sup:
                    width_bad.append((Event(space, sub), Event(space, sup)))
                if sub == 0:
                    break
                sub = (sub - 1) & sup
    else:
        mode = "lattice-edges"
        for s, ext in lattice_edges(size):
            if lo[ext] != lo[s] + lo[ext ^ s]:
                additivity_bad.append((Event(space, s), Event(space, ext)))
            if width[ext] > width[s]:
                width_bad.append((Event(space, s), Event(space, ext)))

    return ValidationReport(
        boundary_ok=boundary_ok,
        additive=not additivity_bad,
        additivity_witnesses=tuple(additivity_bad),
        widths_antimonotone=not width_bad,
        width_witnesses=tuple(width_bad),
        mode=mode,
        boundary_detail=detail,
    )
