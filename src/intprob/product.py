"""Product interval measures over the coarse paired partition.

Two spaces combine into a flat space whose labels are ``"left*right"``
pairs and whose bit sequences concatenate the left bits with the right
bits (left bits in the high-order positions).  The flat space carries
its own native incompatibility classes, but the product construction
works with a coarser partition: one class per ordered pair of factor
classes (``w_classes``), each the product of a left class with a right
class and hence a union of whole native classes.  Both come from the
one class rule of ``space.py``, a coarse class complementing the left
and the right bits each on its own.

The product interval measure grades events by this coarse partition:

    (Q1 ⊗ Q1)(H) = [P⊗P(H), P⊗P(H) + P⊗P(H'_ind)]

with ``H'_ind`` the union of the coarse classes missing ``H``.  The
native interval measure on the flat space uses the finer native
classes, so its indecisive sets are supersets of the coarse ones and
its intervals contain the product intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .measure import (
    Interval,
    ProbabilityMeasure,
    UncertaintyDegree,
    interval_measure,
)
from .space import TABLE_LIMIT, Event, Space, _class_union, _fold_swaps, check_size, check_space

__all__ = [
    "ProductSpace",
    "product_space",
    "flat_measure",
    "product_interval",
    "native_interval",
]

@dataclass(frozen=True)
class ProductSpace:
    """A pair of factor spaces with their flattened product.

    Use :func:`product_space` to construct (it enforces the size
    guard).  ``flat`` is the product as an ordinary :class:`Space`;
    ``w_classes`` is the coarse partition, ordered row-major by
    (left class index, right class index).
    """

    left: Space
    right: Space

    @cached_property
    def flat(self) -> Space:
        labels = tuple(
            f"{l}*{r}" for l in self.left.e_labels for r in self.right.e_labels
        )
        return Space(self.left.n + self.right.n, labels)

    @cached_property
    def _swaps(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """A coarse class complements the left bits and the right bits each on its own."""
        return _fold_swaps(self.flat, (range(self.right.n, self.flat.n), range(self.right.n)))

    @cached_property
    def w_classes(self) -> tuple[Event, ...]:
        """One coarse class per ordered pair of factor classes.

        The pair (Z_i of the left factor, Z_j of the right factor)
        yields the flat event containing every eventuality whose left
        bit pattern belongs to Z_i's complementary pattern pair and
        whose right bit pattern belongs to Z_j's.
        """
        return tuple(
            Event(self.flat, _class_union(self.flat, 1 << (i << self.right.n | j), self._swaps))
            for i in range(1 << (self.left.n - 1))
            for j in range(1 << (self.right.n - 1))
        )

    def coarse_indecisive(self, h: Event) -> Event:
        """Union of the coarse classes that ``h`` does not meet."""
        check_space(self.flat, h)
        return Event(self.flat, self.flat.full_mask & ~_class_union(self.flat, h.mask, self._swaps))


def product_space(left: Space, right: Space) -> ProductSpace:
    """Combine two factor spaces, guarding the flat size by ``TABLE_LIMIT``."""
    check_size("flat product", left.omega_size * right.omega_size, TABLE_LIMIT)
    return ProductSpace(left, right)


def flat_measure(
    ps: ProductSpace, p_left: ProbabilityMeasure, p_right: ProbabilityMeasure
) -> ProbabilityMeasure:
    """The product measure ``P⊗P`` on the flat space."""
    check_space(ps.left, p_left)
    check_space(ps.right, p_right)
    # Flat label ``l * |E_right| + r`` pairs left label ``l`` with right
    # label ``r``, and the flat bits put the left bits above the right bits.
    lw, rw = 1 << ps.left.n, 1 << ps.right.n
    left = [p_left.values[k : k + lw] for k in range(0, len(p_left.values), lw)]
    right = [p_right.values[k : k + rw] for k in range(0, len(p_right.values), rw)]
    values = tuple(a * b for lb in left for rb in right for a in lb for b in rb)
    return ProbabilityMeasure(ps.flat, values)


def product_interval(
    ps: ProductSpace,
    p_left: ProbabilityMeasure,
    p_right: ProbabilityMeasure,
    h: Event,
) -> Interval:
    """The product interval measure of a flat event.

    Left endpoint ``P⊗P(H)``; width ``P⊗P(H'_ind)`` with the indecisive
    set taken over the coarse classes.
    """
    mass = flat_measure(ps, p_left, p_right)
    check_space(ps.flat, h)
    lo = mass(h)
    return Interval(lo, lo + mass(ps.coarse_indecisive(h)))


def native_interval(
    ps: ProductSpace,
    p_left: ProbabilityMeasure,
    p_right: ProbabilityMeasure,
    h: Event,
) -> Interval:
    """The flat space's own interval measure of ``h`` at degree 1.

    Uses the native incompatibility classes of the flat space; since
    each coarse class is a union of native classes, every coarse
    indecisive set is contained in the native one and the product
    interval is contained in this one.
    """
    mass = flat_measure(ps, p_left, p_right)
    return interval_measure(mass, UncertaintyDegree.ones(ps.flat), h)
