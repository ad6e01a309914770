"""Product interval measures over the coarse paired partition.

Two spaces combine into a flat space whose labels are ``"left*right"``
pairs and whose bit sequences concatenate the left bits with the right
bits (left bits in the high-order positions).  The flat space carries
its own native incompatibility classes, but the product construction
works with a coarser partition: one class per ordered pair of factor
classes (``w_classes``), each the product of a left class with a right
class and hence a union of whole native classes.

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
from .space import TABLE_LIMIT, Event, Space, check_size, check_space, uncovered_union

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
    def w_classes(self) -> tuple[Event, ...]:
        """One coarse class per ordered pair of factor classes.

        The pair (Z_i of the left factor, Z_j of the right factor)
        yields the flat event containing every eventuality whose left
        bit pattern belongs to Z_i's complementary pattern pair and
        whose right bit pattern belongs to Z_j's.
        """
        flat = self.flat
        n_left, n_right = self.left.n, self.right.n
        full_left = (1 << n_left) - 1
        full_right = (1 << n_right) - 1
        n_labels = len(flat.e_labels)
        block = 1 << flat.n
        classes = []
        for rep_l in range(1 << (n_left - 1)):
            pair_l = (rep_l, rep_l ^ full_left)
            for rep_r in range(1 << (n_right - 1)):
                pair_r = (rep_r, rep_r ^ full_right)
                mask = 0
                for e_idx in range(n_labels):
                    base = e_idx * block
                    for bl in pair_l:
                        for br in pair_r:
                            mask |= 1 << (base + (bl << n_right) + br)
                classes.append(Event(flat, mask))
        return tuple(classes)

    def coarse_indecisive(self, h: Event) -> Event:
        """Union of the coarse classes that ``h`` does not meet."""
        check_space(self.flat, h)
        return Event(self.flat, uncovered_union(self.w_classes, h.mask))


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
    flat = ps.flat
    n_right = ps.right.n
    block_left = 1 << ps.left.n
    block_right = 1 << n_right
    n_labels_right = len(ps.right.e_labels)
    values = [None] * flat.omega_size
    block = 1 << flat.n
    for el in range(len(ps.left.e_labels)):
        for er in range(n_labels_right):
            base = (el * n_labels_right + er) * block
            for bl in range(block_left):
                ml = p_left.values[el * block_left + bl]
                for br in range(block_right):
                    values[base + (bl << n_right) + br] = (
                        ml * p_right.values[er * block_right + br]
                    )
    return ProbabilityMeasure(flat, tuple(values))


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
