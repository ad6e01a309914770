"""Product spaces E x {0,1}^n, their incompatibility partition, and events.

The universe handled by this package is a finite product space: every
eventuality pairs a label from a finite set ``E`` with a length-``n``
binary sequence.  Two eventualities are *incompatible* when their binary
sequences differ in every position, so the bit patterns split into
2^(n-1) complementary pairs and the universe splits into 2^(n-1)
*incompatibility classes* (``z_classes``), each of the form
``E x {bits, ~bits}``.  One rule builds every class: a pattern under
every label, with any of its bit blocks complemented (here one block of
all ``n`` bits; a left and a right one for ``product.py``'s coarse
classes).  Every indecisive set and class list reads ``_class_union``.

For an event ``H`` the classes that ``H`` does not meet form its
*indecisive set* ``H_ind``; what remains of the complement is the *weak
complement* ``H_w^c``.  Every event therefore induces the disjoint
decomposition ``Omega = H | H_w^c | H_ind``.

Canonical index convention
--------------------------
Eventuality ``(label_i, bits)`` lives at index ``i * 2**n + value``
where ``value`` reads the bit sequence most-significant-bit first.
Events are bitsets over these indices.  The textual form of an
eventuality is ``"label,bits"`` (e.g. ``"x0,10"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, islice
from typing import Iterable, Iterator

from .errors import ConstraintError, PreconditionError, clipped

__all__ = [
    "Space",
    "Event",
    "build_space",
    "indecisive_set",
    "weak_complement",
]

# Size policy, one limit per exponential cost.  ``check_size`` refuses a
# larger universe with PreconditionError (CLI exit 3); ``as_rational``
# refuses a longer literal with ConstraintError (CLI exit 2).
TABLE_LIMIT = 20  # subset tables and flat products: 2^20 rationals
PAIR_LIMIT = 12  # disjoint-pair sweeps: (3^12 - 2^13 + 1) / 2 pairs
EDGE_LIMIT = 16  # lattice-edge sweeps: 16 * 2^15 edges over 2^16 events
SPACE_LIMIT = 1 << 16  # one space: |E| * 2^n eventualities, checked on construction
DIGIT_LIMIT = 4300  # digits of a rational's numerator or denominator
TOO_LONG = 10**DIGIT_LIMIT  # the least integer with more than DIGIT_LIMIT digits


_BITS = bytes.maketrans(b"01", b"\0\1")


def iter_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask`` in ascending order."""
    if mask.bit_length() <= 256:
        return _peel_bits(mask)
    # Each peel copies the whole mask; past ~256 bits one text scan is cheaper:
    # a 0/1 selector over every index when the mask is dense, a search per bit when not.
    text = bin(mask)[:1:-1]
    if 8 * text.count("1") > len(text):
        return compress(count(), text.encode().translate(_BITS))
    return _find_bits(text)


def _peel_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _find_bits(text: str) -> Iterator[int]:
    i = text.find("1")
    while i >= 0:
        yield i
        i = text.find("1", i + 1)


def check_space(space: Space, *objects) -> None:
    """Refuse any of ``objects`` (events, measures, ...) not on ``space``."""
    for obj in objects:
        if obj.space is not space and obj.space != space:
            raise PreconditionError("arguments live on different spaces")


def check_digits(what: str, x: Fraction) -> None:
    """Refuse a rational whose numerator or denominator exceeds ``DIGIT_LIMIT`` digits."""
    if max(abs(x.numerator), x.denominator) >= TOO_LONG:
        raise PreconditionError(f"{what} needs more than {DIGIT_LIMIT} digits")


def check_size(what: str, size: int, limit: int) -> None:
    """Refuse a universe of ``size`` eventualities above ``limit``."""
    if size > limit:
        raise PreconditionError(
            f"{what} handles at most {limit} eventualities, got {size}"
        )


def disjoint_pairs(size: int) -> Iterator[tuple[int, int]]:
    """Every pair ``(a, b)`` of disjoint nonempty masks with ``b < a``.

    ``a`` ascends and, per ``a``, ``b`` descends.  A mask disjoint from
    ``a`` is below it exactly when it lies under ``a``'s top bit.
    """
    full = (1 << size) - 1
    for a in range(1, full + 1):
        below = ~a & ((1 << (a.bit_length() - 1)) - 1)
        b = below
        while b:
            yield a, b
            b = (b - 1) & below


def lattice_edges(size: int) -> Iterator[tuple[int, int]]:
    """Every edge ``(s, s | 1 << x)``: ``s`` ascending, then ``x`` ascending."""
    full = (1 << size) - 1
    for s in range(full + 1):
        rest = full & ~s
        while rest:
            low = rest & -rest
            yield s, s | low
            rest ^= low


def _fold_swaps(space: Space, blocks: tuple[range, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The ``(shift, keep)`` swaps of each generator of a class.

    Index bit ``b`` flips by swapping each run of ``shift = 2**b`` positions
    whose bit ``b`` is clear (``keep``) with the run above it.  A generator
    complements one block of pattern bits or flips one label bit, label
    numbers being index bits above the pattern, padded to a power of two.
    """
    bits = space.n + (len(space.e_labels) - 1).bit_length()
    ones = (1 << (1 << bits)) - 1
    generators = blocks + tuple(range(b, b + 1) for b in range(space.n, bits))
    return tuple(
        tuple((1 << b, ones // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1)) for b in g)
        for g in generators
    )


def _class_union(space: Space, mask: int, swaps: tuple[tuple[tuple[int, int], ...], ...]) -> int:
    """Mask of the union of the classes that ``mask`` meets, given their swaps.

    The generators commute, so OR-ing in each one's image once closes the
    mask: one swap per index bit, about log2 |Omega| big-integer steps.
    """
    for generator in swaps:
        image = mask
        for shift, keep in generator:
            image = (image >> shift) & keep | (image & keep) << shift
        mask |= image
    return mask & space.full_mask


@dataclass(frozen=True)
class Space:
    """The finite universe ``E x {0,1}^n`` with its canonical partition.

    Parameters
    ----------
    n:
        Number of binary factors; must be at least 1.
    e_labels:
        The labels of ``E``, in order.  Must be nonempty and distinct.
    """

    n: int
    e_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            shown = clipped(self.n if isinstance(self.n, int) else repr(self.n))
            raise ConstraintError(f"n must be a positive integer, got {shown}")
        if isinstance(self.e_labels, str):  # ``tuple`` would split it into one-character labels
            shown = clipped(repr(self.e_labels))
            raise ConstraintError(f"e_labels must be a sequence of labels, got the string {shown}")
        labels = tuple(self.e_labels)
        object.__setattr__(self, "e_labels", labels)
        if not labels:
            raise ConstraintError("e_labels must be nonempty")
        for label in labels:
            if not isinstance(label, str) or not label:
                raise ConstraintError(f"labels must be nonempty strings, got {clipped(repr(label))}")
        if len(set(labels)) != len(labels):
            raise ConstraintError("labels must be distinct", witness=clipped(labels))
        # n is judged before 2^n is built, so an absurd n allocates nothing.
        if self.n >= SPACE_LIMIT.bit_length() or len(labels) << self.n > SPACE_LIMIT:
            raise PreconditionError(
                f"a space holds at most {SPACE_LIMIT} eventualities, "
                f"got {len(labels)} label(s) x 2^{clipped(self.n)}"
            )

    @property
    def omega_size(self) -> int:
        """Number of eventualities, ``|E| * 2**n``."""
        return len(self.e_labels) * (1 << self.n)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.omega_size) - 1

    @cached_property
    def _swaps(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """A native class complements all ``n`` bits at once."""
        return _fold_swaps(self, (range(self.n),))

    @cached_property
    def z_classes(self) -> tuple[Event, ...]:
        """The 2^(n-1) incompatibility classes, as events.

        Class ``j`` (0-based) collects, for every label, the two
        eventualities whose bit patterns are the complementary pair
        whose representative (the pattern starting with bit 0) has
        numeric value ``j``.  Classes are ordered by representative.
        """
        return tuple(
            Event(self, _class_union(self, 1 << j, self._swaps))
            for j in range(1 << (self.n - 1))
        )

    @cached_property
    def universe(self) -> Event:
        return Event(self, self.full_mask)

    @property
    def empty(self) -> Event:
        return Event(self, 0)

    def index_of(self, label: str, bits: str) -> int:
        """Canonical index of the eventuality ``(label, bits)``."""
        try:
            e_idx = self.e_labels.index(label)
        except ValueError:
            raise ConstraintError(f"unknown label {clipped(repr(label))}", witness=clipped(label)) from None
        if len(bits) != self.n or any(c not in "01" for c in bits):
            raise ConstraintError(
                f"bit sequence must be {self.n} characters of 0/1, got {clipped(repr(bits))}",
                witness=clipped(bits),
            )
        return e_idx * (1 << self.n) + int(bits, 2)

    def eventuality_name(self, index: int) -> str:
        """Textual form ``"label,bits"`` of the eventuality at ``index``."""
        if not 0 <= index < self.omega_size:
            raise ConstraintError(f"index {index} outside universe", witness=index)
        e_idx, value = divmod(index, 1 << self.n)
        return f"{self.e_labels[e_idx]},{value:0{self.n}b}"

    def parse_eventuality(self, text: str) -> int:
        """Parse ``"label,bits"``; the label may itself contain commas."""
        if not isinstance(text, str):
            raise ConstraintError(f"eventuality must be a string, got {type(text).__name__}")
        label, sep, bits = text.rpartition(",")
        if not sep:
            raise ConstraintError(
                f"eventuality must look like 'label,bits', got {clipped(repr(text))}",
                witness=clipped(text),
            )
        return self.index_of(label, bits)

    def event(self, names: Iterable[str]) -> Event:
        """Build an event from an iterable of ``"label,bits"`` strings."""
        mask = 0
        for name in names:
            mask |= 1 << self.parse_eventuality(name)
        return Event(self, mask)

    def events(self) -> Iterator[Event]:
        """All 2^|Omega| events, in ascending mask order.  Exponential."""
        for mask in range(1 << self.omega_size):
            yield Event(self, mask)

    def eventualities(self) -> tuple[str, ...]:
        """All eventuality names in canonical index order."""
        return tuple(self.eventuality_name(i) for i in range(self.omega_size))


@dataclass(frozen=True)
class Event:
    """A subset of a space's eventualities, stored as a bitset."""

    space: Space
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.space.full_mask:
            shown = clipped(hex(self.mask))  # hex text has no digit limit to trip
            raise ConstraintError(f"event mask {shown} has bits outside the universe", witness=shown)

    def __or__(self, other: Event) -> Event:
        check_space(self.space, other)
        return Event(self.space, self.mask | other.mask)

    def __and__(self, other: Event) -> Event:
        check_space(self.space, other)
        return Event(self.space, self.mask & other.mask)

    def __sub__(self, other: Event) -> Event:
        check_space(self.space, other)
        return Event(self.space, self.mask & ~other.mask)

    def complement(self) -> Event:
        return Event(self.space, self.space.full_mask & ~self.mask)

    def __contains__(self, index: int) -> bool:
        return bool((self.mask >> index) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __le__(self, other: Event) -> bool:
        check_space(self.space, other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: Event) -> bool:
        check_space(self.space, other)
        return self.mask & other.mask == 0

    def members(self) -> tuple[str, ...]:
        """Member eventuality names in canonical order."""
        return tuple(self.space.eventuality_name(i) for i in self)

    def render(self) -> str:
        """Display form ``{x0,00, x0,11}`` used by the CLI."""
        return "{" + ", ".join(self.members()) + "}"

    def __repr__(self) -> str:  # like ``render``, but naming at most 8 members
        head = [self.space.eventuality_name(i) for i in islice(self, 8)]
        rest = len(self) - len(head)
        return "Event({" + ", ".join(head) + (f", ... {rest} more" if rest else "") + "})"

    def indecisive(self) -> Event:
        return indecisive_set(self.space, self)

    def weak_complement(self) -> Event:
        return weak_complement(self.space, self)


def build_space(n: int, e_labels: Iterable[str]) -> Space:
    """Construct a validated :class:`Space`.

    Rejects ``n = 0`` (and any non-positive ``n``), empty label lists,
    a bare string as ``e_labels``, and duplicate labels.
    """
    return Space(n, e_labels)


def indecisive_set(space: Space, h: Event) -> Event:
    """Union of the incompatibility classes that ``h`` does not meet.

    Always a union of whole classes and disjoint from ``h``.  The
    degenerate cases need no special handling: every class meets the
    universe (so ``Omega_ind`` is empty) and none meets the empty event
    (so ``{}_ind`` is the whole universe).
    """
    check_space(space, h)
    return Event(space, space.full_mask & ~_class_union(space, h.mask, space._swaps))


def weak_complement(space: Space, h: Event) -> Event:
    """The complement of ``h`` with the indecisive part removed.

    Together with ``h`` and ``indecisive_set(space, h)`` this
    partitions the universe.
    """
    check_space(space, h)
    return Event(space, _class_union(space, h.mask, space._swaps) & ~h.mask)
