"""Helpers shared by the workloads: seeded inputs, answer records, checks.

The checkers here never call the kernel.  They recompute what they need
from the raw generated inputs (masses, degrees, index lists) with their
own code, so agreement with the program is evidence rather than a
tautology.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from fractions import Fraction

#: Ops whose answers feed the digest.  Every run completes at least this
#: many, so the digest of a seed is the same on any machine.
DIGEST_OPS = 100

ZERO = Fraction(0)
ONE = Fraction(1)


def op_rng(workload: str, seed: int, k: int) -> random.Random:
    """The generator of op ``k``: the same seed always gives the same op."""
    return random.Random(f"{workload}:{seed}:{k}")


def normalized_mass(rng: random.Random, size: int, numerators, denominators) -> list[Fraction]:
    """``size`` positive masses ``(a/d) / sum`` with mixed small ``d``."""
    lo, hi = numerators
    weights = [Fraction(rng.randint(lo, hi), rng.choice(denominators)) for _ in range(size)]
    total = sum(weights)
    return [w / total for w in weights]


def composition(rng: random.Random, size: int, denominator: int) -> list[Fraction]:
    """``size`` positive masses ``k / denominator`` summing to 1; their reduced denominators are mixed.

    Every seed's masses share the one denominator, so the size of the
    exact numbers the program works with does not change from seed to seed.
    """
    cuts = [0, *sorted(rng.sample(range(1, denominator), size - 1)), denominator]
    return [Fraction(b - a, denominator) for a, b in zip(cuts, cuts[1:])]


def balanced(rng: random.Random, values: list[str], size: int) -> list[Fraction]:
    """``size`` values cycled from ``values`` and shuffled: each is used equally often on every seed."""
    out = [Fraction(values[i % len(values)]) for i in range(size)]
    rng.shuffle(out)
    return out


def make_op(wl, state, k: int):
    """Op ``k`` of the workload's fixed schedule, with inputs drawn from its own generator."""
    schedule = state.inputs.params["schedule"]
    return wl.new_op(state, k, schedule[k % len(schedule)], op_rng(wl.NAME, state.inputs.seed, k))


def warm_ops(wl, state) -> list:
    """One small op of each kind, run once at set-up; numbered below zero."""
    slots = state.inputs.params["warm_ops"]
    return [wl.new_op(state, -1 - i, slot, op_rng(wl.NAME, state.inputs.seed, -1 - i)) for i, slot in enumerate(slots)]


def eventuality_names(n: int, labels: list[str]) -> list[str]:
    """Eventuality names ``label,bits`` in canonical index order."""
    return [f"{labels[i >> n]},{i & ((1 << n) - 1):0{n}b}" for i in range(len(labels) << n)]


def event_mask(rng: random.Random, shape: str, n: int, n_labels: int) -> int:
    """A nonempty event of the given shape on ``E x {0,1}^n``.

    ``points:k`` picks k points, ``density:p`` keeps each point with
    probability p, and ``transversal`` picks one point of every z-class,
    so its indecisive set is empty.
    """
    size = n_labels << n
    kind, _, arg = shape.partition(":")
    if kind == "points":
        return mask_of(rng.sample(range(size), min(int(arg), size)))
    if kind == "density":
        p = Fraction(arg)
        return mask_of(i for i in range(size) if rng.random() < p) or 1 << rng.randrange(size)
    block = 1 << n
    return mask_of(rng.randrange(n_labels) * block + rng.choice((v, block - 1 - v)) for v in range(block // 2))


def mask_of(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def indices_of(mask: int) -> list[int]:
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def class_masks(n: int, n_labels: int) -> list[int]:
    """The incompatibility classes of ``E x {0,1}^n`` as bitmasks.

    A class pairs each bit pattern starting with 0 with its bitwise
    complement, across every label.
    """
    block = 1 << n
    out = []
    for rep in range(block // 2):
        members = []
        for e in range(n_labels):
            members += [e * block + rep, e * block + (block - 1 - rep)]
        out.append(mask_of(members))
    return out


def split(classes: list[int], full: int, h: int) -> tuple[int, int]:
    """Expected ``(H_ind, H_w^c)``: classes missing ``h``, and the rest of its complement."""
    ind = 0
    for c in classes:
        if not c & h:
            ind |= c
    return ind, full & ~h & ~ind


def split_problems(classes: list[int], full: int, h: int, ind: int, wc: int) -> list[str]:
    """Check that ``H``, ``H_w^c`` and ``H_ind`` partition Omega exactly as the paper says."""
    problems = []
    if h & wc or h & ind or wc & ind or h | wc | ind != full:
        problems.append("H, H_w^c and H_ind do not partition Omega")
    if any(c & ind and c & ~ind for c in classes):
        problems.append("H_ind is not a union of z-classes")
    if (ind, wc) != split(classes, full, h):
        problems.append("H_ind is not the union of the z-classes H misses")
    return problems


def strata_integral(nu, values, support: int, transform) -> Fraction:
    """``∫_0^1 nu(transform({i in support : values[i] >= t})) dt``, summed from the top level down."""
    members = sorted(((values[i], i) for i in indices_of(support) if values[i]), reverse=True)
    total = ZERO
    mask = 0
    for pos, (t, i) in enumerate(members):
        mask |= 1 << i
        below = members[pos + 1][0] if pos + 1 < len(members) else ZERO
        if below != t:
            total += (t - below) * nu[transform(mask)]
    top = members[0][0] if members else ZERO
    return total + (ONE - top) * nu[transform(0)]


#: The program sweeps for super-additivity only up to this many points.
SWEEP_POINTS = 12


def superadditive(table, size: int) -> bool | None:
    """Whether ``nu(A) + nu(B) <= nu(A | B)`` for all disjoint ``A, B``; ``None`` above the sweep limit."""
    if size > SWEEP_POINTS:
        return None
    full = (1 << size) - 1
    for a in range(1, full + 1):
        rest = full & ~a
        b = rest
        while b:
            if b < a and table[a] + table[b] > table[a | b]:
                return False
            b = (b - 1) & rest
    return True


def pair_problems(what: str, got, lo: Fraction, hi: Fraction) -> list[str]:
    if (got.lo, got.hi) != (lo, hi):
        return [f"{what}: got [{got.lo}, {got.hi}], expected [{lo}, {hi}]"]
    return []


def value_problems(what: str, got, expected) -> list[str]:
    return [] if got == expected else [f"{what}: got {got}, expected {expected}"]


@dataclasses.dataclass(frozen=True)
class Refused:
    """A documented refusal (``PreconditionError``) returned as an answer."""

    kind: str
    message: str


def guarded(call, name, fn, *args, **kwargs):
    """Call into the program; a ``PreconditionError`` becomes a :class:`Refused` answer."""
    from intprob.errors import PreconditionError

    try:
        return call(name, fn, *args, **kwargs)
    except PreconditionError as exc:
        return Refused(type(exc).__name__, str(exc))


def canon(x) -> str:
    """A canonical text form of an exact answer, for the digest."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return repr(x)
    if isinstance(x, int):
        return format(x, "x")
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    if dataclasses.is_dataclass(x):
        values = [getattr(x, f.name) for f in dataclasses.fields(x) if f.name != "space"]
        return type(x).__name__ + canon(values)
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(answers) -> str:
    h = hashlib.sha256()
    for answer in answers:
        h.update(canon(answer).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
