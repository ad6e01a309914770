"""Symmetries of the incompatibility structure, checked at |Omega| = 8192.

Permuting the labels of ``E``, permuting the bit coordinates and
flipping every bit each map incompatibility classes onto classes.  So
when the mass, the degree, the events and the variables are carried
along by the same map, every interval measure, conditional, interval
distribution function and dominance verdict must come out identical.
This reaches far past the oracle's 12-point cap.

The same space also carries a measure whose masses have 4096 distinct
denominators, whose common denominator has tens of thousands of bits;
its interval measures and conditionals are checked against plain
``Fraction`` sums written here.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import intprob as ip

from conftest import random_degree, random_measure

N = 12
LABELS = ("e0", "e1")
BLOCK = 1 << N
SPACE = ip.build_space(N, LABELS)
SIZE = SPACE.omega_size


def _label_swap(i: int) -> int:
    e, value = divmod(i, BLOCK)
    return (1 - e) * BLOCK + value


_RHO = random.Random("bit-permutation").sample(range(N), N)


def _bit_permutation(i: int) -> int:
    e, value = divmod(i, BLOCK)
    return e * BLOCK + sum((value >> k & 1) << _RHO[k] for k in range(N))


def _bit_flip(i: int) -> int:
    return i ^ (BLOCK - 1)


SYMMETRIES = {"label-swap": _label_swap, "bit-permutation": _bit_permutation, "bit-flip": _bit_flip}


def _carry_values(perm: list[int], values) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * SIZE
    for i, v in enumerate(values):
        out[perm[i]] = v
    return tuple(out)


def _carry_mask(perm: list[int], mask: int) -> int:
    flags = ["0"] * SIZE
    for i in ip.Event(SPACE, mask):
        flags[perm[i]] = "1"
    return int("".join(reversed(flags)), 2)


@pytest.fixture(scope="module")
def problem():
    rng = random.Random("metamorphic-8192")
    p = random_measure(rng, SPACE)
    r = random_degree(rng, SPACE)
    sparse = sum(1 << i for i in rng.sample(range(SIZE), 16))
    half = rng.getrandbits(SIZE)
    classes = SPACE.z_classes
    # One point from each of 2000 classes: 48 classes stay indecisive.
    transversal = sum(1 << min(z) for z in rng.sample(classes, 2000))
    masks = [sparse, half, transversal, classes[3].mask | sparse]
    levels = [Fraction(k, 4) for k in rng.sample(range(1, 40), 3)]
    x = [rng.choice(levels) for _ in range(SIZE)]
    y = [rng.choice(levels[:2]) for _ in range(SIZE)]
    return p, r, masks, x, y


def _answers(p, r, masks, x, y):
    events = [ip.Event(SPACE, m) for m in masks]
    xv = ip.RandomVariable(SPACE, tuple(x))
    yv = ip.RandomVariable(SPACE, tuple(y))
    return (
        [ip.interval_measure(p, r, h) for h in events],
        [ip.conditional_interval(p, r, events[0], events[2]),
         ip.conditional_interval(p, r, events[1], events[3])],
        ip.interval_cdf(p, r, xv),
        ip.dominates(p, r, xv, yv),
        ip.dominates(p, r, yv, xv),
    )


@pytest.fixture(scope="module")
def reference(problem):
    return _answers(*problem)


def test_reference_is_not_trivial(reference):
    intervals, conditionals, cdf, _, _ = reference
    assert all(iv.width > 0 for iv in intervals)
    assert any(iv.width > 0 for iv in conditionals)
    assert len(cdf.breakpoints) == 3


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_symmetry_preserves_every_answer(problem, reference, name):
    perm = [SYMMETRIES[name](i) for i in range(SIZE)]
    assert sorted(perm) == list(range(SIZE))
    p, r, masks, x, y = problem
    carried = _answers(
        ip.ProbabilityMeasure(SPACE, _carry_values(perm, p.values)),
        ip.UncertaintyDegree(SPACE, _carry_values(perm, r.values)),
        [_carry_mask(perm, m) for m in masks],
        _carry_values(perm, x),
        _carry_values(perm, y),
    )
    assert carried == reference


def _odd_primes(count: int) -> list[int]:
    primes: list[int] = []
    k = 3
    while len(primes) < count:
        if all(k % q for q in primes if q * q <= k):
            primes.append(k)
        k += 2
    return primes


@pytest.fixture(scope="module")
def hostile():
    """Masses ``1/(4096 p)`` and ``(p - 1)/(4096 p)`` with ``r = 1/p``, over 4096 odd primes ``p``."""
    mass: list[Fraction] = []
    degree: list[Fraction] = []
    for q in _odd_primes(SIZE // 2):
        mass += [Fraction(1, 4096 * q), Fraction(q - 1, 4096 * q)]
        degree += [Fraction(1, q)] * 2
    return mass, degree


def _plain_indecisive(mask: int) -> set[int]:
    """Points of the classes ``E x {bits, ~bits}`` that ``mask`` misses."""
    met = {min(i % BLOCK, ~i % BLOCK) for i in range(SIZE) if mask >> i & 1}
    return {i for i in range(SIZE) if min(i % BLOCK, ~i % BLOCK) not in met}


def _graded(mask: int, degree: list[Fraction]) -> list[Fraction]:
    """``1_mask + r * 1_{mask_ind}`` pointwise."""
    ind = _plain_indecisive(mask)
    return [Fraction(1) if mask >> i & 1 else degree[i] if i in ind else Fraction(0) for i in range(SIZE)]


def test_hostile_denominators_match_plain_sums(hostile):
    mass, degree = hostile
    p = ip.ProbabilityMeasure(SPACE, tuple(mass))
    r = ip.UncertaintyDegree(SPACE, tuple(degree))
    assert sum(mass, Fraction(0)) == 1
    assert p(SPACE.universe) == 1
    rng = random.Random("hostile-denominators")
    sparse = sum(1 << i for i in rng.sample(range(SIZE), 16))
    masks = [sparse, rng.getrandbits(SIZE), rng.getrandbits(SIZE) | sparse]
    graded = {m: _graded(m, degree) for m in masks}
    for h in masks:
        lo = sum((mass[i] for i in range(SIZE) if h >> i & 1), Fraction(0))
        hi = sum((m * g for m, g in zip(mass, graded[h])), Fraction(0))
        assert hi > lo
        assert ip.interval_measure(p, r, ip.Event(SPACE, h)) == ip.Interval(lo, hi)
    for a, h in [(masks[1], masks[0]), (masks[0], masks[2])]:
        denom = sum((m * g for m, g in zip(mass, graded[h])), Fraction(0))
        lo = sum((mass[i] * graded[h][i] for i in range(SIZE) if a >> i & 1), Fraction(0))
        hi = sum((m * f * g for m, f, g in zip(mass, graded[a], graded[h])), Fraction(0))
        got = ip.conditional_interval(p, r, ip.Event(SPACE, a), ip.Event(SPACE, h))
        assert got == ip.Interval(lo / denom, hi / denom)
        assert got.width > 0
