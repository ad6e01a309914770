"""Symmetries of the incompatibility structure, checked at |Omega| = 8192.

Permuting the labels of ``E``, permuting the bit coordinates and
flipping every bit each map incompatibility classes onto classes.  So
when the mass, the degree, the events and the variables are carried
along by the same map, every interval measure, conditional, interval
distribution function and dominance verdict must come out identical.
This reaches far past the oracle's 12-point cap.
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
