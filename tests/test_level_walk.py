"""Choquet sums on the shared level walk, against a per-level rescan.

``choquet``, both capacity intervals, the weights ``I`` and ``J`` and
both graded conditionals read their level sets off one ascending walk
of the integrand's values.  The reference below rescans the support
once per level instead, on a 16-point space (past the oracle's 12-point
cap) with degrees that tie and vanish.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import intprob as ip
from intprob.errors import PreconditionError

from conftest import CONCAVE_BEND, random_degree, random_measure

ONE = Fraction(1)


def rescan_integral(nu, values, support, transform) -> Fraction:
    """``∫_0^1 nu(transform({i in support : values[i] >= t})) dt``, one rescan per level."""
    points = [i for i in range(len(values)) if support >> i & 1]
    levels = sorted({values[i] for i in points if values[i] > 0})
    total = prev = Fraction(0)
    for t in levels:
        upper = sum(1 << i for i in points if values[i] >= t)
        total += (t - prev) * nu.table[transform(upper)]
        prev = t
    return total + (ONE - prev) * nu.table[transform(0)]


@pytest.fixture(scope="module")
def setting():
    rng = random.Random("level-walk")
    space = ip.build_space(3, ["a", "b"])
    p = random_measure(rng, space)
    r = random_degree(rng, space)
    capacities = {
        "square": ip.distort(p, ip.power_distortion(2)),
        "bend": ip.distort(p, CONCAVE_BEND),
        "belief": ip.belief_from_mass(space, {z: p(z) for z in space.z_classes}),
    }
    masks = [0, space.full_mask]
    for _ in range(30):
        keep = rng.choice([8, 4, 2])  # about 1/8, 1/4 or 1/2 of the points
        masks.append(sum(1 << i for i in range(space.omega_size) if rng.randrange(keep) == 0))
    # Events that hold a whole class give the belief function nu(H) > 0.
    masks += [m | rng.choice(space.z_classes).mask for m in masks[2:12]]
    events = [ip.Event(space, m) for m in masks]
    return rng, space, r, capacities, events


def test_degrees_tie_and_vanish(setting):
    _, _, r, _, _ = setting
    assert 0 in r.values
    assert len(set(r.values)) < len(r.values)


@pytest.mark.parametrize("name", ["square", "bend", "belief"])
def test_choquet_and_capacity_intervals(setting, name):
    rng, space, r, capacities, events = setting
    nu = capacities[name]
    for _ in range(10):
        g = random_degree(rng, space)
        expected = rescan_integral(nu, g.values, space.full_mask, lambda s: s)
        assert ip.choquet(nu, ip.RandomVariable(space, g.values)) == expected
    for h in events:
        ind = ip.indecisive_set(space, h).mask
        lo = nu(h)
        hi = min(ONE, lo + rescan_integral(nu, r.values, ind, lambda s: s))
        assert ip.capacity_interval(nu, r, h) == ip.Interval(lo, hi)
        hi_prime = rescan_integral(nu, r.values, ind, lambda s: h.mask | s)
        assert ip.capacity_interval_prime(nu, r, h) == ip.Interval(lo, hi_prime)


@pytest.mark.parametrize("name", ["square", "bend", "belief"])
def test_weights_and_graded_conditionals(setting, name):
    rng, space, r, capacities, events = setting
    nu = capacities[name]
    checked = 0
    for h in events:
        ind = ip.indecisive_set(space, h).mask

        def weight(b):  # I(B)
            return rescan_integral(nu, r.values, ind, lambda s: b & (h.mask | s))

        # The fixed four make B ∩ H_ind empty (∅, h) and all of H_ind (Ω, h's complement).
        for a in rng.sample(events, 6) + [space.empty, space.universe, h, h.complement()]:
            a_ind = ip.indecisive_set(space, a).mask
            assert ip.effective_weight(nu, r, h, a) == weight(a.mask)
            j = rescan_integral(nu, r.values, a_ind & (h.mask | ind), lambda s: s)
            assert ip.uncertainty_weight(nu, r, h, ip.Event(space, a_ind)) == j
            if nu(h) == 0:
                with pytest.raises(PreconditionError):
                    ip.capacity_conditional(nu, r, a, h)
                continue
            total = weight(space.full_mask)
            raw_hi = (weight(a.mask) + j) / total
            graded = ip.capacity_conditional(nu, r, a, h)
            assert graded.interval == ip.Interval(weight(a.mask) / total, min(ONE, raw_hi))
            assert graded.clamped == (raw_hi > 1)
            prime = ip.capacity_conditional_prime(nu, r, a, h)
            expected = ip.Interval(weight(a.mask) / total, weight(a.mask | a_ind) / total)
            assert prime.interval == expected
            checked += 1
    assert checked > 30
