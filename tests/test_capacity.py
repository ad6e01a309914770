"""Capacities, Choquet integration, capacity intervals, additivity sweep."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import intprob as ip
from intprob.errors import ConstraintError, PreconditionError

from conftest import (
    CONCAVE_BEND,
    class_belief,
    measured_spaces,
    standard_capacities,
)


def _uniform2():
    space = ip.build_space(2, ["x0"])
    return space, ip.ProbabilityMeasure.uniform(space)


class TestCapacityFromTable:
    def test_accepts_valid_table(self):
        space = ip.build_space(1, ["a"])
        nu = ip.capacity_from_table(space, ["0", "1/3", "1/3", "1"])
        assert nu(space.event(["a,0"])) == Fraction(1, 3)
        assert nu.of_mask(0b11) == 1

    def test_rejects_bad_boundaries(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError):
            ip.capacity_from_table(space, ["1/8", "1/3", "1/3", "1"])
        with pytest.raises(ConstraintError):
            ip.capacity_from_table(space, ["0", "1/3", "1/3", "7/8"])

    def test_rejects_wrong_length(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError):
            ip.capacity_from_table(space, ["0", "1"])

    def test_rejects_non_monotone_with_witness(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError) as info:
            ip.capacity_from_table(space, ["0", "3/2", "1/3", "1"])
        assert info.value.witness is not None

    def test_rejects_floats(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError):
            ip.capacity_from_table(space, [0, 0.5, 0.5, 1])

    def test_size_guard(self):
        space = ip.build_space(1, ["a{}".format(i) for i in range(11)])
        assert space.omega_size == 22
        with pytest.raises(PreconditionError):
            ip.capacity_from_table(space, [])

    def test_cross_space_event_rejected(self):
        space = ip.build_space(1, ["a"])
        other = ip.build_space(1, ["b"])
        nu = ip.capacity_from_table(space, ["0", "1/3", "1/3", "1"])
        with pytest.raises(PreconditionError):
            nu(other.universe)

    def test_is_additive(self, small_fixture):
        caps = standard_capacities(small_fixture)
        assert caps["additive"].is_additive()
        space = small_fixture.space
        assert not ip.capacity_from_table(
            space,
            ["0"] + ["1/100"] * ((1 << space.omega_size) - 2) + ["1"],
        ).is_additive()


class TestBeliefFromMass:
    def test_sums_contained_focal_sets(self):
        space, p = _uniform2()
        z1, z2 = space.z_classes
        nu = ip.belief_from_mass(space, {z1: "1/2", z2: "1/2"})
        assert nu(z1) == Fraction(1, 2)
        assert nu(space.event(["x0,10"])) == 0
        assert nu(z1 | space.event(["x0,10"])) == Fraction(1, 2)
        assert nu(space.universe) == 1

    def test_rejects_bad_mass(self):
        space, _ = _uniform2()
        z1, z2 = space.z_classes
        with pytest.raises(ConstraintError):
            ip.belief_from_mass(space, {z1: "3/2", z2: "-1/2"})
        with pytest.raises(ConstraintError):
            ip.belief_from_mass(space, {z1: "1/2"})
        with pytest.raises(ConstraintError):
            ip.belief_from_mass(space, {space.empty: "1/2", z1: "1/2"})
        with pytest.raises(ConstraintError):
            ip.belief_from_mass(space, {"z1": "1"})

    def test_table_equals_per_mask_sum_at_14_points(self):
        space = ip.build_space(1, [f"l{i}" for i in range(7)])
        rng = random.Random(14)
        size = space.omega_size
        masks = [1 << i for i in range(0, size, 3)] + rng.sample(range(1, 1 << size), 24)
        weights = [Fraction(rng.randint(1, 9), rng.choice([1, 2, 3, 7])) for _ in masks]
        total = sum(weights)
        focal = {}
        for mask, w in zip(masks, weights):
            focal[mask] = focal.get(mask, 0) + w / total
        nu = ip.belief_from_mass(space, {ip.Event(space, b): w for b, w in focal.items()})
        assert list(nu.table) == [
            sum((w for b, w in focal.items() if b & ~mask == 0), Fraction(0))
            for mask in range(1 << size)
        ]

    def test_belief_is_superadditive(self, small_fixture):
        profile = ip.is_superadditive(class_belief(small_fixture))
        assert profile.superadditive
        assert profile.superadditive_witness is None


class TestDistortion:
    def test_power_over_digit_limit_refused_before_it_is_built(self):
        half = Fraction(1, 2)
        assert ip.power_distortion(14284)(half) == Fraction(1, 2**14284)  # 4300 digits
        for exponent in (14285, 10**9):
            with pytest.raises(PreconditionError):
                ip.power_distortion(exponent)(half)
        assert ip.power_distortion(10**9)(Fraction(1)) == 1
        assert ip.power_distortion(10**9)(Fraction(0)) == 0

    def test_power_one_is_additive(self, small_fixture):
        nu = ip.distort(small_fixture.mass, ip.power_distortion(1))
        assert nu.is_additive()
        for h in small_fixture.space.events():
            assert nu(h) == small_fixture.mass(h)

    def test_square_distortion_values(self, small_fixture):
        nu = ip.distort(small_fixture.mass, ip.power_distortion(2))
        for h in small_fixture.space.events():
            assert nu(h) == small_fixture.mass(h) ** 2

    def test_power_distortion_validation(self):
        with pytest.raises(ConstraintError):
            ip.power_distortion(0)
        with pytest.raises(ConstraintError):
            ip.power_distortion("2")

    def test_rejects_float_returning_distortion(self):
        _, p = _uniform2()
        with pytest.raises(ConstraintError):
            ip.distort(p, lambda t: float(t))

    def test_rejects_boundary_breaking_distortion(self):
        _, p = _uniform2()
        with pytest.raises(ConstraintError):
            ip.distort(p, lambda t: (1 + t) / 2)

    def test_rejects_non_monotone_distortion(self):
        _, p = _uniform2()
        with pytest.raises(ConstraintError):
            ip.distort(p, lambda t: t * (1 - t) * 4 if 0 < t < 1 else t)


class TestPiecewiseLinear:
    def test_interpolates_exactly(self):
        g = CONCAVE_BEND
        assert g(Fraction(0)) == 0
        assert g(Fraction(1, 8)) == Fraction(1, 4)
        assert g(Fraction(1, 4)) == Fraction(1, 2)
        assert g(Fraction(5, 8)) == Fraction(3, 4)
        assert g(Fraction(1)) == 1

    def test_validation(self):
        F = Fraction
        with pytest.raises(ConstraintError):
            ip.PiecewiseLinear(((F(0), F(0)),))
        with pytest.raises(ConstraintError):
            ip.PiecewiseLinear(((F(1, 8), F(0)), (F(1), F(1))))
        with pytest.raises(ConstraintError):
            ip.PiecewiseLinear(((F(0), F(0)), (F(0), F(1, 2)), (F(1), F(1))))
        with pytest.raises(ConstraintError):
            ip.PiecewiseLinear(((F(0), F(1, 2)), (F(1, 2), F(1, 4)), (F(1), F(1))))

    def test_rejects_argument_outside_unit_interval(self):
        with pytest.raises(ConstraintError):
            CONCAVE_BEND(Fraction(3, 2))


class TestChoquet:
    def test_indicator_gives_capacity(self, small_fixture):
        space = small_fixture.space
        for name, nu in standard_capacities(small_fixture).items():
            for h in space.events():
                assert ip.choquet(nu, ip.RandomVariable.indicator(h)) == nu(h), name

    def test_additive_gives_expectation(self, small_fixture):
        nu = standard_capacities(small_fixture)["additive"]
        space = small_fixture.space
        g = ip.RandomVariable(
            space,
            tuple(
                Fraction(i % 4, 4) for i in range(space.omega_size)
            ),
        )
        assert ip.choquet(nu, g) == ip.expectation(small_fixture.mass, g)

    def test_constant_integrand(self, small_fixture):
        nu = standard_capacities(small_fixture)["belief"]
        c = Fraction(2, 7)
        g = ip.RandomVariable.constant(small_fixture.space, c)
        assert ip.choquet(nu, g) == c

    def test_two_point_worked_example(self):
        space = ip.build_space(1, ["a"])
        nu = ip.capacity_from_table(space, ["0", "1/2", "0", "1"])
        g = ip.RandomVariable.from_map(space, {"a,0": 1, "a,1": "1/2"})
        # strata: t in (0,1/2] has {g>=t} = Omega, t in (1/2,1] leaves {a,0}
        assert ip.choquet(nu, g) == Fraction(1, 2) * 1 + Fraction(1, 2) * Fraction(1, 2)

    def test_monotone_in_integrand(self, small_fixture):
        nu = standard_capacities(small_fixture)["square"]
        space = small_fixture.space
        g1 = ip.RandomVariable.constant(space, "1/3")
        g2 = ip.RandomVariable.constant(space, "2/3")
        assert ip.choquet(nu, g1) <= ip.choquet(nu, g2)

    def test_rejects_out_of_range_integrand(self, small_fixture):
        nu = standard_capacities(small_fixture)["additive"]
        g = ip.RandomVariable.constant(small_fixture.space, 2)
        with pytest.raises(ConstraintError):
            ip.choquet(nu, g)

    def test_space_mismatch(self):
        space, p = _uniform2()
        nu = ip.distort(p, ip.power_distortion(1))
        other = ip.build_space(1, ["a"])
        with pytest.raises(PreconditionError):
            ip.choquet(nu, ip.RandomVariable.constant(other, 0))

    @given(data=st.data())
    def test_agrees_with_expectation_for_additive(self, data):
        space, p, _ = data.draw(measured_spaces(max_points=8))
        values = data.draw(
            st.lists(
                st.fractions(min_value=0, max_value=1, max_denominator=5),
                min_size=space.omega_size,
                max_size=space.omega_size,
            )
        )
        g = ip.RandomVariable(space, tuple(values))
        nu = ip.distort(p, ip.power_distortion(1))
        assert ip.choquet(nu, g) == ip.expectation(p, g)


class TestCapacityInterval:
    def test_additive_matches_interval_measure(self, small_fixture):
        nu = standard_capacities(small_fixture)["additive"]
        p, r = small_fixture.mass, small_fixture.degree
        for h in small_fixture.space.events():
            assert ip.capacity_interval(nu, r, h) == ip.interval_measure(p, r, h)
            assert ip.capacity_interval_prime(nu, r, h) == ip.interval_measure(
                p, r, h
            )

    def test_umbrella_square_values(self):
        space, p = _uniform2()
        nu = ip.distort(p, ip.power_distortion(2))
        r = ip.UncertaintyDegree.ones(space)
        h = space.event(["x0,10"])
        assert ip.capacity_interval(nu, r, h) == ip.Interval(
            Fraction(1, 16), Fraction(5, 16)
        )
        assert ip.capacity_interval_prime(nu, r, h) == ip.Interval(
            Fraction(1, 16), Fraction(9, 16)
        )

    def test_belief_values(self):
        space, p = _uniform2()
        z1, z2 = space.z_classes
        nu = ip.belief_from_mass(space, {z1: "1/2", z2: "1/2"})
        r = ip.UncertaintyDegree.ones(space)
        h = space.event(["x0,10"])
        assert ip.capacity_interval(nu, r, h) == ip.Interval(Fraction(0), Fraction(1, 2))
        assert ip.capacity_interval_prime(nu, r, h) == ip.Interval(
            Fraction(0), Fraction(1, 2)
        )

    def test_clamp_fires_for_subadditive(self, caplog):
        space, p = _uniform2()
        nu = ip.distort(p, CONCAVE_BEND)
        r = ip.UncertaintyDegree.ones(space)
        h = space.event(["x0,10"])
        # raw right endpoint g(1/4) + g(1/2) = 1/2 + 2/3 > 1
        with caplog.at_level("INFO", logger="intprob.capacity"):
            q = ip.capacity_interval(nu, r, h)
        assert q == ip.Interval(Fraction(1, 2), Fraction(1))
        assert any("clamped" in rec.message for rec in caplog.records)

    def test_prime_stays_within_unit_interval(self, small_fixture):
        space = small_fixture.space
        nu = ip.distort(small_fixture.mass, CONCAVE_BEND)
        for h in space.events():
            q = ip.capacity_interval_prime(nu, small_fixture.degree, h)
            assert 0 <= q.lo <= q.hi <= 1
            assert q.lo == nu(h)

    def test_containment_for_superadditive(self, small_fixture):
        caps = standard_capacities(small_fixture)
        r = small_fixture.degree
        for name in ("square", "belief"):
            nu = caps[name]
            assert ip.is_superadditive(nu).superadditive
            for h in small_fixture.space.events():
                inner = ip.capacity_interval(nu, r, h)
                outer = ip.capacity_interval_prime(nu, r, h)
                assert outer.encloses(inner), (name, h)

    def test_width_antimonotone_for_capacity_interval(self, small_fixture):
        """Clamped or not, H ⊆ K keeps width(Q^nu(K)) ≤ width(Q^nu(H))."""
        space = small_fixture.space
        r = small_fixture.degree
        for nu in standard_capacities(small_fixture).values():
            widths = [
                ip.capacity_interval(nu, r, ip.Event(space, m)).width
                for m in range(1 << space.omega_size)
            ]
            full = space.full_mask
            for sup in range(1 << space.omega_size):
                sub = sup
                while True:
                    assert widths[sub] >= widths[sup]
                    if sub == 0:
                        break
                    sub = (sub - 1) & sup


class TestAdditivityProfile:
    def test_additive_capacity_is_both(self, small_fixture):
        profile = ip.is_superadditive(standard_capacities(small_fixture)["additive"])
        assert profile.superadditive and profile.subadditive
        assert profile.superadditive_witness is None
        assert profile.subadditive_witness is None

    def test_square_is_strictly_superadditive(self):
        space, p = _uniform2()
        profile = ip.is_superadditive(ip.distort(p, ip.power_distortion(2)))
        assert profile.superadditive
        assert not profile.subadditive
        assert profile.subadditive_witness is not None
        a, b = profile.subadditive_witness
        assert a.isdisjoint(b)

    def test_concave_is_strictly_subadditive(self):
        space, p = _uniform2()
        profile = ip.is_superadditive(ip.distort(p, CONCAVE_BEND))
        assert profile.subadditive
        assert not profile.superadditive
        a, b = profile.superadditive_witness
        nu = ip.distort(p, CONCAVE_BEND)
        assert nu(a) + nu(b) > nu(a | b)

    def test_witnesses_are_genuine(self):
        space, p = _uniform2()
        nu = ip.distort(p, ip.power_distortion(3))
        profile = ip.is_superadditive(nu)
        a, b = profile.subadditive_witness
        assert nu(a) + nu(b) < nu(a | b)

    def test_sweep_size_guard(self):
        space = ip.build_space(2, ["a", "b", "c", "d"])
        nu = ip.distort(
            ip.ProbabilityMeasure.uniform(space), ip.power_distortion(1)
        )
        with pytest.raises(PreconditionError):
            ip.is_superadditive(nu)

    def test_cached_per_object(self, small_fixture):
        nu = standard_capacities(small_fixture)["belief"]
        assert ip.is_superadditive(nu) is ip.is_superadditive(nu)

    def test_cache_is_bounded_and_shared_by_graded_rules(self):
        space, p = _uniform2()
        info = ip.is_superadditive.cache_info
        for _ in range(200):
            ip.is_superadditive(ip.distort(p, ip.power_distortion(2)))
        assert info().maxsize is not None
        assert info().currsize <= info().maxsize < 200
        nu = ip.distort(p, ip.power_distortion(2))
        r = ip.UncertaintyDegree.ones(space)
        a, h = space.event(["x0,00"]), space.event(["x0,10"])
        ip.capacity_conditional(nu, r, a, h)
        before = info()
        ip.capacity_conditional_prime(nu, r, a, h)
        after = info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
