"""Conditional intervals, Dempster–Shafer variants, graded conditionals."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import intprob as ip
from intprob.errors import PreconditionError

from conftest import CONCAVE_BEND, events, measured_spaces, standard_capacities


def _umbrella():
    space = ip.build_space(2, ["x0"])
    return (
        space,
        ip.ProbabilityMeasure.uniform(space),
        ip.UncertaintyDegree.ones(space),
    )


class TestConditionalInterval:
    def test_umbrella_anchors(self):
        space, p, ones = _umbrella()
        h = space.event(["x0,10"])
        a = space.event(["x0,00"])
        assert ip.conditional_interval(p, ones, a, h) == ip.Interval(
            Fraction(1, 3), Fraction(2, 3)
        )
        assert ip.conditional_interval(p, ones, h, h) == ip.Interval(
            Fraction(1, 3), Fraction(1)
        )

    def test_closed_forms_at_degree_one(self, small_fixture):
        """Ω|H and (H_w^c)^c|H pin to [1,1]; H|H reaches 1 from P(H)/(1−P(H_w^c))."""
        space, p = small_fixture.space, small_fixture.mass
        ones = small_fixture.ones
        for hm in range(1, space.full_mask + 1):
            h = ip.Event(space, hm)
            if p(h) == 0:
                continue
            wc = ip.weak_complement(space, h)
            assert ip.conditional_interval(p, ones, space.universe, h) == ip.Interval(
                Fraction(1), Fraction(1)
            )
            assert ip.conditional_interval(p, ones, wc.complement(), h) == ip.Interval(
                Fraction(1), Fraction(1)
            )
            assert ip.conditional_interval(p, ones, h, h) == ip.Interval(
                p(h) / (1 - p(wc)), Fraction(1)
            )

    def test_general_identity_at_degree_one(self):
        """Q₁(A|H) = [P(A|(H_w^c)^c), P((A_w^c)^c|(H_w^c)^c)] (spot check)."""
        space, p, ones = _umbrella()
        for hm in range(1, space.full_mask + 1):
            h = ip.Event(space, hm)
            if p(h) == 0:
                continue
            core = ip.weak_complement(space, h).complement()
            for am in range(space.full_mask + 1):
                a = ip.Event(space, am)
                q = ip.conditional_interval(p, ones, a, h)
                assert q.lo == p(a & core) / p(core)
                a_core = ip.weak_complement(space, a).complement()
                assert q.hi == p(a_core & core) / p(core)

    def test_conditioning_on_universe_is_unconditional(self, small_fixture):
        p, r, space = small_fixture.mass, small_fixture.degree, small_fixture.space
        for am in range(space.full_mask + 1):
            a = ip.Event(space, am)
            assert ip.conditional_interval(p, r, a, space.universe) == (
                ip.interval_measure(p, r, a)
            )

    def test_null_conditioning_rejected_by_default(self):
        space, _, ones = _umbrella()
        p = ip.ProbabilityMeasure.from_map(space, {"x0,00": "1/2", "x0,11": "1/2"})
        h = space.event(["x0,10"])  # P(H) = 0, but H_ind carries mass
        with pytest.raises(PreconditionError):
            ip.conditional_interval(p, ones, space.universe, h)

    def test_null_conditioning_opt_in(self):
        space, _, ones = _umbrella()
        p = ip.ProbabilityMeasure.from_map(space, {"x0,00": "1/2", "x0,11": "1/2"})
        h = space.event(["x0,10"])
        a = space.event(["x0,00"])
        q = ip.conditional_interval(p, ones, a, h, allow_null_conditioning=True)
        # denominator = E[1 on H_ind] = 1; numerators follow the same weights
        assert q == ip.Interval(Fraction(1, 2), Fraction(1, 2))

    def test_null_conditioning_zero_denominator_still_rejected(self):
        space, _, _ = _umbrella()
        p = ip.ProbabilityMeasure.from_map(space, {"x0,00": "1/2", "x0,11": "1/2"})
        r = ip.UncertaintyDegree.from_map(
            space, {"x0,00": 0, "x0,11": 0}
        )
        h = space.event(["x0,10"])
        with pytest.raises(PreconditionError):
            ip.conditional_interval(
                p, r, space.universe, h, allow_null_conditioning=True
            )

    def test_space_mismatch(self):
        space, p, ones = _umbrella()
        other = ip.build_space(1, ["a"])
        with pytest.raises(PreconditionError):
            ip.conditional_interval(p, ones, other.universe, space.universe)

    def test_conditional_is_imprecise_probability(self, small_fixture):
        """For fixed H, A ↦ Q_r(A|H) passes the axiom sweep."""
        p, r, space = small_fixture.mass, small_fixture.degree, small_fixture.space
        h = next(
            ip.Event(space, m)
            for m in range(1, space.full_mask + 1)
            if p(ip.Event(space, m)) > 0
        )
        q = {
            a: ip.conditional_interval(p, r, a, h)
            for a in space.events()
        }
        # The conditional lives on the core (H ∪ H_ind): outside it the
        # left endpoints vanish, which still satisfies both axioms.
        report = ip.validate_imprecise(q)
        assert report.passed

    @given(data=st.data())
    def test_endpoints_always_ordered(self, data):
        space, p, r = data.draw(measured_spaces(max_points=8))
        a = data.draw(events(space))
        h = data.draw(events(space))
        if p(h) == 0:
            with pytest.raises(PreconditionError):
                ip.conditional_interval(p, r, a, h)
        else:
            q = ip.conditional_interval(p, r, a, h)
            assert 0 <= q.lo <= q.hi <= 1


class TestDempsterShafer:
    def test_additive_is_bayes(self, tiny_fixture):
        nu = standard_capacities(tiny_fixture)["additive"]
        p, space = tiny_fixture.mass, tiny_fixture.space
        for hm in range(1, space.full_mask + 1):
            h = ip.Event(space, hm)
            if p(h) == 0:
                continue
            for am in range(space.full_mask + 1):
                a = ip.Event(space, am)
                assert ip.ds_conditional(nu, a, h) == p(a & h) / p(h)

    def test_weak_additive_is_conditional_lower(self, tiny_fixture):
        nu = standard_capacities(tiny_fixture)["additive"]
        p, space = tiny_fixture.mass, tiny_fixture.space
        ones = tiny_fixture.ones
        for hm in range(1, space.full_mask + 1):
            h = ip.Event(space, hm)
            if p(h) == 0:
                continue
            for am in range(space.full_mask + 1):
                a = ip.Event(space, am)
                assert ip.ds_conditional_weak(nu, a, h) == ip.conditional_interval(
                    p, ones, a, h
                ).lo

    def test_umbrella_worked_values(self):
        space, p, _ = _umbrella()
        nu = ip.distort(p, ip.power_distortion(1))
        a = space.event(["x0,00"])
        h = space.event(["x0,10"])
        assert ip.ds_conditional(nu, a, h) == Fraction(1, 2) * 0  # P(A∩H)/P(H) = 0
        assert ip.ds_conditional_weak(nu, a, h) == Fraction(1, 3)
        sq = ip.distort(p, ip.power_distortion(2))
        assert ip.ds_conditional(sq, a, h) == 0
        assert ip.ds_conditional_weak(sq, a, h) == Fraction(1, 5)

    def test_undefined_when_complement_saturates(self):
        space, p, _ = _umbrella()
        h = space.event(["x0,10"])
        # All mass on the weak complement {x0,01} saturates both
        # denominators: H^c ⊇ H_w^c ∋ the focal point.
        nu = ip.belief_from_mass(space, {space.event(["x0,01"]): "1"})
        with pytest.raises(PreconditionError) as info:
            ip.ds_conditional(nu, space.universe, h)
        assert str(info.value) == (
            "Dempster-Shafer conditioning undefined: complement has capacity 1"
        )
        assert info.value.witness == h
        with pytest.raises(PreconditionError) as info:
            ip.ds_conditional_weak(nu, space.universe, h)
        assert str(info.value) == (
            "weak Dempster-Shafer conditioning undefined: "
            "weak complement has capacity 1"
        )
        assert info.value.witness == h

    def test_weak_variant_defined_on_empty_conditioner(self):
        """H = ∅ has an empty weak complement, so the weak rule collapses
        to the unconditioned capacity instead of being rejected."""
        space, p, _ = _umbrella()
        nu = ip.distort(p, ip.power_distortion(2))
        a = space.event(["x0,00", "x0,01"])
        assert ip.ds_conditional_weak(nu, a, space.empty) == nu(a)
        with pytest.raises(PreconditionError):
            ip.ds_conditional(nu, a, space.empty)

    def test_values_stay_in_unit_interval(self, small_fixture):
        space = small_fixture.space
        for nu in standard_capacities(small_fixture).values():
            for hm in range(1, space.full_mask + 1):
                h = ip.Event(space, hm)
                if nu(h.complement()) == 1:
                    continue
                for am in (0, h.mask, space.full_mask):
                    v = ip.ds_conditional(nu, ip.Event(space, am), h)
                    assert 0 <= v <= 1


class TestWeightFunctionals:
    def test_effective_weight_monotone_in_argument(self, small_fixture):
        space, r = small_fixture.space, small_fixture.degree
        nu = standard_capacities(small_fixture)["belief"]
        h = space.z_classes[0]
        masks = range(space.full_mask + 1)
        weights = {m: ip.effective_weight(nu, r, h, ip.Event(space, m)) for m in masks}
        for m in masks:
            sub = m
            while True:
                assert weights[sub] <= weights[m]
                if sub == 0:
                    break
                sub = (sub - 1) & m

    def test_uncertainty_below_effective(self, small_fixture):
        """J(B) ≤ I(B) for every monotone capacity, no additivity needed."""
        space, r = small_fixture.space, small_fixture.degree
        capacities = dict(standard_capacities(small_fixture))
        capacities["concave"] = ip.distort(small_fixture.mass, CONCAVE_BEND)
        for name, nu in capacities.items():
            for hm in (space.z_classes[0].mask, space.full_mask):
                h = ip.Event(space, hm)
                for bm in range(space.full_mask + 1):
                    b = ip.Event(space, bm)
                    assert ip.uncertainty_weight(nu, r, h, b) <= ip.effective_weight(
                        nu, r, h, b
                    ), name

    def test_total_weight_reaches_capacity_of_core(self):
        """I(Ω) = ∫nu(H ∪ (H_ind ∩ {r≥t}))dt = hi of the prime interval."""
        space, p, ones = _umbrella()
        nu = ip.distort(p, ip.power_distortion(2))
        r = ip.UncertaintyDegree.from_map(space, {"x0,00": "1/2"})
        for hm in range(1, space.full_mask + 1):
            h = ip.Event(space, hm)
            assert ip.effective_weight(nu, r, h, space.universe) == (
                ip.capacity_interval_prime(nu, r, h).hi
            )


class TestGradedConditionals:
    def test_additive_reduces_to_conditional_interval_at_degree_one(
        self, tiny_fixture
    ):
        """The I/J ratio construction and the measure-based conditional
        coincide for additive capacities at degree 1 (not at general r,
        where one is a ratio of level integrals and the other is not)."""
        nu = standard_capacities(tiny_fixture)["additive"]
        p, space = tiny_fixture.mass, tiny_fixture.space
        ones = tiny_fixture.ones
        for hm in range(1, space.full_mask + 1):
            h = ip.Event(space, hm)
            if p(h) == 0:
                continue
            for am in range(space.full_mask + 1):
                a = ip.Event(space, am)
                expected = ip.conditional_interval(p, ones, a, h)
                assert ip.capacity_conditional(nu, ones, a, h).interval == expected

    def test_umbrella_square_values(self):
        space, p, ones = _umbrella()
        nu = ip.distort(p, ip.power_distortion(2))
        a = space.event(["x0,00"])
        h = space.event(["x0,10"])
        out = ip.capacity_conditional(nu, ones, a, h)
        assert out.interval == ip.Interval(Fraction(1, 9), Fraction(2, 9))
        assert out.superadditive is True
        assert out.tentative
        assert not out.clamped
        widened = ip.capacity_conditional_prime(nu, ones, a, h)
        assert widened.interval == ip.Interval(Fraction(1, 9), Fraction(4, 9))

    def test_requires_positive_capacity_on_h(self):
        space, p, ones = _umbrella()
        z1, z2 = space.z_classes
        nu = ip.belief_from_mass(space, {z1: "1/2", z2: "1/2"})
        h = space.event(["x0,10"])  # nu(H) = 0
        with pytest.raises(PreconditionError):
            ip.capacity_conditional(nu, ones, space.universe, h)
        with pytest.raises(PreconditionError):
            ip.capacity_conditional_prime(nu, ones, space.universe, h)

    def test_chain_containment_for_superadditive(self, small_fixture):
        """graded ⊆ [I(A)/I(Ω), (I(A)+I(A_ind))/I(Ω)] ⊆ graded' (belief fixture)."""
        nu = standard_capacities(small_fixture)["belief"]
        space, r = small_fixture.space, small_fixture.degree
        h = space.z_classes[0]  # nu > 0 by construction
        total = ip.effective_weight(nu, r, h, space.universe)
        for am in range(space.full_mask + 1):
            a = ip.Event(space, am)
            inner = ip.capacity_conditional(nu, r, a, h).interval
            outer = ip.capacity_conditional_prime(nu, r, a, h).interval
            a_ind = ip.indecisive_set(space, a)
            mid_hi = (
                ip.effective_weight(nu, r, h, a)
                + ip.effective_weight(nu, r, h, a_ind)
            ) / total
            assert inner.lo == outer.lo
            assert inner.hi <= min(mid_hi, 1)
            assert min(mid_hi, 1) <= outer.hi or mid_hi > 1

    def test_first_inclusion_universal_second_breaks_subadditive(self):
        """J ≤ I needs nothing; the outer inclusion genuinely needs
        super-additivity — the concave distortion breaks it."""
        space, p, ones = _umbrella()
        nu = ip.distort(p, CONCAVE_BEND)
        h = a = space.event(["x0,00"])
        total = ip.effective_weight(nu, ones, h, space.universe)
        a_ind = ip.indecisive_set(space, a)
        i_a = ip.effective_weight(nu, ones, h, a)
        j_aind = ip.uncertainty_weight(nu, ones, h, a_ind)
        i_aind = ip.effective_weight(nu, ones, h, a_ind)
        i_union = ip.effective_weight(nu, ones, h, a | a_ind)
        assert j_aind <= i_aind
        assert i_a + i_aind == Fraction(1, 2) + Fraction(2, 3)
        assert i_union == Fraction(5, 6)
        assert i_a + i_aind > i_union  # second inclusion fails here

    def test_clamp_fires_and_is_recorded(self):
        space, p, ones = _umbrella()
        nu = ip.distort(p, CONCAVE_BEND)
        h = a = space.event(["x0,00"])
        out = ip.capacity_conditional(nu, ones, a, h)
        assert out.clamped
        assert out.interval == ip.Interval(Fraction(3, 5), Fraction(1))
        assert out.superadditive is False

    def test_prime_never_clamps(self, small_fixture):
        space, r = small_fixture.space, small_fixture.degree
        capacities = dict(standard_capacities(small_fixture))
        capacities["concave"] = ip.distort(small_fixture.mass, CONCAVE_BEND)
        for nu in capacities.values():
            for hm in range(1, space.full_mask + 1):
                h = ip.Event(space, hm)
                if nu(h) == 0:
                    continue
                for am in (0, hm, space.full_mask ^ hm, space.full_mask):
                    out = ip.capacity_conditional_prime(nu, r, ip.Event(space, am), h)
                    assert not out.clamped
                    assert out.interval.hi <= 1

    def test_superadditivity_flag_none_beyond_sweep_limit(self):
        space = ip.build_space(2, ["a", "b", "c", "d"])
        p = ip.ProbabilityMeasure.uniform(space)
        nu = ip.distort(p, ip.power_distortion(2))
        ones = ip.UncertaintyDegree.ones(space)
        out = ip.capacity_conditional(
            nu, ones, space.event(["a,00"]), space.event(["a,10"])
        )
        assert out.superadditive is None

    def test_width_antimonotone_in_conditioned_event(self):
        """A ⊆ B ⇒ width(graded(B|H)) ≤ width(graded(A|H)) (super-additive)."""
        space, p, ones = _umbrella()
        nu = ip.distort(p, ip.power_distortion(2))
        for hm in range(1, space.full_mask + 1):
            h = ip.Event(space, hm)
            widths = {
                m: ip.capacity_conditional(nu, ones, ip.Event(space, m), h).interval.width
                for m in range(space.full_mask + 1)
            }
            for m in widths:
                sub = m
                while True:
                    assert widths[sub] >= widths[m]
                    if sub == 0:
                        break
                    sub = (sub - 1) & m

    def test_prime_width_violation_witness(self):
        """The widened conditional genuinely loses width anti-monotonicity."""
        space, _, ones = _umbrella()
        nu = ip.belief_from_mass(
            space,
            {
                space.event(["x0,10"]): "1/2",
                space.event(["x0,00", "x0,10", "x0,11"]): "1/2",
            },
        )
        h = space.event(["x0,10"])
        a = space.event(["x0,00"])
        b = space.event(["x0,00", "x0,11"])
        assert a <= b
        wa = ip.capacity_conditional_prime(nu, ones, a, h).interval.width
        wb = ip.capacity_conditional_prime(nu, ones, b, h).interval.width
        assert wa == Fraction(1, 2)
        assert wb == Fraction(1)
        assert wb > wa
