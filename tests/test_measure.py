"""Intervals, measures, degrees, interval measures, the axiom sweep."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import intprob as ip
from intprob.errors import ConstraintError, PreconditionError
from intprob.measure import clipped

from conftest import events, measured_spaces


class TestClipped:
    def test_short_values_verbatim_long_text_cut(self):
        assert clipped(Fraction(1, 3)) == "1/3"
        assert clipped("7" * 50) == "7" * 40 + "..."

    def test_huge_rational_shown_by_size(self):
        text = clipped(Fraction(1, 10**5000 + 1))
        assert len(text) <= 50
        assert "5000" in text

    def test_unbalanced_masses_message_stays_short(self):
        space = ip.build_space(1, ["a"])
        d = 10**2500 + 1
        with pytest.raises(ConstraintError) as info:
            ip.ProbabilityMeasure(space, (Fraction(1, d), Fraction(1, d + 2)))
        assert len(str(info.value)) < 100
        assert len(info.value.witness) <= 50


class TestRationalCoercion:
    def test_accepts_exact_forms(self):
        assert ip.as_rational(1) == 1
        assert ip.as_rational("3/7") == Fraction(3, 7)
        assert ip.as_rational(Fraction(2, 5)) == Fraction(2, 5)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(ConstraintError):
            ip.as_rational(0.25)
        with pytest.raises(ConstraintError):
            ip.as_rational(True)

    def test_rejects_garbage_strings(self):
        with pytest.raises(ConstraintError):
            ip.as_rational("1/0")
        with pytest.raises(ConstraintError):
            ip.as_rational("pi")


    @pytest.mark.parametrize(
        "text",
        ["9" * 4300, "1/" + "7" * 4300, "." + "3" * 4299, "1e4298", "2.5e-4297"],
    )
    def test_accepts_literals_up_to_the_digit_limit(self, text):
        assert ip.as_rational(text) == Fraction(text)

    @pytest.mark.parametrize(
        "text", ["9" * 4301, "1e4300", "1e-4300", ".1e-4299", "1e" + "9" * 5000]
    )
    def test_rejects_longer_literals_before_building_them(self, text):
        with pytest.raises(ConstraintError, match="more than 4300 digits") as info:
            ip.as_rational(text)
        assert len(str(info.value)) < 100


class TestInterval:
    def test_ordering_and_bounds(self):
        ip.Interval(Fraction(0), Fraction(1))
        with pytest.raises(ConstraintError):
            ip.Interval(Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(ConstraintError):
            ip.Interval(Fraction(-1, 4), Fraction(1, 2))
        with pytest.raises(ConstraintError):
            ip.Interval(Fraction(1, 2), Fraction(5, 4))

    def test_width_encloses_str(self):
        inner = ip.Interval(Fraction(1, 4), Fraction(3, 4))
        outer = ip.Interval(Fraction(1, 8), Fraction(7, 8))
        assert inner.width == Fraction(1, 2)
        assert outer.encloses(inner)
        assert not inner.encloses(outer)
        assert str(inner) == "[1/4, 3/4]"
        assert repr(inner) == "Interval(1/4, 3/4)"

    def test_text_of_huge_endpoints_never_raises(self):
        tiny = ip.Interval(Fraction(1, 10**5000), Fraction(1))
        assert repr(tiny) == "Interval(<rational with a part of ~5000 digits>, 1)"
        assert str(tiny) == "[<rational with a part of ~5000 digits>, 1]"
        with pytest.raises(ConstraintError) as info:
            ip.Interval(Fraction(10**5000), Fraction(1))
        assert len(str(info.value)) < 200


class TestProbabilityMeasure:
    def test_must_sum_to_one(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError):
            ip.ProbabilityMeasure(space, (Fraction(1, 2), Fraction(1, 4)))

    def test_rejects_negative(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError):
            ip.ProbabilityMeasure(space, (Fraction(3, 2), Fraction(-1, 2)))

    def test_from_map_defaults_to_zero(self):
        space = ip.build_space(1, ["a"])
        p = ip.ProbabilityMeasure.from_map(space, {"a,0": "1"})
        assert p.values == (Fraction(1), Fraction(0))

    def test_from_map_unknown_name(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError):
            ip.ProbabilityMeasure.from_map(space, {"b,0": "1"})

    def test_call_is_additive(self, fixture):
        p, space = fixture.mass, fixture.space
        assert p(space.universe) == 1
        assert p(space.empty) == 0
        h = ip.Event(space, 0b0101)
        k = ip.Event(space, 0b1010)
        assert p(h | k) == p(h) + p(k)


class TestRandomVariable:
    def test_sublevel(self):
        space = ip.build_space(2, ["x0"])
        x = ip.RandomVariable.from_map(
            space, {"x0,00": 1, "x0,01": 2, "x0,10": 2, "x0,11": 3}
        )
        assert x.sublevel(Fraction(2)).members() == ("x0,00", "x0,01", "x0,10")
        assert x.sublevel(Fraction(0)) == space.empty
        assert x.sublevel(Fraction(3)) == space.universe

    def test_attained_sorted_distinct(self):
        space = ip.build_space(1, ["a"])
        x = ip.RandomVariable.from_map(space, {"a,0": 5, "a,1": "1/2"})
        assert x.attained() == (Fraction(1, 2), Fraction(5))

    def test_indicator_and_constant(self):
        space = ip.build_space(1, ["a"])
        h = space.event(["a,1"])
        assert ip.RandomVariable.indicator(h).values == (Fraction(0), Fraction(1))
        assert ip.RandomVariable.constant(space, "2/3").values == (
            Fraction(2, 3),
            Fraction(2, 3),
        )


class TestUncertaintyDegree:
    def test_unit_range_enforced(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError):
            ip.UncertaintyDegree(space, (Fraction(1), Fraction(3, 2)))
        with pytest.raises(ConstraintError):
            ip.UncertaintyDegree(space, (Fraction(-1, 2), Fraction(1)))

    def test_from_map_defaults_to_one(self):
        space = ip.build_space(1, ["a"])
        r = ip.UncertaintyDegree.from_map(space, {"a,0": "1/3"})
        assert r.values == (Fraction(1, 3), Fraction(1))

    def test_ones(self):
        space = ip.build_space(2, ["x0"])
        assert ip.UncertaintyDegree.ones(space).values == (Fraction(1),) * 4


class TestUncertaintyVariable:
    def test_is_degree_on_indecisive_set(self, fixture):
        space, r = fixture.space, fixture.degree
        for h in space.events():
            g = ip.uncertainty_variable(space, h, r)
            ind = ip.indecisive_set(space, h)
            for i in range(space.omega_size):
                expected = r.values[i] if i in ind else Fraction(0)
                assert g.values[i] == expected

    def test_expectation(self):
        space = ip.build_space(1, ["a"])
        p = ip.ProbabilityMeasure.from_map(space, {"a,0": "1/3", "a,1": "2/3"})
        x = ip.RandomVariable.from_map(space, {"a,0": 3, "a,1": "3/2"})
        assert ip.expectation(p, x) == Fraction(2)

    def test_expectation_space_mismatch(self):
        a = ip.build_space(1, ["a"])
        b = ip.build_space(1, ["b"])
        with pytest.raises(PreconditionError):
            ip.expectation(
                ip.ProbabilityMeasure.uniform(a), ip.RandomVariable.constant(b, 1)
            )


class TestIntervalMeasure:
    def test_umbrella_anchor(self):
        space = ip.build_space(2, ["x0"])
        p = ip.ProbabilityMeasure.uniform(space)
        r = ip.UncertaintyDegree.ones(space)
        h = space.event(["x0,10"])
        assert ip.interval_measure(p, r, h) == ip.Interval(
            Fraction(1, 4), Fraction(3, 4)
        )

    def test_boundary_events(self, fixture):
        p, r, space = fixture.mass, fixture.degree, fixture.space
        full = ip.interval_measure(p, r, space.universe)
        assert (full.lo, full.hi) == (1, 1)
        empty = ip.interval_measure(p, r, space.empty)
        assert empty.lo == 0
        assert empty.hi == ip.expectation(p, ip.RandomVariable(space, r.values))

    def test_definition_pointwise(self, fixture):
        """lo = P(H); hi − lo = E[r · 1_{H_ind}]."""
        p, r, space = fixture.mass, fixture.degree, fixture.space
        for h in space.events():
            q = ip.interval_measure(p, r, h)
            assert q.lo == p(h)
            assert q.width == ip.expectation(
                p, ip.uncertainty_variable(space, h, r)
            )

    def test_duality_at_r_one(self, fixture):
        p, space = fixture.mass, fixture.space
        ones = fixture.ones
        for h in space.events():
            q = ip.interval_measure(p, ones, h)
            wc = ip.weak_complement(space, h)
            assert q.hi == 1 - p(wc)
            assert q.hi == ip.interval_measure(p, ones, wc.complement()).lo

    def test_width_bound_via_marginal(self, fixture):
        """width ≤ P(H_ind), and P(H_ind) decomposes over untouched pairs."""
        p, r, space = fixture.mass, fixture.degree, fixture.space
        block = 1 << space.n
        for h in space.events():
            ind = ip.indecisive_set(space, h)
            assert ip.interval_measure(p, r, h).width <= p(ind)
            pair_sum = Fraction(0)
            for z in space.z_classes:
                if z.mask & h.mask == 0:
                    rep = min(i % block for i in z)
                    partner = rep ^ (block - 1)
                    pair_sum += ip.marginal_mass(p, f"{rep:0{space.n}b}")
                    pair_sum += ip.marginal_mass(p, f"{partner:0{space.n}b}")
            assert p(ind) == pair_sum

    def test_space_mismatch(self):
        a = ip.build_space(1, ["a"])
        b = ip.build_space(1, ["b"])
        with pytest.raises(PreconditionError):
            ip.interval_measure(
                ip.ProbabilityMeasure.uniform(a),
                ip.UncertaintyDegree.ones(a),
                b.universe,
            )

    @given(data=st.data())
    def test_axioms_hold_generically(self, data):
        space, p, r = data.draw(measured_spaces(max_points=8))
        h = data.draw(events(space))
        k = data.draw(events(space))
        qh = ip.interval_measure(p, r, h)
        if h.isdisjoint(k):
            assert ip.interval_measure(p, r, h | k).lo == qh.lo + ip.interval_measure(p, r, k).lo
        if h <= k:
            assert ip.interval_measure(p, r, k).width <= qh.width


class TestMarginalMass:
    def test_sums_labels(self):
        space = ip.build_space(1, ["a", "b"])
        p = ip.ProbabilityMeasure.from_map(
            space, {"a,0": "1/6", "a,1": "1/3", "b,0": "1/3", "b,1": "1/6"}
        )
        assert ip.marginal_mass(p, "0") == Fraction(1, 2)
        assert ip.marginal_mass(p, "1") == Fraction(1, 2)

    def test_bad_pattern(self):
        space = ip.build_space(2, ["a"])
        p = ip.ProbabilityMeasure.uniform(space)
        for bits in ("0", "210", ""):
            with pytest.raises(ConstraintError):
                ip.marginal_mass(p, bits)


def _interval_map(p, r):
    return {h: ip.interval_measure(p, r, h) for h in p.space.events()}


class TestValidateImprecise:
    def test_passes_on_registered_fixtures(self, fixture):
        report = ip.validate_imprecise(_interval_map(fixture.mass, fixture.degree))
        assert report.passed
        assert report.mode == "exhaustive-pairs"
        assert report.additivity_witnesses == ()
        assert report.width_witnesses == ()

    def test_edge_mode_on_sixteen_points(self):
        space = ip.build_space(2, ["a", "b", "c", "d"])
        p = ip.ProbabilityMeasure.uniform(space)
        r = ip.UncertaintyDegree.from_map(space, {"a,00": "1/2"})
        report = ip.validate_imprecise(_interval_map(p, r))
        assert report.passed
        assert report.mode == "lattice-edges"

    def test_rejects_oversized_space(self):
        space = ip.build_space(1, ["a", "b", "c", "d", "e", "f", "g", "h", "i"])
        with pytest.raises(PreconditionError):
            ip.validate_imprecise(
                {space.empty: ip.Interval(Fraction(0), Fraction(0))}
            )

    def test_rejects_incomplete_map(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError):
            ip.validate_imprecise({space.empty: ip.Interval(Fraction(0), Fraction(0))})
        with pytest.raises(ConstraintError):
            ip.validate_imprecise({})

    def test_detects_boundary_violation(self):
        space = ip.build_space(1, ["a"])
        q = _interval_map(
            ip.ProbabilityMeasure.uniform(space), ip.UncertaintyDegree.ones(space)
        )
        q[space.empty] = ip.Interval(Fraction(1, 8), Fraction(1, 2))
        report = ip.validate_imprecise(q)
        assert not report.passed
        assert not report.boundary_ok
        assert "lo({})" in report.boundary_detail

    def test_detects_additivity_violation_with_witness(self):
        space = ip.build_space(1, ["a"])
        q = _interval_map(
            ip.ProbabilityMeasure.uniform(space), ip.UncertaintyDegree.ones(space)
        )
        bad = space.event(["a,0"])
        q[bad] = ip.Interval(Fraction(1, 3), Fraction(1))
        report = ip.validate_imprecise(q)
        assert not report.additive
        assert any(bad in pair for pair in report.additivity_witnesses)

    def test_detects_width_violation_with_witness(self):
        space = ip.build_space(1, ["a"])
        p = ip.ProbabilityMeasure.uniform(space)
        ones = ip.UncertaintyDegree.ones(space)
        q = _interval_map(p, ones)
        h = space.event(["a,0"])
        # Same left endpoint, wider than the width at the empty event's
        # subset... widen a superset instead: give Omega a positive width.
        q[space.universe] = ip.Interval(Fraction(1, 2), Fraction(1))
        report = ip.validate_imprecise(q)
        assert not report.passed
        assert not report.widths_antimonotone or not report.boundary_ok

    def test_mixed_spaces_rejected(self):
        a = ip.build_space(1, ["a"])
        b = ip.build_space(1, ["b"])
        q = _interval_map(
            ip.ProbabilityMeasure.uniform(a), ip.UncertaintyDegree.ones(a)
        )
        q.pop(a.universe)
        q[b.universe] = ip.Interval(Fraction(1), Fraction(1))
        with pytest.raises(ConstraintError):
            ip.validate_imprecise(q)
