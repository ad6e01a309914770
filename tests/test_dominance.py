"""Interval distribution functions, closed forms, stochastic dominance."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import intprob as ip
from intprob.errors import ConstraintError, PreconditionError

from conftest import CONCAVE_BEND, measured_spaces, variables


def _example_fixture():
    """Uniform n=2 space with a class-constant X and a straddling Y."""
    space = ip.build_space(2, ["x0"])
    p = ip.ProbabilityMeasure.uniform(space)
    ones = ip.UncertaintyDegree.ones(space)
    x = ip.RandomVariable.from_map(
        space, {"x0,00": 1, "x0,11": 1, "x0,01": 2, "x0,10": 2}
    )
    y = ip.RandomVariable.from_map(
        space, {"x0,00": "1/2", "x0,11": 1, "x0,10": "3/2", "x0,01": 2}
    )
    return space, p, ones, x, y


class TestIntervalCDF:
    def test_validation(self):
        F = Fraction
        unit = ip.Interval(F(1), F(1))
        with pytest.raises(ConstraintError):
            ip.IntervalCDF((), (unit,))
        with pytest.raises(ConstraintError):
            ip.IntervalCDF((F(1),), (unit,))
        with pytest.raises(ConstraintError):
            ip.IntervalCDF((F(1), F(1)), (unit, unit, unit))
        with pytest.raises(ConstraintError):
            ip.IntervalCDF(
                (F(1),), (ip.Interval(F(1, 2), F(1)), ip.Interval(F(1, 4), F(1)))
            )
        with pytest.raises(ConstraintError):
            ip.IntervalCDF((F(1),), (unit, ip.Interval(F(1, 2), F(1))))

    def test_terminal_message_with_huge_endpoint(self):
        zero = ip.Interval(Fraction(0), Fraction(0))
        tiny = ip.Interval(Fraction(1, 10**5000), Fraction(1))
        with pytest.raises(ConstraintError) as info:
            ip.IntervalCDF((Fraction(1),), (zero, tiny))
        assert str(info.value) == (
            "terminal segment must be [1, 1], "
            "got [<rational with a part of ~5000 digits>, 1]"
        )

    def test_at_and_regions(self):
        space, p, ones, x, _ = _example_fixture()
        cdf = ip.interval_cdf(p, ones, x)
        assert cdf.breakpoints == (Fraction(1), Fraction(2))
        assert cdf.at(0) == ip.Interval(Fraction(0), Fraction(1))
        assert cdf.at(1) == ip.Interval(Fraction(1, 2), Fraction(1))
        assert cdf.at("3/2") == ip.Interval(Fraction(1, 2), Fraction(1))
        assert cdf.at(2) == ip.Interval(Fraction(1), Fraction(1))
        assert cdf.at(100) == ip.Interval(Fraction(1), Fraction(1))
        labels = [label for label, _ in cdf.regions()]
        assert labels == ["t < 1", "1 <= t < 2", "t >= 2"]

    def test_leading_segment_is_empty_event_interval(self, small_fixture):
        p, r, space = small_fixture.mass, small_fixture.degree, small_fixture.space
        x = ip.RandomVariable(
            space, tuple(Fraction(i, space.omega_size) for i in range(space.omega_size))
        )
        cdf = ip.interval_cdf(p, r, x)
        assert cdf.segments[0] == ip.interval_measure(p, r, space.empty)
        assert cdf.segments[-1] == ip.Interval(Fraction(1), Fraction(1))

    def test_matches_pointwise_definition(self, small_fixture):
        p, r, space = small_fixture.mass, small_fixture.degree, small_fixture.space
        x = ip.RandomVariable(
            space,
            tuple(Fraction((3 * i) % 5, 5) for i in range(space.omega_size)),
        )
        cdf = ip.interval_cdf(p, r, x)
        for t in (Fraction(-1), Fraction(1, 5), Fraction(3, 10), Fraction(2)):
            assert cdf.at(t) == ip.interval_measure(p, r, x.sublevel(t))

    def test_space_mismatch(self):
        space, p, ones, x, _ = _example_fixture()
        other = ip.build_space(1, ["a"])
        with pytest.raises(PreconditionError):
            ip.interval_cdf(p, ones, ip.RandomVariable.constant(other, 1))


class TestCapacityCDF:
    def test_additive_matches_measure_cdf(self, small_fixture):
        nu = ip.distort(small_fixture.mass, ip.power_distortion(1))
        p, r = small_fixture.mass, small_fixture.degree
        x = ip.RandomVariable(
            small_fixture.space,
            tuple(Fraction(i % 3, 3) for i in range(small_fixture.space.omega_size)),
        )
        for prime in (False, True):
            cdf = ip.capacity_interval_cdf(nu, r, x, prime=prime)
            direct = ip.interval_cdf(p, r, x)
            assert cdf.breakpoints == direct.breakpoints
            assert cdf.segments == direct.segments

    def test_segments_are_capacity_intervals(self):
        space, p, ones, x, _ = _example_fixture()
        nu = ip.distort(p, ip.power_distortion(2))
        cdf = ip.capacity_interval_cdf(nu, ones, x, prime=True)
        for t in (Fraction(0), Fraction(1), Fraction(2)):
            assert cdf.at(t) == ip.capacity_interval_prime(nu, ones, x.sublevel(t))


class TestClosedForm:
    def test_class_constant_variable_agrees(self):
        """X constant per class: closed form and direct value coincide."""
        space, p, ones, x, _ = _example_fixture()
        for t in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)):
            cmp_ = ip.stratified_cdf_closed_form(p, [1, 2], x, t)
            assert cmp_.matches, t
            assert cmp_.direct == ip.interval_cdf(p, ones, x).at(t)

    def test_straddling_variable_disagrees_inside_stratum(self):
        """Y partially absorbs class 2 at t = 7/10... the closed form's
        right endpoint drops a whole class while the direct value only
        drops the part above t."""
        space, p, ones, _, y = _example_fixture()
        cmp_ = ip.stratified_cdf_closed_form(p, [1, 2], y, "7/10")
        assert cmp_.closed_lo == Fraction(1, 4)
        assert cmp_.closed_hi == Fraction(1, 2)
        assert cmp_.direct == ip.Interval(Fraction(1, 4), Fraction(3, 4))
        assert not cmp_.matches
        assert cmp_.closed_is_interval

    def test_closed_form_can_invert(self):
        """The closed-form endpoints can cross: lo > hi on fixtures where
        most mass is already below t but delta still fires."""
        space = ip.build_space(2, ["x0"])
        p = ip.ProbabilityMeasure.from_map(
            space, {"x0,00": "1/8", "x0,11": "1/8", "x0,01": "1/8", "x0,10": "5/8"}
        )
        y = ip.RandomVariable.from_map(
            space, {"x0,00": "1/2", "x0,11": 1, "x0,10": "3/2", "x0,01": 2}
        )
        cmp_ = ip.stratified_cdf_closed_form(p, [1, 2], y, "8/5")
        # Most of the mass (7/8) is already at or below t, yet the value
        # 3/2 strictly inside (1, 8/5) fires delta, so the closed right
        # endpoint drops all of Z2: 1 - 3/4 = 1/4 < closed_lo.
        assert cmp_.closed_lo == Fraction(7, 8)
        assert cmp_.closed_hi == Fraction(1, 4)
        assert cmp_.direct == ip.Interval(Fraction(7, 8), Fraction(7, 8))
        assert not cmp_.closed_is_interval
        assert not cmp_.matches

    def test_at_boundary_threshold_right_endpoint_is_one(self):
        space, p, ones, _, y = _example_fixture()
        cmp_ = ip.stratified_cdf_closed_form(p, [1, 2], y, 1)
        # t = t_1 exactly: class 1 fully absorbed, i* = 2, nothing of class 2
        # lies strictly between 1 and 1, so delta is empty.
        assert cmp_.closed_hi == Fraction(1)
        assert cmp_.matches

    def test_past_last_threshold_is_unit(self):
        space, p, ones, _, y = _example_fixture()
        cmp_ = ip.stratified_cdf_closed_form(p, [1, 2], y, 3)
        assert (cmp_.closed_lo, cmp_.closed_hi) == (Fraction(1), Fraction(1))
        assert cmp_.matches

    def test_rejects_misshapen_inputs(self):
        space, p, ones, x, y = _example_fixture()
        with pytest.raises(ConstraintError):
            ip.stratified_cdf_closed_form(p, [1], x, 1)
        with pytest.raises(ConstraintError):
            ip.stratified_cdf_closed_form(p, [2, 1], x, 1)
        # x's class-1 values (= 1) violate a floor of 1: stratum is (1, 2]
        with pytest.raises(ConstraintError):
            ip.stratified_cdf_closed_form(p, [1, 2], x, 1, floor=1)
        # y's value 1/2 escapes below a floor of 3/4
        with pytest.raises(ConstraintError):
            ip.stratified_cdf_closed_form(p, [1, 2], y, 1, floor="3/4")

    def test_floor_accepts_tight_bound(self):
        space, p, ones, _, y = _example_fixture()
        cmp_ = ip.stratified_cdf_closed_form(p, [1, 2], y, "7/10", floor="1/4")
        assert cmp_.closed_lo == Fraction(1, 4)


class TestDominates:
    def test_example_pair(self):
        space, p, ones, x, y = _example_fixture()
        verdict = ip.dominates(p, ones, x, y)
        assert verdict.dominates
        assert verdict.witness_t is None
        assert verdict.failed_inequality is None

    def test_equal_variables_dominate_each_other(self, small_fixture):
        space = small_fixture.space
        x = ip.RandomVariable(
            space, tuple(Fraction(i % 3) for i in range(space.omega_size))
        )
        assert ip.dominates(small_fixture.mass, small_fixture.degree, x, x).dominates

    def test_left_endpoint_failure_with_witness(self):
        space, p, ones, x, y = _example_fixture()
        low = ip.RandomVariable.constant(space, 0)
        high = ip.RandomVariable.constant(space, 1)
        verdict = ip.dominates(p, ones, low, high)
        assert not verdict.dominates
        assert verdict.failed_inequality == "left-endpoint"
        assert verdict.witness_t == Fraction(0)

    def test_width_failure_with_witness(self):
        """Left endpoints stay ordered but the dominated side is wider."""
        space = ip.build_space(2, ["x0"])
        p = ip.ProbabilityMeasure.uniform(space)
        ones = ip.UncertaintyDegree.ones(space)
        # {X <= 0} straddles both classes (width 0), while {Y <= 0} is a
        # whole class (width 1/2); both have lower probability 1/2, so
        # only the width clause fails.
        x = ip.RandomVariable.from_map(
            space, {"x0,00": 0, "x0,01": 0, "x0,10": 2, "x0,11": 2}
        )
        y = ip.RandomVariable.from_map(
            space, {"x0,00": 0, "x0,11": 0, "x0,01": 2, "x0,10": 2}
        )
        verdict = ip.dominates(p, ones, x, y)
        assert not verdict.dominates
        assert verdict.failed_inequality == "width"
        assert verdict.witness_t == Fraction(0)

    def test_dominance_respects_pointwise_order_for_class_constants(
        self, small_fixture
    ):
        """Class-constant X ≥ Y pointwise gives full dominance at r = 1."""
        space = small_fixture.space
        ones = small_fixture.ones
        n_classes = len(space.z_classes)
        xv = [Fraction(0)] * space.omega_size
        yv = [Fraction(0)] * space.omega_size
        for j, z in enumerate(space.z_classes):
            for i in z:
                xv[i] = Fraction(j + 1)
                yv[i] = Fraction(j + 1, 2)
        x = ip.RandomVariable(space, tuple(xv))
        y = ip.RandomVariable(space, tuple(yv))
        assert ip.dominates(small_fixture.mass, ones, x, y).dominates

    def test_space_mismatch(self):
        space, p, ones, x, _ = _example_fixture()
        other = ip.build_space(1, ["a"])
        with pytest.raises(PreconditionError):
            ip.dominates(p, ones, x, ip.RandomVariable.constant(other, 1))

    @given(data=st.data())
    def test_verdict_matches_direct_sweep(self, data):
        space, p, r = data.draw(measured_spaces(max_points=8))
        x = data.draw(variables(space))
        y = data.draw(variables(space))
        verdict = ip.dominates(p, r, x, y)
        cdf_x = ip.interval_cdf(p, r, x)
        cdf_y = ip.interval_cdf(p, r, y)
        grid = sorted(set(x.values) | set(y.values))
        grid = [grid[0] - 1] + grid
        expected = all(
            cdf_x.at(t).lo <= cdf_y.at(t).lo
            and cdf_y.at(t).width <= cdf_x.at(t).width
            for t in grid
        )
        assert verdict.dominates == expected


class TestWidthCaveatSearch:
    def test_concave_distortions_are_barren(self):
        """Both capacity-interval families have anti-monotone widths under
        any distortion, so the search over them must come back empty."""
        space, p, ones, x, y = _example_fixture()
        capacities = [
            ip.distort(p, CONCAVE_BEND),
            ip.distort(
                p,
                ip.PiecewiseLinear(
                    (
                        (Fraction(0), Fraction(0)),
                        (Fraction(1, 2), Fraction(7, 8)),
                        (Fraction(1), Fraction(1)),
                    )
                ),
            ),
        ]
        pairs = [(x, y), (y, y), (x, x)]
        assert ip.find_width_caveat(capacities, pairs, ones, prime=True) is None
        assert ip.find_width_caveat(capacities, pairs, ones, prime=False) is None

    def test_subadditive_table_yields_witness(self):
        """A hand-built sub-additive table does produce a width caveat
        under the widened family."""
        space, p, ones, x, y = _example_fixture()
        F = Fraction
        table = [F(0)] * 16
        for mask in range(1, 16):
            bits = bin(mask).count("1")
            table[mask] = {1: F(2, 5), 2: F(1, 2), 3: F(3, 5), 4: F(1)}[bits]
        table[space.z_classes[0].mask] = F(3, 5)
        table[space.z_classes[1].mask] = F(2, 5)
        nu = ip.capacity_from_table(space, table)
        profile = ip.is_superadditive(nu)
        assert profile.subadditive and not profile.superadditive
        xc = ip.RandomVariable.from_map(space, {"x0,10": 0}, default=1)
        yc = ip.RandomVariable.from_map(space, {"x0,10": 0, "x0,01": 0}, default=1)
        witness = ip.find_width_caveat([nu], [(xc, yc)], ones, prime=True)
        assert witness is not None
        assert witness.t == Fraction(0)
        assert (witness.width_f, witness.width_g) == (Fraction(1, 5), Fraction(3, 5))
        # the clamped (non-prime) family stays clean even here
        assert ip.find_width_caveat([nu], [(xc, yc)], ones, prime=False) is None

    def test_skips_unordered_pairs(self):
        space, p, ones, x, y = _example_fixture()
        nu = ip.distort(p, ip.power_distortion(2))
        # y is not pointwise >= x anywhere relevant: swapped pair is skipped,
        # and a skipped search returns None rather than a spurious witness.
        assert ip.find_width_caveat([nu], [(y, x)], ones, prime=True) is None

    def test_defaults_to_degree_one(self):
        space, p, _, x, y = _example_fixture()
        nu = ip.distort(p, ip.power_distortion(2))
        assert ip.find_width_caveat([nu], [(x, y)]) is None
