"""The value-invariant checks: one check per invariant, each quoting values through ``clipped``.

Every refusal below is the same ``ConstraintError`` the folded hand-written
copies raised.  With an offending value of 4300 digits, the message and the
witness stay short, because the checks never format a value in full.  Names
(labels, bit strings, eventualities, scenario names) are quoted the same way.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import intprob as ip
from intprob.cli import _named
from intprob.errors import ConstraintError
from intprob.measure import check_ends, check_mass, check_order, check_unit

from conftest import CONCAVE_BEND

F = Fraction
HUGE = F(10**4299)  # 4300 digits
TINY = F(1, 10**4299)  # a 4300-digit denominator


def _space1():
    return ip.build_space(1, ["a"])


def _space2():
    return ip.build_space(2, ["x0"])


def _belief(weights):
    space = _space1()
    a0, a1 = space.event(["a,0"]), space.event(["a,1"])
    return ip.belief_from_mass(space, dict(zip((a0, a1), weights)))


def _choquet_on(values):
    space = _space1()
    nu = ip.distort(ip.ProbabilityMeasure.uniform(space), ip.power_distortion(2))
    return ip.choquet(nu, ip.RandomVariable(space, values))


def _thresholds(values, y_first=0):
    space = _space2()
    y = ip.RandomVariable(space, (y_first, 0, 0, 0))
    return ip.stratified_cdf_closed_form(
        ip.ProbabilityMeasure.uniform(space), values, y, 0
    )


POINT_0, POINT_1 = ip.Interval(0, 0), ip.Interval(1, 1)

# Each folded site, refused on a value of 4300 digits or more.  The first
# five are the paths whose records quoted that value in full before the fold.
HUGE_CASES = {
    "negative mass": lambda: ip.ProbabilityMeasure(_space1(), (-HUGE, HUGE + 1)),
    "uncertainty degree": lambda: ip.UncertaintyDegree(_space1(), (HUGE, 1)),
    "belief negative mass": lambda: _belief((-HUGE, HUGE + 1)),
    "piecewise y order": lambda: ip.PiecewiseLinear(
        ((F(0), F(0)), (F(1, 2), 1 - TINY), (F(3, 4), F(1, 2)), (F(1), F(1)))
    ),
    "table ends": lambda: ip.capacity_from_table(_space1(), [TINY, "1/3", "1/3", 1]),
    "mass total": lambda: ip.ProbabilityMeasure(_space1(), (TINY, F(1, 2))),
    "belief mass total": lambda: _belief((TINY, F(1, 2))),
    "choquet integrand": lambda: _choquet_on((HUGE, 0)),
    "piecewise argument": lambda: CONCAVE_BEND(HUGE),
    "piecewise x order": lambda: ip.PiecewiseLinear(
        ((F(0), F(0)), (F(1, 2) + TINY, F(1, 2)), (F(1, 2), F(3, 4)), (F(1), F(1)))
    ),
    "cdf breakpoints": lambda: ip.IntervalCDF((HUGE, 0), (POINT_0, POINT_0, POINT_1)),
    "cdf left endpoints": lambda: ip.IntervalCDF(
        (0, 1), (ip.Interval(F(1, 2), F(1, 2)), ip.Interval(F(1, 2) - TINY, F(1, 2)), POINT_1)
    ),
    "thresholds": lambda: _thresholds([HUGE, 0]),
    "stratum value": lambda: _thresholds([0, 1], y_first=HUGE),
    "distortion ends": lambda: ip.distort(
        ip.ProbabilityMeasure.uniform(_space1()), lambda t: (t + TINY) / (1 + TINY)
    ),
    "event mask": lambda: ip.Event(_space2(), 1 << 20000),
    "space n": lambda: ip.build_space(-(10**5000), ["x0"]),
}


@pytest.mark.parametrize("build", list(HUGE_CASES.values()), ids=list(HUGE_CASES))
def test_huge_values_are_quoted_short(build):
    with pytest.raises(ConstraintError) as info:
        build()
    assert len(str(info.value)) < 100
    assert len(repr(info.value.witness)) < 100


def test_huge_n_is_refused_by_size_and_quoted_short():
    with pytest.raises(ip.PreconditionError) as info:
        ip.build_space(10**5000, ["x0"])
    assert len(str(info.value)) < 120


@pytest.mark.parametrize(
    "refuse, message, witness",
    [
        (lambda: check_mass([F(1, 2), F(-1, 2), F(1)]), "negative mass -1/2", "-1/2"),
        (lambda: check_mass([F(1, 2), F(1, 3)]), "masses must sum to exactly 1, got 5/6", "5/6"),
        (lambda: check_unit("argument", [F(0), F(3, 2)]), "argument 3/2 outside [0, 1]", "3/2"),
        (lambda: check_unit("value", [F(-1, 4)]), "value -1/4 outside [0, 1]", "-1/4"),
        (
            lambda: check_order("x", [F(0), F(1, 2), F(1, 3)]),
            "x must not decrease",
            ("1/2", "1/3"),
        ),
        (
            lambda: check_order("x", [F(0), F(1, 2), F(1, 2)], strict=True),
            "x must strictly increase",
            ("1/2", "1/2"),
        ),
        (
            lambda: _thresholds([F(1, 2), F(1, 4)]),
            "thresholds must not decrease",
            ("1/2", "1/4"),
        ),
        (
            lambda: check_ends("g(0) and g(1)", F(1, 8), F(1)),
            "g(0) and g(1) must be 0 and 1, got 1/8 and 1",
            ("1/8", "1"),
        ),
        (
            lambda: check_ends("g(0) and g(1)", F(0), F(7, 8)),
            "g(0) and g(1) must be 0 and 1, got 0 and 7/8",
            ("0", "7/8"),
        ),
        (
            lambda: ip.Event(_space2(), 1 << 4),
            "event mask 0x10 has bits outside the universe",
            "0x10",
        ),
        (lambda: ip.build_space(0, ["x0"]), "n must be a positive integer, got 0", None),
        (lambda: ip.build_space("3", ["x0"]), "n must be a positive integer, got '3'", None),
    ],
)
def test_short_values_are_quoted_in_full(refuse, message, witness):
    with pytest.raises(ConstraintError) as info:
        refuse()
    assert str(info.value) == message
    assert info.value.witness == witness


LONG = "L" * 5000


def _scenario(**extra):
    doc = {"n": 2, "e_labels": ["x0"], "mass": {"x0,00": "1"}}
    doc.update(extra)
    return ip.parse_scenario(doc)


# Each refusal that quotes a name, refused on a name of 5000 characters.
LONG_NAME_CASES = {
    "unknown label": lambda: _space2().event([LONG + ",00"]),
    "bad bits": lambda: _space2().event(["x0," + "0" * 5000]),
    "no comma": lambda: _space2().event(["x0" + "0" * 5000]),
    "non-string label": lambda: ip.build_space(1, [list(range(5000))]),
    "repeated label": lambda: ip.build_space(1, [LONG, LONG]),
    "capacity name": lambda: _scenario(capacities={LONG: {"kind": "magic"}}),
    "capacity kind": lambda: _scenario(capacities={"nu": {"kind": LONG}}),
    "distortion type": lambda: _scenario(
        capacities={"nu": {"kind": "distortion", "distortion": {"type": LONG}}}
    ),
    "event name": lambda: _scenario(events={LONG: "x0,00"}),
    "variable name": lambda: _scenario(variables={LONG: []}),
    "scenario keys": lambda: _scenario(**{LONG: 1}),
    "available names": lambda: _named({LONG: 1, "H": 2}, "Q", "event"),
    "requested name": lambda: _named({}, LONG, "event"),
}


@pytest.mark.parametrize("build", list(LONG_NAME_CASES.values()), ids=list(LONG_NAME_CASES))
def test_long_names_are_quoted_short(build):
    with pytest.raises(ConstraintError) as info:
        build()
    assert len(str(info.value)) < 300
    assert len(repr(info.value.witness)) < 300


@pytest.mark.parametrize(
    "refuse, message, witness",
    [
        (lambda: _space2().event(["q,00"]), "unknown label 'q'", "q"),
        (
            lambda: _space2().event(["x0,0"]),
            "bit sequence must be 2 characters of 0/1, got '0'",
            "0",
        ),
        (lambda: _space2().event(["x0"]), "eventuality must look like 'label,bits', got 'x0'", "x0"),
        (
            lambda: _scenario(capacities={"nu": {"kind": "magic"}}),
            "kind must be one of ['belief_mass', 'distortion', 'table'], got 'magic', in capacity 'nu'",
            None,
        ),
        (
            lambda: _named({"A": 1, "H": 2}, "Q", "event"),
            "available events are ['A', 'H']; scenario declares no event named 'Q'",
            None,
        ),
    ],
)
def test_short_names_are_quoted_in_full(refuse, message, witness):
    with pytest.raises(ConstraintError) as info:
        refuse()
    assert str(info.value) == message
    assert info.value.witness == witness
