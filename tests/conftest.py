"""Shared fixtures: a registry of small exact spaces with measures and degrees.

Every test that sweeps "all registered fixtures" iterates REGISTRY.  The
sizes are chosen so exhaustive event sweeps stay cheap: three 4-point
spaces, two 8-point spaces, and one 12-point space (the largest the
exhaustive validators accept).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import intprob as ip


@dataclass(frozen=True)
class Fixture:
    """One registered space with its mass and graded degree."""

    name: str
    space: ip.Space
    mass: ip.ProbabilityMeasure
    degree: ip.UncertaintyDegree

    @property
    def ones(self) -> ip.UncertaintyDegree:
        return ip.UncertaintyDegree.ones(self.space)


def _fixture(
    name: str,
    n: int,
    labels: list[str],
    mass: dict[str, str],
    degree: dict[str, str],
) -> Fixture:
    space = ip.build_space(n, labels)
    return Fixture(
        name=name,
        space=space,
        mass=ip.ProbabilityMeasure.from_map(space, mass),
        degree=ip.UncertaintyDegree.from_map(space, degree),
    )


REGISTRY: tuple[Fixture, ...] = (
    _fixture(
        "umbrella",
        2,
        ["x0"],
        {"x0,00": "1/4", "x0,01": "1/4", "x0,10": "1/4", "x0,11": "1/4"},
        {},
    ),
    _fixture(
        "skewed",
        2,
        ["x0"],
        {"x0,00": "1/2", "x0,01": "1/8", "x0,10": "1/8", "x0,11": "1/4"},
        {"x0,00": "1/2", "x0,11": "1/2"},
    ),
    _fixture(
        "two_labels",
        1,
        ["a", "b"],
        {"a,0": "1/6", "a,1": "1/3", "b,0": "1/3", "b,1": "1/6"},
        {"a,0": "1/3", "b,1": "2/3"},
    ),
    _fixture(
        "n3",
        3,
        ["x0"],
        {
            "x0,000": "1/8",
            "x0,001": "1/16",
            "x0,010": "3/16",
            "x0,011": "1/8",
            "x0,100": "1/16",
            "x0,101": "1/8",
            "x0,110": "1/8",
            "x0,111": "3/16",
        },
        {"x0,001": "1/2", "x0,010": "1/2", "x0,100": "1/2", "x0,111": "1/2"},
    ),
    _fixture(
        "labeled_n2",
        2,
        ["a", "b"],
        {
            "a,00": "1/8",
            "a,01": "1/16",
            "a,10": "1/16",
            "a,11": "1/4",
            "b,00": "1/16",
            "b,01": "1/8",
            "b,10": "1/8",
            "b,11": "3/16",
        },
        {"a,01": "3/4", "b,10": "3/4"},
    ),
    _fixture(
        "wide12",
        2,
        ["a", "b", "c"],
        {
            "a,00": "1/24",
            "a,01": "1/12",
            "a,10": "1/8",
            "a,11": "1/12",
            "b,00": "1/12",
            "b,01": "1/24",
            "b,10": "1/12",
            "b,11": "1/8",
            "c,00": "1/8",
            "c,01": "1/12",
            "c,10": "1/24",
            "c,11": "1/12",
        },
        {"a,00": "1/2", "c,11": "1/2"},
    ),
)

SMALL = tuple(f for f in REGISTRY if f.space.omega_size <= 8)
TINY = tuple(f for f in REGISTRY if f.space.omega_size <= 4)

# Concave piecewise distortion: steep start, then flat — used wherever a
# sub-additive capacity is needed.
CONCAVE_BEND = ip.PiecewiseLinear(
    ((Fraction(0), Fraction(0)), (Fraction(1, 4), Fraction(1, 2)), (Fraction(1), Fraction(1)))
)


def class_belief(fx: Fixture) -> ip.Capacity:
    """Belief function whose focal sets are the z-classes, weighted by mass."""
    return ip.belief_from_mass(
        fx.space, {cls: fx.mass(cls) for cls in fx.space.z_classes}
    )


@lru_cache(maxsize=None)
def _capacities_by_name(name: str) -> dict[str, ip.Capacity]:
    fx = next(f for f in REGISTRY if f.name == name)
    return {
        "additive": ip.distort(fx.mass, ip.power_distortion(1)),
        "square": ip.distort(fx.mass, ip.power_distortion(2)),
        "belief": class_belief(fx),
    }


def standard_capacities(fx: Fixture) -> dict[str, ip.Capacity]:
    """Three capacities per fixture: additive, convex-distorted, belief."""
    return _capacities_by_name(fx.name)


def random_measure(rng: random.Random, space: ip.Space) -> ip.ProbabilityMeasure:
    """Exact random measure: integer weights normalized by their sum."""
    weights = [rng.randint(1, 12) for _ in range(space.omega_size)]
    total = sum(weights)
    return ip.ProbabilityMeasure(space, tuple(Fraction(w, total) for w in weights))


def random_degree(rng: random.Random, space: ip.Space) -> ip.UncertaintyDegree:
    """Exact random degree: rationals in [0, 1] with small denominators."""
    values = []
    for _ in range(space.omega_size):
        den = rng.randint(1, 6)
        values.append(Fraction(rng.randint(0, den), den))
    return ip.UncertaintyDegree(space, tuple(values))


@pytest.fixture(params=REGISTRY, ids=lambda f: f.name)
def fixture(request) -> Fixture:
    return request.param


@pytest.fixture(params=SMALL, ids=lambda f: f.name)
def small_fixture(request) -> Fixture:
    return request.param


@pytest.fixture(params=TINY, ids=lambda f: f.name)
def tiny_fixture(request) -> Fixture:
    return request.param


# --- hypothesis strategies -------------------------------------------------

_LABEL_POOLS = (["x0"], ["a", "b"], ["p", "q", "s"])


@st.composite
def spaces(draw, max_n: int = 3, max_points: int = 12) -> ip.Space:
    n = draw(st.integers(min_value=1, max_value=max_n))
    pools = [p for p in _LABEL_POOLS if len(p) << n <= max_points]
    labels = draw(st.sampled_from(pools))
    return ip.build_space(n, labels)


@st.composite
def measures(draw, space: ip.Space) -> ip.ProbabilityMeasure:
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=space.omega_size,
            max_size=space.omega_size,
        ).filter(lambda w: sum(w) > 0)
    )
    total = sum(weights)
    return ip.ProbabilityMeasure(space, tuple(Fraction(w, total) for w in weights))


@st.composite
def degrees(draw, space: ip.Space) -> ip.UncertaintyDegree:
    values = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=6),
            min_size=space.omega_size,
            max_size=space.omega_size,
        )
    )
    return ip.UncertaintyDegree(space, tuple(values))


@st.composite
def events(draw, space: ip.Space) -> ip.Event:
    mask = draw(st.integers(min_value=0, max_value=space.full_mask))
    return ip.Event(space, mask)


@st.composite
def variables(draw, space: ip.Space) -> ip.RandomVariable:
    values = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=space.omega_size,
            max_size=space.omega_size,
        )
    )
    return ip.RandomVariable(space, tuple(values))


@st.composite
def measured_spaces(draw, max_n: int = 3, max_points: int = 12):
    """A space with a measure and a degree, as one draw."""
    space = draw(spaces(max_n=max_n, max_points=max_points))
    return space, draw(measures(space)), draw(degrees(space))


# Hosted CI selects this profile with --hypothesis-profile=ci, so every run
# draws the same examples; local runs keep hypothesis's random draws.
settings.register_profile("ci", derandomize=True)
