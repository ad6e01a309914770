"""Scenario files: a self-describing JSON form of a worked example.

A scenario declares one space plus the data the CLI commands need::

    {
      "n": 2,
      "e_labels": ["x0"],
      "mass": {"x0,00": "1/4", "x0,01": "1/4", "x0,10": "1/4", "x0,11": "1/4"},
      "r": {"x0,00": "1/2"},
      "events": {"H": ["x0,10"]},
      "variables": {"X": {"x0,00": "1", "x0,11": "1", "x0,10": "2", "x0,01": "2"}},
      "capacities": {"nu": {"kind": "belief_mass", "mass": [
          {"event": ["x0,00", "x0,11"], "value": "1/2"},
          {"event": ["x0,01", "x0,10"], "value": "1/2"}]}}
    }

All numbers are strings parsed exactly ("p/q" or integers); binary
floats never enter.  Omitted mass entries are 0; ``r`` is optional and
omitted entries default to 1 (the ungraded measure); omitted variable
entries are 0.  Capacity specs come in three kinds:

* ``table`` — ``values``: one rational per subset bitmask, all 2^|Omega|;
* ``belief_mass`` — ``mass``: a list of focal events with weights;
* ``distortion`` — ``distortion``: ``{"type": "power", "exponent": k}``
  or ``{"type": "piecewise", "points": [[x, y], ...]}`` applied to the
  scenario's mass.

Serialization round-trips exactly: re-parsing a dumped scenario yields
the same rationals everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .capacity import Capacity, PiecewiseLinear, belief_from_mass, capacity_from_table, distort, power_distortion
from .errors import ConstraintError, clipped
from .measure import (
    ProbabilityMeasure,
    RandomVariable,
    UncertaintyDegree,
    as_rational,
)
from .space import Event, Space, build_space

__all__ = ["Scenario", "parse_scenario", "load_scenario", "scenario_to_doc", "dump_scenario"]

_TOP_KEYS = {"n", "e_labels", "mass", "r", "events", "variables", "capacities", "comment"}
_CAPACITY_KINDS = ("belief_mass", "distortion", "table")  # a tuple: a kind may be unhashable


@dataclass
class Scenario:
    """A parsed scenario: exact values plus the raw capacity specs."""

    space: Space
    mass: ProbabilityMeasure
    r: UncertaintyDegree
    events: dict[str, Event]
    variables: dict[str, RandomVariable]
    capacities: dict[str, Capacity]
    capacity_specs: dict[str, Any] = field(default_factory=dict)
    comment: str | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConstraintError(message)


def _str_map(raw: Any, what: str) -> dict[str, Any]:
    _require(isinstance(raw, dict), f"{what} must be an object")
    for key in raw:
        _require(isinstance(key, str), f"{what} keys must be strings")
    return raw


def _build_capacity(
    name: str, spec: Any, space: Space, mass: ProbabilityMeasure
) -> Capacity:
    # The name comes last, so a name cut short by ``clipped`` ends the message.
    where = f", in capacity {clipped(repr(name))}"
    _require(isinstance(spec, dict), f"spec must be an object{where}")
    kind = spec.get("kind")
    _require(
        kind in _CAPACITY_KINDS,
        f"kind must be one of {sorted(_CAPACITY_KINDS)}, got {clipped(repr(kind))}{where}",
    )
    if kind == "table":
        values = spec.get("values")
        _require(isinstance(values, list), f"a table needs a 'values' array{where}")
        return capacity_from_table(space, [as_rational(v) for v in values])
    if kind == "belief_mass":
        rows = spec.get("mass")
        _require(isinstance(rows, list), f"a belief mass needs a 'mass' array{where}")
        assignment: dict[Event, Any] = {}
        for row in rows:
            _require(
                isinstance(row, dict) and set(row) == {"event", "value"},
                f"mass rows need exactly 'event' and 'value'{where}",
            )
            _require(isinstance(row["event"], list), "focal 'event' must be an array")
            event = space.event(row["event"])
            _require(event not in assignment, f"the mass repeats a focal event{where}")
            assignment[event] = as_rational(row["value"])
        return belief_from_mass(space, assignment)
    distortion = spec.get("distortion")
    _require(
        isinstance(distortion, dict), f"a distortion needs a 'distortion' object{where}"
    )
    dtype = distortion.get("type")
    if dtype == "power":
        exponent = distortion.get("exponent")
        _require(
            isinstance(exponent, int) and not isinstance(exponent, bool),
            f"a power distortion needs an integer 'exponent'{where}",
        )
        return distort(mass, power_distortion(exponent))
    if dtype == "piecewise":
        points = distortion.get("points")
        _require(
            isinstance(points, list) and all(
                isinstance(pt, list) and len(pt) == 2 for pt in points
            ),
            f"a piecewise distortion needs 'points' as [x, y] pairs{where}",
        )
        curve = PiecewiseLinear(
            tuple((as_rational(x), as_rational(y)) for x, y in points)
        )
        return distort(mass, curve)
    raise ConstraintError(
        f"distortion type must be 'power' or 'piecewise', got {clipped(repr(dtype))}{where}"
    )


def parse_scenario(doc: Any) -> Scenario:
    """Validate a parsed JSON document and build the exact objects."""
    _require(isinstance(doc, dict), "scenario must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown scenario keys: {clipped(sorted(unknown))}")
    _require("n" in doc and "e_labels" in doc and "mass" in doc,
             "scenario needs 'n', 'e_labels', and 'mass'")
    n = doc["n"]
    _require(isinstance(n, int) and not isinstance(n, bool), "'n' must be an integer")
    labels = doc["e_labels"]
    _require(
        isinstance(labels, list) and all(isinstance(s, str) for s in labels),
        "'e_labels' must be an array of strings",
    )
    space = build_space(n, labels)

    mass = ProbabilityMeasure.from_map(space, _str_map(doc["mass"], "'mass'"))
    r_map = _str_map(doc.get("r", {}), "'r'")
    r = UncertaintyDegree.from_map(space, r_map)

    events: dict[str, Event] = {}
    for name, members in _str_map(doc.get("events", {}), "'events'").items():
        _require(isinstance(members, list), f"event {clipped(repr(name))} must be an array")
        events[name] = space.event(members)

    variables: dict[str, RandomVariable] = {}
    for name, vmap in _str_map(doc.get("variables", {}), "'variables'").items():
        variables[name] = RandomVariable.from_map(
            space, _str_map(vmap, f"variable {clipped(repr(name))}")
        )

    capacities: dict[str, Capacity] = {}
    specs: dict[str, Any] = {}
    for name, spec in _str_map(doc.get("capacities", {}), "'capacities'").items():
        capacities[name] = _build_capacity(name, spec, space, mass)
        specs[name] = spec

    comment = doc.get("comment")
    _require(
        comment is None or isinstance(comment, str), "'comment' must be a string"
    )
    return Scenario(space, mass, r, events, variables, capacities, specs, comment)


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConstraintError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a too-long integer, too deep
        raise ConstraintError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc)


def scenario_to_doc(scenario: Scenario) -> dict[str, Any]:
    """Serialize back to the document form, exactly.

    Mass, degree, event, and variable values are regenerated from the
    parsed exact objects (every eventuality listed explicitly);
    capacity specs are passed through verbatim, since they already
    determine their capacities exactly.
    """
    space = scenario.space
    names = space.eventualities()
    doc: dict[str, Any] = {
        "n": space.n,
        "e_labels": list(space.e_labels),
        "mass": {
            name: str(v) for name, v in zip(names, scenario.mass.values)
        },
        "r": {name: str(v) for name, v in zip(names, scenario.r.values)},
        "events": {
            name: list(event.members()) for name, event in scenario.events.items()
        },
        "variables": {
            name: {n_: str(v) for n_, v in zip(names, var.values)}
            for name, var in scenario.variables.items()
        },
    }
    if scenario.capacity_specs:
        doc["capacities"] = scenario.capacity_specs
    if scenario.comment is not None:
        doc["comment"] = scenario.comment
    return doc


def dump_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write the document form to ``path`` as formatted JSON."""
    Path(path).write_text(json.dumps(scenario_to_doc(scenario), indent=2) + "\n")
