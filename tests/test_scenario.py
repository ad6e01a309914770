"""Scenario JSON parsing, validation, and exact round-trips."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import intprob as ip
from intprob.errors import ConstraintError


def _full_doc():
    return {
        "n": 2,
        "e_labels": ["x0"],
        "mass": {"x0,00": "1/4", "x0,01": "1/4", "x0,10": "1/4", "x0,11": "1/4"},
        "r": {"x0,00": "1/2"},
        "events": {"H": ["x0,10"]},
        "variables": {"X": {"x0,00": "1", "x0,11": "1", "x0,10": "2", "x0,01": "2"}},
        "capacities": {
            "nu": {
                "kind": "belief_mass",
                "mass": [
                    {"event": ["x0,00", "x0,11"], "value": "1/2"},
                    {"event": ["x0,01", "x0,10"], "value": "1/2"},
                ],
            },
            "sq": {"kind": "distortion", "distortion": {"type": "power", "exponent": 2}},
            "bend": {
                "kind": "distortion",
                "distortion": {
                    "type": "piecewise",
                    "points": [["0", "0"], ["1/4", "1/2"], ["1", "1"]],
                },
            },
            "tab": {
                "kind": "table",
                "values": [
                    "0", "1/4", "1/4", "1/2", "1/4", "1/2", "1/2", "3/4",
                    "1/4", "1/2", "1/2", "3/4", "1/2", "3/4", "3/4", "1",
                ],
            },
        },
        "comment": "full-schema example",
    }


class TestParse:
    def test_full_document(self):
        sc = ip.parse_scenario(_full_doc())
        assert sc.space.omega_size == 4
        assert sc.mass(sc.space.universe) == 1
        assert sc.r.values == (Fraction(1, 2), Fraction(1), Fraction(1), Fraction(1))
        assert sc.events["H"].members() == ("x0,10",)
        assert sorted(sc.variables["X"].attained()) == [1, 2]
        assert set(sc.capacities) == {"nu", "sq", "bend", "tab"}
        assert sc.comment == "full-schema example"

    def test_defaults(self):
        sc = ip.parse_scenario(
            {"n": 1, "e_labels": ["a"], "mass": {"a,0": "1/2", "a,1": "1/2"}}
        )
        assert sc.r.values == (Fraction(1), Fraction(1))
        assert sc.events == {}
        assert sc.variables == {}
        assert sc.capacities == {}
        assert sc.comment is None

    def test_omitted_mass_entries_are_zero(self):
        sc = ip.parse_scenario({"n": 1, "e_labels": ["a"], "mass": {"a,1": "1"}})
        assert sc.mass.values == (Fraction(0), Fraction(1))

    def test_capacity_kinds_build_expected_tables(self):
        sc = ip.parse_scenario(_full_doc())
        # distortion square == P(A)^2
        h = sc.space.event(["x0,00", "x0,01"])
        assert sc.capacities["sq"](h) == Fraction(1, 4)
        # piecewise bend at P(A)=1/4 -> 1/2
        assert sc.capacities["bend"](sc.space.event(["x0,10"])) == Fraction(1, 2)
        # table capacity is the additive table here
        assert sc.capacities["tab"].is_additive()
        # belief assigns no mass below its focal sets
        assert sc.capacities["nu"](sc.space.event(["x0,00"])) == 0

    def test_raw_specs_are_preserved(self):
        doc = _full_doc()
        sc = ip.parse_scenario(doc)
        assert sc.capacity_specs == doc["capacities"]


class TestParseErrors:
    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(extra=1), "unknown scenario keys"),
            (lambda d: d.pop("mass"), "needs 'n', 'e_labels', and 'mass'"),
            (lambda d: d.update(n="2"), "'n' must be an integer"),
            (lambda d: d.update(n=True), "'n' must be an integer"),
            (lambda d: d.update(e_labels="x0"), "'e_labels' must be an array"),
            (lambda d: d.update(e_labels=[1]), "'e_labels' must be an array"),
            (lambda d: d.update(mass=[1, 2]), "'mass' must be an object"),
            (lambda d: d.update(events={"H": "x0,10"}), "must be an array"),
            (lambda d: d.update(comment=7), "'comment' must be a string"),
        ],
    )
    def test_top_level_failures(self, mutate, fragment):
        doc = _full_doc()
        mutate(doc)
        with pytest.raises(ConstraintError, match=fragment):
            ip.parse_scenario(doc)

    def test_not_an_object(self):
        with pytest.raises(ConstraintError, match="must be a JSON object"):
            ip.parse_scenario([1, 2, 3])

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("not-a-dict", "spec must be an object"),
            ({"kind": "magic"}, "kind must be one of"),
            ({"kind": "table"}, "needs a 'values' array"),
            ({"kind": "belief_mass"}, "needs a 'mass' array"),
            (
                {"kind": "belief_mass", "mass": [{"event": ["x0,00"]}]},
                "exactly 'event' and 'value'",
            ),
            (
                {
                    "kind": "belief_mass",
                    "mass": [
                        {"event": ["x0,00"], "value": "1/2"},
                        {"event": ["x0,00"], "value": "1/2"},
                    ],
                },
                "repeats a focal event",
            ),
            ({"kind": "distortion"}, "needs a 'distortion' object"),
            (
                {"kind": "distortion", "distortion": {"type": "power", "exponent": "2"}},
                "integer 'exponent'",
            ),
            (
                {"kind": "distortion", "distortion": {"type": "power", "exponent": True}},
                "integer 'exponent'",
            ),
            (
                {"kind": "distortion", "distortion": {"type": "exp"}},
                "must be 'power' or 'piecewise'",
            ),
            (
                {
                    "kind": "distortion",
                    "distortion": {"type": "piecewise", "points": [["0", "0", "0"]]},
                },
                r"\[x, y\] pairs",
            ),
        ],
    )
    def test_capacity_spec_failures(self, spec, fragment):
        doc = {
            "n": 2,
            "e_labels": ["x0"],
            "mass": {"x0,00": "1/4", "x0,01": "1/4", "x0,10": "1/4", "x0,11": "1/4"},
            "capacities": {"bad": spec},
        }
        with pytest.raises(ConstraintError, match=fragment):
            ip.parse_scenario(doc)

    def test_float_values_rejected(self):
        doc = {"n": 1, "e_labels": ["a"], "mass": {"a,0": 0.5, "a,1": 0.5}}
        with pytest.raises(ConstraintError):
            ip.parse_scenario(doc)


class TestFiles:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConstraintError, match="cannot read scenario file"):
            ip.load_scenario(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConstraintError, match="not valid JSON"):
            ip.load_scenario(path)

    def test_dump_then_load_round_trips_exactly(self, tmp_path):
        sc = ip.parse_scenario(_full_doc())
        path = tmp_path / "round.json"
        ip.dump_scenario(sc, path)
        back = ip.load_scenario(path)
        assert back.space == sc.space
        assert back.mass.values == sc.mass.values
        assert back.r.values == sc.r.values
        assert {n: e.mask for n, e in back.events.items()} == {
            n: e.mask for n, e in sc.events.items()
        }
        assert {n: v.values for n, v in back.variables.items()} == {
            n: v.values for n, v in sc.variables.items()
        }
        assert {n: c.table for n, c in back.capacities.items()} == {
            n: c.table for n, c in sc.capacities.items()
        }
        assert back.comment == sc.comment

    def test_doc_round_trip_is_fixed_point(self):
        """to_doc(parse(to_doc(parse(doc)))) == to_doc(parse(doc))."""
        first = ip.scenario_to_doc(ip.parse_scenario(_full_doc()))
        second = ip.scenario_to_doc(ip.parse_scenario(first))
        assert first == second

    def test_dumped_file_is_plain_json(self, tmp_path):
        sc = ip.parse_scenario(_full_doc())
        path = tmp_path / "out.json"
        ip.dump_scenario(sc, path)
        doc = json.loads(path.read_text())
        assert doc["n"] == 2
        assert all(isinstance(v, str) for v in doc["mass"].values())

    def test_shipped_scenarios_parse(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        paths = sorted(root.glob("scenarios/*.json"))
        assert len(paths) >= 2
        for path in paths:
            sc = ip.load_scenario(path)
            assert sc.mass(sc.space.universe) == 1

    def test_readme_example_parses(self):
        from pathlib import Path

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = readme.split("```json\n")
        assert len(blocks) == 2, "README should hold exactly one json block"
        sc = ip.parse_scenario(json.loads(blocks[1].split("```")[0]))
        assert sorted(sc.capacities) == ["belief", "bend", "square", "table"]
        assert sc.capacities["table"].is_additive()
        assert sc.capacities["square"](sc.events["H"]) == Fraction(1, 16)

    def test_readme_quick_tour_runs_and_its_reprs_hold(self):
        import re
        from pathlib import Path

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        tour = readme.split("## Library quick tour")[1].split("```python\n")[1].split("```")[0]
        namespace: dict = {}
        reprs = 0
        for line in tour.splitlines():
            code, _, comment = re.match(r"(.*?)(\s+# (.*))?$", line).groups()
            # A comment that opens like a literal or a constructor call is a repr.
            if comment and re.match(r"[(\[']|[A-Za-z_]\w*\(", comment):
                assert repr(eval(code, namespace)) == comment, line
                reprs += 1
            else:
                exec(code, namespace)
        assert reprs == 3
