"""CLI subcommands: exact report lines, exit codes, error records."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import intprob as ip
from intprob.cli import _emit_error, main
from intprob.errors import PreconditionError

ROOT = Path(__file__).resolve().parent.parent
UMBRELLA = str(ROOT / "scenarios" / "umbrella.json")
GRADED = str(ROOT / "scenarios" / "graded.json")
GOLDEN = Path(__file__).resolve().parent / "golden" / "demo_umbrella.txt"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def error_record(err: str) -> dict:
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1, f"expected one error record, got: {err!r}"
    record = json.loads(lines[0])
    assert set(record) == {"error"}
    assert set(record["error"]) == {"kind", "message", "witness"}
    return record["error"]


class TestDemo:
    def test_matches_golden_byte_for_byte(self, capsys):
        rc, out, err = run(capsys, "demo", "umbrella")
        assert rc == 0
        assert err == ""
        assert out == GOLDEN.read_text()

    def test_unknown_demo(self, capsys):
        rc, out, err = run(capsys, "demo", "nope")
        assert rc == 2
        record = error_record(err)
        assert record["kind"] == "constraint"
        assert "unknown demo" in record["message"]

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "intprob", "demo", "umbrella"],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN.read_text()


class TestInterval:
    def test_umbrella_event(self, capsys):
        rc, out, _ = run(capsys, "interval", UMBRELLA, "H")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "event H = {x0,10}"
        assert lines[1] == "indecisive set = {x0,00, x0,11}"
        assert lines[2] == "weak complement = {x0,01}"
        assert lines[3] == "Q_r(H) = [1/4, 3/4] (~[0.25, 0.75])"
        assert "capacity belief:" in lines
        assert "  Q_r^nu(H) = [0, 1/2] (~[0, 0.5])" in lines
        assert "  Q'_r(H) = [0, 1/2] (~[0, 0.5])" in lines
        assert "capacity square:" in lines
        assert "  Q_r^nu(H) = [1/16, 5/16] (~[0.0625, 0.3125])" in lines
        assert "  Q'_r(H) = [1/16, 9/16] (~[0.0625, 0.5625])" in lines

    def test_graded_scenario(self, capsys):
        rc, out, _ = run(capsys, "interval", GRADED, "H")
        assert rc == 0
        # indecision counts at grade 1/2: width is (1/2 + 1/4) / 2
        assert "Q_r(H) = [1/8, 1/2] (~[0.125, 0.5])" in out

    def test_unknown_event_name(self, capsys):
        rc, _, err = run(capsys, "interval", UMBRELLA, "Z")
        assert rc == 2
        record = error_record(err)
        assert "no event named 'Z'" in record["message"]
        assert "'A'" in record["message"] and "'H'" in record["message"]

    def test_missing_scenario_file(self, capsys):
        rc, _, err = run(capsys, "interval", "/nonexistent.json", "H")
        assert rc == 2
        assert "cannot read scenario file" in error_record(err)["message"]


class TestCondition:
    def test_umbrella_pair(self, capsys):
        rc, out, _ = run(capsys, "condition", UMBRELLA, "A", "H")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "A = {x0,00}"
        assert lines[1] == "H = {x0,10}"
        assert lines[2] == "Q_r(A|H) = [1/3, 2/3] (~[0.333333, 0.666667])"
        # square capacity block: every variant defined
        square = lines[lines.index("capacity square:") :]
        assert "  DS(A|H) = 0 (~0)" in square
        assert "  weak-DS(A|H) = 1/5 (~0.2)" in square
        graded = next(l for l in square if l.startswith("  graded(A|H)"))
        assert graded.startswith(
            "  graded(A|H) = [1/9, 2/9] (~[0.111111, 0.222222]) (tentative;"
        )
        prime = next(l for l in square if l.startswith("  graded'(A|H)"))
        assert prime.startswith("  graded'(A|H) = [1/9, 4/9]")

    def test_belief_rows_degrade_not_abort(self, capsys):
        """belief gives nu(H)=0, so graded variants print as undefined
        while the rest of the report still renders."""
        rc, out, _ = run(capsys, "condition", UMBRELLA, "A", "H")
        assert rc == 0
        belief_at = out.index("capacity belief:")
        square_at = out.index("capacity square:")
        belief_block = out[belief_at:square_at]
        assert "graded(A|H) = undefined (" in belief_block
        assert "graded'(A|H) = undefined (" in belief_block
        assert "DS(A|H) = 0 (~0)" in belief_block

    def test_null_conditioning_needs_flag(self, capsys, tmp_path):
        doc = {
            "n": 2,
            "e_labels": ["x0"],
            "mass": {"x0,00": "1/2", "x0,11": "1/2"},
            "events": {"A": ["x0,00"], "H": ["x0,01"]},
        }
        path = tmp_path / "null.json"
        path.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "condition", str(path), "A", "H")
        assert rc == 3
        assert error_record(err)["kind"] == "precondition"

        rc, out, _ = run(
            capsys, "condition", str(path), "A", "H", "--allow-null-conditioning"
        )
        assert rc == 0
        assert "Q_r(A|H) = [1/2, 1/2] (~[0.5, 0.5])" in out


class TestCdfAndDominate:
    def test_cdf_table(self, capsys):
        rc, out, _ = run(capsys, "cdf", UMBRELLA, "X")
        assert rc == 0
        assert out.splitlines() == [
            "interval distribution of X",
            "  t < 1: [0, 1] (~[0, 1])",
            "  1 <= t < 2: [1/2, 1] (~[0.5, 1])",
            "  t >= 2: [1, 1] (~[1, 1])",
        ]

    def test_dominate_true(self, capsys):
        rc, out, _ = run(capsys, "dominate", UMBRELLA, "X", "Y")
        assert rc == 0
        assert out == "X dominates Y: true\n"

    def test_dominate_false_with_witness(self, capsys, tmp_path):
        doc = {
            "n": 2,
            "e_labels": ["x0"],
            "mass": {"x0,00": "1/4", "x0,01": "1/4", "x0,10": "1/4", "x0,11": "1/4"},
            "variables": {
                "X": {"x0,00": "0", "x0,01": "0", "x0,10": "2", "x0,11": "2"},
                "Y": {"x0,00": "0", "x0,11": "0", "x0,01": "2", "x0,10": "2"},
            },
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = run(capsys, "dominate", str(path), "X", "Y")
        assert rc == 0
        assert out.splitlines() == [
            "X dominates Y: false",
            "first violation at t = 0 (width)",
        ]

    def test_unknown_variable(self, capsys):
        rc, _, err = run(capsys, "dominate", UMBRELLA, "X", "W")
        assert rc == 2
        assert "no variable named 'W'" in error_record(err)["message"]


class TestProduct:
    def test_umbrella_squared(self, capsys):
        rc, out, _ = run(
            capsys, "product", UMBRELLA, UMBRELLA, '["x0*x0,1010"]'
        )
        assert rc == 0
        assert out.splitlines() == [
            "flat space: n=4, 1 label(s), 16 eventualities",
            "H = {x0*x0,1010}",
            "Q1xQ1(H) = [1/16, 13/16] (~[0.0625, 0.8125])",
            "Q'_1(H) = [1/16, 15/16] (~[0.0625, 0.9375])",
            "product interval within native interval: true",
        ]

    def test_event_must_be_json_array(self, capsys):
        rc, _, err = run(capsys, "product", UMBRELLA, UMBRELLA, "{not json")
        assert rc == 2
        assert "JSON array" in error_record(err)["message"]

        rc, _, err = run(capsys, "product", UMBRELLA, UMBRELLA, '"x0*x0,1010"')
        assert rc == 2
        assert "JSON array" in error_record(err)["message"]

    def test_unknown_flat_eventuality(self, capsys):
        rc, _, err = run(capsys, "product", UMBRELLA, UMBRELLA, '["x9*x0,0000"]')
        assert rc == 2
        assert error_record(err)["kind"] == "constraint"

    def test_oversized_product_rejected(self, capsys, tmp_path):
        doc = {
            "n": 3,
            "e_labels": ["a", "b"],
            "mass": {"a,000": "1/2", "b,111": "1/2"},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "product", str(path), str(path), '["a*a,000000"]')
        assert rc == 3
        assert error_record(err)["kind"] == "precondition"


class TestValidate:
    def test_umbrella(self, capsys):
        rc, out, _ = run(capsys, "validate", UMBRELLA)
        assert rc == 0
        assert out.splitlines() == [
            "checked 2^4 events (mode: exhaustive-pairs); "
            "2 capacity table(s) validated at load",
            "boundary values: ok",
            "left endpoints additive: ok",
            "widths anti-monotone: ok",
            "PASSED",
        ]

    def test_graded(self, capsys):
        rc, out, _ = run(capsys, "validate", GRADED)
        assert rc == 0
        assert "PASSED" in out

    def test_oversized_space_refused_before_enumeration(self, tmp_path):
        """|Omega| = 32 has 2^32 events; the size guard must fire first."""
        doc = {"n": 5, "e_labels": ["x0"], "mass": {"x0,00000": "1"}}
        path = tmp_path / "n5.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "intprob", "validate", str(path)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=30,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert error_record(proc.stderr)["kind"] == "precondition"


class TestOversizedNumbers:
    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 1, "e_labels": ["a"], "mass": {"a,0": ' + "1" * 5000 + "}}",
            '{"n": 1, "e_labels": ["a"], "mass": {"a,0": "1e5000"}}',
            '{"n": 1, "e_labels": ["a"], "mass": {"a,0": "1e200000"}}',
            '{"n": 1, "e_labels": ["a"], "mass": {"a,0": "1e-5000"}}',
            '{"n": 1, "e_labels": ["a"], "mass": {"a,0": "1/' + "7" * 5000 + '"}}',
            '{"n": 1, "e_labels": ["a"], "mass": {"a,0": "1"}, '
            '"variables": {"X": {"a,0": "1e' + "9" * 5000 + '"}}}',
        ],
        ids=["bare-int", "1e5000", "1e200000", "1e-5000", "long-denominator", "long-exponent"],
    )
    def test_exits_two_with_one_record(self, capsys, tmp_path, text):
        path = tmp_path / "huge.json"
        path.write_text(text)
        rc, out, err = run(capsys, "interval", str(path), "H")
        assert rc == 2
        assert out == ""
        record = error_record(err)
        assert record["kind"] == "constraint"
        assert len(record["message"]) < 300


_D1, _D2 = 10**2500 + 1, 10**2500 + 3
_FOUR = ["x0,00", "x0,01", "x0,10", "x0,11"]


def _power_doc(exponent: int) -> dict:
    return {
        "n": 1,
        "e_labels": ["x0"],
        "mass": {"x0,0": "1/3", "x0,1": "2/3"},
        "events": {"H": ["x0,0"]},
        "capacities": {
            "p": {"kind": "distortion", "distortion": {"type": "power", "exponent": exponent}}
        },
    }


def _four_point_doc(masses) -> dict:
    return {
        "n": 2,
        "e_labels": ["x0"],
        "mass": {name: str(m) for name, m in zip(_FOUR, masses)},
        "events": {"H": _FOUR[:2]},
    }


class TestOversizedResults:
    """Values past the digit limit, and spaces past the size cap, end in one record."""

    @pytest.mark.parametrize(
        "doc, code",
        [
            (_power_doc(300000), 3),
            (_power_doc(10**9), 3),
            (
                _four_point_doc(
                    [
                        Fraction(1, _D1),
                        Fraction(1, _D2),
                        Fraction(1, 2) - Fraction(1, _D1),
                        Fraction(1, 2) - Fraction(1, _D2),
                    ]
                ),
                3,
            ),
            (
                _four_point_doc(
                    [Fraction(1, _D1), Fraction(1, _D2), Fraction(1, 2), Fraction(1, 2)]
                ),
                2,
            ),
            ({"n": 40, "e_labels": ["x0"], "mass": {}}, 3),
            ({"n": 16, "e_labels": ["a", "b"], "mass": {}}, 3),
        ],
        ids=["power-300000", "power-1e9", "sum-5000-digits", "unbalanced", "n40", "over-cap"],
    )
    def test_exit_code_and_one_record(self, tmp_path, doc, code):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "intprob", "interval", str(path), "H"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=30,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        record = error_record(proc.stderr)
        assert record["kind"] == ("constraint" if code == 2 else "precondition")
        assert len(record["message"]) < 300


class TestArgparse:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "interval" in capsys.readouterr().out


def _umbrella_doc() -> dict:
    return json.loads(Path(UMBRELLA).read_text())


def _with(doc: dict, path: tuple, value) -> dict:
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    return doc


class TestNoTraceback:
    """Inputs that once escaped as tracebacks end in one constraint record."""

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps(_with(_umbrella_doc(), ("events", "H"), [1])),
            json.dumps(
                _with(_umbrella_doc(), ("capacities", "belief", "mass", 0, "event"), ["x0,00", 7])
            ),
            json.dumps(_with(_umbrella_doc(), ("capacities", "belief", "kind"), [])),
            json.dumps(_with(_umbrella_doc(), ("capacities", "square", "kind"), {"a": 1})),
            "[" * 100_000,
        ],
        ids=["event-name-int", "focal-name-int", "kind-list", "kind-object", "nested-100000"],
    )
    def test_scenario_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc, out, err = run(capsys, "interval", str(path), "H")
        assert rc == 2
        assert out == ""
        assert error_record(err)["kind"] == "constraint"

    @pytest.mark.parametrize(
        "event", ["[" * 2000, '["x0*x0,1010", 3]', '[["x0*x0,1010"]]', "1" * 5000],
        ids=["nested-2000", "name-int", "name-list", "int-5000-digits"],
    )
    def test_product_event_exits_two(self, capsys, event):
        rc, out, err = run(capsys, "product", UMBRELLA, UMBRELLA, event)
        assert rc == 2
        assert out == ""
        assert error_record(err)["kind"] == "constraint"

    def test_nested_scenario_as_a_process(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        proc = subprocess.run(
            [sys.executable, "-m", "intprob", "validate", str(path)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=30,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert error_record(proc.stderr)["kind"] == "constraint"


class TestBoundedRecords:
    """Every field of an error record stays under 300 characters."""

    LONG = "L" * 5000

    @pytest.mark.parametrize(
        "path, value, argv",
        [
            (("mass", LONG + ",00"), "1/4", ("interval", "H")),
            (("capacities", LONG), {"kind": "magic"}, ("interval", "H")),
            (("r", "x0,00"), list(range(50_000)), ("interval", "H")),
            (("comment",), "c", ("interval", LONG)),
            (("comment",), "c", ("dominate", "X", LONG)),
        ],
        ids=[
            "long-label",
            "long-capacity-name",
            "huge-non-rational",
            "undeclared-event",
            "undeclared-variable",
        ],
    )
    def test_long_fields_are_cut(self, capsys, tmp_path, path, value, argv):
        scenario = tmp_path / "long.json"
        scenario.write_text(json.dumps(_with(_umbrella_doc(), path, value)))
        rc, out, err = run(capsys, argv[0], str(scenario), *argv[1:])
        assert rc == 2
        record = error_record(err)
        assert len(record["message"]) < 300
        assert record["witness"] is None or len(record["witness"]) < 300
        assert record["message"].endswith("...") or record["witness"].endswith("...")

    def test_event_witness_is_cut(self, capsys, tmp_path):
        # A null-conditioning refusal carries the whole conditioning event.
        names = [f"x0,{i:09b}" for i in range(512)]
        doc = {
            "n": 9,
            "e_labels": ["x0"],
            "mass": {names[0]: "1"},
            "events": {"A": names[:1], "H": names[1:]},
        }
        scenario = tmp_path / "wide.json"
        scenario.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "condition", str(scenario), "A", "H")
        assert rc == 3
        record = error_record(err)
        assert record["kind"] == "precondition"
        assert len(record["message"]) < 300
        assert len(record["witness"]) < 300

    def test_event_witness_names_few_members(self, capsys, monkeypatch):
        # The record of a null-conditioning refusal on an 8191-member event
        # names a bounded number of its members, however many it has.
        space = ip.build_space(13, ["x0"])
        p = ip.ProbabilityMeasure.from_map(space, {"x0," + "0" * 13: "1"})
        h = ip.Event(space, space.full_mask - 1)
        with pytest.raises(PreconditionError) as info:
            ip.conditional_interval(p, ip.UncertaintyDegree.ones(space), space.universe, h)
        asked = []
        name = ip.Space.eventuality_name
        monkeypatch.setattr(ip.Space, "eventuality_name", lambda sp, i: asked.append(i) or name(sp, i))
        _emit_error("precondition", info.value)
        assert 0 < len(asked) <= 8
        assert "8183 more" in error_record(capsys.readouterr().err)["witness"]

    def test_short_record_is_unchanged(self, capsys):
        rc, _, err = run(capsys, "interval", UMBRELLA, "Q")
        assert rc == 2
        assert err == (
            '{"error": {"kind": "constraint", "message": "available events are '
            "['A', 'H']; scenario declares no event named 'Q'\", \"witness\": null}}\n"
        )
