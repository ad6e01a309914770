"""Self-tests of the benchmark: seeded inputs, tiny end-to-end runs, and the checks' teeth.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import cli_oneshot  # noqa: E402
import common  # noqa: E402
import run  # noqa: E402
import table_queries  # noqa: E402
import tracing  # noqa: E402
import wide_events  # noqa: E402

run.import_program(with_cli=True)

TINY = {
    "wide-events": dict(wide_events.PARAMS, n=3, trace_ops=20),
    "table-queries": dict(
        table_queries.PARAMS, n=2, focal_sets=6, trace_ops=16,
        product_left={"n": 1, "labels": 2},
    ),
    "cli-oneshot": dict(
        cli_oneshot.PARAMS,
        generated={
            "g8": {"n": 2, "labels": 1, "zero_points": 1, "focal_sets": 3, "capacities": ["belief", "power", "table"]},
            "g12": {"n": 1, "labels": 3, "zero_points": 1, "focal_sets": 4, "capacities": ["belief", "power"]},
            "f2": {"n": 1, "labels": 1},
            "f6": {"n": 1, "labels": 3},
        },
        trace_ops=40,
    ),
}
MODULES = {"wide-events": wide_events, "table-queries": table_queries, "cli-oneshot": cli_oneshot}


def _inputs_fingerprint(name: str, seed: int) -> str:
    wl = MODULES[name]
    inputs = wl.generate(seed, TINY[name])
    folder = "<none>"
    if name == "cli-oneshot":
        docs = {key: Path(path).read_text() for key, path in inputs.files.items()}
        folder = str(Path(inputs.files["g8"]).parent)
    else:
        docs = {key: value for key, value in vars(inputs).items() if key.endswith("doc")}
    state = wl.setup(inputs, tracing.untraced_call)
    ops = []
    for k in range(12):
        op = common.make_op(wl, state, k)
        ops.append({key: value for key, value in vars(op).items() if isinstance(value, (int, str, list, bool))})
    return json.dumps([docs, ops], sort_keys=True, default=str).replace(folder, "<generated>")


@pytest.mark.parametrize("name", sorted(MODULES))
def test_same_seed_same_inputs(name):
    assert _inputs_fingerprint(name, 7) == _inputs_fingerprint(name, 7)
    assert _inputs_fingerprint(name, 7) != _inputs_fingerprint(name, 8)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_tiny_run_is_checked_and_correct(name):
    result = run.run_workload(name, 3, 0, False, TINY[name])
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == result["samples"] + 1 >= run.MIN_OPS + 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(MODULES))
def test_tiny_traced_run_reports_every_layer_metric(name):
    result = run.run_workload(name, 3, 0, True, TINY[name])
    assert result["correct"], result["failures"]
    assert [key for key in result["metrics"]] == [spec["name"] for spec in tracing.per_layer_specs()]
    layer = "cli" if name == "cli-oneshot" else "measure"
    assert result["metrics"][f"{layer}.calls"]["value"] > 0
    assert (ROOT / result["trace_file"]).is_file()


def test_host_speed_scales_to_the_reference_probe_time():
    speed = run.HostSpeed()
    speed.batches = [run.REFERENCE_PROBE_NS, 2 * run.REFERENCE_PROBE_NS, 3 * run.REFERENCE_PROBE_NS]
    assert speed.scale(10.0, 0, 0) == 10.0
    assert speed.scale(10.0, 1, 2) == 4.0
    assert speed.batches[speed.probe()] > 0


def _halve(fn):
    def wrong(*args, **kwargs):
        answer = fn(*args, **kwargs)
        return type(answer)(answer.lo / 2, answer.hi) if answer.lo else type(answer)(answer.lo, answer.hi / 2)

    return wrong


@pytest.mark.parametrize(
    "name, module, attr",
    [
        ("wide-events", "intprob.measure", "interval_measure"),
        ("table-queries", "intprob.capacity", "capacity_interval_prime"),
        ("cli-oneshot", "intprob.cli", "interval_measure"),
    ],
)
def test_perturbed_answer_is_caught(monkeypatch, name, module, attr):
    target = sys.modules[module]
    monkeypatch.setattr(target, attr, _halve(getattr(target, attr)))
    result = run.run_workload(name, 3, 0, False, TINY[name])
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_perturbed_scalar_is_caught(monkeypatch):
    import intprob.capacity

    choquet = intprob.capacity.choquet
    monkeypatch.setattr(intprob.capacity, "choquet", lambda nu, g: choquet(nu, g) + Fraction(1, 10**9))
    result = run.run_workload("table-queries", 3, 0, False, TINY["table-queries"])
    assert result["failed"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: m.WHY for n, m in MODULES.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == tracing.per_layer_specs()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-events", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
