"""Spans around the benchmark's own calls into the program, and per-layer metrics.

A span records ``(name, start_ns, end_ns, parent, op_id)``.  Each op is a
span named ``op.<kind>``; each call the benchmark makes into a module's
public function is a span named ``<module>.<function>`` whose parent is
the op (``-1`` during set-up).  Calls the program makes internally are
not split out: their time belongs to the outermost call the benchmark
made, so a layer's self time is simply the sum of its spans.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns

#: The program's layers, one per package module.  ``oracle`` is the
#: reference the checks use and ``errors`` does no work.
LAYERS = ("space", "measure", "capacity", "conditioning", "dominance", "product", "scenario", "cli")

#: Public functions timed one by one (``<module>.<function>``).
FUNCTIONS = (
    "space.indecisive_set",
    "space.weak_complement",
    "measure.interval_measure",
    "measure.validate_imprecise",
    "capacity.distort",
    "capacity.belief_from_mass",
    "capacity.capacity_from_table",
    "capacity.choquet",
    "capacity.capacity_interval",
    "capacity.capacity_interval_prime",
    "capacity.is_superadditive",
    "conditioning.conditional_interval",
    "conditioning.capacity_conditional",
    "conditioning.capacity_conditional_prime",
    "conditioning.ds_conditional",
    "dominance.interval_cdf",
    "dominance.capacity_interval_cdf",
    "dominance.dominates",
    "product.flat_measure",
    "product.product_interval",
    "product.native_interval",
    "scenario.parse_scenario",
    "scenario.load_scenario",
    "cli.main",
)

#: Counts read off the workload or the program, with their units.
COUNTS = {
    "capacity.table_entries": "count",
    "dominance.grid_points": "count",
    "capacity.is_superadditive.hit_ratio": "ratio",
    "capacity.is_superadditive.cache_size": "count",
    "trace_overhead_frac": "ratio",
}


def per_layer_specs() -> list[dict]:
    """Every per-layer metric with its unit and direction, in report order."""
    specs = []
    for layer in LAYERS:
        specs.append({"name": f"{layer}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{layer}.busy_s", "unit": "s", "better": "lower"})
    for fn in FUNCTIONS:
        specs.append({"name": f"{fn}.us_per_call", "unit": "us", "better": "lower"})
    for name, unit in COUNTS.items():
        better = "higher" if name.endswith("hit_ratio") else "lower"
        specs.append({"name": name, "unit": unit, "better": better})
    return specs


def untraced_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """Keeps spans in memory; :meth:`write` saves them when the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self._parent = -1
        self._op_id = -1

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, perf_counter_ns(), self._parent, self._op_id))

    def begin_op(self, op_id: int, kind: str) -> None:
        self._op_id = op_id
        self._parent = len(self.spans)
        self.spans.append((f"op.{kind}", perf_counter_ns(), 0, -1, op_id))

    def end_op(self) -> None:
        name, start, _, parent, op_id = self.spans[self._parent]
        self.spans[self._parent] = (name, start, perf_counter_ns(), parent, op_id)
        self._parent = -1
        self._op_id = -1

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and time per call of every layer and timed function."""
        calls = {name: 0 for name in LAYERS + FUNCTIONS}
        busy_ns = dict.fromkeys(calls, 0)
        for name, start, end, _, _ in self.spans:
            if name.startswith("op."):
                continue
            layer = name.split(".", 1)[0]
            for key in (layer, name):
                if key in calls:
                    calls[key] += 1
                    busy_ns[key] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy_ns[layer] / 1e9
        for fn in FUNCTIONS:
            out[f"{fn}.us_per_call"] = busy_ns[fn] / 1e3 / calls[fn] if calls[fn] else 0.0
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write('{"fields": ["name", "start_ns", "end_ns", "parent", "op_id"], "spans": [\n')
            out.write(",\n".join(json.dumps(span) for span in self.spans))
            out.write("\n]}\n")
