#!/usr/bin/env python3
"""The intprob benchmark: closed-loop, single-client workloads with checked answers.

Run one workload, the way ``BENCHMARK.json`` names it::

    python3 perfbench/run.py --workload wide-events --seed 1 --seconds 20 --trace 0

or all three, each in its own fresh process, one after the other::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  The program is imported from that
checkout's ``src/``; without it the benchmark exits with status 2.

One client sends the next op only when the previous one has returned;
no threads, no pool.  ``setup_s`` is the median time to import the
program in a fresh interpreter (timed by the child itself, so start-up
is left out, over ``IMPORT_REPS`` children run one after the other) plus
the median of at least ``SETUP_REPS`` set-ups (every program call before
the first timed op, warm-up included).  The run then times ops until
``--seconds`` of op time have passed, at least ``MIN_OPS`` ops and
``MIN_CYCLES`` cycles of the workload's op schedule have run, and the
last cycle is complete.  Every timing, imports and
set-ups included, is scaled to a fixed reference core speed by probe
batches taken between them (see :class:`HostSpeed`); the unscaled
percentiles and the probe times are printed too.  ``latency_p50_ms`` and
``latency_p90_ms`` are percentiles over every timed op, and
``ops_per_s`` is the op count over the ops' summed time.  Every answer
is checked right after its op, outside the
timed region; an op fails when it raised an undocumented exception or
its answer is rejected, and the checked set-up counts as one more
attempt.  ``error_frac`` (failed over attempted) is printed with the
metrics and carried by the ``failed`` and ``attempted`` fields; it is not
a listed metric, because on a correct program it reads 0.  With
``--trace 1`` the run replays a fixed number of ops, each once untraced
and once traced, and reports per-layer metrics instead, and writes its
spans to ``perfbench/out/``.  The last line of
standard output is one JSON object.

``--workload all --record`` also writes ``perfbench/baseline.json``: each
workload's parameters, seed, answer digest and metrics, with the Python
version, CPU count and commit.  The benchmark's own tests run with
``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Workload name -> the module under ``perfbench/`` that defines it.
WORKLOADS = {
    "wide-events": "wide_events",
    "table-queries": "table_queries",
    "cli-oneshot": "cli_oneshot",
}

MIN_OPS = 100
MIN_CYCLES = 4
#: Set-ups repeat until ``SETUP_REPS`` are done and ``SETUP_MIN_S`` has
#: passed, at most ``SETUP_MAX_REPS`` times; imports are timed in
#: ``IMPORT_REPS`` fresh interpreters.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 15
IMPORT_REPS = 5

#: End-to-end metrics and their units, as ``BENCHMARK.json`` lists them.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Probe batches are taken between ops, at most once per this much op time.
PROBE_EVERY_NS = 5_000_000
PROBE_BATCH = 5
#: Timings are reported at the core speed at which one probe takes this
#: long, about the fastest a probe runs on a 2-vCPU x86-64 cloud VM with
#: CPython 3.11.
REFERENCE_PROBE_NS = 150_000

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from common import DIGEST_OPS, digest, make_op, warm_ops  # noqa: E402
from tracing import Tracer, per_layer_specs, untraced_call  # noqa: E402


@dataclasses.dataclass(frozen=True)
class Crashed:
    """An op that raised an exception the program does not document."""

    error: str


def probe_ns() -> int:
    """Time one fixed stretch of the program's kind of work: a short exact ``Fraction`` sum."""
    start = time.perf_counter_ns()
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 7)
    return time.perf_counter_ns() - start


class HostSpeed:
    """Batches of a fixed probe, timed between ops, that scale each timing to a reference core speed.

    On a host whose cores are shared with other machines, a core can run
    at half its speed for seconds at a time, so the same op, or a whole
    run, can take twice as long.  The probe is the benchmark's own code
    and does the same kind of interpreter work as the program, so its
    time tracks the core's speed and not the program.  A timing taken
    between batches ``before`` and ``after`` is multiplied by
    ``REFERENCE_PROBE_NS`` over the mean probe time of those two batches:
    the shifts in the core's speed drop out, and any change in the
    program's own time shows in full.
    """

    def __init__(self) -> None:
        self.batches: list[float] = []

    def probe(self) -> int:
        """Take one batch (the mean of its probes) and return its index."""
        self.batches.append(statistics.mean(probe_ns() for _ in range(PROBE_BATCH)))
        return len(self.batches) - 1

    def scale(self, elapsed: float, before: int, after: int) -> float:
        return elapsed * 2 * REFERENCE_PROBE_NS / (self.batches[before] + self.batches[after])


def import_program(with_cli: bool) -> None:
    """Import ``intprob`` from this checkout's ``src/``; exit with status 2 when it is not there."""
    if not (SRC / "intprob" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'intprob'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import intprob

    if with_cli:
        import intprob.cli  # noqa: F401
    if Path(intprob.__file__).resolve().parent != (SRC / "intprob").resolve():
        print(f"perfbench: imported intprob from {intprob.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def timed_imports(with_cli: bool, speed: HostSpeed) -> list[tuple[float, int, int]]:
    """Seconds to import the program in each of ``IMPORT_REPS`` fresh interpreters, with their probe batches.

    Interpreter start-up is left out: each child times its own import.
    """
    modules = "intprob, intprob.cli" if with_cli else "intprob"
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        f"start = time.perf_counter(); import {modules}; print(time.perf_counter() - start)"
    )
    out = []
    for _ in range(IMPORT_REPS):
        before = speed.probe()
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        out.append((float(child.stdout), before, speed.probe()))
    return out


def run_ops(wl, state, ck, count: int | None, seconds: float, modes, speed: HostSpeed | None = None):
    """Closed loop of ops; returns ``(latencies_ns per mode, first answers, failures, grid points, marks)``.

    ``modes`` is a list of ``(call, tracer)`` pairs; each op runs once per
    mode, in alternating order so that neither mode always finds the
    caches warm.  The answer of the last mode is checked right after the
    op, outside the timed region, and then dropped, so memory does not
    grow with the op count.  A timed run stops only at the end of a whole
    cycle of the workload's op schedule, so every run has the same mix of
    op kinds.  With ``speed``, a probe batch is taken before an op once
    ``PROBE_EVERY_NS`` of op time has passed since the last one, and after
    the last op; ``marks[k]`` is the index of the batch before op ``k``,
    and the next batch is the first one after it.
    """
    latencies = [[] for _ in modes]
    marks: list[int] = []
    since = PROBE_EVERY_NS
    answers, failures = [], []
    grid = 0
    busy = 0
    limit = seconds * 1e9
    cycle = len(state.inputs.params["schedule"])
    least = max(MIN_OPS, MIN_CYCLES * cycle)
    k = 0
    while (k < count) if count is not None else (busy < limit or k < least or k % cycle):
        op = make_op(wl, state, k)
        if speed:
            if since >= PROBE_EVERY_NS:
                mark, since = speed.probe(), 0
            marks.append(mark)
        order = list(range(len(modes)))
        for i in order if k % 2 == 0 else order[::-1]:
            call, tracer = modes[i]
            if tracer:
                tracer.begin_op(k, op.kind)
            start = time.perf_counter_ns()
            try:
                result = wl.run(state, op, call)
            except Exception:  # an undocumented exception is a failed op, not the end of the run
                result = Crashed(traceback.format_exc(limit=-3))
            latencies[i].append(time.perf_counter_ns() - start)
            if tracer:
                tracer.end_op()
            if i == len(modes) - 1:
                answer = result
        busy += latencies[0][-1]
        since += latencies[0][-1]
        if k < DIGEST_OPS:
            answers.append(answer)
        problems = check_answer(wl, ck, op, answer)
        if problems:
            failures.append(f"op {op.k} ({op.kind}): {'; '.join(problems[:3])}")
        grid += wl.grid_points(state, op)
        k += 1
    if speed:
        speed.probe()
    return latencies, answers, failures, grid, marks


def check_answer(wl, ck, op, answer) -> list[str]:
    """Why the answer is rejected; empty when it passes."""
    if isinstance(answer, Crashed):
        return [f"raised: {answer.error.strip().splitlines()[-1]}"]
    try:
        return wl.check(ck, op, answer)
    except Exception as exc:  # a malformed answer is a rejected answer
        return [f"answer could not be checked: {exc!r}"]


def timed_setup(wl, inputs) -> tuple[float, object]:
    """One set-up with its warm-up ops; the untimed op generation is left out."""
    start = time.perf_counter()
    state = wl.setup(inputs, untraced_call)
    elapsed = time.perf_counter() - start
    warm = warm_ops(wl, state)
    start = time.perf_counter()
    for op in warm:
        wl.run(state, op, untraced_call)
    return elapsed + time.perf_counter() - start, state


def run_workload(name: str, seed: int, seconds: float, trace: bool, params: dict | None = None) -> dict:
    """Run one workload in this process and return its result record."""
    wl = importlib.import_module(WORKLOADS[name])
    params = params or wl.PARAMS
    import_program(with_cli=name == "cli-oneshot")
    inputs = wl.generate(seed, params)
    result = {"workload": name, "seed": seed}
    if not trace:
        speed = HostSpeed()
        imports = timed_imports(name == "cli-oneshot", speed)
        setups = []
        state = None
        while len(setups) < SETUP_REPS or (
            sum(elapsed for elapsed, _, _ in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPS
        ):
            state = None
            gc.collect()
            before = speed.probe()
            elapsed, state = timed_setup(wl, inputs)
            setups.append((elapsed, before, speed.probe()))
        ck = wl.checker(state)
        setup_failures = wl.check_setup(ck, state)
        gc.collect()
        (latencies,), answers, failures, _, marks = run_ops(
            wl, state, ck, None, seconds, [(untraced_call, None)], speed
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ms = [speed.scale(ns / 1e6, mark, mark + 1) for ns, mark in zip(latencies, marks)]
        cuts = statistics.quantiles(ms, n=100, method="inclusive")
        raw = statistics.quantiles([ns / 1e6 for ns in latencies], n=100, method="inclusive")
        result["unscaled_ms"] = {"p50": raw[49], "p90": raw[89]}
        result["probe_us"] = {"best": min(speed.batches) / 1e3, "median": statistics.median(speed.batches) / 1e3}
        metrics = {
            "setup_s": statistics.median(speed.scale(*child) for child in imports)
            + statistics.median(speed.scale(*setup) for setup in setups),
            "ops_per_s": len(ms) / (sum(ms) / 1e3),
            "latency_p50_ms": cuts[49],
            "latency_p90_ms": cuts[89],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        tracer = Tracer()
        state = wl.setup(inputs, tracer.call)
        for op in warm_ops(wl, state):
            wl.run(state, op, untraced_call)
        wl.trace_setup(state, tracer.call)
        ck = wl.checker(state)
        setup_failures = wl.check_setup(ck, state)
        gc.collect()
        modes = [(untraced_call, None), (tracer.call, tracer)]
        (untraced, latencies), answers, failures, grid, _ = run_ops(wl, state, ck, params["trace_ops"], 0, modes)
        from intprob.capacity import is_superadditive

        cache = is_superadditive.cache_info()
        lookups = cache.hits + cache.misses
        metrics = tracer.layer_metrics()
        metrics["capacity.table_entries"] = wl.table_entries(state)
        metrics["dominance.grid_points"] = grid
        metrics["capacity.is_superadditive.hit_ratio"] = cache.hits / lookups if lookups else 0.0
        metrics["capacity.is_superadditive.cache_size"] = cache.currsize
        metrics["trace_overhead_frac"] = sum(latencies) / sum(untraced) - 1
        units = {spec["name"]: spec["unit"] for spec in per_layer_specs()}
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    if setup_failures:
        failures.insert(0, f"set-up: {'; '.join(setup_failures[:3])}")
    result.update(
        correct=not failures,
        attempted=len(latencies) + 1,
        failed=len(failures),
        samples=len(latencies),
        digest=digest(answers),
        failures=failures[:5],
        metrics={key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    )
    return result


def report(result: dict) -> None:
    """Human-readable lines; tools that read the result parse only the JSON line after them."""
    print(f"workload {result['workload']}  seed {result['seed']}  digest {result['digest']}")
    samples = result["samples"]
    for key, metric in result["metrics"].items():
        note = f"  (n={samples} ops)" if key.startswith("latency_") else ""
        print(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}{note}")
    if "unscaled_ms" in result:
        raw, probe = result["unscaled_ms"], result["probe_us"]
        print(f"  {'unscaled latency p50 / p90':<44} {raw['p50']:>14.6g} / {raw['p90']:.6g} ms")
        print(f"  {'probe batch best / median':<44} {probe['best']:>14.6g} / {probe['median']:.6g} us")
    error_frac = result["failed"] / result["attempted"]
    print(f"  {'error_frac':<44} {error_frac:>14.6g} ({result['failed']}/{result['attempted']} attempts)")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def final_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: result[key] for key in keys})


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit}


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    results = []
    for name in WORKLOADS:
        for trace in ([0, 1] if args.record else [args.trace]):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace), "--json"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"perfbench: workload {name} exited with status {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report(result)
            results.append((trace, result))
    ok = all(result["correct"] for _, result in results)
    if args.record:
        record(args, results)
    print(json.dumps({"correct": ok, "workloads": [result["workload"] for _, result in results]}))
    return 0


def record(args, results) -> None:
    """Write ``perfbench/baseline.json``: workloads, their parameters, digests and results."""
    env = environment()
    doc = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    doc["expected_moves"] = json.loads((HERE / "expected_moves.json").read_text())
    for trace, result in results:
        wl = importlib.import_module(WORKLOADS[result["workload"]])
        entry = doc["workloads"].setdefault(
            result["workload"], {"why": wl.WHY, "params": wl.PARAMS, "seed": args.seed, "environment": env}
        )
        key = "per_layer" if trace else "end_to_end"
        entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
        entry[f"{key}_ops"] = result["samples"]
        entry[f"{key}_error_frac"] = result["failed"] / result["attempted"]
        if not trace:
            entry["digest"] = result["digest"]
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json", action="store_true", help="print the full result record as the last line")
    parser.add_argument("--record", action="store_true", help="with --workload all: write perfbench/baseline.json")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(json.dumps(result) if args.json else final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
