"""Workload ``cli-oneshot``: one in-process ``intprob.cli.main(argv)`` call per op.

The op mix covers every subcommand (``interval``, ``condition``, ``cdf``,
``dominate``, ``product``, ``validate``, ``demo``) on the two shipped
scenarios and on generated scenarios at |Omega| = 8 and 12 (plus 2- and
6-point product factors).  Each call re-reads and re-parses its file
and rebuilds its capacities, and ``validate`` and ``condition`` run the
exhaustive lattice sweeps, so work that other workloads pay once at
set-up is paid here on every call.  The subcommand and file of each op
follow a fixed 48-slot cycle, so every seed has the same cost profile;
the seed fixes the scenarios and the events, variables and flat events
named.  The two 12-point sweeps (``validate`` and ``condition``) lie above
the 90th percentile, and the ten other 12-point ops (five dominance
checks, two CDFs and three intervals) around it.

Checks compare the captured output, line by line, with text built from
``intprob.oracle`` (every scenario here has at most 12 points) and the
checker's own super-additivity sweep.  A refusal (exit 3) counts as an
answer when the oracle confirms ``P(H) = 0``.
"""

from __future__ import annotations

import atexit
import io
import json
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from common import (
    ZERO,
    balanced,
    composition,
    eventuality_names,
    indices_of,
    mask_of,
    normalized_mass,
    superadditive,
    value_problems,
)

NAME = "cli-oneshot"
WHY = (
    "every CLI subcommand as one in-process call at |Omega| up to 12: each call re-parses its "
    "file and rebuilds its tables, and validate/condition run the lattice sweeps"
)

ROOT = Path(__file__).resolve().parent.parent

PARAMS = {
    "shipped": ["umbrella", "graded"],
    "generated": {
        "g8": {"n": 3, "labels": 1, "zero_points": 2, "focal_sets": 8, "capacities": ["belief", "power", "table"]},
        "g12": {"n": 2, "labels": 3, "zero_points": 2, "focal_sets": 12, "capacities": ["belief", "power"]},
        "f2": {"n": 1, "labels": 1},
        "f6": {"n": 1, "labels": 3},
    },
    "mass_denominator": 2520,
    "r_values": ["1/4", "1/3", "1/2", "2/3", "3/4", "1", "1", "1"],
    "variable_levels": {"X": 3, "Y": 4},
    "schedule": [
        "demo", "interval:umbrella", "condition:g8", "cdf:g8", "product:umbrella:f2", "interval:g12",
        "interval:graded", "validate:g12", "dominate:umbrella", "refuse:g8", "condition:graded", "cdf:g12",
        "interval:g8", "cdf:umbrella", "dominate:g12", "product:f6:f2", "validate:umbrella", "interval:graded",
        "dominate:g8", "condition:umbrella", "validate:g8", "product:graded:f2", "validate:f6", "dominate:g12",
        "demo", "interval:umbrella", "dominate:g12", "interval:g12", "product:f2:umbrella", "dominate:umbrella",
        "interval:graded", "condition:g12", "dominate:umbrella", "dominate:g12", "condition:graded", "product:graded:f2",
        "condition:g8", "cdf:g12", "interval:umbrella", "product:f2:f6", "validate:graded", "condition:umbrella",
        "dominate:g12", "condition:umbrella", "dominate:umbrella", "product:umbrella:f2", "demo", "interval:g12",
    ],
    "warm_ops": ["demo"],
    "trace_ops": 40,
}

GENERATED_EVENTS = ("A", "B", "H")


def _generated_doc(rng: random.Random, params: dict, shape: dict) -> dict:
    n = shape["n"]
    labels = [f"x{i}" for i in range(shape["labels"])]
    names = eventuality_names(n, labels)
    size = len(names)
    zero = set(rng.sample(range(size), shape.get("zero_points", 0)))
    positive = [i for i in range(size) if i not in zero]
    mass = dict(zip(positive, composition(rng, len(positive), params["mass_denominator"])))
    doc = {"n": n, "e_labels": labels, "mass": {names[i]: str(m) for i, m in mass.items()}}
    if "capacities" not in shape:
        return doc
    doc["r"] = {name: str(v) for name, v in zip(names, balanced(rng, params["r_values"], size))}
    doc["events"] = {e: [names[i] for i in sorted(rng.sample(positive, rng.randint(1, size // 2)))] for e in GENERATED_EVENTS}
    doc["events"]["Z"] = [names[i] for i in sorted(zero)]
    doc["variables"] = {}
    for var, levels in params["variable_levels"].items():
        values = rng.sample(range(1, 20), levels)
        doc["variables"][var] = {name: str(values[i % levels]) for i, name in enumerate(rng.sample(names, size))}
    caps = {}
    for kind in shape["capacities"]:
        if kind == "belief":
            # Singletons on every positive point keep nu(H) > 0, so every condition call sweeps.
            singles = {1 << i for i in positive}
            focal = sorted(singles) + rng.sample(sorted(set(range(1, 1 << size)) - singles), shape["focal_sets"])
            weights = normalized_mass(rng, len(focal), [1, 9], [1, 2, 3])
            caps[kind] = {"kind": "belief_mass", "mass": [
                {"event": [names[i] for i in indices_of(m)], "value": str(w)} for m, w in zip(focal, weights)
            ]}
        elif kind == "power":
            caps[kind] = {"kind": "distortion", "distortion": {"type": "power", "exponent": 2}}
        else:
            values = [Fraction(mass.get(i, 0)) for i in range(size)]
            table = [sum((values[i] for i in indices_of(m)), ZERO) for m in range(1 << size)]
            caps[kind] = {"kind": "table", "values": [str(v) for v in table]}
    doc["capacities"] = caps
    return doc


def generate(seed: int, params: dict) -> SimpleNamespace:
    rng = random.Random(f"{NAME}:{seed}")
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    folder = Path(tempfile.mkdtemp(prefix=f"cli-seed{seed}-", dir=out))
    atexit.register(shutil.rmtree, folder, True)
    files = {name: ROOT / "scenarios" / f"{name}.json" for name in params["shipped"]}
    for name, shape in params["generated"].items():
        files[name] = folder / f"{name}.json"
        files[name].write_text(json.dumps(_generated_doc(rng, params, shape)))
    return SimpleNamespace(seed=seed, params=params, files={k: str(v) for k, v in files.items()})


def setup(inputs, call) -> SimpleNamespace:
    from intprob.scenario import load_scenario

    scenarios = {name: call("scenario.load_scenario", load_scenario, path) for name, path in inputs.files.items()}
    return SimpleNamespace(inputs=inputs, scenarios=scenarios)


def trace_setup(state, call) -> None:
    """The capacities are built inside each call; nothing more to time at set-up."""


def new_op(state, k: int, slot: str, rng: random.Random) -> SimpleNamespace:
    kind, *files = slot.split(":")
    op = SimpleNamespace(k=k, kind=kind, files=files)
    paths = [state.inputs.files[f] for f in files]
    if kind == "demo":
        op.argv = ["demo", "umbrella"]
        return op
    sc = state.scenarios[files[0]]
    events = sorted(e for e in sc.events if e != "Z")
    if kind == "interval":
        op.argv = ["interval", paths[0], rng.choice(events)]
    elif kind == "condition":
        op.argv = ["condition", paths[0], *rng.sample(events, 2)]
    elif kind == "refuse":
        op.kind = "condition"
        op.argv = ["condition", paths[0], rng.choice(events), "Z"]
    elif kind == "cdf":
        op.argv = ["cdf", paths[0], rng.choice(sorted(sc.variables))]
    elif kind == "dominate":
        op.argv = ["dominate", paths[0], *rng.sample(sorted(sc.variables), 2)]
    elif kind == "product":
        left, right = state.scenarios[files[0]].space, state.scenarios[files[1]].space
        n = left.n + right.n
        flat = eventuality_names(n, [f"{a}*{b}" for a in left.e_labels for b in right.e_labels])
        op.flat_indices = sorted(rng.sample(range(len(flat)), rng.randint(1, 3)))
        op.argv = ["product", *paths, json.dumps([flat[i] for i in op.flat_indices])]
    else:
        op.argv = ["validate", paths[0]]
    return op


def run(state, op, call):
    from intprob.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call("cli.main", main, op.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def grid_points(state, op) -> int:
    if op.kind not in ("cdf", "dominate"):
        return 0
    sc = state.scenarios[op.files[0]]
    return sum(len(set(sc.variables[v].values)) + 1 for v in op.argv[2:])


def table_entries(state) -> int:
    return sum(len(nu.table) for sc in state.scenarios.values() for nu in sc.capacities.values())


# ---------------------------------------------------------------- checks


def _approx(x: Fraction) -> str:
    return f"{float(x):.6g}"


def _iv(pair) -> str:
    lo, hi = pair
    return f"[{lo}, {hi}] (~[{_approx(lo)}, {_approx(hi)}])"


def _probe(space, mask: int) -> SimpleNamespace:
    return SimpleNamespace(space=space, mask=mask)


def checker(state) -> SimpleNamespace:
    from intprob import oracle

    golden = (ROOT / "tests" / "golden" / "demo_umbrella.txt").read_text()
    flags = {}
    for name, sc in state.scenarios.items():
        for cap, nu in sc.capacities.items():
            flags[name, cap] = superadditive(nu.table, sc.space.omega_size)
    return SimpleNamespace(oracle=oracle, scenarios=state.scenarios, files=state.inputs.files, golden=golden, flags=flags)


def check_setup(ck, state) -> list[str]:
    """Every capacity table the loader built must match the oracle's table."""
    from intprob.capacity import PiecewiseLinear, power_distortion
    from intprob.space import Event

    problems = []
    o = ck.oracle
    for name, sc in ck.scenarios.items():
        for cap, nu in sc.capacities.items():
            spec = sc.capacity_specs[cap]
            if spec["kind"] == "table":
                want = [Fraction(v) for v in spec["values"]]
            elif spec["kind"] == "belief_mass":
                focal = {Event(sc.space, mask_of(map(sc.space.parse_eventuality, row["event"]))): row["value"]
                         for row in spec["mass"]}
                want = o.oracle_belief_table(sc.space, focal)
            else:
                d = spec["distortion"]
                if d["type"] == "power":
                    g = power_distortion(d["exponent"])
                else:
                    g = PiecewiseLinear(tuple((Fraction(x), Fraction(y)) for x, y in d["points"]))
                want = o.oracle_distort_table(sc.mass, g)
            if list(nu.table) != want:
                problems.append(f"{name}: capacity table {cap} differs from the oracle's")
    return problems


def _render(space, mask: int) -> str:
    n = space.n
    return "{" + ", ".join(f"{space.e_labels[i >> n]},{i & ((1 << n) - 1):0{n}b}" for i in indices_of(mask)) + "}"


def _expect_interval(ck, sc, e: str) -> list[str]:
    o, h = ck.oracle, sc.events[e]
    lines = [
        f"event {e} = {_render(sc.space, h.mask)}",
        f"indecisive set = {_render(sc.space, mask_of(o.oracle_indecisive(sc.space, h)))}",
        f"weak complement = {_render(sc.space, mask_of(o.oracle_weak_complement(sc.space, h)))}",
        f"Q_r({e}) = {_iv(o.oracle_interval(sc.mass, sc.r, h))}",
    ]
    for name, nu in sc.capacities.items():
        lines += [
            f"capacity {name}:",
            f"  Q_r^nu({e}) = {_iv(o.oracle_capacity_interval(nu, sc.r, h))}",
            f"  Q'_r({e}) = {_iv(o.oracle_capacity_interval_prime(nu, sc.r, h))}",
        ]
    return lines


def _expect_condition(ck, file: str, sc, a_name: str, h_name: str):
    """Expected ``(exit code, lines)``; a line ending in ``(`` only fixes a prefix."""
    o, a, h = ck.oracle, sc.events[a_name], sc.events[h_name]
    lines = [f"A = {_render(sc.space, a.mask)}", f"H = {_render(sc.space, h.mask)}"]
    if o.oracle_interval(sc.mass, sc.r, h)[0] == 0:
        return 3, lines
    lines.append(f"Q_r(A|H) = {_iv(o.oracle_conditional_interval(sc.mass, sc.r, a, h))}")
    full = sc.space.full_mask
    wc = mask_of(o.oracle_weak_complement(sc.space, h))
    a_ind = _probe(sc.space, mask_of(o.oracle_indecisive(sc.space, a)))
    everything = _probe(sc.space, full)
    for name, nu in sc.capacities.items():
        lines.append(f"capacity {name}:")
        lines.append("  DS(A|H) = undefined (" if nu.table[full & ~h.mask] == 1 else
                     f"  DS(A|H) = {_value(o.oracle_ds(nu, a, h))}")
        lines.append("  weak-DS(A|H) = undefined (" if nu.table[wc] == 1 else
                     f"  weak-DS(A|H) = {_value(o.oracle_ds_weak(nu, a, h))}")
        if nu.table[h.mask] == 0:
            lines += ["  graded(A|H) = undefined (", "  graded'(A|H) = undefined ("]
            continue
        note = "yes" if ck.flags[file, name] else "no"
        total = o.oracle_effective_weight(nu, sc.r, h, everything)
        raw = (o.oracle_effective_weight(nu, sc.r, h, a) + o.oracle_uncertainty_weight(nu, sc.r, h, a_ind)) / total
        clamp = ", clamped" if raw > 1 else ""
        lines.append(f"  graded(A|H) = {_iv(o.oracle_capacity_conditional(nu, sc.r, a, h))} "
                     f"(tentative; super-additive: {note}{clamp})")
        lines.append(f"  graded'(A|H) = {_iv(o.oracle_capacity_conditional_prime(nu, sc.r, a, h))} "
                     f"(tentative; super-additive: {note})")
    return 0, lines


def _value(x: Fraction) -> str:
    return f"{x} (~{_approx(x)})"


def _expect_cdf(ck, sc, x_name: str) -> list[str]:
    breakpoints, segments = ck.oracle.oracle_cdf(sc.mass, sc.r, sc.variables[x_name])
    regions = [f"t < {breakpoints[0]}"]
    for i, t in enumerate(breakpoints):
        regions.append(f"{t} <= t < {breakpoints[i + 1]}" if i + 1 < len(breakpoints) else f"t >= {t}")
    return [f"interval distribution of {x_name}"] + [f"  {reg}: {_iv(seg)}" for reg, seg in zip(regions, segments)]


def _expect_dominate(ck, sc, x_name: str, y_name: str) -> list[str]:
    o = ck.oracle
    x, y = sc.variables[x_name], sc.variables[y_name]
    holds, t = o.oracle_dominates(sc.mass, sc.r, x, y)
    lines = [f"{x_name} dominates {y_name}: {'true' if holds else 'false'}"]
    if not holds:
        def below(v):
            return _probe(sc.space, mask_of(i for i, value in enumerate(v.values) if value <= t))

        f_lo, _ = o.oracle_interval(sc.mass, sc.r, below(x))
        g_lo, _ = o.oracle_interval(sc.mass, sc.r, below(y))
        lines.append(f"first violation at t = {t} ({'left-endpoint' if f_lo > g_lo else 'width'})")
    return lines


def _expect_product(ck, op) -> tuple[list[str], list[str]]:
    from intprob.product import product_space

    o = ck.oracle
    left, right = (ck.scenarios[f] for f in op.files)
    ps = product_space(left.space, right.space)
    h = _probe(ps.flat, mask_of(op.flat_indices))
    prod = o.oracle_product_interval(ps, left.mass, right.mass, h)
    native = o.oracle_native_interval(ps, left.mass, right.mass, h)
    inside = native[0] <= prod[0] and prod[1] <= native[1]
    lines = [
        f"flat space: n={ps.flat.n}, {len(ps.flat.e_labels)} label(s), {ps.flat.omega_size} eventualities",
        f"H = {_render(ps.flat, h.mask)}",
        f"Q1xQ1(H) = {_iv(prod)}",
        f"Q'_1(H) = {_iv(native)}",
        f"product interval within native interval: {'true' if inside else 'false'}",
    ]
    return lines, [] if inside else ["oracle product interval not inside the native interval"]


def _expect_validate(sc) -> list[str]:
    size = sc.space.omega_size
    mode = "exhaustive-pairs" if size <= 12 else "lattice-edges"
    return [
        f"checked 2^{size} events (mode: {mode}); {len(sc.capacities)} capacity table(s) validated at load",
        "boundary values: ok",
        "left endpoints additive: ok",
        "widths anti-monotone: ok",
        "PASSED",
    ]


def _compare(got: str, want: list[str]) -> list[str]:
    lines = got.splitlines()
    if len(lines) != len(want):
        return [f"printed {len(lines)} lines, expected {len(want)}"]
    for g, w in zip(lines, want):
        same = g.startswith(w) and g.endswith(")") if w.endswith("(") else g == w
        if not same:
            return [f"printed {g!r}, expected {w!r}"]
    return []


def check(ck, op, answer) -> list[str]:
    code, out, err = answer
    args = op.argv[2:]
    extra: list[str] = []
    want_code = 0
    if op.kind == "demo":
        return value_problems("exit code", code, 0) + ([] if out == ck.golden else ["demo differs from the golden file"])
    sc = ck.scenarios[op.files[0]]
    if op.kind == "interval":
        want = _expect_interval(ck, sc, args[0])
    elif op.kind == "condition":
        want_code, want = _expect_condition(ck, op.files[0], sc, *args)
    elif op.kind == "cdf":
        want = _expect_cdf(ck, sc, args[0])
    elif op.kind == "dominate":
        want = _expect_dominate(ck, sc, *args)
    elif op.kind == "product":
        want, extra = _expect_product(ck, op)
    else:
        want = _expect_validate(sc)
    problems = value_problems("exit code", code, want_code) + _compare(out, want) + extra
    if want_code == 3:
        record = json.loads(err)
        problems += value_problems("error kind", record["error"]["kind"], "precondition")
    elif err:
        problems.append(f"unexpected stderr: {err.strip()[:200]}")
    return problems
