"""Workload ``wide-events``: per-event kernels on one large scenario.

One generated scenario with n=12 and two labels (|Omega| = 8192, 2048
z-classes), parsed once at set-up.  Each op is the library call sequence
of one ``interval``, ``condition``, ``cdf`` or ``dominate`` subcommand on
fresh events or variables.  Each slot of the fixed 20-slot schedule
names its op kind and the shape of its events or its level counts, so
every seed has the same cost profile and a slot's latency can be
compared across cycles.  Intervals and cheap conditionals set the
median, the two 2+3-level dominance checks of each cycle sit at the
90th percentile, and above them only the 16-level CDF.

Checks recompute every answer from the raw inputs in integer
arithmetic over a common denominator, with the checker's own z-classes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

from common import (
    Refused,
    class_masks,
    guarded,
    event_mask,
    mask_of,
    eventuality_names,
    normalized_mass,
    pair_problems,
    split,
    split_problems,
    value_problems,
)

NAME = "wide-events"
WHY = (
    "per-event kernels at |Omega|=8192: indecisive sets, interval measures, "
    "conditionals and interval CDFs; no capacity or product work"
)

PARAMS = {
    "n": 12,
    "labels": 2,
    "mass_numerators": [1, 9],
    "mass_denominators": [1, 2, 3, 4, 5, 6, 7],
    "r_values": ["0", "1/4", "1/3", "1/2", "2/3", "3/4", "1", "1", "1"],
    "schedule": [
        "interval points:1", "condition points:1 density:1/4", "interval density:1/4", "interval points:16",
        "dominate 2 3", "interval density:1/2", "condition transversal points:16", "interval transversal",
        "interval density:1/20", "cdf 16", "interval points:1", "condition points:16 points:16",
        "interval density:1/4", "interval points:16", "dominate 2 3", "interval density:1/2",
        "condition density:1/2 transversal", "interval transversal", "cdf 2", "interval density:1/20",
    ],
    "warm_ops": ["interval density:1/4", "condition density:1/4 points:16", "cdf 2", "dominate 2 2"],
    "trace_ops": 40,
}

#: Degrees are multiples of 1/R_SCALE, so the checker can work in integers.
R_SCALE = 12


def generate(seed: int, params: dict) -> SimpleNamespace:
    rng = random.Random(f"{NAME}:{seed}")
    n, n_labels = params["n"], params["labels"]
    size = n_labels * (1 << n)
    labels = [f"e{i}" for i in range(n_labels)]
    names = eventuality_names(n, labels)
    mass = normalized_mass(rng, size, params["mass_numerators"], params["mass_denominators"])
    r = [Fraction(rng.choice(params["r_values"])) for _ in range(size)]
    doc = {
        "n": n,
        "e_labels": labels,
        "mass": {name: str(m) for name, m in zip(names, mass)},
        "r": {name: str(v) for name, v in zip(names, r) if v != 1},
    }
    return SimpleNamespace(seed=seed, params=params, doc=doc, mass=mass, r=r, n=n, n_labels=n_labels, size=size)


def setup(inputs, call) -> SimpleNamespace:
    from intprob.scenario import parse_scenario

    scenario = call("scenario.parse_scenario", parse_scenario, inputs.doc)
    return SimpleNamespace(inputs=inputs, scenario=scenario)


def _variable_values(rng: random.Random, levels: int, size: int) -> list[Fraction]:
    values = [Fraction(v) for v in sorted(rng.sample(range(1, 100), levels))]
    out = [values[i % levels] for i in range(size)]
    rng.shuffle(out)
    return out


def new_op(state, k: int, slot: str, rng: random.Random) -> SimpleNamespace:
    from intprob.measure import RandomVariable
    from intprob.space import Event

    inputs = state.inputs
    space = state.scenario.space
    kind, *args = slot.split()
    op = SimpleNamespace(k=k, kind=kind)
    if kind in ("interval", "condition"):
        op.h_mask = event_mask(rng, args[0], inputs.n, inputs.n_labels)
        op.h = Event(space, op.h_mask)
    if kind == "condition":
        op.a_mask = event_mask(rng, args[1], inputs.n, inputs.n_labels)
        op.a = Event(space, op.a_mask)
    if kind in ("cdf", "dominate"):
        op.xvals = _variable_values(rng, int(args[0]), inputs.size)
        op.x = RandomVariable(space, tuple(op.xvals))
    if kind == "dominate":
        op.yvals = _variable_values(rng, int(args[1]), inputs.size)
        op.y = RandomVariable(space, tuple(op.yvals))
    return op


def run(state, op, call):
    from intprob.conditioning import conditional_interval
    from intprob.dominance import dominates, interval_cdf
    from intprob.measure import interval_measure
    from intprob.space import indecisive_set, weak_complement

    sc = state.scenario
    if op.kind == "interval":
        return (
            call("space.indecisive_set", indecisive_set, sc.space, op.h),
            call("space.weak_complement", weak_complement, sc.space, op.h),
            call("measure.interval_measure", interval_measure, sc.mass, sc.r, op.h),
        )
    if op.kind == "condition":
        return guarded(call, "conditioning.conditional_interval", conditional_interval, sc.mass, sc.r, op.a, op.h)
    if op.kind == "cdf":
        return call("dominance.interval_cdf", interval_cdf, sc.mass, sc.r, op.x)
    return call("dominance.dominates", dominates, sc.mass, sc.r, op.x, op.y)


def grid_points(state, op) -> int:
    """Distribution segments the op computes, one interval each."""
    if op.kind == "cdf":
        return len(set(op.xvals)) + 1
    if op.kind == "dominate":
        return len(set(op.xvals)) + len(set(op.yvals)) + 2
    return 0


def trace_setup(state, call) -> None:
    """Nothing beyond the parse is built at set-up."""


def table_entries(state) -> int:
    return sum(len(nu.table) for nu in state.scenario.capacities.values())


# ---------------------------------------------------------------- checks


def checker(state) -> SimpleNamespace:
    inputs = state.inputs
    denom = math.lcm(*(m.denominator for m in inputs.mass))
    return SimpleNamespace(
        size=inputs.size,
        full=(1 << inputs.size) - 1,
        classes=class_masks(inputs.n, inputs.n_labels),
        denom=denom,
        m=[int(v * denom) for v in inputs.mass],
        r=[int(v * R_SCALE) for v in inputs.r],
    )


def check_setup(ck, state) -> list[str]:
    sc, inputs = state.scenario, state.inputs
    problems = value_problems("parsed masses", sc.mass.values, tuple(inputs.mass))
    return problems + value_problems("parsed degrees", sc.r.values, tuple(inputs.r))


def _flags(ck, mask: int) -> str:
    """Membership of every index as a '0'/'1' string, index 0 first."""
    return format(mask, f"0{ck.size}b")[::-1]


def _interval(ck, h: int) -> tuple[Fraction, Fraction]:
    """``[P(H), P(H) + E[r 1_{H_ind}]]`` in integers over the common denominator."""
    ind, _ = split(ck.classes, ck.full, h)
    in_h, in_ind = _flags(ck, h), _flags(ck, ind)
    lo = sum(m for m, f in zip(ck.m, in_h) if f == "1")
    width = sum(m * r for m, r, f in zip(ck.m, ck.r, in_ind) if f == "1")
    return Fraction(lo, ck.denom), Fraction(lo * R_SCALE + width, ck.denom * R_SCALE)


def _conditional(ck, a: int, h: int):
    h_ind, _ = split(ck.classes, ck.full, h)
    a_ind, _ = split(ck.classes, ck.full, a)
    fa, fai, fh, fhi = (_flags(ck, x) for x in (a, a_ind, h, h_ind))
    if not any(m for m, f in zip(ck.m, fh) if f == "1"):
        return None
    denom = lo_num = hi_num = 0
    for i, m in enumerate(ck.m):
        hw = R_SCALE if fh[i] == "1" else (ck.r[i] if fhi[i] == "1" else 0)
        if not hw:
            continue
        aw = R_SCALE if fa[i] == "1" else (ck.r[i] if fai[i] == "1" else 0)
        denom += m * hw
        hi_num += m * aw * hw
        if fa[i] == "1":
            lo_num += m * hw
    return Fraction(lo_num, denom), Fraction(hi_num, denom * R_SCALE)


def _cdf(ck, values: list[Fraction]) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]]]:
    levels = sorted(set(values))
    segments = [_interval(ck, 0)]
    members = 0
    for t in levels:
        members |= mask_of(i for i, v in enumerate(values) if v == t)
        segments.append(_interval(ck, members))
    return levels, segments


def _at(levels, segments, t):
    return segments[sum(1 for v in levels if v <= t)]


def check(ck, op, answer) -> list[str]:
    if op.kind == "interval":
        ind, wc, q = answer
        return split_problems(ck.classes, ck.full, op.h_mask, ind.mask, wc.mask) + pair_problems(
            "Q_r(H)", q, *_interval(ck, op.h_mask)
        )
    if op.kind == "condition":
        expected = _conditional(ck, op.a_mask, op.h_mask)
        if expected is None:
            return [] if isinstance(answer, Refused) else ["P(H)=0 but the conditional was not refused"]
        if isinstance(answer, Refused):
            return [f"refused although P(H) > 0: {answer.message}"]
        return pair_problems("Q_r(A|H)", answer, *expected)
    if op.kind == "cdf":
        levels, segments = _cdf(ck, op.xvals)
        problems = value_problems("breakpoints", answer.breakpoints, tuple(levels))
        for i, (got, want) in enumerate(zip(answer.segments, segments)):
            problems += pair_problems(f"segment {i}", got, *want)
        return problems
    fx, fy = _cdf(ck, op.xvals), _cdf(ck, op.yvals)
    grid = sorted(set(op.xvals) | set(op.yvals))
    expected = (True, None, None)
    for t in [grid[0] - 1, *grid]:
        (f_lo, f_hi), (g_lo, g_hi) = _at(*fx, t), _at(*fy, t)
        if f_lo > g_lo:
            expected = (False, t, "left-endpoint")
            break
        if g_hi - g_lo > f_hi - f_lo:
            expected = (False, t, "width")
            break
    got = (answer.dominates, answer.witness_t, answer.failed_inequality)
    return value_problems("dominance verdict", got, expected)
