"""Workload ``table-queries``: many small queries against four capacity tables.

One generated scenario with |Omega| = 16 carries four capacities: a power
distortion, a piecewise-linear distortion, a belief function with many
focal sets, and an explicit 65536-entry table equal to P's subset sums
(so that capacity is additive).  Parsing it builds all four tables, and
that lands in set-up.  The ops are sub-millisecond: the call sequence of
``interval`` and ``condition`` (DS, weak DS, graded, graded') over every
capacity, a capacity CDF with its Choquet integral, and a ``product``
query on a 16-point flat product of an 8-point and a 2-point factor.
At 16 points the super-additivity sweep is skipped.  Each slot of the
fixed 20-slot schedule names its op kind and its event shapes, or its
capacity, CDF variant and level count, so every seed has the same cost
profile and a slot's latency can be compared across cycles; for the
same reason every seed's masses are parts of one denominator and every
seed uses each degree in ``r_values`` equally often.  The two
``condition`` slots on 3-point events sit at the 90th percentile.

Checks use the checker's own capacity tables (subset sums by a
low-bit recursion, the belief table by a zeta transform over integer
numerators) and its own level-grid integrals, plus the paper's
identities: on the additive table the capacity interval equals the
interval measure, Choquet equals the expectation and DS equals the
Bayes ratio; the belief and power intervals lie inside their primed
versions; each product interval lies inside the native one.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

from common import (
    ONE,
    Refused,
    balanced,
    class_masks,
    composition,
    event_mask,
    eventuality_names,
    guarded,
    indices_of,
    mask_of,
    normalized_mass,
    pair_problems,
    split,
    split_problems,
    strata_integral,
    superadditive,
    value_problems,
)

NAME = "table-queries"
WHY = (
    "sub-millisecond capacity, conditioning and product queries at |Omega|=16; "
    "four 65536-entry capacity tables are built at set-up"
)

PARAMS = {
    "n": 4,
    "labels": 1,
    "mass_denominator": 2520,
    "r_values": ["0", "1/4", "1/3", "1/2", "2/3", "3/4", "1", "1"],
    "power_exponent": 2,
    "piecewise_denominator": 12,
    "focal_sets": 48,
    "product_left": {"n": 2, "labels": 2},
    "product_right": {"n": 1, "labels": 1},
    "schedule": [
        "interval points:1", "condition points:3 points:3", "cdf power plain 4", "product points:1",
        "interval points:3", "cdf belief prime 8", "condition density:1/2 points:3", "cdf bend plain 2",
        "interval density:1/4", "cdf table prime 4", "condition points:1 density:1/4", "cdf power prime 2",
        "interval density:1/2", "cdf belief plain 4", "condition points:3 points:3", "product density:1/2",
        "cdf bend prime 8", "interval transversal", "condition transversal density:1/4", "cdf table plain 8",
    ],
    "warm_ops": ["interval density:1/4", "condition density:1/4 points:3", "cdf belief plain 4", "product points:1"],
    "trace_ops": 2000,
}

CAPACITIES = ("power", "bend", "belief", "table")


def _factor(rng, params, shape, tag) -> tuple[dict, list[Fraction]]:
    labels = [f"{tag}{i}" for i in range(shape["labels"])]
    names = eventuality_names(shape["n"], labels)
    mass = composition(rng, len(names), params["mass_denominator"])
    doc = {"n": shape["n"], "e_labels": labels, "mass": dict(zip(names, map(str, mass)))}
    return doc, mass


def _subset_sums(values: list) -> list:
    table = [0] * (1 << len(values))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] + values[low.bit_length() - 1]
    return table


def generate(seed: int, params: dict) -> SimpleNamespace:
    rng = random.Random(f"{NAME}:{seed}")
    n, labels = params["n"], ["x0", "x1", "x2", "x3"][: params["labels"]]
    names = eventuality_names(n, labels)
    size = len(names)
    mass = composition(rng, size, params["mass_denominator"])
    r = balanced(rng, params["r_values"], size)
    # Interior breakpoints strictly inside (0, 1) and singletons among the
    # focal sets keep every capacity of a nonempty event strictly between
    # 0 and 1, so no seed turns a share of the queries into cheap refusals.
    d = params["piecewise_denominator"]
    xs = sorted(rng.sample(range(1, d), 2))
    ys = sorted(rng.sample(range(1, d), 2))
    bend = [(Fraction(0), Fraction(0))] + [(Fraction(x, d), Fraction(y, d)) for x, y in zip(xs, ys)]
    bend.append((ONE, ONE))
    singles = [1 << i for i in range(size)]
    others = rng.sample(sorted(set(range(1, 1 << size)) - set(singles)), params["focal_sets"] - size)
    focal_masks = singles + others
    focal = list(zip(focal_masks, normalized_mass(rng, len(focal_masks), [1, 9], [1, 2, 3])))
    table = [str(v) for v in _subset_sums(mass)]
    doc = {
        "n": n,
        "e_labels": labels,
        "mass": dict(zip(names, map(str, mass))),
        "r": {name: str(v) for name, v in zip(names, r) if v != 1},
        "capacities": {
            "power": {"kind": "distortion", "distortion": {"type": "power", "exponent": params["power_exponent"]}},
            "bend": {"kind": "distortion", "distortion": {"type": "piecewise", "points": [[str(x), str(y)] for x, y in bend]}},
            "belief": {
                "kind": "belief_mass",
                "mass": [{"event": [names[i] for i in indices_of(m)], "value": str(w)} for m, w in focal],
            },
            "table": {"kind": "table", "values": table},
        },
    }
    left_doc, left_mass = _factor(rng, params, params["product_left"], "a")
    right_doc, right_mass = _factor(rng, params, params["product_right"], "b")
    return SimpleNamespace(
        seed=seed, params=params, doc=doc, n=n, n_labels=len(labels), size=size, mass=mass, r=r,
        bend=bend, focal=focal, left_doc=left_doc, left_mass=left_mass,
        right_doc=right_doc, right_mass=right_mass,
    )


def setup(inputs, call) -> SimpleNamespace:
    from intprob.product import product_space
    from intprob.scenario import parse_scenario

    scenario = call("scenario.parse_scenario", parse_scenario, inputs.doc)
    left = call("scenario.parse_scenario", parse_scenario, inputs.left_doc)
    right = call("scenario.parse_scenario", parse_scenario, inputs.right_doc)
    ps = call("product.product_space", product_space, left.space, right.space)
    return SimpleNamespace(inputs=inputs, scenario=scenario, left=left, right=right, ps=ps)


def trace_setup(state, call) -> None:
    """Build each capacity once more by a direct call, so each constructor gets its own span."""
    from intprob.capacity import (
        PiecewiseLinear,
        belief_from_mass,
        capacity_from_table,
        distort,
        power_distortion,
    )
    from intprob.space import Event

    sc, inputs = state.scenario, state.inputs
    focal = {Event(sc.space, m): w for m, w in inputs.focal}
    table = sc.capacities["table"].table
    call("capacity.distort", distort, sc.mass, power_distortion(inputs.params["power_exponent"]))
    call("capacity.distort", distort, sc.mass, PiecewiseLinear(tuple(inputs.bend)))
    call("capacity.belief_from_mass", belief_from_mass, sc.space, focal)
    call("capacity.capacity_from_table", capacity_from_table, sc.space, table)


def new_op(state, k: int, slot: str, rng: random.Random) -> SimpleNamespace:
    from intprob.measure import RandomVariable
    from intprob.space import Event

    inputs, sc = state.inputs, state.scenario
    kind, *args = slot.split()
    op = SimpleNamespace(k=k, kind=kind)
    if kind in ("interval", "condition"):
        op.h_mask = event_mask(rng, args[0], inputs.n, inputs.n_labels)
        op.h = Event(sc.space, op.h_mask)
    if kind == "condition":
        op.a_mask = event_mask(rng, args[1], inputs.n, inputs.n_labels)
        op.a = Event(sc.space, op.a_mask)
    if kind == "cdf":
        op.capacity, op.prime = args[0], args[1] == "prime"
        levels = [Fraction(v, 16) for v in rng.sample(range(1, 17), int(args[2]))]
        op.xvals = [levels[i % len(levels)] for i in range(inputs.size)]
        rng.shuffle(op.xvals)
        op.x = RandomVariable(sc.space, tuple(op.xvals))
    if kind == "product":
        flat = state.ps.flat
        op.h_mask = event_mask(rng, args[0], flat.n, len(flat.e_labels))
        op.h = Event(flat, op.h_mask)
    return op


def run(state, op, call):
    from intprob.capacity import capacity_interval, capacity_interval_prime, choquet
    from intprob.conditioning import (
        capacity_conditional,
        capacity_conditional_prime,
        conditional_interval,
        ds_conditional,
        ds_conditional_weak,
    )
    from intprob.dominance import capacity_interval_cdf
    from intprob.measure import interval_measure
    from intprob.product import flat_measure, native_interval, product_interval
    from intprob.space import indecisive_set, weak_complement

    sc = state.scenario
    if op.kind == "interval":
        h = op.h
        return (
            call("space.indecisive_set", indecisive_set, sc.space, h),
            call("space.weak_complement", weak_complement, sc.space, h),
            call("measure.interval_measure", interval_measure, sc.mass, sc.r, h),
            tuple(
                (
                    name,
                    call("capacity.capacity_interval", capacity_interval, nu, sc.r, h),
                    call("capacity.capacity_interval_prime", capacity_interval_prime, nu, sc.r, h),
                )
                for name, nu in sc.capacities.items()
            ),
        )
    if op.kind == "condition":
        a, h = op.a, op.h
        return (
            guarded(call, "conditioning.conditional_interval", conditional_interval, sc.mass, sc.r, a, h),
            tuple(
                (
                    name,
                    guarded(call, "conditioning.ds_conditional", ds_conditional, nu, a, h),
                    guarded(call, "conditioning.ds_conditional_weak", ds_conditional_weak, nu, a, h),
                    guarded(call, "conditioning.capacity_conditional", capacity_conditional, nu, sc.r, a, h),
                    guarded(call, "conditioning.capacity_conditional_prime", capacity_conditional_prime, nu, sc.r, a, h),
                )
                for name, nu in sc.capacities.items()
            ),
        )
    if op.kind == "cdf":
        nu = sc.capacities[op.capacity]
        cdf = call("dominance.capacity_interval_cdf", capacity_interval_cdf, nu, sc.r, op.x, prime=op.prime)
        return cdf, call("capacity.choquet", choquet, nu, op.x)
    ps, left, right = state.ps, state.left.mass, state.right.mass
    return (
        call("product.flat_measure", flat_measure, ps, left, right),
        call("product.product_interval", product_interval, ps, left, right, op.h),
        call("product.native_interval", native_interval, ps, left, right, op.h),
    )


def grid_points(state, op) -> int:
    return len(set(op.xvals)) + 1 if op.kind == "cdf" else 0


def table_entries(state) -> int:
    return sum(len(nu.table) for nu in state.scenario.capacities.values())


# ---------------------------------------------------------------- checks


def _interp(points, t: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if t <= x1:
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    raise ValueError(t)


class _Table:
    """A capacity table kept as integer numerators, evaluated entry by entry."""

    def __init__(self, numerators: list[int], denominator: int, curve=None) -> None:
        self.numerators, self.denominator, self.curve = numerators, denominator, curve

    def __getitem__(self, mask: int) -> Fraction:
        value = Fraction(self.numerators[mask], self.denominator)
        return self.curve(value) if self.curve else value

    def __len__(self) -> int:
        return len(self.numerators)


def checker(state) -> SimpleNamespace:
    inputs = state.inputs
    denom = math.lcm(*(m.denominator for m in inputs.mass))
    sums = _subset_sums([int(m * denom) for m in inputs.mass])
    focal_denom = math.lcm(*(w.denominator for _, w in inputs.focal))
    zeta = [0] * len(sums)
    for m, w in inputs.focal:
        zeta[m] = int(w * focal_denom)
    for bit in range(inputs.size):
        step = 1 << bit
        for mask in range(len(zeta)):
            if mask & step:
                zeta[mask] += zeta[mask ^ step]
    exponent = inputs.params["power_exponent"]
    left, right = state.left.space, state.right.space
    n_right, block = right.n, 1 << (left.n + right.n)
    flat_labels = len(left.e_labels) * len(right.e_labels)
    flat_mass = [None] * (flat_labels * block)
    for el in range(len(left.e_labels)):
        for er in range(len(right.e_labels)):
            for bl in range(1 << left.n):
                for br in range(1 << n_right):
                    i = (el * len(right.e_labels) + er) * block + (bl << n_right) + br
                    flat_mass[i] = inputs.left_mass[(el << left.n) + bl] * inputs.right_mass[(er << n_right) + br]
    coarse = []
    for cl in class_masks(left.n, 1):
        for cr in class_masks(n_right, 1):
            pats = [(bl << n_right) + br for bl in indices_of(cl) for br in indices_of(cr)]
            coarse.append(mask_of(e * block + v for e in range(flat_labels) for v in pats))
    nu = {
        "power": _Table(sums, denom, lambda p: p**exponent),
        "bend": _Table(sums, denom, lambda p: _interp(inputs.bend, p)),
        "belief": _Table(zeta, focal_denom),
        "table": _Table(sums, denom),
    }
    return SimpleNamespace(
        size=inputs.size,
        full=(1 << inputs.size) - 1,
        classes=class_masks(inputs.n, inputs.n_labels),
        mass=inputs.mass,
        r=inputs.r,
        nu=nu,
        flags={name: superadditive(table, inputs.size) for name, table in nu.items()},
        flat_mass=flat_mass,
        flat_full=(1 << len(flat_mass)) - 1,
        flat_classes=class_masks(left.n + right.n, flat_labels),
        coarse=coarse,
    )


def check_setup(ck, state) -> list[str]:
    sc = state.scenario
    problems = value_problems("parsed masses", sc.mass.values, tuple(ck.mass))
    for name in CAPACITIES:
        ours = ck.nu[name]
        if sc.capacities[name].table != tuple(ours[m] for m in range(len(ours))):
            problems.append(f"capacity table {name} differs from the checker's")
    return problems


def _mass(values, mask: int) -> Fraction:
    return sum((values[i] for i in indices_of(mask)), Fraction(0))


def _measure_interval(ck, h: int) -> tuple[Fraction, Fraction]:
    ind, _ = split(ck.classes, ck.full, h)
    lo = _mass(ck.mass, h)
    return lo, lo + sum((ck.mass[i] * ck.r[i] for i in indices_of(ind)), Fraction(0))


def _capacity_pair(ck, name: str, h: int, prime: bool) -> tuple[Fraction, Fraction]:
    nu = ck.nu[name]
    ind, _ = split(ck.classes, ck.full, h)
    if prime:
        return nu[h], strata_integral(nu, ck.r, ind, lambda s: h | s)
    return nu[h], min(ONE, nu[h] + strata_integral(nu, ck.r, ind, lambda s: s))


def _check_interval(ck, op, answer) -> list[str]:
    ind, wc, q, caps = answer
    h = op.h_mask
    problems = split_problems(ck.classes, ck.full, h, ind.mask, wc.mask)
    problems += pair_problems("Q_r(H)", q, *_measure_interval(ck, h))
    for name, plain, prime in caps:
        problems += pair_problems(f"{name} Q_r^nu(H)", plain, *_capacity_pair(ck, name, h, False))
        problems += pair_problems(f"{name} Q'_r(H)", prime, *_capacity_pair(ck, name, h, True))
        if name == "table" and not (plain == q and prime == q):
            problems.append("additive table: capacity intervals differ from the interval measure")
        if name in ("belief", "power") and not prime.encloses(plain):
            problems.append(f"{name}: capacity interval not inside the primed interval")
    return problems


def _expect_conditional(ck, a: int, h: int):
    if _mass(ck.mass, h) == 0:
        return Refused("PreconditionError", "")
    h_ind, _ = split(ck.classes, ck.full, h)
    a_ind, _ = split(ck.classes, ck.full, a)
    denom = lo_num = hi_num = Fraction(0)
    for i, m in enumerate(ck.mass):
        bit = 1 << i
        hw = ONE if bit & h else (ck.r[i] if bit & h_ind else 0)
        aw = ONE if bit & a else (ck.r[i] if bit & a_ind else 0)
        denom += m * hw
        hi_num += m * aw * hw
        if bit & a:
            lo_num += m * hw
    return lo_num / denom, hi_num / denom


def _expect_capacity_rows(ck, name: str, a: int, h: int) -> tuple:
    nu, full = ck.nu[name], ck.full
    hc = full & ~h
    ds = Refused("PreconditionError", "") if nu[hc] == 1 else (nu[(a & h) | hc] - nu[hc]) / (1 - nu[hc])
    h_ind, wc = split(ck.classes, full, h)
    dsw = Refused("PreconditionError", "") if nu[wc] == 1 else (nu[a | wc] - nu[wc]) / (1 - nu[wc])
    if nu[h] == 0:
        return ds, dsw, Refused("PreconditionError", ""), Refused("PreconditionError", "")

    def weight(b: int) -> Fraction:
        return strata_integral(nu, ck.r, h_ind, lambda s: b & (h | s))

    a_ind, _ = split(ck.classes, full, a)
    total, weight_a = weight(full), weight(a)
    raw_hi = (weight_a + strata_integral(nu, ck.r, a_ind & (h | h_ind), lambda s: s)) / total
    flag = ck.flags[name]
    graded = (weight_a / total, min(ONE, raw_hi), raw_hi > 1, flag)
    hi_prime = weight(a | a_ind) / total
    return ds, dsw, graded, (weight_a / total, min(ONE, hi_prime), hi_prime > 1, flag)


def _same(what: str, got, want) -> list[str]:
    if isinstance(want, Refused) or isinstance(got, Refused):
        same = isinstance(want, Refused) and isinstance(got, Refused)
        return [] if same else [f"{what}: got {got}, expected {want}"]
    if isinstance(want, tuple) and len(want) == 4:
        lo, hi, clamped, flag = want
        out = pair_problems(what, got.interval, lo, hi)
        flags = (got.clamped, got.superadditive, got.tentative)
        return out + value_problems(f"{what} flags", flags, (clamped, flag, True))
    if isinstance(want, tuple):
        return pair_problems(what, got, *want)
    return value_problems(what, got, want)


def _check_condition(ck, op, answer) -> list[str]:
    ci, caps = answer
    a, h = op.a_mask, op.h_mask
    problems = _same("Q_r(A|H)", ci, _expect_conditional(ck, a, h))
    for name, *rows in caps:
        wants = _expect_capacity_rows(ck, name, a, h)
        for label, got, want in zip(("DS", "weak-DS", "graded", "graded'"), rows, wants):
            problems += _same(f"{name} {label}(A|H)", got, want)
        ph = _mass(ck.mass, h)
        if name == "table" and ph and rows[0] != _mass(ck.mass, a & h) / ph:
            problems.append("additive table: DS differs from the Bayes ratio")
    return problems


def _check_cdf(ck, op, answer) -> list[str]:
    cdf, value = answer
    levels = sorted(set(op.xvals))
    problems = value_problems("breakpoints", cdf.breakpoints, tuple(levels))
    sublevels = [0] + [mask_of(i for i, v in enumerate(op.xvals) if v <= t) for t in levels]
    for i, (got, mask) in enumerate(zip(cdf.segments, sublevels)):
        problems += pair_problems(f"segment {i}", got, *_capacity_pair(ck, op.capacity, mask, op.prime))
    nu = ck.nu[op.capacity]
    problems += value_problems("Choquet integral", value, strata_integral(nu, op.xvals, ck.full, lambda s: s))
    if op.capacity == "table":
        mean = sum((m * x for m, x in zip(ck.mass, op.xvals)), Fraction(0))
        problems += value_problems("additive table: Choquet against the expectation", value, mean)
    return problems


def _check_product(ck, op, answer) -> list[str]:
    flat, prod, native = answer
    h = op.h_mask
    problems = value_problems("flat measure", flat.values, tuple(ck.flat_mass))
    lo = _mass(ck.flat_mass, h)
    coarse_ind = 0
    for c in ck.coarse:
        if not c & h:
            coarse_ind |= c
    native_ind, _ = split(ck.flat_classes, ck.flat_full, h)
    problems += pair_problems("product interval", prod, lo, lo + _mass(ck.flat_mass, coarse_ind))
    problems += pair_problems("native interval", native, lo, lo + _mass(ck.flat_mass, native_ind))
    if not native.encloses(prod):
        problems.append("product interval not inside the native interval")
    return problems


def check(ck, op, answer) -> list[str]:
    return {
        "interval": _check_interval,
        "condition": _check_condition,
        "cdf": _check_cdf,
        "product": _check_product,
    }[op.kind](ck, op, answer)
