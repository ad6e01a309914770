"""Whole-table sweeps on one common denominator against plain ``Fraction`` sweeps.

``is_superadditive``, ``validate_imprecise``, ``capacity_from_table``,
``Capacity.is_additive``, ``distort`` and ``belief_from_mass`` add and
compare integer numerators over one lcm.  Each is checked here against a
sweep written out in ``Fraction``s, in the documented order, so verdicts
and witness lists must agree entry for entry.  The hostile input has
masses with 11 distinct ~150-digit denominators on 12 points.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import intprob as ip
from intprob.capacity import Capacity
from intprob.cli import main
from intprob.errors import ConstraintError, PreconditionError
from intprob.space import PAIR_LIMIT

ROOT = Path(__file__).resolve().parent.parent
F = Fraction


# ------------------------------------------------------------ reference sweeps


def _pairs(size):
    """Disjoint nonempty ``(a, b)`` with ``b < a``: ``a`` ascending, ``b`` descending."""
    for a in range(1, 1 << size):
        for b in range(a - 1, 0, -1):
            if not a & b:
                yield a, b


def _edges(size):
    """``(s, s + {x})``: ``s`` ascending, then ``x`` ascending."""
    for s in range(1 << size):
        for x in range(size):
            if not s >> x & 1:
                yield s, s | 1 << x


def _ref_profile(table, size):
    super_w = sub_w = None
    for a, b in _pairs(size):
        if table[a] + table[b] > table[a | b] and super_w is None:
            super_w = (a, b)
        if table[a] + table[b] < table[a | b] and sub_w is None:
            sub_w = (a, b)
    return super_w is None, super_w, sub_w is None, sub_w


def _masks(pair):
    return None if pair is None else tuple(e.mask for e in pair)


def _profile_masks(profile):
    return (
        profile.superadditive,
        _masks(profile.superadditive_witness),
        profile.subadditive,
        _masks(profile.subadditive_witness),
    )


def _ref_report(lo, hi, size):
    """Witness lists of both modes, as mask pairs, from ``Fraction`` endpoints."""
    width = [h - l for l, h in zip(lo, hi)]
    if size <= PAIR_LIMIT:
        additive = [(a, b) for a, b in _pairs(size) if lo[a | b] != lo[a] + lo[b]]
        nested = [
            (sub, sup)
            for sup in range(1 << size)
            for sub in range(sup, -1, -1)
            if not sub & ~sup and width[sub] < width[sup]
        ]
        return additive, nested
    edges = list(_edges(size))
    additive = [(s, e) for s, e in edges if lo[e] != lo[s] + lo[e ^ s]]
    nested = [(s, e) for s, e in edges if width[e] > width[s]]
    return additive, nested


def _report_masks(report):
    return (
        [_masks(p) for p in report.additivity_witnesses],
        [_masks(p) for p in report.width_witnesses],
    )


def _subset_sums(values):
    sums = [F(0)]
    for v in values:
        sums += [s + v for s in sums]
    return sums


# ------------------------------------------------------------ seeded tables


def _space(size):
    n = max(1, (size & -size).bit_length() - 1)
    return ip.build_space(n, [f"x{i}" for i in range(size >> n)])


def _mass(rng, size, denominators=(2, 3, 5, 7, 12)):
    weights = [F(rng.randint(0, 9), rng.choice(denominators)) for _ in range(size)]
    weights[rng.randrange(size)] += 1
    total = sum(weights)
    return [w / total for w in weights]


def _tables(rng, size):
    """Seeded tables of one space: additive, super-, sub- and mixed-additive, non-monotone."""
    probs = _subset_sums(_mass(rng, size))
    full = (1 << size) - 1
    # A value per cardinality, increasing at random: monotone, seldom super- or sub-additive.
    inner = sorted(F(rng.randint(0, 7), rng.choice((7, 8, 11))) for _ in range(size - 1))
    by_count = [F(0), *inner, F(1)]
    mixed = [by_count[bin(m).count("1")] for m in range(full + 1)]
    broken = list(probs)
    for m in rng.sample(range(1, full), min(3, full - 1)):
        broken[m] = F(rng.randint(0, 13), 13)
    return {
        "additive": probs,
        "square": [t * t for t in probs],
        "root-ish": [2 * t - t * t for t in probs],
        "mixed": mixed,
        "non-monotone": broken,
    }


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("size", [2, 4, 6, 8])
def test_superadditivity_sweep_matches_fraction_sweep(size, seed):
    rng = random.Random(f"profile:{size}:{seed}")
    space = _space(size)
    for name, table in _tables(rng, size).items():
        nu = Capacity(space, tuple(table))
        assert _profile_masks(ip.is_superadditive(nu)) == _ref_profile(table, size), name


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("size", [2, 4, 8])
def test_table_checks_match_fraction_checks(size, seed):
    rng = random.Random(f"table:{size}:{seed}")
    space = _space(size)
    for name, table in _tables(rng, size).items():
        first_bad = next(((s, e) for s, e in _edges(size) if table[e] < table[s]), None)
        if first_bad is None and table[0] == 0 and table[-1] == 1:
            nu = ip.capacity_from_table(space, table)
            assert nu.table == tuple(table)
            additive = table == _subset_sums([table[1 << i] for i in range(size)])
            assert nu.is_additive() == additive, name
            continue
        with pytest.raises(ConstraintError) as info:
            ip.capacity_from_table(space, table)
        if table[0] == 0 and table[-1] == 1:
            assert _masks(info.value.witness) == first_bad, name


def _doctored_maps(rng, size):
    """A valid interval map of a seeded scenario and copies with broken entries."""
    space = _space(size)
    p = ip.ProbabilityMeasure(space, tuple(_mass(rng, size)))
    r = ip.UncertaintyDegree(space, tuple(F(rng.randint(1, 6), 6) for _ in range(size)))
    q = {e: ip.interval_measure(p, r, e) for e in space.events()}
    yield "valid", q
    events = list(q)
    bad_lo = dict(q)
    for e in rng.sample(events[1:-1], min(3, len(events) - 2)):
        bad_lo[e] = ip.Interval(q[e].lo / 2, q[e].hi)
    yield "left endpoints", bad_lo
    wide = dict(q)
    for e in rng.sample(events, 3):
        wide[e] = ip.Interval(q[e].lo, (q[e].hi + 1) / 2)
    wide[events[0]] = ip.Interval(0, 0)  # the empty event must be the widest
    yield "widths", wide
    yield "boundary", {**q, events[-1]: ip.Interval(F(1, 3), F(1, 2))}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("size", [2, 4, 8, 14])
def test_validation_matches_fraction_sweep(size, seed):
    rng = random.Random(f"validate:{size}:{seed}")
    for name, q in _doctored_maps(rng, size):
        lo = [F(0)] * (1 << size)
        hi = [F(0)] * (1 << size)
        for e, interval in q.items():
            lo[e.mask], hi[e.mask] = interval.lo, interval.hi
        report = ip.validate_imprecise(q)
        assert report.mode == ("exhaustive-pairs" if size <= PAIR_LIMIT else "lattice-edges")
        assert _report_masks(report) == _ref_report(lo, hi, size), name
        assert report.boundary_ok == (lo[0] == 0 and lo[-1] == 1), name
        if name != "valid":
            assert not report.passed, name


# ------------------------------------------------------------ hostile denominators


def _hostile_doc():
    """12 points; 11 masses with distinct ~150-digit denominators, the 12th their complement."""
    rng = random.Random(12)
    labels = ["x0", "x1", "x2"]
    names = [f"{e},{v:02b}" for e in labels for v in range(4)]
    dens = [rng.randrange(10**149, 10**150) | 1 for _ in range(11)]
    masses = [F(d // 13, d) for d in dens]
    masses.append(1 - sum(masses))
    focal = [names[i : i + 1 + i % 3] for i in range(12)]
    return {
        "n": 2,
        "e_labels": labels,
        "mass": {nm: str(m) for nm, m in zip(names, masses)},
        "events": {"A": names[0:5], "H": names[3:8]},
        "capacities": {
            "power": {"kind": "distortion", "distortion": {"type": "power", "exponent": 2}},
            "belief": {
                "kind": "belief_mass",
                "mass": [{"event": ev, "value": str(m)} for ev, m in zip(focal, masses)],
            },
        },
    }


def test_hostile_tables_match_fraction_recomputation():
    doc = _hostile_doc()
    sc = ip.parse_scenario(doc)
    space = sc.space
    probs = _subset_sums(sc.mass.values)
    assert sc.capacities["power"].table == tuple(t * t for t in probs)
    rows = doc["capacities"]["belief"]["mass"]
    focal = {space.event(row["event"]).mask: F(row["value"]) for row in rows}
    belief = sc.capacities["belief"].table
    for mask in range(1 << space.omega_size):
        assert belief[mask] == sum((w for b, w in focal.items() if not b & ~mask), F(0))
    assert all(type(v) is F for v in belief)
    assert max(len(str(v.denominator)) for v in belief) > 1000


def test_hostile_condition_finishes_quickly(tmp_path):
    """Both capacities are swept for super-additivity at 12 points."""
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(_hostile_doc()))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "intprob", "condition", str(path), "A", "H"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 10
    assert proc.stdout.count("super-additive: yes") == 4


def test_common_denominator_past_the_digit_limit_is_refused(tmp_path, capsys):
    """Two entries over coprime 2500-digit denominators need a 5000-digit lcm."""
    space = ip.build_space(1, ["a"])
    table = [F(0), F(1, 10**2500 + 1), F(1, 10**2500 + 3), F(1)]
    with pytest.raises(PreconditionError, match="common denominator"):
        ip.capacity_from_table(space, table)
    with pytest.raises(PreconditionError, match="common denominator"):
        ip.is_superadditive(Capacity(space, tuple(table)))
    doc = {"n": 1, "e_labels": ["a"], "mass": {"a,0": "1/2", "a,1": "1/2"}, "events": {"H": ["a,0"]},
           "capacities": {"nu": {"kind": "table", "values": [str(v) for v in table]}}}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["interval", str(path), "H"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "precondition"
