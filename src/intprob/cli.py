"""Command-line front end.

Subcommands (all exact values are printed as ``p/q`` with a ``~``-marked
six-significant-digit decimal alongside):

* ``interval SCENARIO EVENT`` — the interval measure of a named event,
  plus the capacity intervals for every capacity the scenario declares.
* ``condition SCENARIO A H`` — the conditional interval of ``A`` given
  ``H``, plus Dempster–Shafer, weak-complement Dempster–Shafer, and the
  graded capacity conditionals per declared capacity.
* ``cdf SCENARIO X`` — the interval distribution table of a variable.
* ``dominate SCENARIO X Y`` — the stochastic dominance verdict.
* ``product LEFT RIGHT EVENT_JSON`` — the product interval measure and
  the native flat interval measure of a flat event (given as a JSON
  array of ``"labelL*labelR,bitsLbitsR"`` strings).
* ``validate SCENARIO`` — the imprecise-probability axiom sweep.
* ``demo umbrella`` — the bundled two-factor example.

Exit codes: 0 success, 2 input/constraint error, 3 precondition
rejection.  Errors are emitted to stderr as one-line JSON records.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Mapping, TypeVar

from .conditioning import (
    ConditionalOutcome,
    capacity_conditional,
    capacity_conditional_prime,
    conditional_interval,
    ds_conditional,
    ds_conditional_weak,
)
from .capacity import capacity_interval, capacity_interval_prime
from .dominance import dominates, interval_cdf
from .errors import ConstraintError, IntprobError, PreconditionError, clipped
from .measure import (
    Interval,
    ProbabilityMeasure,
    UncertaintyDegree,
    interval_measure,
    validate_imprecise,
)
from .product import native_interval, product_interval, product_space
from .scenario import load_scenario
from .space import EDGE_LIMIT, build_space, check_digits, check_size, indecisive_set, weak_complement

__all__ = ["main"]


def _exact(x: Fraction) -> str:
    check_digits("a printed result", x)
    return str(x)


def _approx(x: Fraction) -> str:
    return f"{float(x):.6g}"


def _fmt_rational(x: Fraction) -> str:
    return f"{_exact(x)} (~{_approx(x)})"


def _fmt_interval(iv: Interval) -> str:
    return f"[{_exact(iv.lo)}, {_exact(iv.hi)}] (~[{_approx(iv.lo)}, {_approx(iv.hi)}])"


def _fmt_outcome(outcome: ConditionalOutcome) -> str:
    if outcome.superadditive is None:
        super_note = "unchecked"
    else:
        super_note = "yes" if outcome.superadditive else "no"
    clamp_note = ", clamped" if outcome.clamped else ""
    return (
        f"{_fmt_interval(outcome.interval)} "
        f"(tentative; super-additive: {super_note}{clamp_note})"
    )


T = TypeVar("T")


def _named(table: Mapping[str, T], name: str, what: str) -> T:
    try:
        return table[name]
    except KeyError:
        # The requested name goes last, so a cut through it ends the message.
        raise ConstraintError(
            f"available {what}s are {clipped(sorted(table) or 'none')}; "
            f"scenario declares no {what} named {clipped(repr(name))}"
        ) from None


def _cmd_interval(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    h = _named(scenario.events, args.event, "event")
    space = scenario.space
    print(f"event {args.event} = {h.render()}")
    print(f"indecisive set = {indecisive_set(space, h).render()}")
    print(f"weak complement = {weak_complement(space, h).render()}")
    print(f"Q_r({args.event}) = "
          f"{_fmt_interval(interval_measure(scenario.mass, scenario.r, h))}")
    for name, nu in scenario.capacities.items():
        print(f"capacity {name}:")
        print(f"  Q_r^nu({args.event}) = "
              f"{_fmt_interval(capacity_interval(nu, scenario.r, h))}")
        print(f"  Q'_r({args.event}) = "
              f"{_fmt_interval(capacity_interval_prime(nu, scenario.r, h))}")
    return 0


def _cmd_condition(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    a = _named(scenario.events, args.a, "event")
    h = _named(scenario.events, args.h, "event")
    print(f"A = {a.render()}")
    print(f"H = {h.render()}")
    interval = conditional_interval(
        scenario.mass,
        scenario.r,
        a,
        h,
        allow_null_conditioning=args.allow_null_conditioning,
    )
    print(f"Q_r(A|H) = {_fmt_interval(interval)}")
    for name, nu in scenario.capacities.items():
        print(f"capacity {name}:")
        # A capacity can fail a variant's own precondition (e.g. nu(H)=0)
        # without invalidating the rest of the report; degrade per line.
        rows = (
            ("DS(A|H)", lambda: _fmt_rational(ds_conditional(nu, a, h))),
            ("weak-DS(A|H)", lambda: _fmt_rational(ds_conditional_weak(nu, a, h))),
            ("graded(A|H)", lambda: _fmt_outcome(capacity_conditional(nu, scenario.r, a, h))),
            ("graded'(A|H)", lambda: _fmt_outcome(capacity_conditional_prime(nu, scenario.r, a, h))),
        )
        for label, render in rows:
            try:
                print(f"  {label} = {render()}")
            except PreconditionError as exc:
                print(f"  {label} = undefined ({exc})")
    return 0


def _cmd_cdf(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    x = _named(scenario.variables, args.variable, "variable")
    cdf = interval_cdf(scenario.mass, scenario.r, x)
    print(f"interval distribution of {args.variable}")
    for region, interval in cdf.regions():
        print(f"  {region}: {_fmt_interval(interval)}")
    return 0


def _cmd_dominate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    x = _named(scenario.variables, args.x, "variable")
    y = _named(scenario.variables, args.y, "variable")
    verdict = dominates(scenario.mass, scenario.r, x, y)
    print(f"{args.x} dominates {args.y}: {'true' if verdict.dominates else 'false'}")
    if not verdict.dominates:
        print(
            f"first violation at t = {verdict.witness_t} "
            f"({verdict.failed_inequality})"
        )
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    left = load_scenario(args.left)
    right = load_scenario(args.right)
    ps = product_space(left.space, right.space)
    try:
        names = json.loads(args.event)
    except (ValueError, RecursionError) as exc:  # bad JSON, or nested past the stack
        raise ConstraintError(f"event must be a JSON array of strings: {exc}") from exc
    if not isinstance(names, list):
        raise ConstraintError("event must be a JSON array of eventuality strings")
    h = ps.flat.event(names)
    flat = ps.flat
    print(
        f"flat space: n={flat.n}, {len(flat.e_labels)} label(s), "
        f"{flat.omega_size} eventualities"
    )
    print(f"H = {h.render()}")
    prod = product_interval(ps, left.mass, right.mass, h)
    native = native_interval(ps, left.mass, right.mass, h)
    print(f"Q1xQ1(H) = {_fmt_interval(prod)}")
    print(f"Q'_1(H) = {_fmt_interval(native)}")
    contained = native.encloses(prod)
    print(f"product interval within native interval: {'true' if contained else 'false'}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    space = scenario.space
    check_size("validate_imprecise", space.omega_size, EDGE_LIMIT)
    q = {
        event: interval_measure(scenario.mass, scenario.r, event)
        for event in space.events()
    }
    report = validate_imprecise(q)
    print(
        f"checked 2^{space.omega_size} events (mode: {report.mode}); "
        f"{len(scenario.capacities)} capacity table(s) validated at load"
    )
    print(f"boundary values: {'ok' if report.boundary_ok else 'VIOLATED'}")
    if not report.boundary_ok:
        print(f"  {report.boundary_detail}")
    print(f"left endpoints additive: {'ok' if report.additive else 'VIOLATED'}")
    for pair in report.additivity_witnesses[:5]:
        print(f"  witness: {pair[0].render()} / {pair[1].render()}")
    print(
        "widths anti-monotone: "
        f"{'ok' if report.widths_antimonotone else 'VIOLATED'}"
    )
    for pair in report.width_witnesses[:5]:
        print(f"  witness: {pair[0].render()} within {pair[1].render()}")
    if report.passed:
        print("PASSED")
        return 0
    print("FAILED")
    return 1


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.name != "umbrella":
        raise ConstraintError(f"unknown demo {args.name!r} (available: umbrella)")
    space = build_space(2, ["x0"])
    mass = ProbabilityMeasure.uniform(space)
    r = UncertaintyDegree.ones(space)
    h = space.event(["x0,10"])
    print("umbrella demo: two binary factors, one label, uniform mass, degree 1")
    print(f"space: n={space.n}, E={{{', '.join(space.e_labels)}}}, "
          f"{space.omega_size} eventualities")
    print("z-classes:")
    for i, z in enumerate(space.z_classes, start=1):
        print(f"  Z{i} = {z.render()}")
    print(f"H = {h.render()}")
    print(f"H_ind = {indecisive_set(space, h).render()}")
    print(f"H_w^c = {weak_complement(space, h).render()}")
    print(f"Q_1(H) = {_fmt_interval(interval_measure(mass, r, h))}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intprob",
        description="Exact interval probability measures from weak complementation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interval", help="interval measure of a named event")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("event", help="event name declared in the scenario")
    p.set_defaults(handler=_cmd_interval)

    p = sub.add_parser("condition", help="conditional interval of A given H")
    p.add_argument("scenario")
    p.add_argument("a", metavar="A", help="conditioned event name")
    p.add_argument("h", metavar="H", help="conditioning event name")
    p.add_argument(
        "--allow-null-conditioning",
        action="store_true",
        help="permit P(H)=0 when the graded denominator is positive",
    )
    p.set_defaults(handler=_cmd_condition)

    p = sub.add_parser("cdf", help="interval distribution table of a variable")
    p.add_argument("scenario")
    p.add_argument("variable", metavar="X")
    p.set_defaults(handler=_cmd_cdf)

    p = sub.add_parser("dominate", help="stochastic dominance verdict")
    p.add_argument("scenario")
    p.add_argument("x", metavar="X")
    p.add_argument("y", metavar="Y")
    p.set_defaults(handler=_cmd_dominate)

    p = sub.add_parser("product", help="product interval measure of a flat event")
    p.add_argument("left", help="left factor scenario file")
    p.add_argument("right", help="right factor scenario file")
    p.add_argument(
        "event",
        help='flat event as a JSON array, e.g. \'["x0*x0,1010"]\'',
    )
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("validate", help="imprecise-probability axiom sweep")
    p.add_argument("scenario")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("demo", help="run a bundled example")
    p.add_argument("name", help="demo name (umbrella)")
    p.set_defaults(handler=_cmd_demo)

    return parser


def _bounded(text: str) -> str:
    """``text`` cut to under 300 characters, for a field of an error record."""
    return text if len(text) < 300 else text[:296] + "..."


def _emit_error(kind: str, exc: IntprobError) -> None:
    record = {
        "error": {
            "kind": kind,
            "message": _bounded(str(exc)),
            "witness": None if exc.witness is None else _bounded(repr(exc.witness)),
        }
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConstraintError as exc:
        _emit_error("constraint", exc)
        return 2
    except PreconditionError as exc:
        _emit_error("precondition", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
