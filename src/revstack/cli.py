"""Command line driver.

Subcommands:

* ``solve``    -- desired point, cascade synthesis, full verification
* ``family``   -- describe the top-level strategy family, optionally check members
* ``verify``   -- verify strategies supplied in a document
* ``feasible`` -- constraint-compatibility of strategies

Exit codes: 0 success/verified, 2 precondition or existence failure,
3 verification or feasibility failure, 4 unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .constrained import feasibility_check
from .documents import (
    float_array,
    load_json,
    parse_problem,
    parse_strategies,
    strategies_to_document,
)
from .equilibrium import team_optimum
from .errors import DimensionError, DocumentError, RevstackError
from .model import DecisionPoint, GameProblem
from .synthesis import (
    AffineStrategy,
    StrategyFamily,
    instantiate,
    synthesize_cascade,
    synthesize_family_leader,
)
from .verify import GridSpec, oracle_best_response, response_passes, verify_full

__all__ = ["main"]

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_FAILED = 3
EXIT_BAD_INPUT = 4

MEMBER_REALIZATION_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the bad-input code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, "%s: error: %s\n" % (self.prog, message))


def _emit(report: Dict[str, Any], args, text_lines: List[str]) -> None:
    if args.output == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _point_lines(label: str, point: DecisionPoint) -> List[str]:
    lines = ["%s:" % label]
    for lev, block in enumerate(point.blocks, start=1):
        values = " ".join("%.10g" % v for v in block)
        lines.append("  level %d: %s" % (lev, values))
    return lines


def _strategy_lines(strategies: Sequence[AffineStrategy]) -> List[str]:
    lines = ["announced strategies:"]
    for s in strategies:
        for text in s.describe():
            lines.append("  " + text)
    return lines


def _verification_lines(report) -> List[str]:
    lines = ["verification: %s" % report.verdict.upper()]
    for c in report.strategy_checks:
        lines.append(
            "  level %d strategy: realization %.3g, membership %.3g, "
            "inequality violations %d [%s]"
            % (c.level, c.realization_residual, c.membership_residual,
               c.inequality_violations, "ok" if c.passed else "FAILED"))
        if not c.existence_passed:
            lines.append(
                "    note: gradient-condition check at level %d did not certify "
                "(norm %.3g)" % (c.level, c.existence_norm))
    for c in report.response_checks:
        flat = [v for blk in c.argmin for v in blk]
        lines.append(
            "  level %d response: argmin [%s], distance %.3g%s [%s]"
            % (c.level, " ".join("%.6g" % v for v in flat), c.distance,
               ", low confidence" if c.low_confidence else "",
               "ok" if c.passed else "FAILED"))
    for reason in report.reasons:
        lines.append("  reason: " + reason)
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    problem = parse_problem(_read(args.problem))
    eq = team_optimum(problem)
    strategies = synthesize_cascade(problem, desired=eq.point)
    report = verify_full(
        problem, strategies, desired=eq.point, tol=args.tol, grid=args.grid,
        seed=args.seed)
    doc = {
        "command": "solve",
        "equilibrium": {
            "point": [b.tolist() for b in eq.point.blocks],
            "value": eq.value,
            "method": eq.method,
            "kkt_residual": eq.kkt_residual,
        },
        "strategies": strategies_to_document(strategies)["strategies"],
        "verification": asdict(report),
    }
    lines = _point_lines("desired decision", eq.point)
    lines += ["  value: %.10g  (method: %s)" % (eq.value, eq.method)]
    lines += _strategy_lines(strategies)
    lines += _verification_lines(report)
    _emit(doc, args, lines)
    return EXIT_OK if report.verified else EXIT_FAILED


def _parse_param_arg(text: str, family: StrategyFamily) -> List[np.ndarray]:
    parts = text.split(";")
    shapes = family.param_shapes
    if len(parts) != len(shapes):
        raise DocumentError(
            "--params wants %d ';'-separated matrices, got %d"
            % (len(shapes), len(parts)))
    out = []
    for part in parts:
        try:
            out.append(float_array(load_json(part), "matrix", None))
        except DocumentError as exc:
            raise DocumentError("bad --params entry %r: %s" % (part, exc)) from None
    # instantiate checks each shape and reshapes an empty entry for a
    # single-point family
    return out


def _sample_members(family: StrategyFamily, count: int,
                    seed: int) -> List[AffineStrategy]:
    """``count`` family members with standard-normal parameters drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return [instantiate(family, [rng.standard_normal(s) for s in family.param_shapes])
            for _ in range(count)]


def _check_member(problem: GameProblem, family: StrategyFamily,
                  member: AffineStrategy, args) -> Dict[str, Any]:
    realization = float(np.linalg.norm(
        member(member.lower_anchor) - member.own_anchor))
    _, residual = family.membership(member)
    oracle = oracle_best_response(
        problem, [member], 2, grid=args.grid,
        anchor=family.anchor.tail(2))
    distance = max(
        float(np.abs(a - b).max(initial=0.0))
        for a, b in zip(oracle.argmin.blocks, family.anchor.tail(2).blocks))
    ok = (response_passes(2, distance, args.tol, args.grid)
          and realization <= MEMBER_REALIZATION_TOL
          and residual <= MEMBER_REALIZATION_TOL)
    return {
        "realization_residual": realization,
        "family_residual": residual,
        "response_distance": distance,
        "passed": ok,
    }


def cmd_family(args) -> int:
    problem = parse_problem(_read(args.problem))
    eq = team_optimum(problem)
    family = synthesize_family_leader(problem, eq.point)
    doc: Dict[str, Any] = {
        "command": "family",
        "anchor": [b.tolist() for b in family.anchor.blocks],
        "particular": [Q.tolist() for Q in family.particular],
        "null_basis": family.null_basis.tolist(),
        "parameter_shapes": [list(s) for s in family.param_shapes],
        "single_point": family.is_single_point,
    }
    lines = _point_lines("anchor", family.anchor)
    lines.append("rank-one member:")
    lines += ["  " + t for t in instantiate(
        family, [np.zeros(s) for s in family.param_shapes]).describe()]
    if family.is_single_point:
        lines.append("family is a single point (top level is scalar)")
    else:
        lines.append("free parameters: %s"
                     % ", ".join("T%d of shape %dx%d" % (i + 2, s[0], s[1])
                                 for i, s in enumerate(family.param_shapes)))

    checks: List[Dict[str, Any]] = []
    members: List[AffineStrategy] = []
    if args.params is not None:
        members.append(instantiate(family, _parse_param_arg(args.params, family)))
    members += _sample_members(family, args.samples, args.seed)
    for member in members:
        checks.append(_check_member(problem, family, member, args))
    if checks:
        doc["member_checks"] = checks
        for i, c in enumerate(checks):
            lines.append(
                "member %d: realization %.3g, family residual %.3g, "
                "response distance %.3g [%s]"
                % (i, c["realization_residual"], c["family_residual"],
                   c["response_distance"], "ok" if c["passed"] else "FAILED"))
    _emit(doc, args, lines)
    if checks and not all(c["passed"] for c in checks):
        return EXIT_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = parse_problem(_read(args.problem))
    eq = team_optimum(problem)
    strategies = parse_strategies(_read(args.strategies), problem, eq.point)
    strategies.sort(key=lambda s: s.level)
    report = verify_full(
        problem, strategies, desired=eq.point, tol=args.tol, grid=args.grid,
        seed=args.seed)
    doc = {
        "command": "verify",
        "verification": asdict(report),
    }
    lines = _point_lines("desired decision", eq.point)
    lines += _strategy_lines(strategies)
    lines += _verification_lines(report)
    _emit(doc, args, lines)
    return EXIT_OK if report.verified else EXIT_FAILED


def cmd_feasible(args) -> int:
    problem = parse_problem(_read(args.problem))
    if problem.constraints is None or problem.constraints.k == 0:
        raise RevstackError("nothing to check: the problem document has no constraint rows")
    eq = team_optimum(problem)
    if args.strategies is not None:
        strategies = parse_strategies(_read(args.strategies), problem, eq.point)
        strategies.sort(key=lambda s: s.level)
    elif args.samples:
        strategies = _sample_members(
            synthesize_family_leader(problem, eq.point), args.samples, args.seed)
    else:
        strategies = synthesize_cascade(problem, desired=eq.point)

    entries: List[Dict[str, Any]] = []
    lines: List[str] = []
    all_ok = True
    for i, s in enumerate(strategies):
        verdict = feasibility_check(s, problem.constraints, problem.dims)
        all_ok = all_ok and verdict.feasible
        entries.append({
            "index": i,
            "level": s.level,
            "feasible": verdict.feasible,
            "worst_row": verdict.worst_row,
            "worst_margin": verdict.worst_margin,
            "margins": list(verdict.margins),
            "note": verdict.note,
        })
        margin = ("-inf" if verdict.worst_margin == -np.inf
                  else "%.6g" % verdict.worst_margin)
        lines.append(
            "strategy %d (level %d): %s, worst margin %s (row %s)%s"
            % (i, s.level,
               "feasible" if verdict.feasible else "INFEASIBLE",
               margin,
               "-" if verdict.worst_row is None else str(verdict.worst_row),
               " -- %s" % verdict.note if verdict.note else ""))
    doc = {"command": "feasible", "checks": entries, "all_feasible": all_ok}
    _emit(doc, args, lines + ["all feasible: %s" % ("yes" if all_ok else "no")])
    return EXIT_OK if all_ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _tolerance(text: str) -> float:
    """Option type: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError("want a finite number >= 0, got %r" % text)
    return value


def _count(text: str) -> int:
    """Option type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("want an integer >= 0, got %r" % text)
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="revstack",
                     description="Affine strategy synthesis and verification "
                                 "for multilevel hierarchical games.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, fn, text in (
            ("solve", cmd_solve, "synthesize the strategy cascade and verify it"),
            ("family", cmd_family, "describe the family of optimal top-level strategies"),
            ("verify", cmd_verify, "verify strategies given in a document"),
            ("feasible", cmd_feasible, "check strategies against the constraint rows")):
        commands[name] = p = sub.add_parser(name, help=text)
        p.add_argument("problem", help="problem document (JSON)")
        p.set_defaults(fn=fn)

    commands["family"].add_argument("--params", metavar="T2;T3;...",
                                    help="';'-separated JSON parameter matrices; "
                                         "checks that member")
    commands["family"].add_argument("--samples", type=_count, default=0,
                                    help="additionally check N random members")
    commands["verify"].add_argument("--strategies", required=True,
                                    help="strategy document (JSON)")
    commands["feasible"].add_argument("--strategies",
                                      help="strategy document (JSON); default: the "
                                           "synthesized cascade")
    commands["feasible"].add_argument("--samples", type=_count, default=0,
                                      help="check N random family members instead")
    # the options after a subcommand's own: the oracle's, then the common ones
    for name, p in commands.items():
        if name != "feasible":  # feasible runs no oracle
            p.add_argument("--tol", type=_tolerance, default=1e-4,
                           help="best-response agreement tolerance (default 1e-4)")
            p.add_argument("--grid-radius", type=float, default=10.0,
                           help="half-width of the oracle grid around the anchor")
            p.add_argument("--grid-points", type=int, default=41,
                           help="oracle grid nodes per axis (default 41)")
        p.add_argument("--seed", type=_count, default=0,
                       help="seed for all sampling (default 0)")
        p.add_argument("--output", choices=("json", "text"), default="text",
                       help="report format (default text)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "grid_points" in args:
            args.grid = GridSpec(radius=args.grid_radius, points=args.grid_points)
        return args.fn(args)
    except (DocumentError, DimensionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print("error: cannot read input: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    except RevstackError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
