"""The benchmark workloads: inputs, the timed operation, output checks.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned.  The timed operation touches the
program only through the generated JSON text and ``revstack``'s public
functions, looked up on the package at call time so that the traced run sees
every call.  Checks run after the timed loop and use numpy directly on the
matrices the generator drew, never the code path that was timed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import gen

ALGEBRAIC_TOL = 1e-9   # realization residual, scale-normalized
SOLVE_TOL = 1e-8       # team optimum against a direct numpy solve
DESCENT_TOL = 1e-6     # descent stops at gradient norm 1e-8; Hessians have eigenvalues >= 1
KKT_TOL = 1e-7


@dataclass
class Workload:
    name: str
    why: str
    cycle: Tuple[Any, ...]          # one cycle of game classes, composition fixed
    make: Callable[[np.random.Generator, Any], gen.Game]
    op: Callable[[Any, gen.Game], Any]     # the timed operation
    digest: Callable[[Any], Any]           # plain data from the op's output
    check: Callable[[gen.Game, Any], Optional[str]]
    suite: int = 0                  # > 0: a fixed suite of this many games
    files: bool = False             # the op reads its document from a file
    may_fail: bool = False          # False: every game is built to succeed,
                                    # so a failed operation is a wrong output


def games(w: Workload, seed: int) -> Iterator[List[gen.Game]]:
    """Endless batches of games; each batch is one cycle (or one suite pass).

    Every cycle holds each game class exactly once, in an order drawn from
    the seed, so p50 and p90 always fall inside the same class.  A suite
    workload repeats one fixed set of games, reshuffled by the seed each pass:
    there, which games fail cannot be told from the input and a failure costs
    15-25 times a success, so a fresh draw per seed would move ok_ops_per_s by
    about a quarter between seeds.
    """
    order = np.random.default_rng([seed, 7])
    if w.suite:
        suite = [w.make(gen.game_rng(0, w.name, i), w.cycle[i % len(w.cycle)])
                 for i in range(w.suite)]
        while True:
            yield [suite[i] for i in order.permutation(len(suite))]
    index = 0
    while True:
        batch = []
        for pos in order.permutation(len(w.cycle)):
            batch.append(w.make(gen.game_rng(seed, w.name, index), w.cycle[pos]))
            index += 1
        yield batch


# ---------------------------------------------------------------------------
# output digests and checks
# ---------------------------------------------------------------------------

def _affine(strategy) -> Tuple[List[float], List[List[List[float]]]]:
    offset, linear = strategy.as_affine()
    return offset.tolist(), [C.tolist() for C in linear]


def _cascade_digest(eq, chain) -> Dict[str, Any]:
    return {
        "method": eq.method,
        "point": eq.point.concat().tolist(),
        "widths": list(eq.point.widths),
        "strategies": [(s.level, *_affine(s)) for s in chain],
    }


def _check_optimum(game: gen.Game, out: Dict[str, Any], method: str,
                   tol: float) -> Optional[str]:
    if out["method"] != method:
        return "team optimum took route %r, expected %r" % (out["method"], method)
    want = np.linalg.solve(game.H1, -game.l1)
    err = float(np.abs(np.asarray(out["point"]) - want).max())
    if err > tol * (1.0 + float(np.abs(want).max())):
        return "team optimum is %.3g away from the direct solve" % err
    return None


def _check_realization(out: Dict[str, Any]) -> Optional[str]:
    """Each announced rule, evaluated at the desired lower blocks, returns its own."""
    d = np.asarray(out["point"])
    offs = np.concatenate([[0], np.cumsum(out["widths"])])
    blocks = [d[offs[i]:offs[i + 1]] for i in range(len(out["widths"]))]
    for level, offset, linear in out["strategies"]:
        value = np.asarray(offset, dtype=float)
        scale = float(np.abs(value).max())
        for C, dj in zip(linear, blocks[level:]):
            term = np.asarray(C) @ dj
            value = value + term
            scale += float(np.abs(term).max(initial=0.0))
        err = float(np.abs(value - blocks[level - 1]).max())
        if err > ALGEBRAIC_TOL * (1.0 + scale):
            return "level %d rule misses the desired point by %.3g" % (level, err)
    return None


def _first(*messages: Optional[str]) -> Optional[str]:
    return next((m for m in messages if m), None)


# ---------------------------------------------------------------------------
# verify-mixed: `revstack solve --output json` through cli.main, in-process
# ---------------------------------------------------------------------------

EXIT_UNVERIFIED = 3    # `revstack solve`: the chain did not verify


class CliFailure(Exception):
    """The command ended with an exit code other than 0 or EXIT_UNVERIFIED."""

    def __init__(self, code: int):
        super().__init__("exit %d" % code)
        self.code = code


def solve_argv(path: str) -> List[str]:
    return ["solve", path, "--output", "json"]


def _op_solve(rs, game: gen.Game) -> str:
    """The JSON report; an unverified chain's report goes to ``check_report``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rs.cli.main(solve_argv(game.path))
    if code not in (0, EXIT_UNVERIFIED):
        raise CliFailure(code)
    return buf.getvalue()


def check_report(game: gen.Game, doc: Dict[str, Any]) -> Optional[str]:
    """A ``revstack solve`` JSON report: optimum, realization, verified chain."""
    eq = doc["equilibrium"]
    out = {"method": eq["method"], "point": [v for b in eq["point"] for v in b],
           "widths": [len(b) for b in eq["point"]],
           "strategies": [(s["level"], s["offset"], s["coeffs"]) for s in doc["strategies"]]}
    verification = doc["verification"]
    return _first(_check_optimum(game, out, "linear-solve", SOLVE_TOL),
                  _check_realization(out),
                  None if verification["verified"] else "chain did not verify: %s"
                  % "; ".join(verification["reasons"]))


# ---------------------------------------------------------------------------
# expr-synth: expression documents, descent, cascade (no verification)
# ---------------------------------------------------------------------------

def _op_synth(rs, game: gen.Game):
    problem = rs.parse_problem(game.text)
    eq = rs.team_optimum(problem)
    chain = rs.synthesize_cascade(problem, desired=eq.point)
    return eq, chain


def _digest_synth(result) -> Dict[str, Any]:
    return _cascade_digest(*result)


def _check_synth(game: gen.Game, out: Dict[str, Any]) -> Optional[str]:
    return _first(_check_optimum(game, out, "descent", DESCENT_TOL),
                  _check_realization(out))


# ---------------------------------------------------------------------------
# constrained-feasible: active-set optimum, cascade, row-wise LP feasibility
# ---------------------------------------------------------------------------

def _op_feasible(rs, game: gen.Game):
    problem = rs.parse_problem(game.text)
    eq = rs.team_optimum(problem)
    chain = rs.synthesize_cascade(problem, desired=eq.point)
    members = list(chain)
    family = rs.synthesize_family_leader(problem, eq.point)
    draws = np.random.default_rng(game.draw_seed)
    for _ in range(game.family_draws):
        params = [draws.standard_normal(s) for s in family.param_shapes]
        members.append(rs.instantiate(family, params))
    verdicts = [rs.feasibility_check(s, problem.constraints, problem.dims)
                for s in members]
    return eq, chain, members, verdicts


def _digest_feasible(result) -> Dict[str, Any]:
    eq, chain, members, verdicts = result
    out = _cascade_digest(eq, chain)
    out["members"] = [(s.level, *_affine(s)) for s in members]
    out["verdicts"] = [{
        "feasible": bool(v.feasible),
        "worst_row": v.worst_row,
        "worst_margin": float(v.worst_margin),
        "margins": [float(m) for m in v.margins],
        "witness": None if v.witness is None else np.asarray(v.witness).tolist(),
    } for v in verdicts]
    return out


def _check_kkt(game: gen.Game, out: Dict[str, Any]) -> Optional[str]:
    """The active-set optimum satisfies the KKT conditions of the convex QP."""
    if out["method"] != "active-set":
        return "team optimum took route %r, expected 'active-set'" % out["method"]
    u = np.asarray(out["point"])
    slack = game.A @ u - game.b
    scale = 1.0 + np.abs(game.b)
    if np.any(slack > KKT_TOL * scale):
        return "team optimum violates a constraint row by %.3g" % float(slack.max())
    active = np.abs(slack) <= KKT_TOL * scale
    grad = game.H1 @ u + game.l1
    if active.any():
        lam, *_ = np.linalg.lstsq(game.A[active].T, -grad, rcond=None)
        resid = grad + game.A[active].T @ lam
        if np.any(lam < -KKT_TOL * (1.0 + np.abs(lam).max())):
            return "team optimum has a negative multiplier %.3g" % float(lam.min())
    else:
        resid = grad
    if float(np.abs(resid).max()) > 1e-6 * (1.0 + float(np.abs(game.l1).max())):
        return "team optimum is not stationary (residual %.3g)" % float(np.abs(resid).max())
    return None


def _substituted(member, widths: Sequence[int], x: np.ndarray) -> np.ndarray:
    """Joint point x with the member's own block replaced by its rule's value."""
    level, offset, linear = member
    offs = np.concatenate([[0], np.cumsum(widths)])
    y = x.copy()
    own = np.asarray(offset, dtype=float)
    for j, C in enumerate(linear, start=level + 1):
        own = own + np.asarray(C) @ x[offs[j - 1]:offs[j]]
    y[offs[level - 1]:offs[level]] = own
    return y


def _check_verdicts(game: gen.Game, out: Dict[str, Any]) -> Optional[str]:
    """Margins are attained by their witness and bound the rows at the centre."""
    widths = out["widths"]
    for member, v in zip(out["members"], out["verdicts"]):
        if v["worst_row"] is None or v["witness"] is None:
            return "no worst row reported although the polytope is not empty"
        if v["feasible"] != (v["worst_margin"] <= ALGEBRAIC_TOL):
            return "feasibility verdict disagrees with its margin"
        w = np.asarray(v["witness"])
        if np.any(game.A @ w - game.b > KKT_TOL * (1.0 + np.abs(game.b))):
            return "worst-row witness lies outside the polytope"
        i = v["worst_row"]
        attained = float(game.A[i] @ _substituted(member, widths, w) - game.b[i])
        if abs(attained - v["worst_margin"]) > KKT_TOL * (1.0 + abs(game.b[i]) + abs(attained)):
            return "worst margin %.6g is not attained by its witness (%.6g)" % (
                v["worst_margin"], attained)
        at_centre = game.A @ _substituted(member, widths, game.center) - game.b
        slack = KKT_TOL * (1.0 + np.abs(game.b) + np.abs(at_centre))
        if np.any(np.asarray(v["margins"]) < at_centre - slack):
            return "a row maximum lies below the row's value at a feasible point"
    return None


def _check_feasible(game: gen.Game, out: Dict[str, Any]) -> Optional[str]:
    return _first(_check_kkt(game, out), _check_realization(out),
                  _check_verdicts(game, out))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="verify-mixed",
        why="revstack solve --output json via cli.main in-process, 3-4 level quadratic "
            "games, 25% needing a 4-dim oracle: oracle and evaluate_many do >95% of the "
            "work; no constraints or expressions",
        cycle=((1, 1, 1), (2, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1),
               (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 2), (1, 2, 2)),
        make=gen.quadratic_game,
        op=_op_solve, digest=json.loads, check=check_report,
        files=True,
    ),
    Workload(
        name="expr-synth",
        why="fixed 41-game expression suite, order from the seed: parse, descent, "
            "cascade, no verification; formula, calculus, descent and tree substitution "
            "work; ~22% ConvergenceError kept",
        cycle=((1, 1, 1, 1, 1), (1, 2, 1, 2), (2, 1, 2, 1, 1), (2, 2, 2)),
        make=lambda rng, widths: gen.expression_game(rng, widths, range(1, len(widths) + 1)),
        op=_op_synth, digest=_digest_synth, check=_check_synth,
        suite=41, may_fail=True,
    ),
    Workload(
        name="constrained-feasible",
        why="box plus cutting rows (k=9-16, N=3-6): 2^k active-set search and "
            "per-row two-phase simplex share the work, the oracle none",
        cycle=(((1, 1, 1), 3), ((2, 1, 1, 1), 3), ((2, 1, 1, 1), 3), ((2, 2, 2), 4)),
        make=lambda rng, cls: gen.constrained_game(rng, cls[0], cls[1], 8),
        op=_op_feasible, digest=_digest_feasible, check=_check_feasible,
    ),
)}
