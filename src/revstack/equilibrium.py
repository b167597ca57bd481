"""Team-optimal (desired) equilibrium computation.

The desired equilibrium is the joint minimizer of the leader's cost over all
players' variables.  Three routes:

* exact linear solve for quadratic leader costs,
* damped Newton with backtracking from the origin for expression costs,
* active-set enumeration for quadratic costs under linear inequality rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import CONVEXITY_TOL, gradient, hessian
from .errors import (
    ConvergenceError,
    EquilibriumError,
    InfeasibleError,
    NonUniqueOptimumError,
    NotMinimumError,
)
from .model import (
    DecisionPoint,
    GameProblem,
    QuadraticObjective,
    evaluate,
)

__all__ = [
    "EquilibriumResult",
    "team_optimum_quadratic",
    "team_optimum_descent",
    "team_optimum_constrained",
]

LINEAR_RESIDUAL_TOL = 1e-9
ACTIVE_SET_MAX_CONSTRAINTS = 20
KKT_TOL = 1e-9  # multiplier sign and row slack allowed in an active-set candidate
DESCENT_TOL = 1e-8  # the descent converges at this gradient norm
DESCENT_MAX_ITERS = 500


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    point: DecisionPoint
    value: float
    method: str  # "linear-solve" | "descent" | "active-set"
    kkt_residual: float


def _quadratic_system(problem: GameProblem):
    """Stationarity system H u = -l for a quadratic leader cost."""
    obj = problem.objective(1)
    if not isinstance(obj, QuadraticObjective):
        raise EquilibriumError(
            "exact equilibrium solves need a quadratic top objective; "
            "for expression costs use team_optimum_descent (unconstrained only)"
        )
    return obj, obj.H, obj.l


def team_optimum_quadratic(problem: GameProblem) -> EquilibriumResult:
    """Unique global minimizer of a quadratic leader cost, by linear solve.

    Raises NonUniqueOptimumError on a singular stationarity system,
    NotMinimumError when the stationary point is not a strict minimum, and
    EquilibriumError when its cost or stationarity residual is not finite.
    """
    obj, H, l = _quadratic_system(problem)
    try:
        u = np.linalg.solve(H, -l)
    except np.linalg.LinAlgError:
        raise NonUniqueOptimumError(
            "stationarity system is singular: no unique team optimum"
        ) from None
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        residual = float(np.linalg.norm(H @ u + l))
        tol = LINEAR_RESIDUAL_TOL * (1.0 + np.linalg.norm(l))
    if not np.all(np.isfinite(u)) or residual > tol:
        raise NonUniqueOptimumError(
            "stationarity system is numerically singular (residual %.3g)" % residual
        )
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise NotMinimumError(
            "stationary point is not a minimum: leader Hessian is not positive definite"
        ) from None
    point = DecisionPoint.from_concat(problem.dims.m, u)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        value = evaluate(obj, point)
    if not (np.isfinite(value) and np.isfinite(residual)):
        raise EquilibriumError("the team optimum leaves the double range (its cost %.3g, "
                               "stationarity residual %.3g)" % (value, residual))
    return EquilibriumResult(point, value, "linear-solve", residual)


def team_optimum_descent(problem: GameProblem) -> EquilibriumResult:
    """Local minimizer of the leader cost by damped Newton from the origin.

    Cholesky steps on the exact Hessian, gradient steps where it is not
    positive definite, both shortened by Armijo backtracking.  Convergence
    means gradient norm <= ``DESCENT_TOL`` within ``DESCENT_MAX_ITERS``
    steps, at a point whose Hessian has no eigenvalue below
    ``-CONVEXITY_TOL``.  Raises NotMinimumError at a stationary point with
    negative curvature, and ConvergenceError when the run stops short, a
    gradient past the double range included.
    """
    obj = problem.objective(1)
    widths = problem.dims.m
    x = np.zeros(problem.dims.total)
    f = evaluate(obj, DecisionPoint.from_concat(widths, x))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends the run short
        for it in range(DESCENT_MAX_ITERS + 1):
            point = DecisionPoint.from_concat(widths, x)
            g = gradient(obj, point).concat()
            gnorm = float(np.linalg.norm(g))
            if gnorm <= DESCENT_TOL or it == DESCENT_MAX_ITERS:
                break
            try:
                L = np.linalg.cholesky(hessian(obj, point))
                step = np.linalg.solve(L.T, np.linalg.solve(L, g))
            except np.linalg.LinAlgError:
                step = g
            slope = float(g @ step)
            t = 1.0
            for _ in range(60):
                trial = x - t * step
                f_trial = evaluate(obj, DecisionPoint.from_concat(widths, trial))
                # a trial whose cost overflows to -inf is no decrease
                if -np.inf < f_trial <= f - 1e-4 * t * slope:
                    x, f = trial, f_trial
                    break
                t *= 0.5
            else:
                break  # no acceptable step: the decrease is below the roundoff of f
    if not gnorm <= DESCENT_TOL:
        raise ConvergenceError(
            "descent did not reach gradient norm %.1g within %d iterations "
            "(best gradient norm %.3g)" % (DESCENT_TOL, DESCENT_MAX_ITERS, gnorm))
    if np.linalg.eigvalsh(hessian(obj, point))[0] < -CONVEXITY_TOL:
        raise NotMinimumError(
            "descent stopped at %s, a stationary point that is not a minimum: "
            "the leader Hessian has a negative eigenvalue there" % x.tolist())
    return EquilibriumResult(point, f, "descent", gnorm)


def _sets_without_pairs(clash, r, start, barred):
    """Sets of r rows from ``start`` on, in the order of
    itertools.combinations, leaving out every set that holds rows i and j
    with bit j of clash[i] set, or a row whose bit is set in ``barred``."""
    if r == 0:
        yield ()
        return
    for i in range(start, len(clash) - r + 1):
        if not barred >> i & 1:
            for rest in _sets_without_pairs(clash, r - 1, i + 1, barred | clash[i]):
                yield (i,) + rest


def team_optimum_constrained(problem: GameProblem) -> EquilibriumResult:
    """Exact constrained team optimum by active-set enumeration.

    Enumerates candidate active sets of the linear rows, by size and then
    lexicographically, up to one row per decision variable (cost 2^k, so
    the row count is capped at ``ACTIVE_SET_MAX_CONSTRAINTS``), solves each
    equality KKT system, and keeps the best KKT-consistent feasible
    candidate.  Ties on the objective are broken by the lexicographically
    smallest active set.

    Sets holding two rows with A_i = A_j or A_i = -A_j exactly are skipped:
    two columns of their KKT matrix are then equal or opposite, so it is
    singular, and LAPACK either refuses it or returns rounding noise.  The
    result is kept: H is positive definite, so the optimum is unique and has
    multipliers on linearly independent active rows, a set with no such
    pair, whose system the search still solves.
    """
    cons = problem.constraints
    if cons is None or cons.k == 0:
        raise EquilibriumError(
            "no constraint rows present; use team_optimum_quadratic"
        )
    if cons.k > ACTIVE_SET_MAX_CONSTRAINTS:
        raise EquilibriumError(
            "%d constraint rows exceed the cap of %d: the search enumerates "
            "every active set of up to %d rows, one per decision variable; "
            "drop redundant rows"
            % (cons.k, ACTIVE_SET_MAX_CONSTRAINTS, problem.dims.total)
        )
    obj, H, l = _quadratic_system(problem)
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise NotMinimumError(
            "constrained search needs a positive-definite leader Hessian"
        ) from None
    A = np.hstack(cons.A)  # (k, N) joint rows
    b = cons.b
    N = H.shape[0]
    k = cons.k
    # clash[i]: bitmask of the rows equal or opposite to row i
    pair = (A[:, None] == A[None]).all(2) | (A[:, None] == -A[None]).all(2)
    np.fill_diagonal(pair, False)
    clash = (pair @ (1 << np.arange(k))).tolist()

    best = None  # (value, active_set, u, stationarity_residual)
    # rows near the double range can overflow a candidate, which is then
    # skipped: a NaN fails both sign tests, and the few candidates that pass
    # them are tested for finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(0, min(k, N) + 1):
            # [[H, A_S^T], [A_S, 0]] and [-l; b_S]: only A_S and b_S change
            M = np.zeros((N + r, N + r))
            M[:N, :N] = H
            rhs = np.empty(N + r)
            rhs[:N] = -l
            for S in _sets_without_pairs(clash, r, 0, 0):
                idx = list(S)
                As = A[idx]
                M[N:, :N] = As
                M[:N, N:] = As.T
                rhs[N:] = b[idx]
                try:
                    sol = np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    continue
                u, lam = sol[:N], sol[N:]
                if not (lam >= -KKT_TOL).all():
                    continue
                rows = A @ u - b
                if not (rows <= KKT_TOL * (1.0 + np.abs(b))).all():
                    continue
                if not (np.isfinite(sol).all() and np.isfinite(rows).all()):
                    continue
                value = float(
                    evaluate(obj, DecisionPoint.from_concat(problem.dims.m, u))
                )
                if best is None or value < best[0] - 1e-12 or (
                    abs(value - best[0]) <= 1e-12 and S < best[1]
                ):
                    stat = float(np.linalg.norm(H @ u + l + As.T @ lam))
                    best = (value, S, u, stat)
    if best is None:
        raise InfeasibleError("constraint rows admit no feasible point")
    value, _, u, stat = best
    point = DecisionPoint.from_concat(problem.dims.m, u)
    return EquilibriumResult(point, value, "active-set", stat)


def team_optimum(problem: GameProblem) -> EquilibriumResult:
    """Route to the appropriate solver for this problem's shape.

    Expression costs descend from the origin.
    """
    if problem.constraints is not None and problem.constraints.k > 0:
        return team_optimum_constrained(problem)
    if isinstance(problem.objective(1), QuadraticObjective):
        return team_optimum_quadratic(problem)
    return team_optimum_descent(problem)
