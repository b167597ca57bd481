"""Team-optimal (desired) equilibrium computation.

The desired equilibrium is the joint minimizer of the leader's cost over all
players' variables.  Three routes:

* exact linear solve for quadratic leader costs,
* multi-start damped Newton with backtracking for expression costs,
* active-set enumeration for quadratic costs under linear inequality rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calculus import gradient, hessian
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
    if obj.widths != problem.dims.m:
        raise EquilibriumError("top objective block widths do not match the dims")
    return obj, obj.H, obj.l


def team_optimum_quadratic(problem: GameProblem) -> EquilibriumResult:
    """Unique global minimizer of a quadratic leader cost, by linear solve.

    Raises NonUniqueOptimumError on a singular stationarity system and
    NotMinimumError when the stationary point is not a strict minimum.
    """
    obj, H, l = _quadratic_system(problem)
    try:
        u = np.linalg.solve(H, -l)
    except np.linalg.LinAlgError:
        raise NonUniqueOptimumError(
            "stationarity system is singular: no unique team optimum"
        ) from None
    residual = float(np.linalg.norm(H @ u + l))
    if not np.all(np.isfinite(u)) or residual > LINEAR_RESIDUAL_TOL * (1.0 + np.linalg.norm(l)):
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
    return EquilibriumResult(point, evaluate(obj, point), "linear-solve", residual)


def _descend_once(obj, widths, start: np.ndarray, tol: float, max_iters: int):
    """Damped Newton from one start.  Returns (x, f, gnorm, ok).

    Cholesky steps on the exact Hessian, gradient steps where it is not
    positive definite, both shortened by Armijo backtracking.
    """
    x = start.astype(float).copy()
    f = evaluate(obj, DecisionPoint.from_concat(widths, x))
    for _ in range(max_iters):
        point = DecisionPoint.from_concat(widths, x)
        g = gradient(obj, point).concat()
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return x, f, gnorm, True
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
            if f_trial <= f - 1e-4 * t * slope:
                x, f = trial, f_trial
                break
            t *= 0.5
        else:
            # no acceptable step: the decrease is below the roundoff of f
            return x, f, gnorm, gnorm <= tol
    g = gradient(obj, DecisionPoint.from_concat(widths, x)).concat()
    gnorm = float(np.linalg.norm(g))
    return x, f, gnorm, gnorm <= tol


def team_optimum_descent(problem: GameProblem, starts: Sequence[DecisionPoint],
                         tol: float = 1e-8, max_iters: int = 500) -> EquilibriumResult:
    """Best local minimizer of the leader cost found from the given starts.

    Convergence means gradient norm <= tol.  If no start converges, raises
    ConvergenceError carrying the best iterate seen.
    """
    if not starts:
        raise EquilibriumError("team_optimum_descent needs at least one start")
    obj = problem.objective(1)
    widths = problem.dims.m
    best = None       # best converged (f, x, gnorm)
    best_any = None   # best overall, for the failure path
    for s in starts:
        x, f, gnorm, ok = _descend_once(obj, widths, s.concat(), tol, max_iters)
        if best_any is None or f < best_any[0]:
            best_any = (f, x, gnorm)
        if ok and (best is None or f < best[0]):
            best = (f, x, gnorm)
    if best is None:
        f, x, gnorm = best_any
        raise ConvergenceError(
            "descent did not reach gradient norm %.1g within %d iterations "
            "(best gradient norm %.3g)" % (tol, max_iters, gnorm),
            best=DecisionPoint.from_concat(widths, x),
            value=f,
            grad_norm=gnorm,
        )
    f, x, gnorm = best
    return EquilibriumResult(DecisionPoint.from_concat(widths, x), f, "descent", gnorm)


def team_optimum_constrained(problem: GameProblem) -> EquilibriumResult:
    """Exact constrained team optimum by active-set enumeration.

    Enumerates candidate active sets of the linear rows (cost 2^k, so the
    row count is capped at ``ACTIVE_SET_MAX_CONSTRAINTS``), solves each
    equality KKT system, and keeps the best KKT-consistent feasible
    candidate.  Ties on the objective are broken by the lexicographically
    smallest active set.
    """
    cons = problem.constraints
    if cons is None or cons.k == 0:
        raise EquilibriumError(
            "no constraint rows present; use team_optimum_quadratic"
        )
    if cons.k > ACTIVE_SET_MAX_CONSTRAINTS:
        raise EquilibriumError(
            "%d constraint rows exceed the enumeration cap %d; "
            "use a descent/projection method instead"
            % (cons.k, ACTIVE_SET_MAX_CONSTRAINTS)
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

    best = None  # (value, active_set, u, stationarity_residual)
    for r in range(0, min(cons.k, N) + 1):
        for S in itertools.combinations(range(cons.k), r):
            As = A[list(S)]
            # with no active row the block matrix is H itself
            M = np.block([[H, As.T], [As, np.zeros((r, r))]])
            try:
                sol = np.linalg.solve(M, np.concatenate([-l, b[list(S)]]))
            except np.linalg.LinAlgError:
                continue
            u, lam = sol[:N], sol[N:]
            if np.any(lam < -KKT_TOL):
                continue
            if np.any(A @ u - b > KKT_TOL * (1.0 + np.abs(b))):
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


def team_optimum(problem: GameProblem,
                 starts: Optional[Sequence[DecisionPoint]] = None) -> EquilibriumResult:
    """Route to the appropriate solver for this problem's shape."""
    if problem.constraints is not None and problem.constraints.k > 0:
        return team_optimum_constrained(problem)
    if isinstance(problem.objective(1), QuadraticObjective):
        return team_optimum_quadratic(problem)
    if starts is None:
        starts = [DecisionPoint.from_concat(problem.dims.m, np.zeros(problem.dims.total))]
    return team_optimum_descent(problem, starts)
