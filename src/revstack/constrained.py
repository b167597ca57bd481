"""Feasibility of announced strategies under joint linear constraints.

A strategy is feasible when its image of the follower region stays inside
the constraint set: substituting the strategy into every constraint row
gives a linear function of the remaining variables, and each such row is
maximized exactly over the constraint polytope by a dense two-phase
simplex (Bland's rule, so termination is guaranteed at desk scale).
Maximizing a function of the lower variables over the full polytope equals
maximizing it over the polytope's projection onto those variables, which
is the follower region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, RevstackError, UnboundedRegionError
from .model import Dims, LinearConstraints, split_blocks
from .synthesis import AffineStrategy, StrategyFamily, instantiate

__all__ = [
    "FeasibilityVerdict",
    "FilterItem",
    "simplex_maximize",
    "feasibility_check",
    "filter_family",
]

EPS = 1e-9
_ITER_CAP = 20000


# ---------------------------------------------------------------------------
# dense two-phase simplex: maximize c@x subject to A x <= b, x free
# ---------------------------------------------------------------------------

def _pivot(T: np.ndarray, rhs: np.ndarray, basis: List[int], row: int, col: int) -> None:
    piv = T[row, col]
    T[row] /= piv
    rhs[row] /= piv
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            f = T[r, col]
            T[r] -= f * T[row]
            rhs[r] -= f * rhs[row]
    basis[row] = col


def _optimize(T: np.ndarray, rhs: np.ndarray, basis: List[int],
              cost: np.ndarray, tol: float) -> str:
    """Run the simplex loop to optimality.  Bland's rule throughout."""
    for _ in range(_ITER_CAP):
        reduced = cost - cost[basis] @ T
        enter = -1
        for j in range(T.shape[1]):
            if reduced[j] > tol:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = None  # (ratio, basic index, row)
        for i in range(T.shape[0]):
            if T[i, enter] > tol:
                ratio = rhs[i] / T[i, enter]
                if (leave is None or ratio < leave[0] - 1e-12
                        or (abs(ratio - leave[0]) <= 1e-12 and basis[i] < leave[1])):
                    leave = (ratio, basis[i], i)
        if leave is None:
            return "unbounded"
        _pivot(T, rhs, basis, leave[2], enter)
    raise RevstackError("simplex iteration cap exceeded")


def simplex_maximize(c, A, b, tol: float = EPS):
    """Maximize ``c @ x`` over ``{x : A x <= b}`` with free x.

    Returns ``(status, x, value)`` with status one of 'optimal',
    'infeasible', 'unbounded' (x and value are None unless optimal).
    Free variables are split into positive parts; negative right-hand
    sides get artificial variables and a phase-1 cleanup.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    k, v = A.shape if A.size else (0, c.size)
    if k == 0:
        if np.abs(c).max(initial=0.0) <= tol:
            return "optimal", np.zeros(v), 0.0
        return "unbounded", None, None
    if A.shape[1] != v or c.size != v:
        raise DimensionError("objective length does not match the constraint columns")

    T = np.hstack([A, -A, np.eye(k)])
    rhs = b.copy()
    flip = rhs < 0
    T[flip] *= -1.0
    rhs[flip] *= -1.0
    n_core = 2 * v + k
    art_rows = np.flatnonzero(flip)
    if art_rows.size:
        art = np.zeros((k, art_rows.size))
        for pos, r in enumerate(art_rows):
            art[r, pos] = 1.0
        T = np.hstack([T, art])
    basis: List[int] = []
    art_of_row = {int(r): n_core + pos for pos, r in enumerate(art_rows)}
    for i in range(k):
        basis.append(art_of_row.get(i, 2 * v + i))

    if art_rows.size:
        cost1 = np.zeros(T.shape[1])
        cost1[n_core:] = -1.0
        status = _optimize(T, rhs, basis, cost1, tol)
        if status != "optimal":  # phase 1 is always bounded below by -sum(rhs)
            return "infeasible", None, None
        if -(cost1[basis] @ rhs) > 1e-7 * (1.0 + np.abs(b).max(initial=0.0)):
            return "infeasible", None, None
        # drive any degenerate artificial out of the basis
        drop_rows = []
        for i in range(k):
            if basis[i] >= n_core:
                piv_col = -1
                for j in range(n_core):
                    if abs(T[i, j]) > tol:
                        piv_col = j
                        break
                if piv_col >= 0:
                    _pivot(T, rhs, basis, i, piv_col)
                else:
                    drop_rows.append(i)
        if drop_rows:
            keep = [i for i in range(k) if i not in drop_rows]
            T = T[keep]
            rhs = rhs[keep]
            basis = [basis[i] for i in keep]
        T = T[:, :n_core]

    cost2 = np.zeros(n_core)
    cost2[:v] = c
    cost2[v : 2 * v] = -c
    status = _optimize(T, rhs, basis, cost2, tol)
    if status != "optimal":
        return "unbounded", None, None
    full = np.zeros(n_core)
    for i, var in enumerate(basis):
        full[var] = rhs[i]
    x = full[:v] - full[v : 2 * v]
    return "optimal", x, float(c @ x)


# ---------------------------------------------------------------------------
# strategy feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FeasibilityVerdict:
    """Outcome of the row-wise LP maximization.

    ``worst_margin`` is max over rows of (row maximum - bound); feasible
    means it does not exceed the tolerance.  With no rows to check the
    margin is -inf.  ``witness`` is the LP maximizer of the worst row in
    full joint coordinates (the strategy's own level's coordinates in it
    are free-variable values, not the strategy's output).
    """

    feasible: bool
    worst_row: Optional[int]
    worst_margin: float
    margins: Tuple[float, ...] = ()
    witness: Optional[np.ndarray] = None
    note: str = ""
    method: str = "lp-exact"


@dataclass(frozen=True, eq=False)
class FilterItem:
    params: Tuple[np.ndarray, ...]
    verdict: Optional[FeasibilityVerdict]
    error: Optional[str] = None


def feasibility_check(strategy: AffineStrategy, constraints: LinearConstraints,
                      dims: Dims, tol: float = EPS,
                      bounds: Optional[Sequence[Tuple[float, float]]] = None,
                      ) -> FeasibilityVerdict:
    """Exact feasibility of one strategy against the joint constraint rows.

    Each row gets the strategy substituted for its level's block and is then
    maximized over the constraint polytope (equivalently over its projection
    onto the other variables).  Optional ``bounds`` add box rows over the
    lower-level coordinates, for regions the constraints leave unbounded.
    An empty polytope makes every strategy vacuously feasible.
    """
    n = dims.levels
    L = strategy.level
    if len(constraints.A) != n:
        raise DimensionError("constraints carry %d level blocks, expected %d"
                             % (len(constraints.A), n))
    if len(strategy.coeffs) != n - L:
        raise DimensionError("strategy at level %d must map levels %d..%d"
                             % (L, L + 1, n))
    k = constraints.k
    if k == 0:
        return FeasibilityVerdict(True, None, float("-inf"), (), None,
                                  note="no constraint rows")
    offset, C = strategy.as_affine()

    A_joint = np.hstack(constraints.A)  # (k, N)
    b = constraints.b
    lower_cols = np.arange(sum(dims.m[:L]), dims.total)  # columns of levels L+1..n

    A_lp = A_joint
    b_lp = b
    if bounds is not None:
        if len(bounds) != lower_cols.size:
            raise DimensionError("need one (lo, hi) pair per lower coordinate")
        extra = []
        extra_b = []
        for pos, col in enumerate(lower_cols):
            lo, hi = bounds[pos]
            row = np.zeros(A_joint.shape[1])
            row[col] = 1.0
            extra.append(row.copy())
            extra_b.append(hi)
            row2 = np.zeros(A_joint.shape[1])
            row2[col] = -1.0
            extra.append(row2)
            extra_b.append(-lo)
        A_lp = np.vstack([A_joint, np.array(extra)])
        b_lp = np.concatenate([b, np.array(extra_b)])

    margins: List[float] = []
    witnesses: List[Optional[np.ndarray]] = []
    for i in range(k):
        coef = np.zeros(A_joint.shape[1])
        for lev, part in enumerate(split_blocks(dims.m, coef), start=1):
            # the announcing level's own columns stay zero
            if lev < L:
                part[:] = constraints.A[lev - 1][i]
            elif lev > L:
                part[:] = (constraints.A[lev - 1][i]
                           + constraints.A[L - 1][i] @ C[lev - L - 1])
        kappa = float(constraints.A[L - 1][i] @ offset)
        status, x, value = simplex_maximize(coef, A_lp, b_lp, tol=EPS)
        if status == "infeasible":
            return FeasibilityVerdict(True, None, float("-inf"), (), None,
                                      note="empty follower region")
        if status == "unbounded":
            raise UnboundedRegionError(
                "follower region is unbounded along constraint row %d; "
                "supply explicit bounds" % i
            )
        margins.append(kappa + value - float(b[i]))
        witnesses.append(x)

    worst = int(np.argmax(margins))
    return FeasibilityVerdict(
        feasible=margins[worst] <= tol,
        worst_row=worst,
        worst_margin=margins[worst],
        margins=tuple(margins),
        witness=witnesses[worst],
    )


def filter_family(family: StrategyFamily, constraints: LinearConstraints,
                  dims: Dims, param_grid: Sequence[Sequence[np.ndarray]],
                  tol: float = EPS,
                  bounds: Optional[Sequence[Tuple[float, float]]] = None,
                  ) -> List[FilterItem]:
    """Feasibility sweep over family members, in grid order.

    Per-item failures (bad parameter shapes, unbounded regions) are captured
    on the item instead of aborting the sweep.
    """
    out: List[FilterItem] = []
    for params in param_grid:
        frozen = tuple(np.asarray(T, dtype=float) for T in params)
        try:
            member = instantiate(family, params)
            verdict = feasibility_check(member, constraints, dims, tol, bounds)
            out.append(FilterItem(frozen, verdict))
        except RevstackError as err:
            out.append(FilterItem(frozen, None, error=str(err)))
    return out
