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
from .model import Dims, LinearConstraints
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

def _pivot(T: np.ndarray, rhs: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Make ``col`` basic in ``row``: scale the row, then one rank-one update."""
    piv = T[row, col]
    T[row] /= piv
    rhs[row] /= piv
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, T[row])
    rhs -= f * rhs[row]
    basis[row] = col


def _optimize(T: np.ndarray, rhs: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> str:
    """Run the simplex loop to optimality.  Bland's rule throughout."""
    for _ in range(_ITER_CAP):
        entering = np.flatnonzero(cost - cost[basis] @ T > EPS)
        if entering.size == 0:
            return "optimal"
        enter = entering[0]
        rows = np.flatnonzero(T[:, enter] > EPS)
        if rows.size == 0:
            return "unbounded"
        ratios = rhs[rows] / T[rows, enter]
        ties = rows[ratios <= ratios.min() + 1e-12]
        _pivot(T, rhs, basis, ties[np.argmin(basis[ties])], enter)
    raise RevstackError("simplex iteration cap exceeded")


def simplex_maximize(c, A, b):
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
        if np.abs(c).max(initial=0.0) <= EPS:
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
    basis = np.arange(2 * v, n_core)
    art_rows = np.flatnonzero(flip)
    if art_rows.size:
        T = np.hstack([T, np.eye(k)[:, art_rows]])
        basis[art_rows] = n_core + np.arange(art_rows.size)
        cost1 = np.zeros(T.shape[1])
        cost1[n_core:] = -1.0
        status = _optimize(T, rhs, basis, cost1)
        if status != "optimal":  # phase 1 is always bounded below by -sum(rhs)
            return "infeasible", None, None
        if -(cost1[basis] @ rhs) > 1e-7 * (1.0 + np.abs(b).max(initial=0.0)):
            return "infeasible", None, None
        # drive any degenerate artificial out of the basis
        keep = np.ones(k, dtype=bool)
        for i in np.flatnonzero(basis >= n_core):
            cols = np.flatnonzero(np.abs(T[i, :n_core]) > EPS)
            if cols.size:
                _pivot(T, rhs, basis, i, cols[0])
            else:
                keep[i] = False
        T, rhs, basis = T[keep, :n_core], rhs[keep], basis[keep]

    cost2 = np.zeros(n_core)
    cost2[:v] = c
    cost2[v : 2 * v] = -c
    status = _optimize(T, rhs, basis, cost2)
    if status != "optimal":
        return "unbounded", None, None
    full = np.zeros(n_core)
    full[basis] = rhs
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
                      dims: Dims,
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
    widths = tuple(block.shape[1] for block in constraints.A)
    if widths != dims.m:
        raise DimensionError("constraint blocks have widths %s, expected %s"
                             % (widths, dims.m))
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
    N = A_joint.shape[1]
    own = slice(sum(dims.m[: L - 1]), sum(dims.m[:L]))
    A_L = constraints.A[L - 1]
    # row i of coef is row i with u^L = offset + sum_j C_j u^j substituted;
    # the announcing level's own columns drop out.  The zero-width block
    # keeps a bottom-level rule, which maps no lower level, well formed.
    coef = A_joint.copy()
    coef[:, own.stop :] += A_L @ np.hstack([np.zeros((A_L.shape[1], 0)), *C])
    coef[:, own] = 0.0
    kappa = A_L @ offset

    A_lp, b_lp = A_joint, b
    if bounds is not None:
        if len(bounds) != N - own.stop:
            raise DimensionError("need one (lo, hi) pair per lower coordinate")
        box = np.asarray(bounds, dtype=float).reshape(N - own.stop, 2)
        unit = np.eye(N)[own.stop :]
        # rows u_j <= hi_j and -u_j <= -lo_j, interleaved per coordinate
        A_lp = np.vstack([A_joint, np.stack([unit, -unit], axis=1).reshape(-1, N)])
        b_lp = np.concatenate([b, np.column_stack([box[:, 1], -box[:, 0]]).ravel()])

    values: List[float] = []
    witnesses: List[np.ndarray] = []
    for i in range(k):
        status, x, value = simplex_maximize(coef[i], A_lp, b_lp)
        if status == "infeasible":
            return FeasibilityVerdict(True, None, float("-inf"), (), None,
                                      note="empty follower region")
        if status == "unbounded":
            raise UnboundedRegionError(
                "follower region is unbounded along constraint row %d; "
                "supply explicit bounds: rows in the document's \"constraints\" "
                "that bound every lower-level variable, or feasibility_check(bounds=...)"
                % i
            )
        values.append(value)
        witnesses.append(x)

    margins = (kappa + np.array(values) - b).tolist()
    worst = int(np.argmax(margins))
    return FeasibilityVerdict(
        feasible=margins[worst] <= EPS,
        worst_row=worst,
        worst_margin=margins[worst],
        margins=tuple(margins),
        witness=witnesses[worst],
    )


def filter_family(family: StrategyFamily, constraints: LinearConstraints,
                  dims: Dims, param_grid: Sequence[Sequence[np.ndarray]],
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
            verdict = feasibility_check(member, constraints, dims, bounds=bounds)
            out.append(FilterItem(frozen, verdict))
        except RevstackError as err:
            out.append(FilterItem(frozen, None, error=str(err)))
    return out
