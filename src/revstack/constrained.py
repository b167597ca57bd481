"""Feasibility of announced strategies under joint linear constraints.

A strategy is feasible when its image of the follower region stays inside
the constraint set: substituting the strategy into every constraint row
gives a linear function of the remaining variables, and each such row is
maximized exactly over the constraint polytope by a dense two-phase
simplex (Bland's rule, so termination is guaranteed at desk scale).
Maximizing a function of the lower variables over the full polytope equals
maximizing it over the polytope's projection onto those variables, which
is the follower region, so the document's own rows must bound every
lower-level variable.

Phase one, which finds a feasible basis, does not depend on the objective,
so ``feasibility_check`` runs it once per ``LinearConstraints`` object and
keeps the tableau as long as that object lives.  A "plain" row, one whose
block for the strategy's level is zero, substitutes to the joint row itself
for every strategy, so it is maximized once per object as well.  Every
other row's phase two starts cold, from a copy of the phase-one tableau:
starting it from the previous row's optimal basis took more pivots on the
benchmark's box-plus-cut games (543 against 494 per operation) and changed
the last bits of the margins.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DimensionError, RevstackError, UnboundedRegionError
from .model import Dims, LinearConstraints
from .synthesis import AffineStrategy

__all__ = [
    "FeasibilityVerdict",
    "simplex_maximize",
    "feasibility_check",
]

EPS = 1e-9
_ITER_CAP = 20000


# ---------------------------------------------------------------------------
# dense two-phase simplex: maximize c@x subject to A x <= b, x free
# ---------------------------------------------------------------------------

def _require_finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise RevstackError("the simplex overflowed the double range: the constraint "
                            "rows' magnitudes are too far apart")


def _pivot(T: np.ndarray, rhs: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Make ``col`` basic in ``row``: scale the row, then one rank-one update."""
    piv = T[row, col]
    T[row] /= piv
    rhs[row] /= piv
    f = T[:, col].copy()
    f[row] = 0.0
    T -= f[:, None] * T[row]
    rhs -= f * rhs[row]
    basis[row] = col


def _optimize(T: np.ndarray, rhs: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> str:
    """Run the simplex loop to optimality.  Bland's rule throughout.

    Callers ignore numpy's floating-point errors; a tableau that is not
    finite when the loop ends, or whose ratios are all NaN, is refused.
    """
    for _ in range(_ITER_CAP):
        entering = (cost - cost[basis] @ T > EPS).nonzero()[0]
        if entering.size == 0:
            _require_finite(T, rhs)
            return "optimal"
        enter = entering[0]
        rows = (T[:, enter] > EPS).nonzero()[0]
        if rows.size == 0:
            _require_finite(T, rhs)
            return "unbounded"
        ratios = rhs[rows] / T[rows, enter]
        ties = rows[ratios <= ratios.min() + 1e-12]
        if ties.size == 0:  # every ratio is NaN, so this raises
            _require_finite(ratios)
        _pivot(T, rhs, basis, ties[np.argmin(basis[ties])], enter)
    raise RevstackError("simplex iteration cap exceeded")


def _phase_one(A: np.ndarray, b: np.ndarray):
    """Feasible basic tableau ``(T, rhs, basis)`` of ``{x : A x <= b}``, or None if empty.

    The columns are x's positive parts, its negative parts and the slacks.
    Negative right-hand sides get artificial variables, which phase one
    drives to zero and then drops.  Nothing here depends on an objective.
    """
    k, v = A.shape
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
            return None
        if -(cost1[basis] @ rhs) > 1e-7 * (1.0 + np.abs(b).max(initial=0.0)):
            return None
        # drive any degenerate artificial out of the basis
        keep = np.ones(k, dtype=bool)
        for i in np.flatnonzero(basis >= n_core):
            cols = np.flatnonzero(np.abs(T[i, :n_core]) > EPS)
            if cols.size:
                _pivot(T, rhs, basis, i, cols[0])
            else:
                keep[i] = False
        T, rhs, basis = T[keep, :n_core], rhs[keep], basis[keep]
    return T, rhs, basis


def _phase_two(c: np.ndarray, T: np.ndarray, rhs: np.ndarray, basis: np.ndarray):
    """Maximizer of ``c @ x`` from a copy of a phase-one tableau, or None if unbounded."""
    T, rhs, basis = T.copy(), rhs.copy(), basis.copy()
    v = c.size
    cost2 = np.zeros(T.shape[1])
    cost2[:v] = c
    cost2[v : 2 * v] = -c
    if _optimize(T, rhs, basis, cost2) != "optimal":
        return None
    full = np.zeros(T.shape[1])
    full[basis] = rhs
    return full[:v] - full[v : 2 * v]


def simplex_maximize(c, A, b):
    """Maximize ``c @ x`` over ``{x : A x <= b}`` with free x.

    Returns ``(status, x, value)`` with status one of 'optimal',
    'infeasible', 'unbounded' (x and value are None unless optimal).
    Free variables are split into positive parts; negative right-hand
    sides get artificial variables and a phase-1 cleanup.  A tableau or
    maximum that overflows the double range is refused with RevstackError.
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
    with np.errstate(over="ignore", invalid="ignore"):
        start = _phase_one(A, b)
        if start is None:
            return "infeasible", None, None
        x = _phase_two(c, *start)
        if x is None:
            return "unbounded", None, None
        value = float(c @ x)
    _require_finite(value)
    return "optimal", x, value


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


@dataclass(eq=False)
class _Polytope:
    """One constraint set's phase-one tableau and its plain rows' maximizers.

    ``start`` is None for an empty polytope.  ``plain`` maps a row index to
    its maximizer, or to None if the row is unbounded.
    """

    start: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    plain: Dict[int, Optional[np.ndarray]]


# An entry lives as long as its LinearConstraints object, whose arrays are
# read-only, so a tableau never outlives the rows it was built from.
_PREPARED: weakref.WeakKeyDictionary[LinearConstraints, _Polytope] = (
    weakref.WeakKeyDictionary())


def _prepared(constraints: LinearConstraints, A: np.ndarray, b: np.ndarray) -> _Polytope:
    """The polytope of ``constraints`` (joint rows ``A``, bounds ``b``), phase one run once."""
    polytope = _PREPARED.get(constraints)
    if polytope is None:
        polytope = _PREPARED[constraints] = _Polytope(_phase_one(A, b), {})
    return polytope


def feasibility_check(strategy: AffineStrategy, constraints: LinearConstraints,
                      dims: Dims) -> FeasibilityVerdict:
    """Exact feasibility of one strategy against the joint constraint rows.

    Each row gets the strategy substituted for its level's block and is then
    maximized over the constraint polytope (equivalently over its projection
    onto the other variables).  Phase one runs once per constraints object,
    and a row that does not touch the strategy's level is maximized once per
    object as well, whatever the strategy.  An empty polytope makes every
    strategy vacuously feasible; a substituted row or offset that overflows
    is refused naming the strategy's level, and a tableau, row maximum or
    margin that overflows is refused as well.
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
    own = slice(sum(dims.m[: L - 1]), sum(dims.m[:L]))
    A_L = constraints.A[L - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        # row i of coef is row i with u^L = offset + sum_j C_j u^j substituted;
        # the announcing level's own columns drop out.  The zero-width block
        # keeps a bottom-level rule, which maps no lower level, well formed.
        coef = A_joint.copy()
        coef[:, own.stop :] += A_L @ np.hstack([np.zeros((A_L.shape[1], 0)), *C])
        kappa = A_L @ offset
        coef[:, own] = 0.0
        if not (np.isfinite(coef).all() and np.isfinite(kappa).all()):
            raise RevstackError("level %d: a constraint row with the strategy "
                                "substituted is not finite" % L)
        polytope = _prepared(constraints, A_joint, b)
        if polytope.start is None:
            return FeasibilityVerdict(True, None, float("-inf"), (), None,
                                      note="empty follower region")
        # a plain row, one without the strategy's level, is the joint row
        # itself up to the signs of its zeros, which change no pivot
        plain = ~A_L.any(axis=1)
        values: List[float] = []
        witnesses: List[np.ndarray] = []
        for i in range(k):
            if not plain[i]:
                x = _phase_two(coef[i], *polytope.start)
            elif i in polytope.plain:
                x = polytope.plain[i]
            else:
                x = polytope.plain[i] = _phase_two(coef[i], *polytope.start)
            if x is None:
                raise UnboundedRegionError(
                    "follower region is unbounded along constraint row %d; "
                    "supply explicit bounds: rows in the document's \"constraints\" "
                    "that bound every lower-level variable" % i
                )
            values.append(float(coef[i] @ x))
            witnesses.append(x)
        margins = kappa + np.array(values) - b
        _require_finite(margins)

    margins = margins.tolist()
    worst = int(np.argmax(margins))
    return FeasibilityVerdict(
        feasible=margins[worst] <= EPS,
        worst_row=worst,
        worst_margin=margins[worst],
        margins=tuple(margins),
        witness=witnesses[worst].copy(),
    )
