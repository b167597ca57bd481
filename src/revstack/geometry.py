"""Sublevel-set geometry: the existence condition for an affine leader.

The synthesis machinery rests on one geometric picture: at the desired
equilibrium d, the gradient of a follower's cost defines a hyperplane that
supports the follower's sublevel set.  A strategy exists when the gradient
block belonging to the announcing player is nonzero — otherwise that player
cannot steer the follower at all.  Strict convexity is certified from the
Hessian; for nonconvex sublevel sets the support property is not certified
here, and only the verifier's sampling of the follower cost on the
strategy's graph (``verify.sublevel_inequality_check``) tests it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .calculus import gradient, strict_convexity_probe
from .errors import DimensionError, ExistenceError
from .model import (
    DecisionPoint,
    GameProblem,
    Objective,
    Polynomial,
    QuadraticObjective,
    split_blocks,
)

__all__ = [
    "ExistenceVerdict",
    "leader_existence_check",
]

# A gradient block counts as zero up to GRAD_TOL_FACTOR * (1 + the norm of
# the absolute terms that sum to it); see _term_scale.
GRAD_TOL_FACTOR = 1e-8


@dataclass(frozen=True)
class ExistenceVerdict:
    passed: bool
    block_norm: float
    tol: float
    reasons: Tuple[str, ...] = ()
    convexity: str = "not-certified"


def _term_scale(obj: Objective, p: DecisionPoint, level: int) -> float:
    """Norm of the absolute terms that sum to the gradient block of ``level`` at ``p``.

    A gradient entry is a sum of terms that may cancel, and its rounding
    error scales with their magnitudes, not with the other entries: for a
    quadratic ``|H||p| + |l|``, for a polynomial each partial derivative
    with absolute coefficients at ``|p|``.
    """
    with np.errstate(over="ignore"):  # an infinite scale counts every block as zero
        if isinstance(obj, QuadraticObjective):
            terms = np.abs(obj.H) @ np.abs(p.concat()) + np.abs(obj.l)
            return float(np.linalg.norm(split_blocks(p.widths, terms)[level - 1]))
        at = [np.abs(b) for b in p.blocks]
        terms = [Polynomial(d.keys, d.rows, list(map(abs, d.coefs)))(at)
                 for (lev, _), d in zip(obj.poly.keys, obj.poly.derivatives[0])
                 if lev == level]
        return float(np.linalg.norm(terms))


def leader_existence_check(problem: GameProblem, d: DecisionPoint) -> ExistenceVerdict:
    """Can the top player steer the second-level objective at d?

    Passes iff the leader-block gradient of the second objective is nonzero
    at the desired point.  The convexity field is advisory: when the
    second objective is not certified strictly convex, a passing check
    still only means the construction is plausible, not guaranteed.
    The stage primitive ``synthesis._stage_family`` and ``verify_full`` run
    it on stage s's reduced game, whose top player is the one at level s, so
    the reason speaks of the announcing player and the stage wrapper
    ``errors.stage_errors`` names the level.  A gradient entry that is not
    finite (an overflowing objective), or a leader block whose norm
    overflows, raises ExistenceError instead of a verdict.
    """
    if problem.levels < 2:
        raise DimensionError("need at least two levels")
    obj = problem.objective(2)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        g = gradient(obj, d)
        block = float(np.linalg.norm(g.block(1)))
    if not np.isfinite(g.concat()).all():
        raise ExistenceError("the follower's gradient is not finite at the anchor")
    if not np.isfinite(block):
        raise ExistenceError("the announcing player's gradient block overflows its norm "
                             "at the anchor")
    threshold = GRAD_TOL_FACTOR * (1.0 + _term_scale(obj, d, 1))
    convexity = strict_convexity_probe(obj, d)
    reasons = []
    if block <= threshold:
        reasons.append(
            "the announcing player cannot influence this objective at the anchor: "
            "its gradient block has norm %.3g (tolerance %.3g)" % (block, threshold)
        )
    if convexity != "certified":
        reasons.append(
            "sublevel set not certified strictly convex at the anchor; "
            "support can only be probed, not guaranteed"
        )
    return ExistenceVerdict(
        passed=block > threshold,
        block_norm=block,
        tol=threshold,
        reasons=tuple(reasons),
        convexity=convexity,
    )
