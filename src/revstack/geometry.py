"""Sublevel-set geometry: supporting hyperplanes and existence conditions.

The synthesis machinery rests on one geometric picture: at the desired
equilibrium d, the gradient of a follower's cost defines a hyperplane that
supports the follower's sublevel set.  A strategy exists when the gradient
block belonging to the announcing player is nonzero — otherwise that player
cannot steer the follower at all.  For nonconvex sublevel sets the support
property is only probed by sampling, never certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .calculus import BlockGradient, gradient, strict_convexity_probe
from .errors import DimensionError, ExistenceError
from .model import (
    DecisionPoint,
    GameProblem,
    Objective,
    evaluate,
    evaluate_many,
    split_blocks,
)

__all__ = [
    "SupportingHyperplane",
    "SublevelProbe",
    "SampleSpec",
    "ExistenceVerdict",
    "ProbeResult",
    "supporting_hyperplane_at",
    "leader_existence_check",
    "exposed_point_probe",
]

# Gradient-nonzero checks use tol = GRAD_TOL_FACTOR * (1 + full gradient norm)
# unless an absolute tolerance is supplied.
GRAD_TOL_FACTOR = 1e-8


def grad_tol(full_norm: float, tol: Optional[float] = None) -> float:
    return tol if tol is not None else GRAD_TOL_FACTOR * (1.0 + full_norm)


@dataclass(frozen=True, eq=False)
class SupportingHyperplane:
    """Hyperplane <normal, x - point> = 0 through ``point``.

    Oriented so the supported sublevel set lies on the nonpositive side:
    residual(x) <= 0 for set members.
    """

    point: DecisionPoint
    normal: BlockGradient

    def residual(self, x: DecisionPoint) -> float:
        total = 0.0
        for g, xb, pb in zip(self.normal.blocks, x.blocks, self.point.blocks):
            total += float(g @ (xb - pb))
        return total


@dataclass(frozen=True, eq=False)
class SublevelProbe:
    """An objective together with the anchor and threshold J(anchor)."""

    objective: Objective
    anchor: DecisionPoint
    threshold: float

    @classmethod
    def at(cls, objective: Objective, anchor: DecisionPoint) -> "SublevelProbe":
        return cls(objective, anchor, evaluate(objective, anchor))


@dataclass(frozen=True)
class SampleSpec:
    """Seeded sampling controls shared by the Monte-Carlo style checks."""

    count: int = 1000
    radius: float = 5.0
    seed: int = 0


@dataclass(frozen=True)
class ExistenceVerdict:
    passed: bool
    block_norm: float
    tol: float
    reasons: Tuple[str, ...] = ()
    convexity: str = "not-certified"


@dataclass(frozen=True, eq=False)
class ProbeResult:
    verdict: str  # "consistent" | "refuted"
    samples_in_set: int
    witness: Optional[DecisionPoint] = None
    witness_residual: float = 0.0


def supporting_hyperplane_at(obj: Objective, p: DecisionPoint,
                             tol: Optional[float] = None) -> SupportingHyperplane:
    """Candidate supporting hyperplane of {J <= J(p)} at p, from the gradient.

    Raises ExistenceError when the gradient vanishes (no tangent direction
    to build from).  Whether the plane actually supports the set is a
    separate question — certified for convex sets, probed otherwise.
    """
    g = gradient(obj, p)
    full = g.norm()
    if full <= grad_tol(full, tol):
        raise ExistenceError(
            "gradient vanishes at the anchor; no supporting hyperplane there"
        )
    return SupportingHyperplane(p, g)


def leader_existence_check(problem: GameProblem, d: DecisionPoint,
                           tol: Optional[float] = None) -> ExistenceVerdict:
    """Can the top player steer the second-level objective at d?

    Passes iff the leader-block gradient of the second objective is nonzero
    at the desired point.  The convexity field is advisory: when the
    second objective is not certified strictly convex, a passing check
    still only means the construction is plausible, not guaranteed.
    Cascade stage s runs this check on the reduced game, whose top player
    is the one at level s, so the reason speaks of the announcing player
    and the cascade names its level.  A gradient that is not finite (an
    overflowing objective) raises ExistenceError instead of a verdict.
    """
    if problem.levels < 2:
        raise DimensionError("need at least two levels")
    obj = problem.objective(2)
    g = gradient(obj, d)
    full = g.norm()
    if not np.isfinite(full):
        raise ExistenceError("the follower's gradient is not finite at the anchor")
    threshold = grad_tol(full, tol)
    block = g.block_norm(1)
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


def exposed_point_probe(probe: SublevelProbe, plane: SupportingHyperplane,
                        sampler: SampleSpec, tol: float = 1e-9) -> ProbeResult:
    """Monte-Carlo test that the anchor is exposed by ``plane``.

    Draws points uniformly in a ball around the anchor; every sampled
    member of the sublevel set must lie strictly on the nonpositive side.
    A violating member refutes support (witness returned); otherwise the
    evidence is merely 'consistent' — never a proof.
    """
    anchor_flat = probe.anchor.concat()
    dim = anchor_flat.size
    rng = np.random.default_rng(sampler.seed)
    dirs = rng.standard_normal((sampler.count, dim))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    radii = sampler.radius * rng.random(sampler.count) ** (1.0 / dim)
    pts = anchor_flat + dirs / norms[:, None] * radii[:, None]

    widths = probe.anchor.widths
    values = np.asarray(evaluate_many(probe.objective, split_blocks(widths, pts)))
    members = values <= probe.threshold
    normal_flat = plane.normal.concat()
    point_flat = plane.point.concat()
    residuals = (pts - point_flat) @ normal_flat

    bad = members & (residuals > tol)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return ProbeResult(
            "refuted",
            int(members.sum()),
            witness=DecisionPoint.from_concat(widths, pts[i]),
            witness_residual=float(residuals[i]),
        )
    return ProbeResult("consistent", int(members.sum()))
