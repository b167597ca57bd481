"""Verification of announced strategies.

Best responses are found by brute force (a dense grid, walked in bounded
chunks, plus shrinking-step coordinate descent) on the objectives with the
announced strategies substituted here, independently of synthesis.
Hyperplane membership and sublevel one-sidedness are checked by seeded
sampling, and realization is evaluated directly; for levels 2 and below
these checks run on the stage game ``synthesis.reduce_problem`` builds.
A strategy chain is 'verified' when every check lands inside its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .calculus import gradient
from .equilibrium import team_optimum
from .errors import DimensionError, RevstackError
from .geometry import leader_existence_check
from .model import (
    DecisionPoint,
    GameProblem,
    Objective,
    evaluate,
    evaluate_many,
    split_blocks,
)
from .synthesis import AffineStrategy, reduce_problem

__all__ = [
    "GridSpec",
    "OracleResult",
    "InequalityStats",
    "StrategyCheck",
    "ResponseCheck",
    "VerificationReport",
    "oracle_best_response",
    "sublevel_inequality_check",
    "verify_full",
]

ARGMIN_TOL = 1e-4      # componentwise distance for oracle argmin agreement
ALGEBRAIC_TOL = 1e-9   # scale-normalized residuals (realization, membership)
# The dense oracle grid holds points^D nodes.  41^4 is what the default grid
# walks on a four-coordinate level; larger grids are refused, not walked, as
# the walk's time grows with the node count.
MAX_GRID_NODES = 41 ** 4
# The grid is evaluated in chunks of at most this many nodes (or one axis, when
# a single axis is longer), so the oracle's memory does not grow with points^D.
GRID_CHUNK_NODES = 41 ** 3
# Refinement halves every step after a sweep without improvement and stops
# once all steps are below the floor.
REFINE_SHRINK = 0.5
REFINE_FLOOR = 1e-13
# Seeded samples per announcing level, drawn within SAMPLE_RADIUS of the
# desired lower blocks, for the membership and sublevel checks.
MEMBERSHIP_SAMPLES = 100
INEQUALITY_SAMPLES = 2000
SAMPLE_RADIUS = 5.0


@dataclass(frozen=True)
class GridSpec:
    """Search window for the brute-force oracle.

    Axes default to anchor +- radius with ``points`` nodes each; explicit
    per-coordinate ``bounds`` override that.  Refinement is coordinate
    descent from the best node: steps start at the grid spacing and halve
    after every sweep without improvement.
    """

    radius: float = 10.0
    points: int = 41
    refine_iters: int = 60
    bounds: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.points < 1:
            raise DimensionError("oracle grid points must be >= 1, got %d" % self.points)
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise DimensionError("oracle grid radius must be finite and > 0, got %r"
                                 % self.radius)
        if self.bounds is not None and not np.isfinite(np.asarray(self.bounds, float)).all():
            raise DimensionError("oracle grid bounds must be finite, got %r" % (self.bounds,))


@dataclass(frozen=True, eq=False)
class OracleResult:
    argmin: DecisionPoint       # blocks for the free levels
    value: float
    grid_argmin: np.ndarray     # flat coordinates of the best grid node
    refinement_drift: float     # max |refined - grid best| per coordinate
    # grid nodes plus the refinement trials a one-at-a-time search would
    # make, up to and including each accepted one (batched trials past it
    # are not counted)
    evaluations: int


@dataclass(frozen=True, eq=False)
class InequalityStats:
    samples: int
    violations: int
    min_value: float
    min_point: np.ndarray       # flat lower-level coordinates of the minimum
    threshold: float


def _check_chain(announced: Sequence[AffineStrategy], upto: int, levels: int) -> None:
    if len(announced) < upto:
        raise DimensionError(
            "need announced strategies for levels 1..%d, got %d" % (upto, len(announced))
        )
    for i in range(upto):
        s = announced[i]
        if s.level != i + 1:
            raise DimensionError(
                "announced strategy %d has level %d, expected %d" % (i, s.level, i + 1)
            )
        if len(s.coeffs) != levels - (i + 1):
            raise DimensionError(
                "strategy at level %d maps %d lower levels, expected %d"
                % (s.level, len(s.coeffs), levels - (i + 1))
            )


def _substitute_chain(problem: GameProblem, announced: Sequence[AffineStrategy],
                      level: int, free_blocks: List[np.ndarray]) -> List[np.ndarray]:
    """Fill blocks for levels 1..level-1 from the announced strategies (batched)."""
    n = problem.levels
    blocks: List[Optional[np.ndarray]] = [None] * n
    for j in range(level, n + 1):
        blocks[j - 1] = free_blocks[j - level]
    for lev in range(level - 1, 0, -1):
        lower = [blocks[j - 1] for j in range(lev + 1, n + 1)]
        blocks[lev - 1] = announced[lev - 1].batch(lower)
    return blocks  # type: ignore[return-value]


def oracle_best_response(problem: GameProblem,
                         announced: Sequence[AffineStrategy],
                         level: int,
                         grid: Optional[GridSpec] = None,
                         anchor: Optional[DecisionPoint] = None) -> OracleResult:
    """Brute-force best response of the player at ``level``.

    Substitutes the announced upper strategies, then minimizes that player's
    cost over all free blocks (its own and everything below) on a dense
    grid, refined by shrinking-step coordinate descent.  The grid is walked
    in chunks of at most ``GRID_CHUNK_NODES`` nodes in node-index order, so
    memory does not grow with ``points^D``; grid ties go to the
    lexicographically smallest node index.  Refinement is compass search:
    each sweep tries +step, then -step, coordinate by coordinate, moving to
    the first trial that improves; a sweep without a move halves the steps.
    Each batch holds every trial that search would still make if nothing
    improved again (at most ``2 * D * refine_iters``), and the oracle moves
    to the first improving one: the accepted path and ``evaluations`` are
    those of the one-at-a-time search, at one call per accepted move plus
    one.  A NaN cost at any node or trial of an evaluated batch is refused
    with a ``RevstackError`` naming the level and the point; the whole
    procedure is deterministic.
    """
    n = problem.levels
    if not 2 <= level <= n:
        raise DimensionError("oracle level must be in 2..%d" % n)
    _check_chain(announced, level - 1, n)
    grid = grid or GridSpec()
    free_widths = problem.dims.m[level - 1 :]
    D = sum(free_widths)
    if grid.points ** D > MAX_GRID_NODES:
        raise RevstackError(
            "level %d: the oracle grid would hold %d^%d = %d nodes, above the limit "
            "of %d; lower --grid-points" % (level, grid.points, D, grid.points ** D,
                                            MAX_GRID_NODES)
        )
    if grid.bounds is not None and len(grid.bounds) != D:
        raise DimensionError("level %d: the oracle grid has %d bounds for %d free "
                             "coordinates" % (level, len(grid.bounds), D))
    if anchor is None:
        center = np.zeros(D)
    else:
        if sum(anchor.widths) != D:
            raise DimensionError("anchor does not match the free blocks")
        center = anchor.concat()
    objective = problem.objective(level)

    def values_at(X: np.ndarray) -> np.ndarray:
        blocks = _substitute_chain(problem, announced, level, split_blocks(free_widths, X))
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN is refused below
            values = np.asarray(evaluate_many(objective, blocks), dtype=float)
        if np.isnan(values).any():
            raise RevstackError("level %d: the oracle found a NaN cost at %s"
                                % (level, X[int(np.argmax(np.isnan(values)))].tolist()))
        return values

    axes = []
    for i in range(D):
        if grid.bounds is not None:
            lo, hi = grid.bounds[i]
        else:
            lo, hi = center[i] - grid.radius, center[i] + grid.radius
        axes.append(np.linspace(lo, hi, grid.points))

    # the trailing r axes form one reusable chunk; the leading ones are walked.
    # Column-major, each free block is one contiguous slab for the strategies'
    # arithmetic (a row-strided view took half the D=4 oracle's time), and a
    # quadratic cost reads its coordinates as the long rows it multiplies and
    # sums (model._eval_quadratic).
    r = 1
    while r < D and grid.points ** (r + 1) <= GRID_CHUNK_NODES:
        r += 1
    lead = D - r
    chunk = np.empty((grid.points ** r, D), order="F")
    for j, m in enumerate(np.meshgrid(*axes[lead:], indexing="ij")):
        chunk[:, lead + j] = m.ravel()
    x0, fx = None, np.inf
    for node in np.ndindex(*[grid.points] * lead):
        for j, k in enumerate(node):
            chunk[:, j] = axes[j][k]
        values = values_at(chunk)
        k = int(np.argmin(values))
        if x0 is None or values[k] < fx:
            x0, fx = chunk[k].copy(), float(values[k])
    evaluations = grid.points ** D

    # one step size per coordinate, starting at the grid spacing; the search
    # is in sweep number `sweep` at coordinate `start`, and `improved` says
    # whether that sweep has accepted a trial yet
    steps = np.array([(axes[i][-1] - axes[i][0]) / (grid.points - 1) if grid.points > 1
                      else 1.0 for i in range(D)])
    x, sweep, start, improved = x0, 0, 0, False
    while True:
        # the sweeps a one-at-a-time search would still make if nothing
        # improved again: the rest of this one, a repeat at the same steps
        # when it has improved, then one per halving, while the sweep count
        # and the floor allow.  Halving is exact, so the scaled steps are
        # bitwise those of repeated halving.
        scales, scale, top = [], 1.0, float(steps.max())
        for later in range(sweep, grid.refine_iters):
            if top * scale < REFINE_FLOOR:
                break
            scales.append(scale)
            if not (improved and later == sweep):
                scale *= REFINE_SHRINK
        # +step before -step, coordinate by coordinate, sweep by sweep
        rows = np.arange(2 * start, 2 * D * len(scales))
        if rows.size == 0:
            break
        of_sweep, within = np.divmod(rows, 2 * D)
        coords, signs = within // 2, np.where(within % 2 == 0, 1.0, -1.0)
        row_steps = steps[coords] * np.asarray(scales)[of_sweep]
        trials = np.repeat(x[None, :], rows.size, axis=0)
        trials[np.arange(rows.size), coords] += signs * row_steps
        values = values_at(trials)
        better = np.flatnonzero(values < fx)
        if better.size == 0:
            evaluations += rows.size
            break
        k = int(better[0])
        evaluations += k + 1
        x, fx = trials[k].copy(), float(values[k])
        steps = steps * scales[of_sweep[k]]
        sweep, start, improved = sweep + int(of_sweep[k]), int(coords[k]) + 1, True
    drift = float(np.abs(x - x0).max(initial=0.0))
    argmin = DecisionPoint.from_concat(free_widths, x)
    return OracleResult(argmin, fx, x0, drift, evaluations)


def sublevel_inequality_check(objective: Objective, anchor: DecisionPoint,
                              strategy: AffineStrategy, count: int,
                              seed: int) -> InequalityStats:
    """One-sidedness of the follower cost on the strategy's graph.

    Draws ``count`` lower-level points uniformly within ``SAMPLE_RADIUS`` of
    the anchor's lower blocks from ``seed`` (the anchor itself is always
    sample 0), lifts them through the strategy, and counts values below
    the threshold J(anchor) - ALGEBRAIC_TOL.  Zero violations is the
    expected outcome when the strategy's graph sits on the supporting side
    of the sublevel set.  A NaN cost at a sample is refused with a
    ``RevstackError`` naming the strategy's level and the lower-level point.
    """
    lower_anchor = anchor.blocks[1:]
    if len(lower_anchor) != len(strategy.coeffs):
        raise DimensionError("anchor and strategy disagree on lower levels")
    threshold = evaluate(objective, anchor)
    base = np.concatenate(lower_anchor)
    rng = np.random.default_rng(seed)
    pts = base + rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (count, base.size))
    pts[0] = base
    lower = split_blocks([b.size for b in lower_anchor], pts)
    own = strategy.batch(lower)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN is refused below
        values = np.asarray(evaluate_many(objective, [own] + lower), dtype=float)
    if np.isnan(values).any():
        raise RevstackError("level %d: the sublevel check found a NaN cost at %s"
                            % (strategy.level, pts[int(np.argmax(np.isnan(values)))].tolist()))
    violations = int(np.count_nonzero(values < threshold - ALGEBRAIC_TOL))
    imin = int(np.argmin(values))
    return InequalityStats(
        samples=count,
        violations=violations,
        min_value=float(values[imin]),
        min_point=pts[imin].copy(),
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# full verification
# ---------------------------------------------------------------------------

@dataclass
class StrategyCheck:
    """Per-announcing-level algebra checks (levels 1..n-1)."""

    level: int
    existence_passed: bool
    existence_norm: float
    convexity: str
    realization_residual: float
    membership_residual: float     # scale-normalized, max over samples
    inequality_violations: int
    inequality_min: float
    passed: bool


@dataclass
class ResponseCheck:
    """Oracle best-response agreement for responding levels (2..n)."""

    level: int
    argmin: List[List[float]]
    distance: float
    value: float
    refinement_drift: float
    low_confidence: bool
    passed: bool


@dataclass
class VerificationReport:
    verified: bool
    verdict: str                    # "verified" | "failed"
    reasons: List[str]
    desired: List[List[float]]
    strategy_checks: List[StrategyCheck]
    response_checks: List[ResponseCheck]
    tolerances: Dict[str, float]


def _membership_residual(stage: GameProblem, stage_d: DecisionPoint,
                         strategy: AffineStrategy, seed: int) -> float:
    """Max scale-normalized hyperplane residual of the strategy graph.

    Residual at x: <g_1, gamma(x) - d_1> + sum_j <g_j, x_j - d_j> where g
    is the second-stage-objective gradient at the stage anchor.  A zero
    gradient supports trivially (residual 0).
    """
    g = gradient(stage.objective(2), stage_d)
    if np.linalg.norm(g.concat()) == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    lower_anchor = stage_d.blocks[1:]
    base = np.concatenate(lower_anchor)
    pts = base + rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (MEMBERSHIP_SAMPLES, base.size))
    lower = split_blocks([b.size for b in lower_anchor], pts)
    own = strategy.batch(lower)
    terms = [(own - stage_d.blocks[0]) @ g.blocks[0]]
    for Xj, dj, gj in zip(lower, lower_anchor, g.blocks[1:]):
        terms.append((Xj - dj) @ gj)
    total = np.sum(terms, axis=0)
    scale = np.sum([np.abs(t) for t in terms], axis=0)
    return float(np.max(np.abs(total) / (1.0 + scale)))


def verify_full(problem: GameProblem, strategies: Sequence[AffineStrategy],
                tol: float = ARGMIN_TOL,
                grid: Optional[GridSpec] = None,
                desired: Optional[DecisionPoint] = None,
                seed: int = 0) -> VerificationReport:
    """Run every check against a full strategy chain (levels 1..n-1).

    In order: realization residuals, hyperplane membership, oracle best
    responses (each responding level must land on the desired blocks within
    ``tol`` componentwise), and sublevel one-sidedness sampling.  Existence
    verdicts are reported for context but do not gate the verdict — a
    working strategy for a degenerate game is still verified.  A residual
    that overflows fails its check; a stage game whose reduction overflows
    is refused naming the stage.
    """
    n = problem.levels
    if len(strategies) != n - 1:
        raise DimensionError(
            "need one strategy per announcing level (1..%d), got %d"
            % (n - 1, len(strategies))
        )
    _check_chain(strategies, n - 1, n)
    grid = grid or GridSpec()
    d = desired if desired is not None else team_optimum(problem).point

    reasons: List[str] = []
    strategy_checks: List[StrategyCheck] = []
    stage = problem
    for lev in range(1, n):
        strategy = strategies[lev - 1]
        if lev > 1:
            try:
                stage = reduce_problem(stage, strategies[lev - 2])
            except RevstackError as err:  # a substituted coefficient overflowed
                raise RevstackError(
                    "stage %d (announcing level %d): %s" % (lev, lev, err)) from None
        stage_d = d.tail(lev)
        verdict = leader_existence_check(stage, stage_d)
        own_desired = d.block(lev)
        # an overflow makes a residual inf or NaN, which fails its check
        with np.errstate(over="ignore", invalid="ignore"):
            realized = strategy(d.tail(lev + 1))
            realization = float(np.linalg.norm(realized - own_desired))
            realization_ok = realization <= ALGEBRAIC_TOL * (
                1.0 + float(np.linalg.norm(own_desired))
            )
            membership = _membership_residual(stage, stage_d, strategy, seed + 17 * lev)
        membership_ok = membership <= ALGEBRAIC_TOL
        stats = sublevel_inequality_check(
            stage.objective(2), stage_d, strategy, INEQUALITY_SAMPLES, seed + 31 * lev)
        inequality_ok = stats.violations == 0
        passed = realization_ok and membership_ok and inequality_ok
        if not realization_ok:
            reasons.append(
                "level %d: realization residual %.3g" % (lev, realization)
            )
        if not membership_ok:
            reasons.append(
                "level %d: hyperplane membership residual %.3g" % (lev, membership)
            )
        if not inequality_ok:
            reasons.append(
                "level %d: %d sampled graph points dip below the anchor value"
                % (lev, stats.violations)
            )
        strategy_checks.append(StrategyCheck(
            level=lev,
            existence_passed=verdict.passed,
            existence_norm=verdict.block_norm,
            convexity=verdict.convexity,
            realization_residual=realization,
            membership_residual=membership,
            inequality_violations=stats.violations,
            inequality_min=stats.min_value,
            passed=passed,
        ))

    response_checks: List[ResponseCheck] = []
    spacing = 2.0 * grid.radius / max(grid.points - 1, 1)
    for lev in range(2, n + 1):
        target = d.tail(lev)
        oracle = oracle_best_response(problem, strategies, lev, grid, anchor=target)
        distance = float(
            np.abs(oracle.argmin.concat() - target.concat()).max(initial=0.0)
        )
        low_conf = oracle.refinement_drift > 2.0 * spacing
        passed = distance <= tol
        if not passed:
            reasons.append(
                "level %d: oracle argmin is %.3g away from the desired blocks"
                % (lev, distance)
            )
        response_checks.append(ResponseCheck(
            level=lev,
            argmin=[list(map(float, b)) for b in oracle.argmin.blocks],
            distance=distance,
            value=oracle.value,
            refinement_drift=oracle.refinement_drift,
            low_confidence=low_conf,
            passed=passed,
        ))

    verified = all(c.passed for c in strategy_checks) and all(
        c.passed for c in response_checks
    )
    return VerificationReport(
        verified=verified,
        verdict="verified" if verified else "failed",
        reasons=reasons,
        desired=[list(map(float, b)) for b in d.blocks],
        strategy_checks=strategy_checks,
        response_checks=response_checks,
        tolerances={
            "argmin": tol,
            "algebraic": ALGEBRAIC_TOL,
            "grid_radius": grid.radius,
            "grid_points": float(grid.points),
        },
    )
