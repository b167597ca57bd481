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

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .calculus import gradient
from .errors import DimensionError, RevstackError, stage_errors
from .geometry import leader_existence_check
from .model import (
    DecisionPoint,
    GameProblem,
    Objective,
    QuadraticObjective,
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
    "response_passes",
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
# after REFINE_ITERS sweeps or once all steps are below the floor.
REFINE_ITERS = 60
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

    Axes are anchor +- radius with ``points`` nodes each.  Refinement is
    coordinate descent from the best node: steps start at the grid spacing
    and halve after every sweep without improvement.
    """

    radius: float = 10.0
    points: int = 41

    def __post_init__(self):
        if self.points < 1:
            raise DimensionError("oracle grid points must be >= 1, got %d" % self.points)
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise DimensionError("oracle grid radius must be finite and > 0, got %r"
                                 % self.radius)

    @property
    def spacing(self) -> float:
        """Node distance; 1.0, the refinement's first step, on a one-node grid."""
        return 2.0 * self.radius / (self.points - 1) if self.points > 1 else 1.0


@dataclass(frozen=True, eq=False)
class OracleResult:
    argmin: DecisionPoint       # blocks for the free levels
    value: float
    grid_argmin: np.ndarray     # flat coordinates of the best grid node
    refinement_drift: float     # max |refined - grid best| per coordinate
    # grid nodes, those of slabs a bound skipped included, plus the
    # refinement trials a one-at-a-time search would make, up to and
    # including each accepted one (batched trials past it are not counted)
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


def _slab_bounds(problem: GameProblem, announced: Sequence[AffineStrategy], level: int,
                 center: np.ndarray, axes: List[np.ndarray]) -> Optional[np.ndarray]:
    """Certified lower bounds on a quadratic's grid values, one per first-axis slab.

    The announced chain maps the free coordinates w affinely to the full
    decision, x = q + P (w - center); q and P come from ``_substitute_chain``
    at the center and one step of the window's half-width along each axis.
    On slab i (first coordinate a_i) the composed cost is a quadratic in the
    trailing coordinates y with Hessian A.  For any y', the strong-convexity
    inequality gives min_y f >= f(y') - |grad f(y')|^2 / (2 lambda_min(A)); y'
    is the minimizer clipped to the window.  Every grid value of the slab is
    at least that minus a margin ``tol * M``, where M bounds every magnitude
    the substitution and the evaluation meet on the window (absolute values
    of the rules and the cost at the largest grid coordinates): the grid
    values, the map and the composition each round within 16 (N + D + 2)^3
    ulps of M, and ``tol`` is 512 times that.  Returns None, so that nothing
    is skipped, for an expression cost, a trailing block that is not
    positive definite by more than the eigensolver's error, or an M that is
    not safely finite (every grid value is finite when M is, so no refusal
    can be skipped).
    """
    objective = problem.objective(level)
    if not isinstance(objective, QuadraticObjective):
        return None
    D, N = len(center), len(objective.l)
    widths = problem.dims.m[level - 1:]
    tol = 2.0 ** -40 * (N + D + 2) ** 3
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # |x| over the window, through the rules with absolute coefficients
        magnitude = [AffineStrategy(a.level, DecisionPoint(
            (np.abs(a.own_anchor),) + tuple(-np.abs(b) for b in a.anchor.blocks[1:])),
            tuple(-np.abs(Q) for Q in a.coeffs)) for a in announced[:level - 1]]
        ends = np.array([[a[0], a[-1]] for a in axes])
        xbar = np.concatenate(_substitute_chain(problem, magnitude, level, split_blocks(
            widths, np.abs(ends).max(axis=1)[None, :])), axis=1)[0]
        V = np.abs(objective.H) @ xbar / 2 + np.abs(objective.l)
        M = V @ xbar + abs(objective.const)
        if not (np.append(V, M) < 2.0 ** 1000).all():
            return None
        W = np.tile(center, (D + 1, 1))
        W[np.arange(1, D + 1), np.arange(D)] = ends[:, 1]
        steps = W[1:].diagonal() - center
        X = np.concatenate(_substitute_chain(
            problem, announced, level, split_blocks(widths, W)), axis=1)
        q, P = X[0], (X[1:] - X[0]).T / steps
        H, l = objective.H, objective.l
        G, h = P.T @ H @ P, P.T @ (H @ q + l)
        G = (G + G.T) / 2
        f0 = q @ H @ q / 2 + l @ q + objective.const
        if not np.isfinite(np.append(G, h)).all():  # a step lost below the anchor's ulp
            return None
        A, B, g0, h0, h1 = G[1:, 1:], G[1:, 0], G[0, 0], h[0], h[1:]
        lam, vecs = np.linalg.eigh(A)
        lam_min = lam[0] - tol * np.linalg.norm(A)
        if not lam_min > 0.0:
            return None
        z = axes[0] - center[0]
        rhs = h1 + z[:, None] * B
        lo, hi = (ends[1:] - center[1:, None]).T
        y = np.clip(-(((rhs @ vecs) / lam) @ vecs.T), lo, hi)
        f = ((y @ A / 2 + rhs) * y).sum(axis=1) + (g0 / 2 * z + h0) * z + f0
        grad = np.linalg.norm(y @ A + rhs, axis=1)
        ay, az = np.abs(y), np.abs(z)
        fmag = ((ay @ np.abs(A) / 2 + np.abs(h1) + az[:, None] * np.abs(B)) * ay).sum(axis=1) \
            + (abs(g0) / 2 * az + abs(h0)) * az + abs(f0)
        gmag = np.linalg.norm(ay @ np.abs(A) + az[:, None] * np.abs(B) + np.abs(h1), axis=1)
        gap = (grad + tol * gmag) ** 2 / (2 * lam_min)
        bounds = f - gap * (1 + tol) - tol * (M + fmag)
    return bounds if np.isfinite(bounds).all() else None


def oracle_best_response(problem: GameProblem,
                         announced: Sequence[AffineStrategy],
                         level: int,
                         grid: Optional[GridSpec] = None,
                         *, anchor: DecisionPoint) -> OracleResult:
    """Brute-force best response of the player at ``level``.

    Substitutes the announced upper strategies, then minimizes that player's
    cost over all free blocks (its own and everything below) on a dense
    grid centred on ``anchor``, refined by shrinking-step coordinate
    descent.  The grid is walked in chunks of at most ``GRID_CHUNK_NODES``
    nodes in node-index order, so memory does not grow with ``points^D``.
    A grid of D >= 3 coordinates that fits one chunk is walked as
    ``points`` slabs along its first axis instead: for a quadratic cost in
    increasing order of :func:`_slab_bounds`, skipping every slab whose
    bound is above the best value found, otherwise in node order.  The grid
    values, and so the best node, are bitwise those of one batch.  Grid ties
    go to the lexicographically smallest node index.  Refinement is compass search:
    each sweep tries +step, then -step, coordinate by coordinate, moving to
    the first trial that improves; a sweep without a move halves the steps.
    Each batch holds every trial that search would still make if nothing
    improved again (at most ``2 * D * REFINE_ITERS``), and the oracle moves
    to the first improving one: the accepted path and ``evaluations`` are
    those of the one-at-a-time search, at one call per accepted move plus
    one.  A NaN cost at any node or trial of an evaluated batch is refused
    with a ``RevstackError`` naming the level and the point.  A grid axis
    past the double range, and a cost that is not finite where a point's
    coordinates or substituted rule values are past it, are refused naming
    the level and ``--grid-radius``.  The whole procedure is deterministic.
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
    if sum(anchor.widths) != D:
        raise DimensionError("anchor does not match the free blocks")
    center = anchor.concat()
    objective = problem.objective(level)

    past_range = ("level %d: the oracle grid leaves the double range (a coordinate or an "
                  "announced rule's value is not finite); lower --grid-radius" % level)

    def substituted(X: np.ndarray) -> List[np.ndarray]:
        return _substitute_chain(problem, announced, level, split_blocks(free_widths, X))

    def values_at(X: np.ndarray, elsewhere=lambda: False) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            blocks = substituted(X)
            values = np.asarray(evaluate_many(objective, blocks), dtype=float)
        if not np.isfinite(values).all():
            if not all(np.isfinite(b).all() for b in blocks) or elsewhere():
                raise RevstackError(past_range)
            if np.isnan(values).any():
                raise RevstackError("level %d: the oracle found a NaN cost at %s"
                                    % (level, X[int(np.argmax(np.isnan(values)))].tolist()))
        return values

    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        axes = [np.linspace(center[i] - grid.radius, center[i] + grid.radius, grid.points)
                for i in range(D)]
    if not all(np.isfinite(a).all() for a in axes):
        raise RevstackError(past_range)

    # the trailing r axes form one reusable chunk; the leading ones are walked.
    # Column-major, each free block is contiguous for the strategies'
    # arithmetic (a row-strided view took half the D=4 oracle's time), and a
    # quadratic cost reads its coordinates as the long rows it multiplies and
    # sums (model._eval_quadratic).  A grid of three or more coordinates that
    # fits one chunk is walked as `points` slabs along its first axis, in
    # increasing order of their lower bounds, stopping at the first bound
    # above the best value found; without bounds every slab is walked in order.
    r = 1
    while r < D and grid.points ** (r + 1) <= GRID_CHUNK_NODES:
        r += 1
    one_chunk = r == D
    bounds = None
    if one_chunk and D >= 3:
        r = D - 1
        bounds = _slab_bounds(problem, announced, level, center, axes)
    lead = D - r
    chunk = np.empty((grid.points ** r, D), order="F")
    for j, m in enumerate(np.meshgrid(*axes[lead:], indexing="ij")):
        chunk[:, lead + j] = m.ravel()

    def fill(buf: np.ndarray, s: int) -> np.ndarray:
        for j, k in enumerate(np.unravel_index(s, (grid.points,) * lead)):
            buf[:, j] = axes[j][k]
        return buf

    @functools.cache
    def grid_leaves_range() -> bool:
        # a one-chunk grid keeps the refusal its single batch gave: past the
        # double range when any node's substituted blocks are
        if not one_chunk:
            return False
        spare = chunk.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # refused by the caller
            return not all(np.isfinite(b).all() for s in range(grid.points ** lead)
                           for b in substituted(fill(spare, s)))

    if bounds is None:
        bounds = np.full(grid.points ** lead, -np.inf)
    x0, fx, best = None, np.inf, 0
    for s in np.argsort(bounds, kind="stable"):
        if bounds[s] > fx:
            break  # so is every bound after it: no node there beats or ties fx
        values = values_at(fill(chunk, s), grid_leaves_range)
        k = int(np.argmin(values))
        if x0 is None or values[k] < fx or (values[k] == fx and s < best):
            x0, fx, best = chunk[k].copy(), float(values[k]), s
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
        for later in range(sweep, REFINE_ITERS):
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


def response_passes(level: int, distance: float, tol: float, grid: GridSpec) -> bool:
    """Whether an oracle argmin ``distance`` from the desired blocks passes ``tol``.

    A miss while the refinement's finest step (the grid spacing halved
    ``REFINE_ITERS - 1`` times) is above ``max(tol, REFINE_FLOOR)`` is the
    window's, not the response's: a RevstackError naming the level and
    ``--grid-radius``."""
    if distance <= tol:
        return True
    finest = grid.spacing * REFINE_SHRINK ** (REFINE_ITERS - 1)
    if finest > max(tol, REFINE_FLOOR):
        raise RevstackError(
            "level %d: the oracle's finest step %.3g cannot resolve the tolerance %.3g "
            "(argmin %.3g away); lower --grid-radius" % (level, finest, tol, distance))
    return False


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
    base = np.concatenate(lower_anchor)
    rng = np.random.default_rng(seed)
    pts = base + rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (count, base.size))
    pts[0] = base
    lower = split_blocks([b.size for b in lower_anchor], pts)
    own = strategy.batch(lower)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN is refused below
        threshold = evaluate(objective, anchor)
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
                desired: DecisionPoint,
                tol: float = ARGMIN_TOL,
                grid: Optional[GridSpec] = None,
                seed: int = 0) -> VerificationReport:
    """Run every check against a full strategy chain (levels 1..n-1).

    The chain is checked against the ``desired`` point.  In order:
    realization residuals, hyperplane membership, oracle best responses
    (each responding level must land on the desired blocks within ``tol``
    componentwise; see :func:`response_passes` for a window too coarse to
    tell), and sublevel one-sidedness sampling.  Existence verdicts
    are reported for context but do not gate the verdict — a working
    strategy for a degenerate game is still verified.  A residual that
    overflows fails its check; a stage game whose reduction overflows, or
    whose follower gradient is not finite, is refused naming the stage.
    """
    n = problem.levels
    if len(strategies) != n - 1:
        raise DimensionError(
            "need one strategy per announcing level (1..%d), got %d"
            % (n - 1, len(strategies))
        )
    _check_chain(strategies, n - 1, n)
    grid = grid or GridSpec()

    reasons: List[str] = []
    strategy_checks: List[StrategyCheck] = []
    stage = problem
    for lev in range(1, n):
        strategy = strategies[lev - 1]
        stage_d = desired.tail(lev)
        with stage_errors(lev):
            if lev > 1:  # a substituted coefficient may overflow
                stage = reduce_problem(stage, strategies[lev - 2])
            verdict = leader_existence_check(stage, stage_d)
        own_desired = desired.block(lev)
        # an overflow makes a residual inf or NaN, which fails its check
        with np.errstate(over="ignore", invalid="ignore"):
            realized = strategy(desired.tail(lev + 1))
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
    for lev in range(2, n + 1):
        target = desired.tail(lev)
        oracle = oracle_best_response(problem, strategies, lev, grid, anchor=target)
        distance = float(
            np.abs(oracle.argmin.concat() - target.concat()).max(initial=0.0)
        )
        low_conf = oracle.refinement_drift > 2.0 * grid.spacing
        passed = response_passes(lev, distance, tol, grid)
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
        desired=[list(map(float, b)) for b in desired.blocks],
        strategy_checks=strategy_checks,
        response_checks=response_checks,
        tolerances={
            "argmin": tol,
            "algebraic": ALGEBRAIC_TOL,
            "grid_radius": grid.radius,
            "grid_points": float(grid.points),
        },
    )
