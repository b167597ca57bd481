"""Affine strategy construction for multilevel games.

A player at level L announces an affine map from every lower block into its
own block, stored in deviation form around the desired equilibrium d:

    u^L = d^L - sum_{j>L} Q_j (u^j - d^j)

so the realization condition (announcing at d returns d^L) holds by
construction.  The deviation gains Q_j come from the follower-objective
gradient at d: the rank-one choice Q_j = g_1 g_j^T / <g_1, g_1> places the
whole graph of the strategy inside the follower's supporting hyperplane,
and the full solution set is the rank-one particular solution plus an
orthonormal null-space basis N of the leading gradient block times free
parameter matrices T (Q = Q^0 + N T).  ``_stage_family`` builds that family
for cascade stage s, on the game left once the rules above level s are
substituted (each substitution drops one level, and each objective puts the
rule in itself: ``substitute_top`` in ``model``).  Each stage announces a
member of its family: the particular member itself, or the one named by
the T that ``_look_ahead`` picks when the particular member would leave
the next stage's announcing player without influence while another member
would not.  The single-leader rule and the top-level family are the
stage-1 case.  ``errors.stage_errors``, the one stage wrapper, shared with
the verifier, names the stage in a refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .calculus import gradient
from .errors import DimensionError, ExistenceError, RevstackError, stage_errors
from .geometry import leader_existence_check
from .model import DecisionPoint, GameProblem, LinearConstraints

__all__ = [
    "AffineStrategy",
    "StrategyFamily",
    "synthesize_single_leader",
    "synthesize_family_leader",
    "instantiate",
    "reduce_problem",
    "synthesize_cascade",
]


@dataclass(frozen=True, eq=False)
class AffineStrategy:
    """Deviation-form affine strategy of the player at ``level``.

    ``anchor`` holds the desired blocks for this level and everything below
    it; ``coeffs`` holds one deviation gain Q_j per lower level, in order.
    """

    level: int
    anchor: DecisionPoint
    coeffs: Tuple[np.ndarray, ...]

    def __post_init__(self):
        coeffs = tuple(np.atleast_2d(np.asarray(Q, dtype=float)) for Q in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if self.level < 1:
            raise DimensionError("strategy level must be >= 1")
        if len(self.anchor.blocks) != 1 + len(coeffs):
            raise DimensionError(
                "anchor has %d blocks but the strategy maps %d lower levels"
                % (len(self.anchor.blocks), len(coeffs))
            )
        m_own = self.anchor.blocks[0].size
        for Q, dj in zip(coeffs, self.anchor.blocks[1:]):
            if dj.size == 0:  # a level has at least one coordinate (Dims)
                raise DimensionError("every lower block must have a coordinate")
            if Q.shape != (m_own, dj.size):
                raise DimensionError(
                    "deviation gain has shape %s, expected (%d, %d)"
                    % (Q.shape, m_own, dj.size)
                )

    @property
    def own_anchor(self) -> np.ndarray:
        return self.anchor.blocks[0]

    @property
    def lower_anchor(self) -> DecisionPoint:
        return DecisionPoint(self.anchor.blocks[1:])

    def _lower_blocks(self, lower) -> Tuple[np.ndarray, ...]:
        blocks = lower.blocks if isinstance(lower, DecisionPoint) else tuple(
            np.atleast_1d(np.asarray(b, dtype=float)) for b in lower
        )
        if len(blocks) != len(self.coeffs):
            raise DimensionError(
                "expected %d lower blocks, got %d" % (len(self.coeffs), len(blocks))
            )
        if tuple(b.shape for b in blocks) != tuple(d.shape for d in self.anchor.blocks[1:]):
            raise DimensionError("lower blocks of shapes %s, expected widths %s"
                                 % ([b.shape for b in blocks], self.lower_anchor.widths))
        return blocks

    def __call__(self, lower) -> np.ndarray:
        """Announced own block for the given lower-level blocks: the point's
        row of :meth:`batch`."""
        return self.batch([b[None, :] for b in self._lower_blocks(lower)])[0]

    def batch(self, lower: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized evaluation: lower blocks shaped (P, m_j) -> (P, m_own).

        Own coordinate r starts from its anchor, and for each lower block in
        turn subtracts the left-to-right sum over that block's coordinates k
        of ``(x_k - d_k) * Q[r, k]``, by elementwise numpy operations on
        coordinate columns.  A point's value is thus one fixed sequence of
        IEEE operations whatever its batch, position or BLAS build.  The
        result is column-major, each own coordinate one contiguous column.
        """
        P = lower[0].shape[0]
        out = np.empty((P, self.own_anchor.size), order="F")
        total, term = np.empty(P), np.empty(P)
        for r, a in enumerate(self.own_anchor.tolist()):
            out[:, r] = a
            for Q, xj, dj in zip(self.coeffs, lower, self.anchor.blocks[1:]):
                for k, (d, q) in enumerate(zip(dj.tolist(), Q[r].tolist())):
                    buf = term if k else total
                    np.multiply(np.subtract(xj[:, k], d, out=buf), q, out=buf)
                    if k:
                        total += term
                out[:, r] -= total
        return out

    def as_affine(self) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """Offset form: returns (offset, linear) with u^L = offset + sum C_j u^j.

        An offset that overflows is refused with RevstackError.
        """
        offset = self.own_anchor.copy()
        linear = []
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            for Q, dj in zip(self.coeffs, self.anchor.blocks[1:]):
                offset += Q @ dj
                linear.append(-Q)
        if not np.isfinite(offset).all():
            raise RevstackError("the offset of the level %d rule is not finite" % self.level)
        return offset, tuple(linear)

    @classmethod
    def from_affine(cls, level: int, offset, linear: Sequence[np.ndarray],
                    anchor_lower: DecisionPoint) -> "AffineStrategy":
        """Build from offset form, anchored at the given lower-level point.

        The strategy's own anchor block is its value at ``anchor_lower``, so
        a map that misses the desired point keeps its realization error.  A
        value that is not finite raises RevstackError.
        """
        offset = np.atleast_1d(np.asarray(offset, dtype=float))
        C = [np.atleast_2d(np.asarray(M, dtype=float)) for M in linear]
        if len(C) != len(anchor_lower.blocks):
            raise DimensionError(
                "%d coefficient blocks for %d lower levels"
                % (len(C), len(anchor_lower.blocks))
            )
        own = offset.copy()
        for M, dj in zip(C, anchor_lower.blocks):
            if M.shape != (offset.size, dj.size):
                raise DimensionError(
                    "coefficient block has shape %s, expected (%d, %d)"
                    % (M.shape, offset.size, dj.size)
                )
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                own += M @ dj
        if not np.isfinite(own).all():
            raise RevstackError("the level %d rule is not finite at the desired lower blocks"
                                % level)
        anchor = DecisionPoint((own,) + anchor_lower.blocks)
        return cls(level, anchor, tuple(-M for M in C))

    def describe(self) -> List[str]:
        """Human-readable component lines, e.g. ``u1 = 12 - u2 - 3*u3``."""
        offset, linear = self.as_affine()
        widths = [d.size for d in self.anchor.blocks[1:]]
        m_own = offset.size

        def vname(level: int, index: int, width: int) -> str:
            return "u%d" % level if width == 1 else "u%d_%d" % (level, index)

        lines = []
        for r in range(m_own):
            lhs = vname(self.level, r + 1, m_own)
            parts = ["%.10g" % offset[r]]
            for off_level, (C, w) in enumerate(zip(linear, widths)):
                j = self.level + 1 + off_level
                for c in range(w):
                    coef = C[r, c]
                    if coef == 0.0:
                        continue
                    sign = "+" if coef > 0 else "-"
                    mag = abs(coef)
                    term = vname(j, c + 1, w)
                    if mag != 1.0:
                        term = "%.10g*%s" % (mag, term)
                    parts.append("%s %s" % (sign, term))
            lines.append("%s = %s" % (lhs, " ".join(parts)))
        return lines


# ---------------------------------------------------------------------------
# strategy families
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StrategyFamily:
    """All optimal deviation gains at one level, as an affine set.

    Member gains are ``particular[j] + null_basis @ T_j`` for free parameter
    matrices T_j of shape ``(m_top - 1, m_j)``; T = 0 recovers the
    minimum-norm rank-one member.
    """

    level: int
    anchor: DecisionPoint
    particular: Tuple[np.ndarray, ...]
    null_basis: np.ndarray  # (m_top, m_top - 1), orthonormal columns

    @property
    def param_shapes(self) -> Tuple[Tuple[int, int], ...]:
        cols = self.null_basis.shape[1]
        return tuple((cols, dj.size) for dj in self.anchor.blocks[1:])

    @property
    def is_single_point(self) -> bool:
        return self.null_basis.shape[1] == 0

    def membership(self, strategy: AffineStrategy
                   ) -> Tuple[Tuple[np.ndarray, ...], float]:
        """Least-squares parameters for a strategy plus the residual.

        Residual ~ 0 means the strategy's gains lie in the family's affine
        set (anchors are not compared).
        """
        if strategy.level != self.level or len(strategy.coeffs) != len(self.particular):
            raise DimensionError("strategy does not match the family's shape")
        params = []
        worst = 0.0
        for Q, Q0 in zip(strategy.coeffs, self.particular):
            rhs = Q - Q0
            if self.null_basis.shape[1] == 0:
                T = np.zeros((0, rhs.shape[1]))
            else:
                T = np.linalg.lstsq(self.null_basis, rhs, rcond=None)[0]
            worst = max(worst, float(np.abs(self.null_basis @ T - rhs).max(initial=0.0)))
            params.append(T)
        return tuple(params), worst


def _stage_family(stage: GameProblem, d: DecisionPoint, s: int) -> StrategyFamily:
    """Family of optimal gains of cascade stage ``s`` at ``d``, labelled with level s.

    ``stage``'s top player is the one at level s.  The existence check's
    gradient g gives the rank-one particular member and, by Householder QR,
    an orthonormal basis of g_1's orthogonal complement; refusals, gains
    that overflow included, name the stage.
    """
    with stage_errors(s):
        verdict = leader_existence_check(stage, d)
        if not verdict.passed:
            raise ExistenceError("; ".join(verdict.reasons), verdict=verdict)
        g = verdict.gradient
        g1 = g.block(1)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            denom = float(g1 @ g1)
            particular = tuple(np.outer(g1, g.block(j)) / denom
                               for j in range(2, stage.levels + 1))
        if not all(np.isfinite(Q).all() for Q in particular):
            raise RevstackError("the rank-one deviation gains are not finite")
    if g1.size == 1:  # R^1 has no direction orthogonal to g_1
        return StrategyFamily(s, d, particular, np.zeros((1, 0)))
    Q_full, _ = np.linalg.qr(g1.reshape(-1, 1), mode="complete")
    return StrategyFamily(s, d, particular, Q_full[:, 1:])


def synthesize_single_leader(problem: GameProblem, d: DecisionPoint) -> AffineStrategy:
    """Minimum-norm (rank-one) top-level strategy: the stage-1 family's particular member."""
    return AffineStrategy(1, d, _stage_family(problem, d, 1).particular)


def synthesize_family_leader(problem: GameProblem, d: DecisionPoint) -> StrategyFamily:
    """Complete affine family of optimal top-level deviation gains (stage 1)."""
    return _stage_family(problem, d, 1)


def instantiate(family: StrategyFamily,
                params: Sequence[np.ndarray]) -> AffineStrategy:
    """Member of the family for the given parameter matrices (one per lower level)."""
    shapes = family.param_shapes
    if len(params) != len(shapes):
        raise DimensionError(
            "expected %d parameter matrices, got %d" % (len(shapes), len(params))
        )
    coeffs = []
    for T, shape, Q0 in zip(params, shapes, family.particular):
        T = np.asarray(T, dtype=float)
        if T.size == 0 and 0 in shape:
            T = T.reshape(shape)
        T = np.atleast_2d(T)
        if T.shape != shape:
            raise DimensionError(
                "parameter matrix has shape %s, expected %s" % (T.shape, shape)
            )
        coeffs.append(Q0 + family.null_basis @ T)
    return AffineStrategy(family.level, family.anchor, tuple(coeffs))


# ---------------------------------------------------------------------------
# reduction and the cascade
# ---------------------------------------------------------------------------

def reduce_problem(problem: GameProblem, strategy: AffineStrategy) -> GameProblem:
    """Substitute the top strategy and drop the top level.

    The strategy is the rule of the problem's top player, whatever absolute
    level it is labelled with (a cascade stage's game is the original game
    below that level); it must map every lower level of this problem.
    Each lower objective substitutes the rule itself (``substitute_top`` in
    ``model``: a quadratic by one congruence of H, an expression into its
    polynomial); constraint rows absorb the substitution as well.  The
    result has n-1 levels with level indices shifted down by one.  A
    substituted coefficient that overflows is refused with RevstackError.
    """
    if len(strategy.coeffs) != problem.levels - 1:
        raise DimensionError("strategy does not map all lower levels of this problem")
    if strategy.anchor.widths != problem.dims.m:
        raise DimensionError(
            "strategy anchored for widths %s, problem has %s"
            % (strategy.anchor.widths, problem.dims.m)
        )
    offset, C = strategy.as_affine()
    new_objectives = tuple(obj.substitute_top(offset, C) for obj in problem.objectives[1:])
    new_cons = None
    cons = problem.constraints
    if cons is not None:
        A_top = cons.A[0]
        with np.errstate(over="ignore", invalid="ignore"):  # refused by the constructor
            new_A = tuple(
                cons.A[m - 1] + A_top @ C[m - 2] for m in range(2, problem.levels + 1)
            )
            new_cons = LinearConstraints(new_A, cons.b - A_top @ offset)
    return GameProblem(problem.dims.drop_top(), new_objectives, new_cons)


def _look_ahead(stage: GameProblem, family: StrategyFamily,
                failure: ExistenceError) -> Tuple[np.ndarray, ...]:
    """Parameters T of stage s's member that leaves stage s+1 its gradient block.

    Substituting a member adds -Q_{s+1}^T h to stage s+1's existence block
    (``failure`` under the particular member), h being level s+2's gradient
    in u_s at d.  N is orthogonal to g_1 (level s+1's gradient in u_s) and
    Q^0 parallel to it, so |Q|^2 = |Q^0|^2 + |T|^2, and the least-norm member
    with h^T Q_{s+1} = 0 has T_{s+1} = -v (h^T Q^0_{s+1}) / (v^T v), v = N^T h;
    every other T_j is zero.  When h is parallel to g_1, every member adds
    the same term, and ``failure`` is re-raised saying so.
    """
    s, d = family.level, family.anchor
    with stage_errors(s):
        g1 = gradient(stage.objective(2), d).block(1)
        h = gradient(stage.objective(3), d).block(1)
    if not np.isfinite(h).all():
        raise failure
    # neither the rank test nor T changes when g1 or h is scaled; a power of
    # two scales exactly and keeps v^T v inside the double range
    g1, h = (np.ldexp(x, -np.frexp(np.abs(x).max())[1]) for x in (g1, h))
    if np.linalg.matrix_rank(np.column_stack([g1, h])) < 2:
        raise ExistenceError(
            "%s; every member of stage %d's family gives this block, since level %d's "
            "gradient in u%d is parallel to level %d's: no rule there avoids it"
            % (failure, s, s + 2, s, s + 1),
            verdict=failure.verdict, level=failure.level)
    v = family.null_basis.T @ h
    params = [np.zeros(shape) for shape in family.param_shapes]
    with np.errstate(over="ignore", invalid="ignore"):  # reduce_problem refuses the member
        params[0] = -np.outer(v, h @ family.particular[0]) / (v @ v)
    return tuple(params)


def synthesize_cascade(problem: GameProblem,
                       desired: DecisionPoint) -> List[AffineStrategy]:
    """Top-to-bottom synthesis: one strategy per announcing level.

    Stage s's family is anchored at ``desired.tail(s)``.  The stage announces
    its particular (rank-one) member, or ``instantiate(family, T)`` once
    :func:`_look_ahead` has picked T because the next stage's existence check
    failed under the particular member.  Substituting the announced rule
    gives the next stage's game.  Existence failures carry the absolute level
    at which they occurred, and a reduction whose coefficients overflow is
    refused naming its stage.
    """
    strategies: List[AffineStrategy] = []
    stage, family, params = problem, _stage_family(problem, desired, 1), None
    while True:
        s = family.level + 1  # the stage left once this rule is substituted
        rule = (AffineStrategy(family.level, family.anchor, family.particular)
                if params is None else instantiate(family, params))
        if s == problem.levels:
            return strategies + [rule]
        with stage_errors(s):  # a substituted coefficient may overflow
            below = reduce_problem(stage, rule)
        try:
            below_family = _stage_family(below, desired.tail(s), s)
        except ExistenceError as err:
            if params is not None or err.verdict is None:
                raise
            params = _look_ahead(stage, family, err)
            continue
        strategies.append(rule)
        stage, family, params = below, below_family, None
