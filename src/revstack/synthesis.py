"""Affine strategy construction for multilevel games.

A player at level L announces an affine map from every lower block into its
own block, stored in deviation form around the desired equilibrium d:

    u^L = d^L - sum_{j>L} Q_j (u^j - d^j)

so the realization condition (announcing at d returns d^L) holds by
construction.  The deviation gains Q_j come from the follower-objective
gradient at d: the rank-one choice Q_j = g_1 g_j^T / <g_1, g_1> places the
whole graph of the strategy inside the follower's supporting hyperplane,
and the full solution set is the rank-one particular solution plus an
orthonormal null-space basis of the leading gradient block times free
parameter matrices.  Substituting the top strategy into the remaining
objectives yields a game with one level fewer; iterating gives the n-level
cascade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .calculus import gradient
from .equilibrium import team_optimum
from .errors import DimensionError, ExistenceError, RevstackError
from .geometry import leader_existence_check
from .model import (
    DecisionPoint,
    ExprObjective,
    GameProblem,
    LinearConstraints,
    QuadraticObjective,
)

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
        return blocks

    def __call__(self, lower) -> np.ndarray:
        """Announced own block for the given lower-level blocks."""
        blocks = self._lower_blocks(lower)
        out = self.own_anchor.copy()
        for Q, xj, dj in zip(self.coeffs, blocks, self.anchor.blocks[1:]):
            out -= Q @ (xj - dj)
        return out

    def batch(self, lower: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized evaluation: lower blocks shaped (P, m_j) -> (P, m_own)."""
        P = lower[0].shape[0]
        out = np.tile(self.own_anchor, (P, 1))
        for Q, xj, dj in zip(self.coeffs, lower, self.anchor.blocks[1:]):
            out -= (xj - dj) @ Q.T
        return out

    def as_affine(self) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """Offset form: returns (offset, linear) with u^L = offset + sum C_j u^j."""
        offset = self.own_anchor.copy()
        linear = []
        for Q, dj in zip(self.coeffs, self.anchor.blocks[1:]):
            offset += Q @ dj
            linear.append(-Q)
        return offset, tuple(linear)

    @classmethod
    def from_affine(cls, level: int, offset, linear: Sequence[np.ndarray],
                    anchor_lower: DecisionPoint) -> "AffineStrategy":
        """Build from offset form, anchored at the given lower-level point.

        The strategy's own anchor block is its value at ``anchor_lower``, so
        a map that misses the desired point keeps its realization error.
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
            own += M @ dj
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


def synthesize_single_leader(problem: GameProblem, d: DecisionPoint) -> AffineStrategy:
    """Minimum-norm (rank-one) top-level strategy anchored at ``d``.

    Refuses with the failed verdict when the top player's gradient block of
    the second objective vanishes at the anchor.
    """
    verdict = leader_existence_check(problem, d)
    if not verdict.passed:
        raise ExistenceError(
            "; ".join(verdict.reasons) or "top-level existence condition failed",
            verdict=verdict,
            level=1,
        )
    g = gradient(problem.objective(2), d)
    g1 = g.block(1)
    denom = float(g1 @ g1)
    coeffs = tuple(
        np.outer(g1, g.block(j)) / denom for j in range(2, problem.levels + 1)
    )
    return AffineStrategy(1, d, coeffs)


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


def synthesize_family_leader(problem: GameProblem, d: DecisionPoint) -> StrategyFamily:
    """Complete affine family of optimal top-level deviation gains.

    The particular member is the rank-one strategy; the homogeneous part is
    spanned by an orthonormal basis of the hyperplane orthogonal to the top
    gradient block, obtained from a Householder QR factorization.
    """
    rank_one = synthesize_single_leader(problem, d)
    g = gradient(problem.objective(2), d)
    g1 = g.block(1)
    Q_full, _ = np.linalg.qr(g1.reshape(-1, 1), mode="complete")
    basis = Q_full[:, 1:]
    return StrategyFamily(1, d, rank_one.coeffs, basis)


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

def _substitute_quadratic(obj: QuadraticObjective, q: np.ndarray, P: np.ndarray,
                          widths: Sequence[int]) -> QuadraticObjective:
    """Congruence for x = q + P z: Hessian P'HP, linear P'(Hq + l), constant J(q).

    An overflow is refused by the constructor with RevstackError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        Hq = obj.H @ q
        return QuadraticObjective(P.T @ obj.H @ P, P.T @ (Hq + obj.l),
                                  0.5 * (q @ Hq) + obj.l @ q + obj.const, widths)


def reduce_problem(problem: GameProblem, strategy: AffineStrategy) -> GameProblem:
    """Substitute the top strategy and drop the top level.

    The strategy is the rule of the problem's top player, whatever absolute
    level it is labelled with (a cascade stage's game is the original game
    below that level); it must map every lower level of this problem.
    Quadratic objectives stay quadratic (one congruence of H);
    expression objectives substitute the rule into their polynomial and
    merge monomials; constraint rows absorb the substitution as well.  The
    result has n-1 levels with level indices shifted down by one.
    """
    if len(strategy.coeffs) != problem.levels - 1:
        raise DimensionError("strategy does not map all lower levels of this problem")
    if strategy.anchor.widths != problem.dims.m:
        raise DimensionError(
            "strategy anchored for widths %s, problem has %s"
            % (strategy.anchor.widths, problem.dims.m)
        )
    offset, C = strategy.as_affine()
    new_dims = problem.dims.drop_top()
    # the full decision is q + P z over the lower blocks z
    P = np.vstack([np.hstack(C), np.eye(new_dims.total)])
    q = np.concatenate([offset, np.zeros(new_dims.total)])
    new_objectives = []
    for obj in problem.objectives[1:]:
        if isinstance(obj, QuadraticObjective):
            new_objectives.append(_substitute_quadratic(obj, q, P, new_dims.m))
        else:
            new_objectives.append(
                ExprObjective.from_polynomial(obj.poly.substitute_top(offset, C)))
    new_cons = None
    cons = problem.constraints
    if cons is not None:
        A_top = cons.A[0]
        new_A = tuple(
            cons.A[m - 1] + A_top @ C[m - 2] for m in range(2, problem.levels + 1)
        )
        new_cons = LinearConstraints(new_A, cons.b - A_top @ offset)
    return GameProblem(new_dims, tuple(new_objectives), new_cons)


def synthesize_cascade(problem: GameProblem,
                       desired: Optional[DecisionPoint] = None) -> List[AffineStrategy]:
    """Top-to-bottom synthesis: one rank-one strategy per announcing level.

    Computes the desired equilibrium (unless supplied), synthesizes the top
    strategy, substitutes it to get the one-smaller game, and repeats.  Each
    stage anchors at the corresponding tail of the original desired point.
    Existence failures carry the absolute level at which they occurred, and
    a reduction whose coefficients overflow is refused naming its stage.
    """
    d = desired if desired is not None else team_optimum(problem).point
    strategies: List[AffineStrategy] = []
    stage = problem
    stage_d = d
    for s in range(1, problem.levels):
        if s > 1:
            try:
                stage = reduce_problem(stage, strategies[-1])
            except RevstackError as err:  # a substituted coefficient overflowed
                raise RevstackError("stage %d (announcing level %d): %s" % (s, s, err)) from None
            stage_d = stage_d.tail(2)
        try:
            top = synthesize_single_leader(stage, stage_d)
        except ExistenceError as err:
            raise ExistenceError(
                "stage %d (announcing level %d): %s" % (s, s, err),
                verdict=err.verdict,
                level=s,
            ) from None
        strategies.append(AffineStrategy(s, top.anchor, top.coeffs))
    return strategies
