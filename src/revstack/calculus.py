"""Gradients, Hessians, and convexity probes for game objectives.

Analytic derivatives: the flat view H x + l for quadratics, recursive symbolic
differentiation for expression trees.  A central finite-difference gradient
is kept alongside as an independent cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DimensionError
from .model import (
    Constant,
    DecisionPoint,
    ExprObjective,
    Negate,
    Node,
    Objective,
    Power,
    Product,
    QuadraticObjective,
    Sum,
    Var,
    eval_node,
    evaluate,
    split_blocks,
)

__all__ = [
    "BlockGradient",
    "gradient",
    "fd_gradient",
    "hessian",
    "strict_convexity_probe",
    "differentiate",
]

# Shift applied to the Hessian diagonal before the Cholesky attempt: the
# probe certifies a minimum eigenvalue strictly above this.
CONVEXITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BlockGradient:
    """Per-level gradient blocks of a scalar objective."""

    blocks: Tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple(np.atleast_1d(np.asarray(b, dtype=float)) for b in self.blocks)
        )

    def block(self, level: int) -> np.ndarray:
        """1-based accessor."""
        return self.blocks[level - 1]

    def concat(self) -> np.ndarray:
        return np.concatenate(self.blocks)

    def norm(self) -> float:
        return float(np.linalg.norm(self.concat()))

    def block_norm(self, level: int) -> float:
        return float(np.linalg.norm(self.blocks[level - 1]))


# ---------------------------------------------------------------------------
# symbolic differentiation of expression trees
# ---------------------------------------------------------------------------

_ZERO = Constant(0.0)


def _is_zero(node: Node) -> bool:
    return isinstance(node, Constant) and node.value == 0.0


def _is_one(node: Node) -> bool:
    return isinstance(node, Constant) and node.value == 1.0


def _sum(terms: List[Node]) -> Node:
    terms = [t for t in terms if not _is_zero(t)]
    if not terms:
        return _ZERO
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _product(factors: List[Node]) -> Node:
    if any(_is_zero(f) for f in factors):
        return _ZERO
    factors = [f for f in factors if not _is_one(f)]
    if not factors:
        return Constant(1.0)
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def differentiate(node: Node, level: int, index: int) -> Node:
    """Partial derivative of a tree w.r.t. the scalar u<level>_<index>.

    Returns a new tree; only trivial zero/one folding is applied (no
    symbolic simplification).
    """
    if isinstance(node, Constant):
        return _ZERO
    if isinstance(node, Var):
        return Constant(1.0) if (node.level, node.index) == (level, index) else _ZERO
    if isinstance(node, Sum):
        return _sum([differentiate(t, level, index) for t in node.terms])
    if isinstance(node, Negate):
        inner = differentiate(node.child, level, index)
        return _ZERO if _is_zero(inner) else Negate(inner)
    if isinstance(node, Product):
        pieces: List[Node] = []
        for i, f in enumerate(node.factors):
            df = differentiate(f, level, index)
            if _is_zero(df):
                continue
            rest = list(node.factors[:i]) + list(node.factors[i + 1 :])
            pieces.append(_product([df] + rest))
        return _sum(pieces)
    if isinstance(node, Power):
        db = differentiate(node.base, level, index)
        if _is_zero(db):
            return _ZERO
        p = node.exponent
        if p == 1:
            return db
        lowered: Node = node.base if p == 2 else Power(node.base, p - 1)
        return _product([Constant(float(p)), lowered, db])
    raise TypeError("not an expression node: %r" % (node,))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _expr_gradient(obj: ExprObjective, p: DecisionPoint) -> BlockGradient:
    out = []
    for lev, block in enumerate(p.blocks, start=1):
        g = np.empty(block.size)
        for i in range(block.size):
            g[i] = float(eval_node(differentiate(obj.root, lev, i + 1), p.blocks))
        out.append(g)
    return BlockGradient(tuple(out))


def gradient(obj: Objective, p: DecisionPoint) -> BlockGradient:
    """Analytic gradient of an objective at ``p``, split into level blocks."""
    if isinstance(obj, QuadraticObjective):
        if len(obj.l) != p.levels:
            raise DimensionError(
                "objective spans %d levels, point has %d" % (len(obj.l), p.levels)
            )
        H, l = obj.flat()
        return BlockGradient(tuple(split_blocks(p.widths, H @ p.concat() + l)))
    if isinstance(obj, ExprObjective):
        return _expr_gradient(obj, p)
    raise TypeError("not an objective: %r" % (obj,))


def fd_gradient(obj: Objective, p: DecisionPoint, h: float = 1e-6) -> BlockGradient:
    """Central finite differences with per-coordinate step ``h * (1 + |p_i|)``."""
    flat = p.concat()
    widths = p.widths
    g = np.empty(flat.size)
    for i in range(flat.size):
        step = h * (1.0 + abs(flat[i]))
        fwd = flat.copy()
        bwd = flat.copy()
        fwd[i] += step
        bwd[i] -= step
        f1 = evaluate(obj, DecisionPoint.from_concat(widths, fwd))
        f0 = evaluate(obj, DecisionPoint.from_concat(widths, bwd))
        g[i] = (f1 - f0) / (2.0 * step)
    return BlockGradient(tuple(DecisionPoint.from_concat(widths, g).blocks))


# ---------------------------------------------------------------------------
# Hessians and convexity
# ---------------------------------------------------------------------------

def hessian(obj: Objective, p: DecisionPoint) -> np.ndarray:
    """Full (symmetric) Hessian over the concatenated decision vector."""
    if isinstance(obj, QuadraticObjective):
        return obj.flat()[0]
    if isinstance(obj, ExprObjective):
        coords = [(lev, i + 1) for lev, b in enumerate(p.blocks, start=1) for i in range(b.size)]
        N = len(coords)
        H = np.empty((N, N))
        firsts = [differentiate(obj.root, lev, idx) for lev, idx in coords]
        for a in range(N):
            for b in range(a, N):
                lev, idx = coords[b]
                val = float(eval_node(differentiate(firsts[a], lev, idx), p.blocks))
                H[a, b] = val
                H[b, a] = val
        return H
    raise TypeError("not an objective: %r" % (obj,))


def strict_convexity_probe(obj: Objective, p: DecisionPoint,
                           tol: float = CONVEXITY_TOL) -> str:
    """'certified' iff the Hessian at ``p`` has minimum eigenvalue > tol.

    Implemented as an attempted Cholesky factorization of ``H - tol*I``;
    'not-certified' covers indefinite, semidefinite, and borderline cases.
    """
    H = hessian(obj, p)
    try:
        np.linalg.cholesky(H - tol * np.eye(H.shape[0]))
        return "certified"
    except np.linalg.LinAlgError:
        return "not-certified"
