"""Problem data model for multilevel hierarchical games.

A game has n >= 2 levels; the player at level 1 (the leader) announces first,
the player at level n moves last.  Each player i owns a real decision block
u^i of width m_i and a scalar cost J_i over the joint decision.  Costs come
in two flavours:

* :class:`QuadraticObjective` — block form
  ``sum_{j<=k} <u^j, A[j,k] u^k> + sum_k <u^k, l[k]> + const``
  with upper-triangular block storage,
* :class:`ExprObjective` — an explicit expression tree over the scalar
  decision variables (sums, products, integer powers, negation).

Evaluation works on single decision points and, for the brute-force checks
elsewhere in the package, on stacked batches of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionError

__all__ = [
    "Dims",
    "DecisionPoint",
    "split_blocks",
    "Constant",
    "Var",
    "Sum",
    "Product",
    "Power",
    "Negate",
    "Node",
    "QuadraticObjective",
    "ExprObjective",
    "Objective",
    "LinearConstraints",
    "GameProblem",
    "evaluate",
    "evaluate_many",
    "validate",
    "quadratic_to_expr",
    "Diagnostic",
    "ValidationReport",
]

# Symmetry / agreement tolerance used by validation and conversions.
SYMMETRY_TOL = 1e-12


# ---------------------------------------------------------------------------
# shapes and points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dims:
    """Hierarchy shape: ``levels`` players with block widths ``m``."""

    levels: int
    m: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(w) for w in self.m))
        if self.levels != len(self.m):
            raise DimensionError(
                "levels=%d but %d block widths given" % (self.levels, len(self.m))
            )
        if self.levels < 2:
            raise DimensionError("a hierarchical game needs at least 2 levels")
        if any(w < 1 for w in self.m):
            raise DimensionError("every block width must be >= 1")

    @classmethod
    def of(cls, *m: int) -> "Dims":
        return cls(len(m), tuple(m))

    @property
    def total(self) -> int:
        return sum(self.m)

    def drop_top(self) -> "Dims":
        """Shape of the game after the top level has been substituted out."""
        return Dims(self.levels - 1, self.m[1:])


def split_blocks(widths: Sequence[int], X) -> List[np.ndarray]:
    """Views of ``X`` with its last axis cut into consecutive blocks of ``widths``."""
    X = np.asarray(X)
    if X.shape[-1:] != (sum(widths),):
        raise DimensionError(
            "last axis of shape %s does not split into widths %s" % (X.shape, tuple(widths))
        )
    out, at = [], 0
    for w in widths:
        out.append(X[..., at : at + w])
        at += w
    return out


def _as_block(x) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise DimensionError("decision blocks must be vectors, got shape %s" % (arr.shape,))
    return arr


@dataclass(frozen=True, eq=False)
class DecisionPoint:
    """A joint decision: one real vector per level (scalars are 1-vectors)."""

    blocks: Tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(_as_block(b) for b in self.blocks))

    @classmethod
    def of(cls, *blocks) -> "DecisionPoint":
        return cls(tuple(blocks))

    @classmethod
    def from_concat(cls, widths: Sequence[int], vec) -> "DecisionPoint":
        return cls(tuple(split_blocks(widths, np.asarray(vec, dtype=float).ravel())))

    @property
    def levels(self) -> int:
        return len(self.blocks)

    @property
    def widths(self) -> Tuple[int, ...]:
        return tuple(b.size for b in self.blocks)

    def block(self, level: int) -> np.ndarray:
        """1-based access to the block of ``level``."""
        return self.blocks[level - 1]

    def concat(self) -> np.ndarray:
        return np.concatenate(self.blocks)

    def tail(self, start_level: int) -> "DecisionPoint":
        """The sub-point for levels ``start_level..n`` (1-based)."""
        if not 1 <= start_level <= len(self.blocks):
            raise DimensionError("tail start %d out of range" % start_level)
        return DecisionPoint(self.blocks[start_level - 1 :])

    def __repr__(self):
        inner = ", ".join(np.array2string(b, precision=6) for b in self.blocks)
        return "DecisionPoint(%s)" % inner


def check_point(dims: Dims, point: DecisionPoint, what: str = "point") -> None:
    if point.widths != dims.m:
        raise DimensionError(
            "%s has block widths %s, expected %s" % (what, point.widths, dims.m)
        )


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------

class Node:
    """Base class for expression-tree nodes.  Nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(Node):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Var(Node):
    """The ``index``-th scalar of level ``level`` (both 1-based)."""

    level: int
    index: int = 1


@dataclass(frozen=True)
class Sum(Node):
    terms: Tuple[Node, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class Product(Node):
    factors: Tuple[Node, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class Power(Node):
    base: Node
    exponent: int

    def __post_init__(self):
        exp = self.exponent
        if not isinstance(exp, (int, np.integer)) or isinstance(exp, bool) or exp < 1:
            raise DimensionError("Power exponent must be a positive integer, got %r" % (exp,))
        object.__setattr__(self, "exponent", int(exp))


@dataclass(frozen=True)
class Negate(Node):
    child: Node


def eval_node(node: Node, blocks: Sequence[np.ndarray]):
    """Evaluate a node given per-level blocks.

    Blocks may be plain vectors ``(m,)`` or batches ``(P, m)``; the result is
    a scalar or a ``(P,)`` array accordingly.
    """
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Var):
        try:
            return blocks[node.level - 1][..., node.index - 1]
        except IndexError:
            raise DimensionError(
                "variable u%d_%d is outside the hierarchy" % (node.level, node.index)
            ) from None
    if isinstance(node, Sum):
        total = 0.0
        for t in node.terms:
            total = total + eval_node(t, blocks)
        return total
    if isinstance(node, Product):
        out = 1.0
        for f in node.factors:
            out = out * eval_node(f, blocks)
        return out
    if isinstance(node, Power):
        return eval_node(node.base, blocks) ** node.exponent
    if isinstance(node, Negate):
        return -eval_node(node.child, blocks)
    raise TypeError("not an expression node: %r" % (node,))


def expr_variables(node: Node) -> set:
    """All (level, index) pairs referenced by the tree."""
    out = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.add((cur.level, cur.index))
        elif isinstance(cur, Sum):
            stack.extend(cur.terms)
        elif isinstance(cur, Product):
            stack.extend(cur.factors)
        elif isinstance(cur, Power):
            stack.append(cur.base)
        elif isinstance(cur, Negate):
            stack.append(cur.child)
    return out


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def _as_matrix(x) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(x, dtype=float))
    if arr.ndim != 2:
        raise DimensionError("coefficient blocks must be matrices, got shape %s" % (arr.shape,))
    return arr


@dataclass(frozen=True, eq=False)
class QuadraticObjective:
    """Block quadratic cost with upper-triangular storage.

    ``A`` maps 1-based pairs ``(j, k)`` with ``j <= k`` to an ``m_j x m_k``
    matrix; ``l`` holds one linear vector per level; ``const`` is an additive
    constant (irrelevant to gradients, kept so affine substitution preserves
    values exactly).  Diagonal blocks are symmetrized on construction, which
    leaves the quadratic form unchanged.
    """

    A: Dict[Tuple[int, int], np.ndarray]
    l: Tuple[np.ndarray, ...]
    const: float = 0.0

    def __post_init__(self):
        blocks = {}
        for key, mat in self.A.items():
            j, k = int(key[0]), int(key[1])
            if j < 1 or k < 1:
                raise DimensionError("quadratic block keys are 1-based, got %r" % (key,))
            if j > k:
                raise DimensionError(
                    "quadratic blocks are stored upper-triangular; "
                    "got key (%d, %d) — use (%d, %d) transposed" % (j, k, k, j)
                )
            mat = _as_matrix(mat)
            if j == k:
                mat = 0.5 * (mat + mat.T)
            blocks[(j, k)] = mat
        object.__setattr__(self, "A", blocks)
        object.__setattr__(self, "l", tuple(_as_block(v) for v in self.l))
        object.__setattr__(self, "const", float(self.const))

    @classmethod
    def build(cls, dims: Dims, A: Dict[Tuple[int, int], np.ndarray],
              l=None, const: float = 0.0) -> "QuadraticObjective":
        """Convenience constructor: missing linear parts default to zero.

        ``l`` is either a sequence with one vector per level or a sparse
        ``{level: vector}`` dict (1-based).
        """
        lin = [np.zeros(w) for w in dims.m]
        if isinstance(l, dict):
            for lev, vec in l.items():
                lin[lev - 1] = _as_block(vec)
        elif l is not None:
            if len(l) != dims.levels:
                raise DimensionError(
                    "expected %d linear segments, got %d" % (dims.levels, len(l)))
            lin = [_as_block(v) for v in l]
        return cls(A=dict(A), l=tuple(lin), const=const)

    @property
    def levels(self) -> int:
        return len(self.l)

    def flat(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(H, l)`` over the concatenated decision x: ``x'Hx/2 + l'x + const``."""
        widths = [v.size for v in self.l]
        H = np.zeros((sum(widths), sum(widths)))
        cells = _cells(widths, H)
        for (j, k), A in self.A.items():
            if j == k:
                cells[j - 1][j - 1][...] = 2.0 * A
            else:
                cells[j - 1][k - 1][...] = A
                cells[k - 1][j - 1][...] = A.T
        return H, np.concatenate(self.l)

    @classmethod
    def from_flat(cls, H, l, const: float,
                  widths: Sequence[int]) -> "QuadraticObjective":
        """Inverse of :meth:`flat`: ``A_jj = H_jj / 2`` and ``A_jk = H_jk`` for j < k."""
        cells = _cells(widths, np.asarray(H, dtype=float))
        n = len(widths)
        A = {(j + 1, k + 1): 0.5 * cells[j][j] if j == k else cells[j][k]
             for j in range(n) for k in range(j, n)}
        return cls(A=A, l=tuple(split_blocks(widths, np.asarray(l, dtype=float))),
                   const=const)


def _cells(widths: Sequence[int], M: np.ndarray) -> List[List[np.ndarray]]:
    """Views ``cells[j][k]`` of the (j, k) block of a square matrix over the blocks."""
    return [split_blocks(widths, rows.T) for rows in split_blocks(widths, M.T)]


@dataclass(frozen=True, eq=False)
class ExprObjective:
    """Cost given as an explicit expression tree."""

    root: Node

    def __post_init__(self):
        if not isinstance(self.root, Node):
            raise TypeError("ExprObjective wants a Node, got %r" % (self.root,))


Objective = Union[QuadraticObjective, ExprObjective]


def _eval_quadratic(obj: QuadraticObjective, blocks: Sequence[np.ndarray]):
    total = np.asarray(obj.const, dtype=float)
    for (j, k), A in obj.A.items():
        uj = blocks[j - 1]
        uk = blocks[k - 1]
        total = total + np.einsum("...i,ij,...j->...", uj, A, uk)
    for idx, lk in enumerate(obj.l):
        if lk.size and np.any(lk):
            total = total + np.einsum("...i,i->...", blocks[idx], lk)
    return total


def evaluate_many(obj: Objective, blocks: Sequence[np.ndarray]):
    """Evaluate at stacked points: each block shaped ``(..., m_level)``."""
    if isinstance(obj, QuadraticObjective):
        return _eval_quadratic(obj, blocks)
    if isinstance(obj, ExprObjective):
        return eval_node(obj.root, blocks)
    raise TypeError("not an objective: %r" % (obj,))


def evaluate(obj: Objective, point: DecisionPoint) -> float:
    """Cost of ``obj`` at a single decision point."""
    return float(evaluate_many(obj, point.blocks))


# ---------------------------------------------------------------------------
# constraints and the assembled problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinearConstraints:
    """Joint rows ``sum_level A[level] @ u^level <= b`` (k rows)."""

    A: Tuple[np.ndarray, ...]
    b: np.ndarray

    def __post_init__(self):
        mats = tuple(_as_matrix(m) for m in self.A)
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "A", mats)
        object.__setattr__(self, "b", b)

    @property
    def k(self) -> int:
        return self.b.size

    def residual(self, point: DecisionPoint) -> np.ndarray:
        """Row values minus b: feasible points have residual <= 0."""
        out = -self.b.copy()
        for mat, block in zip(self.A, point.blocks):
            out += mat @ block
        return out


@dataclass(frozen=True, eq=False)
class GameProblem:
    """An n-level game: shape, one objective per level, optional constraints."""

    dims: Dims
    objectives: Tuple[Objective, ...]
    constraints: Optional[LinearConstraints] = None

    def __post_init__(self):
        object.__setattr__(self, "objectives", tuple(self.objectives))
        if len(self.objectives) != self.dims.levels:
            raise DimensionError(
                "%d objectives for %d levels" % (len(self.objectives), self.dims.levels)
            )

    @property
    def levels(self) -> int:
        return self.dims.levels

    def objective(self, level: int) -> Objective:
        """1-based accessor; level 1 is the leader."""
        return self.objectives[level - 1]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class Diagnostic:
    severity: str  # "error" | "warning" | "info"
    message: str
    where: str = ""


@dataclass
class ValidationReport:
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def add(self, severity: str, message: str, where: str = "") -> None:
        self.diagnostics.append(Diagnostic(severity, message, where))


def _is_pd(mat: np.ndarray) -> bool:
    if mat.size == 0 or mat.shape[0] != mat.shape[1]:
        return False
    try:
        np.linalg.cholesky(mat)
        return True
    except np.linalg.LinAlgError:
        return False


def _validate_quadratic(report: ValidationReport, dims: Dims,
                        obj: QuadraticObjective, where: str) -> None:
    n = dims.levels
    if len(obj.l) != n:
        report.add("error", "expected %d linear vectors, got %d" % (n, len(obj.l)), where)
    else:
        for k, vec in enumerate(obj.l, start=1):
            if vec.size != dims.m[k - 1]:
                report.add(
                    "error",
                    "linear vector for level %d has length %d, expected %d"
                    % (k, vec.size, dims.m[k - 1]),
                    where,
                )
    for (j, k), mat in sorted(obj.A.items()):
        if k > n:
            report.add("error", "block (%d,%d) refers to level beyond %d" % (j, k, n), where)
            continue
        want = (dims.m[j - 1], dims.m[k - 1])
        if mat.shape != want:
            report.add(
                "error",
                "block (%d,%d) has shape %s, expected %s" % (j, k, mat.shape, want),
                where,
            )
            continue
        if j == k:
            scale = 1.0 + float(np.abs(mat).max(initial=0.0))
            if np.abs(mat - mat.T).max(initial=0.0) > SYMMETRY_TOL * scale:
                report.add("error", "diagonal block (%d,%d) is not symmetric" % (j, k), where)
            elif not _is_pd(mat):
                report.add("info", "diagonal block (%d,%d) is not positive definite" % (j, k), where)


def _validate_expr(report: ValidationReport, dims: Dims,
                   obj: ExprObjective, where: str) -> None:
    for lev, idx in sorted(expr_variables(obj.root)):
        if not 1 <= lev <= dims.levels:
            report.add("error", "variable u%d_%d: no level %d" % (lev, idx, lev), where)
        elif not 1 <= idx <= dims.m[lev - 1]:
            report.add(
                "error",
                "variable u%d_%d: level %d has width %d" % (lev, idx, lev, dims.m[lev - 1]),
                where,
            )


def validate(problem: GameProblem) -> ValidationReport:
    """Shape-check a problem and report structural findings.

    Errors mean the problem cannot be used; warnings/info are advisory
    (definiteness of diagonal blocks, cross-term structure).  Never raises.
    """
    report = ValidationReport()
    dims = problem.dims
    for i, obj in enumerate(problem.objectives, start=1):
        where = "objective %d" % i
        if isinstance(obj, QuadraticObjective):
            _validate_quadratic(report, dims, obj, where)
            # Structured-game shape note: a cross block whose trailing index
            # is the owner's own level is legal but worth surfacing.
            for (j, k) in sorted(obj.A):
                if j != k and k == i and np.any(obj.A[(j, k)]):
                    report.add(
                        "info",
                        "cross block (%d,%d) couples the owner's own block as trailing index"
                        % (j, k),
                        where,
                    )
        elif isinstance(obj, ExprObjective):
            _validate_expr(report, dims, obj, where)
        else:
            report.add("error", "unsupported objective type %r" % type(obj).__name__, where)
    cons = problem.constraints
    if cons is not None:
        where = "constraints"
        if len(cons.A) != dims.levels:
            report.add(
                "error",
                "expected %d per-level matrices, got %d" % (dims.levels, len(cons.A)),
                where,
            )
        else:
            for lev, mat in enumerate(cons.A, start=1):
                if mat.shape != (cons.k, dims.m[lev - 1]):
                    report.add(
                        "error",
                        "level-%d matrix has shape %s, expected (%d, %d)"
                        % (lev, mat.shape, cons.k, dims.m[lev - 1]),
                        where,
                    )
    return report


# ---------------------------------------------------------------------------
# conversion
# ---------------------------------------------------------------------------

def quadratic_to_expr(obj: QuadraticObjective) -> ExprObjective:
    """Expand a block quadratic into an equivalent expression tree.

    The expansion is bilinear term by term; agreement with the quadratic
    evaluation is exact up to floating-point roundoff.
    """
    terms: List[Node] = []

    def monomial(coef: float, *vars_: Node) -> None:
        if coef == 0.0:
            return
        # collapse repeated variables into squares for readability
        factors: List[Node] = [] if coef == 1.0 else [Constant(coef)]
        i = 0
        vs = list(vars_)
        while i < len(vs):
            if i + 1 < len(vs) and vs[i] == vs[i + 1]:
                factors.append(Power(vs[i], 2))
                i += 2
            else:
                factors.append(vs[i])
                i += 1
        if not factors:
            terms.append(Constant(coef))
        elif len(factors) == 1:
            terms.append(factors[0])
        else:
            terms.append(Product(tuple(factors)))

    for (j, k), mat in sorted(obj.A.items()):
        rows, cols = mat.shape
        for r in range(rows):
            for c in range(cols):
                monomial(float(mat[r, c]), Var(j, r + 1), Var(k, c + 1))
    for lev, vec in enumerate(obj.l, start=1):
        for i in range(vec.size):
            monomial(float(vec[i]), Var(lev, i + 1))
    if obj.const != 0.0:
        terms.append(Constant(obj.const))
    if not terms:
        return ExprObjective(Constant(0.0))
    if len(terms) == 1:
        return ExprObjective(terms[0])
    return ExprObjective(Sum(tuple(terms)))
