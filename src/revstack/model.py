"""Problem data model for multilevel hierarchical games.

A game has n >= 2 levels; the player at level 1 (the leader) announces first,
the player at level n moves last.  Each player i owns a real decision block
u^i of width m_i and a scalar cost J_i over the joint decision.  Costs come
in two flavours:

* :class:`QuadraticObjective` — block form
  ``sum_{j<=k} <u^j, A[j,k] u^k> + sum_k <u^k, l[k]> + const``
  with upper-triangular block storage,
* :class:`ExprObjective` — a formula over the scalar decision variables
  (sums, products, positive integer powers, negation), compiled once into a
  sparse :class:`Polynomial` that evaluates and differentiates it.

Evaluation works on single decision points and, for the brute-force checks
elsewhere in the package, on stacked batches of points.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionError, FormulaError, RevstackError

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
    "Polynomial",
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


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------

# Monomials that one product or sum may build before like terms are merged.
_MAX_MONOMIALS = 100_000
_TOO_LARGE = "polynomial expansion exceeds %d monomials" % _MAX_MONOMIALS


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Sparse polynomial ``sum_m c[m] * prod_v x_v ** E[m, v]``.

    Column v of the integer exponent matrix ``E`` (M, V) is the scalar
    ``keys[v] = (level, index)``.  Keys are sorted, rows distinct and sorted,
    coefficients nonzero and finite.  Arithmetic raises RevstackError on a
    non-finite coefficient, an exponent past int64, or a step building more
    than ``_MAX_MONOMIALS`` monomials.
    """

    keys: Tuple[Tuple[int, int], ...]
    E: np.ndarray
    c: np.ndarray

    @classmethod
    def from_terms(cls, keys, E, c) -> "Polynomial":
        """Sum of the terms ``c[m] * x ** E[m]`` over sorted ``keys``, like monomials merged."""
        if len(c) > _MAX_MONOMIALS:
            raise RevstackError(_TOO_LARGE)
        merged: Dict[Tuple[int, ...], float] = {}
        rows = np.asarray(E, dtype=np.int64).reshape(len(c), len(keys)).tolist()
        for row, coef in zip(map(tuple, rows), np.asarray(c, dtype=float).tolist()):
            merged[row] = merged.get(row, 0.0) + coef
        if not all(map(math.isfinite, merged.values())):
            raise RevstackError("polynomial coefficient is not finite")
        order = sorted(row for row, coef in merged.items() if coef != 0.0)
        return cls(tuple(keys), np.array(order, dtype=np.int64).reshape(len(order), len(keys)),
                   np.array([merged[row] for row in order], dtype=float))

    @classmethod
    def constant(cls, value: float) -> "Polynomial":
        return cls.from_terms((), np.zeros((1, 0)), [value])

    @staticmethod
    def total(polys: Sequence["Polynomial"]) -> "Polynomial":
        keys = tuple(sorted(set().union(*(p.keys for p in polys))))
        return Polynomial.from_terms(keys, np.vstack([p._widened(keys) for p in polys]),
                                     np.concatenate([p.c for p in polys]))

    def _widened(self, keys: Tuple[Tuple[int, int], ...]) -> np.ndarray:
        """``E`` with one column per key of the sorted superset ``keys``."""
        if keys == self.keys:
            return self.E
        at = {key: v for v, key in enumerate(keys)}
        out = np.zeros((self.E.shape[0], len(keys)), dtype=np.int64)
        out[:, [at[key] for key in self.keys]] = self.E
        return out

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.c.size * other.c.size > _MAX_MONOMIALS:
            raise RevstackError(_TOO_LARGE)
        keys = tuple(sorted(set(self.keys) | set(other.keys)))
        E = (self._widened(keys)[:, None, :] + other._widened(keys)[None, :, :]
             ).reshape(self.c.size * other.c.size, len(keys))
        if (E < 0).any():  # a sum of exponents wrapped past int64
            raise RevstackError("polynomial exponent overflows")
        with np.errstate(over="ignore"):
            c = np.outer(self.c, other.c).ravel()
        return Polynomial.from_terms(keys, E, c)

    def __pow__(self, k: int) -> "Polynomial":
        """``self ** k`` for an integer k >= 0, by repeated squaring."""
        result, base = Polynomial.constant(1.0), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    @cached_property
    def _terms(self) -> List[Tuple[float, Tuple[Tuple[int, int], ...]]]:
        """Per monomial, its coefficient and its (column, exponent) factors."""
        return [(coef, tuple((v, e) for v, e in enumerate(row) if e))
                for coef, row in zip(self.c.tolist(), self.E.tolist())]

    def __call__(self, blocks: Sequence[np.ndarray]):
        """Values at stacked points, each block shaped ``(..., m_level)``.

        One pass over the monomials: every temporary has the shape of one
        batch, so P points never build a (P, M, V) array.
        """
        cols = []
        for level, index in self.keys:
            if not (1 <= level <= len(blocks)
                    and 1 <= index <= np.shape(blocks[level - 1])[-1]):
                raise DimensionError(
                    "variable u%d_%d is outside the hierarchy" % (level, index))
            cols.append(blocks[level - 1][..., index - 1])
        total = 0.0
        for coef, factors in self._terms:
            term = coef
            for v, e in factors:
                term = term * (cols[v] if e == 1 else cols[v] ** e)
            total = total + term
        shape = np.broadcast_shapes(*(np.shape(b)[:-1] for b in blocks))
        return total if np.shape(total) == shape else np.full(shape, total)

    def derivative(self, v: int) -> "Polynomial":
        """Partial derivative along column ``v``, by exponent shifting."""
        e = self.E[:, v]
        E = self.E[e > 0]
        E[:, v] -= 1
        with np.errstate(over="ignore"):
            return Polynomial.from_terms(self.keys, E, self.c[e > 0] * e[e > 0])

    @cached_property
    def derivatives(self) -> Tuple[List["Polynomial"], Dict[Tuple[int, int], "Polynomial"]]:
        """First partials by column, and second partials by columns a <= b; built once."""
        first = [self.derivative(v) for v in range(len(self.keys))]
        V = len(first)
        return first, {(a, b): first[a].derivative(b) for a in range(V) for b in range(a, V)}

    def substitute_top(self, offset: np.ndarray, C: Sequence[np.ndarray]) -> "Polynomial":
        """Put ``offset[i] + sum_j C[j][i] @ u^(j+2)`` for each level-1 scalar i,
        then renumber every level down by one."""
        lower = [(j + 1, col + 1) for j, M in enumerate(C) for col in range(M.shape[1])]
        rule_E = np.vstack([np.zeros((1, len(lower))), np.eye(len(lower))])
        # level 1 is level 0 until it is substituted; the key order is kept
        poly = Polynomial(tuple((lev - 1, idx) for lev, idx in self.keys), self.E, self.c)
        for i in range(offset.size):
            if (0, i + 1) in poly.keys:
                rule = Polynomial.from_terms(
                    lower, rule_E, np.concatenate([[offset[i]]] + [M[i] for M in C]))
                # split by the power k of the substituted scalar: sum_k rest_k * rule^k
                v = poly.keys.index((0, i + 1))
                e, rest = poly.E[:, v], np.delete(poly.E, v, 1)
                keys = poly.keys[:v] + poly.keys[v + 1:]
                poly = Polynomial.total([
                    Polynomial.from_terms(keys, rest[e == k], poly.c[e == k]) * rule ** k
                    for k in sorted(set(e.tolist()))])
        return poly

    def to_node(self) -> Node:
        """A formula tree of this polynomial: one signed monomial per term."""
        terms: List[Node] = []
        for coef, factors in self._terms:
            nodes: List[Node] = [Constant(abs(coef))] if abs(coef) != 1.0 or not factors else []
            nodes += [Var(*self.keys[v]) if e == 1 else Power(Var(*self.keys[v]), e)
                      for v, e in factors]
            term = nodes[0] if len(nodes) == 1 else Product(tuple(nodes))
            terms.append(Negate(term) if coef < 0 else term)
        return Sum(tuple(terms)) if len(terms) > 1 else (terms or [Constant(0.0)])[0]


def _compile(node: Node) -> Polynomial:
    """Expand a formula tree into its polynomial."""
    if isinstance(node, Constant):
        return Polynomial.constant(node.value)
    if isinstance(node, Var):
        return Polynomial(((node.level, node.index),), np.ones((1, 1), dtype=np.int64),
                          np.ones(1))
    if isinstance(node, Sum):
        return Polynomial.total([_compile(t) for t in node.terms])
    if isinstance(node, Product):
        return functools.reduce(operator.mul, [_compile(f) for f in node.factors])
    if isinstance(node, Power):
        return _compile(node.base) ** node.exponent
    if isinstance(node, Negate):
        child = _compile(node.child)
        return Polynomial(child.keys, child.E, -child.c)
    raise TypeError("not an expression node: %r" % (node,))


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


class ExprObjective:
    """Cost given by a formula, held as the polynomial ``poly`` it expands to.

    ``ExprObjective(root)`` compiles the tree once, raising FormulaError when
    the expansion is refused.  An objective from :meth:`from_polynomial`
    prints its ``root`` from ``poly`` when ``root`` is first read.
    """

    def __init__(self, root: Node):
        if not isinstance(root, Node):
            raise TypeError("ExprObjective wants a Node, got %r" % (root,))
        try:
            self.poly = _compile(root)
        except RevstackError as exc:
            raise FormulaError(str(exc)) from None
        self.root = root

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "ExprObjective":
        obj = cls.__new__(cls)
        obj.poly = poly
        return obj

    @cached_property
    def root(self) -> Node:
        return self.poly.to_node()


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
        return obj.poly(blocks)
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
    for lev, idx in obj.poly.keys:
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
    """The same cost as an expression: ``x'Hx/2 + l'x + const`` monomial by monomial."""
    H, l = obj.flat()
    keys = [(lev, i + 1) for lev, seg in enumerate(obj.l, start=1) for i in range(seg.size)]
    rows, cols = np.triu_indices(len(keys))
    eye = np.eye(len(keys), dtype=np.int64)
    E = np.vstack([eye[rows] + eye[cols], eye, np.zeros((1, len(keys)), dtype=np.int64)])
    c = np.concatenate([np.where(rows == cols, 0.5, 1.0) * H[rows, cols], l, [obj.const]])
    return ExprObjective.from_polynomial(Polynomial.from_terms(keys, E, c))
