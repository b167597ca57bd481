"""Problem data model for multilevel hierarchical games.

A game has n >= 2 levels; the player at level 1 (the leader) announces first,
the player at level n moves last.  Each player i owns a real decision block
u^i of width m_i and a scalar cost J_i over the joint decision.  Costs come
in two flavours:

* :class:`QuadraticObjective` — ``x'Hx/2 + l'x + const`` over the
  concatenated decision x, built from upper-triangular blocks,
* :class:`ExprObjective` — a formula over the scalar decision variables
  (sums, products, positive integer powers, negation), held as the sparse
  :class:`Polynomial` it expands to (int exponent rows, float
  coefficients), which evaluates, differentiates and substitutes it.

Each cost type owns its algebra, and no other module branches on the type
to do it: ``values`` at stacked points, ``gradient`` and ``hessian`` at a
point (for ``calculus``), ``term_scale`` for ``geometry``'s tolerance, and
``substitute_top`` for ``synthesis.reduce_problem``.  Evaluation works on
single decision points and, for the brute-force checks elsewhere in the
package, on stacked batches of points.  A :class:`GameProblem` refuses an
objective or constraint block that does not fit its hierarchy when it is
built, so code that takes a game need not check its shape again.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionError, RevstackError

__all__ = [
    "Dims",
    "DecisionPoint",
    "split_blocks",
    "Polynomial",
    "QuadraticObjective",
    "ExprObjective",
    "Objective",
    "LinearConstraints",
    "GameProblem",
    "evaluate",
    "evaluate_many",
]

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


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------

# Monomials that one product or sum may build before like terms are merged.
_MAX_MONOMIALS = 100_000
_TOO_LARGE = "polynomial expansion exceeds %d monomials" % _MAX_MONOMIALS
# Exponents are Python ints, which do not wrap; one past int64 is refused all the same.
_MAX_EXPONENT = 2 ** 63 - 1


def _merged(keys, rows: Sequence[Tuple[int, ...]], coefs: Sequence[float]) -> "Polynomial":
    """The terms ``coefs[m] * x ** rows[m]``, like rows summed in order of
    appearance from 0.0, zero sums dropped and rows sorted."""
    if len(coefs) > _MAX_MONOMIALS:
        raise RevstackError(_TOO_LARGE)
    merged: Dict[Tuple[int, ...], float] = {}
    for row, coef in zip(rows, coefs):
        merged[row] = merged.get(row, 0.0) + coef
    if not all(map(math.isfinite, merged.values())):
        raise RevstackError("polynomial coefficient is not finite")
    order = sorted(row for row, coef in merged.items() if coef != 0.0)
    return Polynomial(keys, order, [merged[row] for row in order])


def _on_keys(rows: Sequence[Tuple[int, ...]], keys, wider) -> Sequence[Tuple[int, ...]]:
    """Rows over ``keys`` rewritten over the sorted superset ``wider``."""
    if keys == wider:
        return rows
    # a key the rows lack reads the 0 padded after their last column
    pick = [keys.index(key) if key in keys else len(keys) for key in wider]
    return [tuple(map((row + (0,)).__getitem__, pick)) for row in rows]


def _sum(parts: Sequence["Polynomial"]) -> "Polynomial":
    """The terms of every part in turn, over the union of their keys, merged."""
    keys = tuple(sorted(set().union(*(p.keys for p in parts))))
    return _merged(keys, [row for p in parts for row in _on_keys(p.rows, p.keys, keys)],
                   [coef for p in parts for coef in p.coefs])


def _product(a: "Polynomial", b: "Polynomial") -> "Polynomial":
    """Every term of ``a`` times every term of ``b``, ``a``'s terms outermost."""
    if len(a.coefs) * len(b.coefs) > _MAX_MONOMIALS:
        raise RevstackError(_TOO_LARGE)
    keys = tuple(sorted(set(a.keys) | set(b.keys)))
    ra, rb = _on_keys(a.rows, a.keys, keys), _on_keys(b.rows, b.keys, keys)
    rows = [tuple(map(operator.add, x, y)) for x in ra for y in rb]
    if max(itertools.chain.from_iterable(rows), default=0) > _MAX_EXPONENT:
        raise RevstackError("polynomial exponent overflows")
    return _merged(keys, rows, [x * y for x in a.coefs for y in b.coefs])


def _power(a: "Polynomial", k: int) -> "Polynomial":
    """``a ** k`` for an integer k >= 0, by repeated squaring."""
    result, base = Polynomial((), [()], [1.0]), a
    while k:
        if k & 1:
            result = _product(result, base)
        k >>= 1
        if k:
            base = _product(base, base)
    return result


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Sparse polynomial ``sum_m coefs[m] * prod_v x_v ** rows[m][v]``.

    Position v of every exponent row is the scalar ``keys[v] = (level,
    index)``.  Keys are sorted; rows are distinct, sorted tuples of ints;
    coefficients are nonzero, finite floats.  Arithmetic builds each result
    in this form and raises RevstackError on a non-finite coefficient, an
    exponent past int64, or a step building more than ``_MAX_MONOMIALS``
    monomials.
    """

    keys: Tuple[Tuple[int, int], ...]
    rows: Sequence[Tuple[int, ...]]
    coefs: Sequence[float]

    @classmethod
    def from_terms(cls, keys, rows, coefs) -> "Polynomial":
        """Sum of the terms ``coefs[m] * x ** rows[m]`` over sorted ``keys``,
        like monomials merged; exponents become ints and coefficients floats."""
        return _merged(tuple(keys), [tuple(map(int, row)) for row in rows],
                       list(map(float, coefs)))

    @cached_property
    def _terms(self) -> List[Tuple[float, Tuple[Tuple[int, int], ...]]]:
        """Per monomial, its coefficient and its (position, exponent) factors."""
        return [(coef, tuple((v, e) for v, e in enumerate(row) if e))
                for coef, row in zip(self.coefs, self.rows)]

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
        """Partial derivative along position ``v``, by exponent shifting."""
        hit = [(row, coef) for row, coef in zip(self.rows, self.coefs) if row[v]]
        return _merged(self.keys, [row[:v] + (row[v] - 1,) + row[v + 1:] for row, _ in hit],
                       [coef * row[v] for row, coef in hit])

    @cached_property
    def derivatives(self) -> Tuple[List["Polynomial"], Dict[Tuple[int, int], "Polynomial"]]:
        """First partials by position, and second partials by positions a <= b; built once."""
        first = [self.derivative(v) for v in range(len(self.keys))]
        V = len(first)
        return first, {(a, b): first[a].derivative(b) for a in range(V) for b in range(a, V)}

    def substitute_top(self, offset: np.ndarray, C: Sequence[np.ndarray]) -> "Polynomial":
        """Put ``offset[i] + sum_j C[j][i] @ u^(j+2)`` for each level-1 scalar i,
        then renumber every level down by one."""
        lower = tuple((j + 1, col + 1) for j, M in enumerate(C) for col in range(M.shape[1]))
        rule_rows = [(0,) * len(lower)] + [tuple(int(a == b) for b in range(len(lower)))
                                           for a in range(len(lower))]
        # level 1 is level 0 until it is substituted; the key order is kept
        poly = Polynomial(tuple((lev - 1, idx) for lev, idx in self.keys), self.rows, self.coefs)
        for i in range(offset.size):
            keys, rows, coefs = poly.keys, poly.rows, poly.coefs
            if (0, i + 1) in keys:
                rule = _merged(lower, rule_rows,
                               np.concatenate([[offset[i]]] + [M[i] for M in C]).tolist())
                # split by the power k of the substituted scalar: sum_k rest_k * rule^k
                v = keys.index((0, i + 1))
                rest = keys[:v] + keys[v + 1:]
                poly = _sum([_product(
                    _merged(rest, [row[:v] + row[v + 1:] for row in rows if row[v] == k],
                            [coef for row, coef in zip(rows, coefs) if row[v] == k]),
                    _power(rule, k)) for k in sorted({row[v] for row in rows})])
        return poly


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
    """Quadratic cost ``x'Hx/2 + l'x + const`` over the concatenated decision x.

    ``widths`` cuts x into level blocks.  ``H`` is symmetrized on
    construction, which leaves the form unchanged; ``H`` and ``l`` are
    read-only.  ``const`` does not affect gradients but keeps values exact
    under affine substitution.  :meth:`build` takes the block form.  A
    coefficient that is not finite, or overflows in the symmetrization,
    raises RevstackError.
    """

    H: np.ndarray
    l: np.ndarray
    const: float
    widths: Tuple[int, ...]

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        H = np.asarray(self.H, dtype=float)
        l = np.array(self.l, dtype=float)
        if H.shape != (sum(widths),) * 2 or l.shape != (sum(widths),):
            raise DimensionError("H of shape %s and l of shape %s do not fit block widths %s"
                                 % (H.shape, l.shape, widths))
        with np.errstate(over="ignore", invalid="ignore"):
            H = 0.5 * (H + H.T)
        if not (np.isfinite(H).all() and np.isfinite(l).all() and math.isfinite(self.const)):
            raise RevstackError("quadratic coefficient is not finite")
        H.setflags(write=False)
        l.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "const", float(self.const))
        object.__setattr__(self, "widths", widths)

    @classmethod
    def build(cls, dims: Dims, A: Dict[Tuple[int, int], np.ndarray],
              l=None, const: float = 0.0) -> "QuadraticObjective":
        """Block-form constructor for
        ``sum_{j<=k} <u^j, A[j,k] u^k> + sum_k <u^k, l[k]> + const``.

        ``A`` maps 1-based pairs ``(j, k)`` with ``j <= k`` to ``m_j x m_k``
        matrices.  ``l`` is either a sequence with one vector per level or a
        sparse ``{level: vector}`` dict; missing parts default to zero.  Bad
        keys and shapes raise DimensionError.
        """
        # assembled in Python floats, whose sums round as numpy's do
        at = list(itertools.accumulate(dims.m, initial=0))
        H = [[0.0] * dims.total for _ in range(dims.total)]
        for key, mat in A.items():
            j, k = int(key[0]), int(key[1])
            if j < 1 or k < 1:
                raise DimensionError("quadratic block keys are 1-based, got %r" % (key,))
            if j > k:
                raise DimensionError(
                    "quadratic blocks are stored upper-triangular; "
                    "got key (%d, %d) — use (%d, %d) transposed" % (j, k, k, j)
                )
            if k > dims.levels:
                raise DimensionError(
                    "block (%d,%d) refers to level beyond %d" % (j, k, dims.levels))
            mat = _as_matrix(mat)
            want = (dims.m[j - 1], dims.m[k - 1])
            if mat.shape != want:
                raise DimensionError(
                    "block (%d,%d) has shape %s, expected %s" % (j, k, mat.shape, want))
            rows, r0, c0 = mat.tolist(), at[j - 1], at[k - 1]
            for r, row in enumerate(rows):
                for c, v in enumerate(row):
                    if j == k:  # an overflow is refused in __post_init__
                        H[r0 + r][r0 + c] = v + rows[c][r]
                    else:
                        H[r0 + r][c0 + c] = H[c0 + c][r0 + r] = v
        lin = [np.zeros(w) for w in dims.m]
        if isinstance(l, dict):
            for lev, vec in l.items():
                if not 1 <= lev <= dims.levels:
                    raise DimensionError("linear part for level %r is outside the hierarchy"
                                         % (lev,))
                lin[lev - 1] = _as_block(vec)
        elif l is not None:
            if len(l) != dims.levels:
                raise DimensionError(
                    "expected %d linear segments, got %d" % (dims.levels, len(l)))
            lin = [_as_block(v) for v in l]
        for lev, (vec, w) in enumerate(zip(lin, dims.m), start=1):
            if vec.size != w:
                raise DimensionError("linear vector for level %d has length %d, expected %d"
                                     % (lev, vec.size, w))
        return cls(np.array(H), np.concatenate(lin), const, dims.m)

    def check_dims(self, dims: Dims, level: int) -> None:
        """Raise DimensionError unless the block widths are ``dims``'s."""
        if self.widths != dims.m:
            raise DimensionError("objective %d has block widths %s, expected %s"
                                 % (level, self.widths, dims.m))

    def values(self, blocks: Sequence[np.ndarray]):
        """``x'Hx/2 + l'x + const`` at stacked points, coordinate by coordinate.

        From ``const + 0.0``, adds ``x_i * (H_ii/2 * x_i + sum_{j>i} H_ij * x_j
        + l_i)`` for each concatenated coordinate i in turn, every sum left to
        right by elementwise numpy operations on coordinate columns, into three
        buffers of the batch's shape.  A point's value is thus one fixed sequence
        of IEEE operations whatever its batch, position, memory layout or BLAS
        build; a zero value is +0.0.  One point (every block 1-D) runs that
        sequence in Python floats, which round alike, and gives a float.
        """
        widths = tuple(b.shape[-1] for b in blocks)
        if widths != self.widths:
            raise DimensionError("blocks of widths %s for an objective over widths %s"
                                 % (widths, self.widths))
        H, l = self.H.tolist(), self.l.tolist()
        if all(b.ndim == 1 for b in blocks):
            x = [v for b in blocks for v in np.asarray(b, dtype=float).tolist()]
            value = self.const + 0.0
            for i, xi in enumerate(x):
                inner = H[i][i] / 2 * xi
                for j in range(i + 1, len(x)):
                    inner += H[i][j] * x[j]
                inner += l[i]
                value += xi * inner
            return value
        x = [b[..., k] for b in blocks for k in range(b.shape[-1])]
        shapes = {c.shape for c in x}
        shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
        total, inner, term = np.full(shape, self.const + 0.0), np.empty(shape), np.empty(shape)
        for i, xi in enumerate(x):
            np.multiply(H[i][i] / 2, xi, out=inner)
            for j in range(i + 1, len(x)):
                inner += np.multiply(H[i][j], x[j], out=term)
            inner += l[i]
            total += np.multiply(xi, inner, out=inner)
        return total

    def gradient(self, p: DecisionPoint) -> DecisionPoint:
        """``H x + l`` at ``p``, split into level blocks."""
        if self.widths != p.widths:
            raise DimensionError(
                "objective has block widths %s, point has %s" % (self.widths, p.widths))
        return DecisionPoint.from_concat(p.widths, self.H @ p.concat() + self.l)

    def hessian(self, p: DecisionPoint) -> np.ndarray:
        """The stored, read-only ``H``, whatever the point."""
        return self.H

    def term_scale(self, p: DecisionPoint, level: int) -> float:
        """Norm of the absolute terms that sum to the gradient block of ``level`` at ``p``.

        A gradient entry is a sum of terms that may cancel, and its rounding
        error scales with their magnitudes, not with the other entries: for a
        quadratic ``|H||p| + |l|``, for a polynomial each partial derivative
        with absolute coefficients at ``|p|``.
        """
        terms = np.abs(self.H) @ np.abs(p.concat()) + np.abs(self.l)
        return float(np.linalg.norm(split_blocks(p.widths, terms)[level - 1]))

    def substitute_top(self, offset: np.ndarray, C: Sequence[np.ndarray]):
        """The cost over the lower blocks z once the top rule ``offset + sum_j C[j] z_j``
        is put in: for x = q + P z, Hessian P'HP, linear part P'(Hq + l) and
        constant J(q).  An overflow is refused by the constructor with RevstackError.
        """
        lower = self.widths[1:]
        P = np.vstack([np.hstack(C), np.eye(sum(lower))])
        q = np.concatenate([offset, np.zeros(sum(lower))])
        with np.errstate(over="ignore", invalid="ignore"):
            Hq = self.H @ q
            return QuadraticObjective(P.T @ self.H @ P, P.T @ (Hq + self.l),
                                      0.5 * (q @ Hq) + self.l @ q + self.const, lower)


class ExprObjective:
    """Cost given by a formula, held as the polynomial ``poly`` it expands to.

    ``formula.parse_formula`` reads formula text into that polynomial, and
    substituting a rule derives a new one.
    """

    def __init__(self, poly: Polynomial):
        if not isinstance(poly, Polynomial):
            raise TypeError("ExprObjective wants a Polynomial, got %r" % (poly,))
        self.poly = poly

    def check_dims(self, dims: Dims, level: int) -> None:
        """Raise DimensionError for a variable outside ``dims``."""
        for lev, idx in self.poly.keys:
            if not (1 <= lev <= dims.levels and 1 <= idx <= dims.m[lev - 1]):
                raise DimensionError("objective %d: variable u%d_%d is outside "
                                     "the hierarchy %s" % (level, lev, idx, dims.m))

    def values(self, blocks: Sequence[np.ndarray]):
        """The polynomial at stacked points."""
        return self.poly(blocks)

    def gradient(self, p: DecisionPoint) -> DecisionPoint:
        """Every first partial at ``p``, split into level blocks."""
        g = [np.zeros(b.size) for b in p.blocks]
        for (level, index), d in zip(self.poly.keys, self.poly.derivatives[0]):
            # evaluated first: a key outside p raises DimensionError
            g[level - 1][index - 1] = d(p.blocks)
        return DecisionPoint(tuple(g))

    def hessian(self, p: DecisionPoint) -> np.ndarray:
        """Every second partial at ``p``, over the concatenated decision."""
        keys, (_, second) = self.poly.keys, self.poly.derivatives
        values = {ab: d(p.blocks) for ab, d in second.items()}
        coords = [(lev, i + 1) for lev, b in enumerate(p.blocks, start=1) for i in range(b.size)]
        at = {key: k for k, key in enumerate(coords)}
        H = np.zeros((len(at), len(at)))
        for (a, b), value in values.items():
            H[at[keys[a]], at[keys[b]]] = H[at[keys[b]], at[keys[a]]] = value
        return H

    def term_scale(self, p: DecisionPoint, level: int) -> float:
        """As :meth:`QuadraticObjective.term_scale`, from the partials' absolute terms."""
        at = [np.abs(b) for b in p.blocks]
        terms = [Polynomial(d.keys, d.rows, list(map(abs, d.coefs)))(at)
                 for (lev, _), d in zip(self.poly.keys, self.poly.derivatives[0])
                 if lev == level]
        return float(np.linalg.norm(terms))

    def substitute_top(self, offset: np.ndarray, C: Sequence[np.ndarray]):
        """As :meth:`QuadraticObjective.substitute_top`, into the polynomial."""
        return ExprObjective(self.poly.substitute_top(offset, C))


Objective = Union[QuadraticObjective, ExprObjective]


def evaluate_many(obj: Objective, blocks: Sequence[np.ndarray]):
    """Evaluate at stacked points: each block shaped ``(..., m_level)``."""
    return obj.values(blocks)


def evaluate(obj: Objective, point: DecisionPoint) -> float:
    """Cost of ``obj`` at a single decision point."""
    return float(evaluate_many(obj, point.blocks))


# ---------------------------------------------------------------------------
# constraints and the assembled problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinearConstraints:
    """Joint rows ``sum_level A[level] @ u^level <= b`` (k rows).

    The blocks and ``b`` are read-only copies of the arrays given.  An entry
    that is not finite raises RevstackError.
    """

    A: Tuple[np.ndarray, ...]
    b: np.ndarray

    def __post_init__(self):
        mats = tuple(_as_matrix(m).copy() for m in self.A)
        b = np.atleast_1d(np.array(self.b, dtype=float))
        if not (np.isfinite(b).all() and all(np.isfinite(m).all() for m in mats)):
            raise RevstackError("constraint coefficient is not finite")
        for arr in mats + (b,):
            arr.setflags(write=False)
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
    """An n-level game: shape, one objective per level, optional constraints.

    Construction raises DimensionError for a quadratic over other block
    widths, an expression variable outside the hierarchy, or a constraint
    block not shaped ``(k, m_level)``; TypeError for a non-objective.
    """

    dims: Dims
    objectives: Tuple[Objective, ...]
    constraints: Optional[LinearConstraints] = None

    def __post_init__(self):
        object.__setattr__(self, "objectives", tuple(self.objectives))
        dims = self.dims
        if len(self.objectives) != dims.levels:
            raise DimensionError(
                "%d objectives for %d levels" % (len(self.objectives), dims.levels)
            )
        for i, obj in enumerate(self.objectives, start=1):
            if not isinstance(obj, (QuadraticObjective, ExprObjective)):
                raise TypeError("not an objective: %r" % (obj,))
            obj.check_dims(dims, i)
        cons = self.constraints
        if cons is not None:
            shapes = tuple(mat.shape for mat in cons.A)
            want = tuple((cons.k, w) for w in dims.m)
            if shapes != want:
                raise DimensionError("constraint blocks have shapes %s, expected %s"
                                     % (shapes, want))

    @property
    def levels(self) -> int:
        return self.dims.levels

    def objective(self, level: int) -> Objective:
        """1-based accessor; level 1 is the leader."""
        return self.objectives[level - 1]
