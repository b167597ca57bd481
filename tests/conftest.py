"""Shared game fixtures.

Two hand-checked games recur throughout the suite:

* the *scalar trilevel* game — every level owns one variable; the desired
  decision is (2, 1, 3) and the top/middle announcement maps are known in
  closed form (u1 = 12 - u2 - 3*u3, u2 = 4 - u3);
* the *wide-leader* game — the top level owns two variables, so the set of
  optimal top maps is a one-parameter family per lower level.

Formula trees (``Const``, ``Var``, ``Sum``, ``Product``, ``Power``,
``Negate``) say what a formula text means; the package parses text straight
to a polynomial, and ``RefPoly.compile`` of the tree is the numpy reference
it must match bit for bit.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np
import pytest

from revstack import (
    DecisionPoint,
    Dims,
    ExprObjective,
    GameProblem,
    LinearConstraints,
    QuadraticObjective,
    RevstackError,
    evaluate,
    parse_formula,
)
from revstack.model import _MAX_MONOMIALS, Polynomial


# ---------------------------------------------------------------------------
# formula trees: what a formula text says, written out by hand or drawn
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    """The ``index``-th scalar of level ``level`` (both 1-based)."""

    level: int
    index: int


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


@dataclass(frozen=True)
class Negate:
    child: object


def formula_text(node) -> str:
    """Text that the parser reads as ``node`` when its constants are nonnegative.

    Every compound is parenthesized, so no precedence rule is needed; a
    negative constant prints as a minus sign, which reads back as Negate.
    """
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "u%d_%d" % (node.level, node.index)
    if isinstance(node, Sum):
        return "(%s)" % " + ".join(formula_text(t) for t in node.terms)
    if isinstance(node, Product):
        return "(%s)" % "*".join(formula_text(f) for f in node.factors)
    if isinstance(node, Power):
        return "(%s)^%d" % (formula_text(node.base), node.exponent)
    return "-(%s)" % formula_text(node.child)


TOO_LARGE = "polynomial expansion exceeds %d monomials" % _MAX_MONOMIALS


class RefPoly:
    """The polynomial algebra on numpy arrays: int64 exponent rows widened to
    a common key set, outer products i-major, like rows merged in order of
    appearance from 0.0.  The package works on plain Python terms instead;
    every result must carry the same bits."""

    def __init__(self, keys, E, c):
        self.keys, self.E, self.c = keys, E, c

    @classmethod
    def from_terms(cls, keys, E, c):
        if len(c) > _MAX_MONOMIALS:
            raise RevstackError(TOO_LARGE)
        merged = {}
        rows = np.asarray(E, dtype=np.int64).reshape(len(c), len(keys)).tolist()
        for row, coef in zip(map(tuple, rows), np.asarray(c, dtype=float).tolist()):
            merged[row] = merged.get(row, 0.0) + coef
        if not all(map(math.isfinite, merged.values())):
            raise RevstackError("polynomial coefficient is not finite")
        order = sorted(row for row, coef in merged.items() if coef != 0.0)
        return cls(tuple(keys), np.array(order, dtype=np.int64).reshape(len(order), len(keys)),
                   np.array([merged[row] for row in order], dtype=float))

    @classmethod
    def constant(cls, value):
        return cls.from_terms((), np.zeros((1, 0)), [value])

    @staticmethod
    def total(polys):
        keys = tuple(sorted(set().union(*(p.keys for p in polys))))
        return RefPoly.from_terms(keys, np.vstack([p.widened(keys) for p in polys]),
                                  np.concatenate([p.c for p in polys]))

    def widened(self, keys):
        at = {key: v for v, key in enumerate(keys)}
        out = np.zeros((self.E.shape[0], len(keys)), dtype=np.int64)
        out[:, [at[key] for key in self.keys]] = self.E
        return out

    def __mul__(self, other):
        if self.c.size * other.c.size > _MAX_MONOMIALS:
            raise RevstackError(TOO_LARGE)
        keys = tuple(sorted(set(self.keys) | set(other.keys)))
        E = (self.widened(keys)[:, None, :] + other.widened(keys)[None, :, :]
             ).reshape(self.c.size * other.c.size, len(keys))
        if (E < 0).any():  # a sum of exponents wrapped past int64
            raise RevstackError("polynomial exponent overflows")
        with np.errstate(over="ignore"):
            c = np.outer(self.c, other.c).ravel()
        return RefPoly.from_terms(keys, E, c)

    def __pow__(self, k):
        result, base = RefPoly.constant(1.0), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def derivative(self, v):
        e = self.E[:, v]
        E = self.E[e > 0]
        E[:, v] -= 1
        with np.errstate(over="ignore"):
            return RefPoly.from_terms(self.keys, E, self.c[e > 0] * e[e > 0])

    def substitute_top(self, offset, C):
        lower = [(j + 1, col + 1) for j, M in enumerate(C) for col in range(M.shape[1])]
        rule_E = np.vstack([np.zeros((1, len(lower))), np.eye(len(lower))])
        poly = RefPoly(tuple((lev - 1, idx) for lev, idx in self.keys), self.E, self.c)
        for i in range(offset.size):
            if (0, i + 1) in poly.keys:
                rule = RefPoly.from_terms(
                    lower, rule_E, np.concatenate([[offset[i]]] + [M[i] for M in C]))
                v = poly.keys.index((0, i + 1))
                e, rest = poly.E[:, v], np.delete(poly.E, v, 1)
                keys = poly.keys[:v] + poly.keys[v + 1:]
                poly = RefPoly.total([
                    RefPoly.from_terms(keys, rest[e == k], poly.c[e == k]) * rule ** k
                    for k in sorted(set(e.tolist()))])
        return poly

    @classmethod
    def compile(cls, node):
        """The polynomial of a formula tree: a Sum merges its terms, a
        Product multiplies its factors left to right."""
        if isinstance(node, Const):
            return cls.constant(node.value)
        if isinstance(node, Var):
            return cls(((node.level, node.index),), np.ones((1, 1), dtype=np.int64), np.ones(1))
        if isinstance(node, Sum):
            return cls.total([cls.compile(t) for t in node.terms])
        if isinstance(node, Product):
            return functools.reduce(operator.mul, [cls.compile(f) for f in node.factors])
        if isinstance(node, Power):
            return cls.compile(node.base) ** node.exponent
        child = cls.compile(node.child)
        return cls(child.keys, child.E, -child.c)


def outcome(build):
    """The keys, exponent rows and coefficient bits of the polynomial
    ``build()`` returns, with the types its terms hold, or the message it
    raises.  A :class:`RefPoly` reads as the plain terms of its arrays."""
    try:
        p = build()
    except RevstackError as err:
        return str(err)
    rows, coefs = (p.E.tolist(), p.c.tolist()) if isinstance(p, RefPoly) else (p.rows, p.coefs)
    rows = [tuple(row) for row in rows]
    types = {type(e) for row in rows for e in row} | set(map(type, coefs))
    return p.keys, rows, types, np.array(coefs, dtype=float).tobytes()


def quadratic_to_expr(obj: QuadraticObjective) -> ExprObjective:
    """The same cost as an expression: ``x'Hx/2 + l'x + const`` monomial by
    monomial, each pair of scalars a <= b in row-major order, then the
    linear terms, then the constant."""
    keys = [(lev, i + 1) for lev, w in enumerate(obj.widths, start=1) for i in range(w)]
    V = len(keys)
    unit = [tuple(int(a == b) for b in range(V)) for a in range(V)]
    pairs = [(a, b) for a in range(V) for b in range(a, V)]
    H = obj.H.tolist()
    rows = [tuple(map(operator.add, unit[a], unit[b])) for a, b in pairs] + unit + [(0,) * V]
    coefs = [(0.5 if a == b else 1.0) * H[a][b] for a, b in pairs] + obj.l.tolist() + [obj.const]
    return ExprObjective(Polynomial.from_terms(keys, rows, coefs))


def fd_gradient(obj, p: DecisionPoint) -> DecisionPoint:
    """Central finite differences with per-coordinate step ``1e-6 * (1 + |p_i|)``."""
    flat = p.concat()
    g = np.empty(flat.size)
    for i in range(flat.size):
        step = 1e-6 * (1.0 + abs(flat[i]))
        fwd, bwd = flat.copy(), flat.copy()
        fwd[i] += step
        bwd[i] -= step
        g[i] = (evaluate(obj, DecisionPoint.from_concat(p.widths, fwd))
                - evaluate(obj, DecisionPoint.from_concat(p.widths, bwd))) / (2.0 * step)
    return DecisionPoint.from_concat(p.widths, g)


# ---------------------------------------------------------------------------
# games as data: one (A blocks, l, const) triple or formula tree per level
# ---------------------------------------------------------------------------

def problem_text(widths, objectives, constraints=None) -> str:
    """The JSON problem document of a game given as data.

    A quadratic level is an ``(A, l, const)`` triple as
    ``QuadraticObjective.build`` takes it, any other level a formula tree;
    ``constraints`` is a ``(blocks, b)`` pair.  Floats are written as their
    shortest repr, so the parser reads back the same doubles.
    """
    def rows(x):
        return np.asarray(x, dtype=float).tolist()

    def objective(obj):
        if not isinstance(obj, tuple):
            return {"type": "expr", "formula": formula_text(obj)}
        A, l, const = obj
        return {"type": "quadratic", "A": {"%d,%d" % key: rows(M) for key, M in A.items()},
                "l": [rows(v) for v in l], "c": const}

    doc = {"levels": len(widths), "dims": list(widths),
           "objectives": [objective(obj) for obj in objectives]}
    if constraints is not None:
        blocks, b = constraints
        doc["constraints"] = {"A": [rows(M) for M in blocks], "b": rows(b)}
    return json.dumps(doc)


def _expr(tree) -> ExprObjective:
    ref = RefPoly.compile(tree)
    return ExprObjective(Polynomial.from_terms(ref.keys, ref.E, ref.c))


def build_game(widths, objectives, constraints=None) -> GameProblem:
    """The game ``problem_text`` writes, built directly; a formula tree's
    polynomial is :class:`RefPoly`'s."""
    dims = Dims.of(*widths)
    return GameProblem(dims, tuple(
        QuadraticObjective.build(dims, obj[0], l=obj[1], const=obj[2])
        if isinstance(obj, tuple) else _expr(obj) for obj in objectives),
        None if constraints is None else LinearConstraints(*constraints))


def scalar_trilevel() -> GameProblem:
    """J1 = (u1-2)^2+(u2-1)^2+(u3-3)^2, J2 = (u1-1)^2+u2^2+u3^2,
    J3 = u1^2+(u2-2)^2+u3^2."""
    dims = Dims.of(1, 1, 1)
    eye = {(1, 1): np.eye(1), (2, 2): np.eye(1), (3, 3): np.eye(1)}
    J1 = QuadraticObjective.build(dims, eye, l=[[-4], [-2], [-6]], const=14.0)
    J2 = QuadraticObjective.build(dims, eye, l=[[-2], [0], [0]], const=1.0)
    J3 = QuadraticObjective.build(dims, eye, l=[[0], [-4], [0]], const=4.0)
    return GameProblem(dims, (J1, J2, J3))


def scalar_trilevel_expr() -> GameProblem:
    dims = Dims.of(1, 1, 1)
    texts = (
        "(u1 - 2)^2 + (u2 - 1)^2 + (u3 - 3)^2",
        "(u1 - 1)^2 + u2^2 + u3^2",
        "u1^2 + (u2 - 2)^2 + u3^2",
    )
    return GameProblem(
        dims, tuple(ExprObjective(parse_formula(t, dims)) for t in texts))


def wide_leader_data():
    """Widths and objectives of the wide-leader game, as data."""
    eye = {(1, 1): np.eye(2), (2, 2): np.eye(1), (3, 3): np.eye(1)}
    return (2, 1, 1), [(eye, l, 0.0) for l in ([[5, 3], [1], [1]],
                                                [[0, 0], [3], [0]],
                                                [[0, 0], [0], [0]])]


def wide_leader() -> GameProblem:
    """Top level owns u1 in R^2; desired decision (-5/2, -3/2, -1/2, -1/2)."""
    return build_game(*wide_leader_data())


def random_convex_data(seed: int, widths):
    """One ``(A, l, const)`` triple per level of ``random_convex_game``."""
    rng = np.random.default_rng(seed)
    n = len(widths)
    objectives = []
    for _ in range(n):
        A = {}
        for j in range(1, n + 1):
            R = rng.standard_normal((widths[j - 1], widths[j - 1]))
            A[(j, j)] = R @ R.T + (1.0 + rng.random()) * np.eye(widths[j - 1])
            for k in range(j + 1, n + 1):
                A[(j, k)] = 0.3 * rng.standard_normal((widths[j - 1], widths[k - 1]))
        l = [rng.uniform(-3.0, 3.0, w) for w in widths]
        objectives.append((A, l, 0.0))
    return objectives


def random_convex_game(seed: int, widths) -> GameProblem:
    """Random quadratic game with strongly convex objectives.

    Diagonal blocks are Gram matrices plus a margin; cross blocks are kept
    small so every objective's full Hessian stays positive definite.
    """
    return build_game(widths, random_convex_data(seed, widths))


# one "criterion N: PASS/FAIL - detail" line per acceptance test, echoed
# in a summary section so plain `pytest -v` runs always show them
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def tri():
    return scalar_trilevel()


@pytest.fixture
def tri_expr():
    return scalar_trilevel_expr()


@pytest.fixture
def wide():
    return wide_leader()
