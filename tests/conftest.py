"""Shared game fixtures.

Two hand-checked games recur throughout the suite:

* the *scalar trilevel* game — every level owns one variable; the desired
  decision is (2, 1, 3) and the top/middle announcement maps are known in
  closed form (u1 = 12 - u2 - 3*u3, u2 = 4 - u3);
* the *wide-leader* game — the top level owns two variables, so the set of
  optimal top maps is a one-parameter family per lower level.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from revstack import (
    Constant,
    Dims,
    ExprObjective,
    GameProblem,
    LinearConstraints,
    Power,
    Product,
    QuadraticObjective,
    Sum,
    Var,
    parse_formula,
)


# ---------------------------------------------------------------------------
# games as data: one (A blocks, l, const) triple or formula tree per level
# ---------------------------------------------------------------------------

def formula_text(node) -> str:
    """Text that parses back to ``node`` when its constants are nonnegative.

    Every compound is parenthesized, so no precedence rule is needed; a
    negative constant prints as a minus sign, which reads back as Negate.
    """
    if isinstance(node, Constant):
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


def build_game(widths, objectives, constraints=None) -> GameProblem:
    """The game ``problem_text`` writes, built directly."""
    dims = Dims.of(*widths)
    return GameProblem(dims, tuple(
        QuadraticObjective.build(dims, obj[0], l=obj[1], const=obj[2])
        if isinstance(obj, tuple) else ExprObjective(obj) for obj in objectives),
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
