"""Property tests: round trips, strategy forms and the verifier's soundness.

Hypothesis draws the cases deterministically (``derandomize=True``), so a
run is repeatable and needs no example database.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st  # noqa: E402

from revstack import (  # noqa: E402
    AffineStrategy,
    Constant,
    DecisionPoint,
    Dims,
    ExprObjective,
    GameProblem,
    LinearConstraints,
    Negate,
    Power,
    Product,
    QuadraticObjective,
    RevstackError,
    Sum,
    Var,
    format_problem,
    parse_formula,
    parse_problem,
    print_formula,
    synthesize_cascade,
    team_optimum_quadratic,
    verify_full,
)

from conftest import random_convex_game  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
MODEST = st.floats(-1e6, 1e6, allow_nan=False)


# ---------------------------------------------------------------------------
# formulas and documents
# ---------------------------------------------------------------------------

def formula_trees(dims, max_exponent, max_leaves):
    """Trees the parser can produce: every Sum and Product has at least two
    terms and constants are non-negative (the printer writes a negative
    constant as a minus sign, which re-reads as Negate)."""
    variables = st.integers(1, dims.levels).flatmap(
        lambda lev: st.builds(Var, st.just(lev), st.integers(1, dims.m[lev - 1])))
    constants = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Constant)

    def extend(kids):
        terms = st.lists(kids, min_size=2, max_size=4).map(tuple)
        return st.one_of(terms.map(Sum), terms.map(Product),
                         st.builds(Power, kids, st.integers(1, max_exponent)),
                         kids.map(Negate))

    return st.recursive(variables | constants, extend, max_leaves=max_leaves)


WIDE = Dims.of(2, 1, 3)


@SETTINGS
@given(formula_trees(WIDE, 10 ** 6, 12))
def test_formula_print_parse_round_trip(tree):
    assert parse_formula(print_formula(tree), WIDE) == tree


@st.composite
def problems(draw):
    dims = Dims.of(*draw(st.lists(st.integers(1, 2), min_size=2, max_size=3)))
    n, m = dims.levels, dims.m
    objectives = []
    for _ in range(n):
        quadratic = draw(st.booleans())
        if quadratic:
            A = {(j, k): np.array(draw(st.lists(
                     st.lists(FINITE, min_size=m[k - 1], max_size=m[k - 1]),
                     min_size=m[j - 1], max_size=m[j - 1])))
                 for j in range(1, n + 1) for k in range(j, n + 1) if draw(st.booleans())}
            l = [draw(st.lists(FINITE, min_size=w, max_size=w)) for w in m]
            const = draw(FINITE)
        else:
            tree = draw(formula_trees(dims, 3, 6))
        try:
            objectives.append(QuadraticObjective.build(dims, A, l=l, const=const)
                              if quadratic else ExprObjective(tree))
        except RevstackError:  # an overflowing coefficient or expansion is refused
            reject()
    constraints = None
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        rows = st.lists(FINITE, min_size=k, max_size=k)
        constraints = LinearConstraints(
            tuple(np.array([draw(rows) for _ in range(w)]).T for w in m), draw(rows))
    return GameProblem(dims, tuple(objectives), constraints)


@SETTINGS
@given(problems())
def test_document_round_trip(problem):
    text = format_problem(problem)
    assert format_problem(parse_problem(text)) == text
    json.loads(text)  # plain JSON: every number finite


# ---------------------------------------------------------------------------
# strategy forms
# ---------------------------------------------------------------------------

@st.composite
def strategies_and_points(draw):
    """A rule at level 2 of a hierarchy with the drawn widths, plus a lower point."""
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    own, lower = widths[0], widths[1:]

    def block(w):
        return np.array(draw(st.lists(MODEST, min_size=w, max_size=w)))

    anchor = DecisionPoint(tuple(block(w) for w in widths))
    coeffs = tuple(block(own * w).reshape(own, w) for w in lower)
    return AffineStrategy(2, anchor, coeffs), DecisionPoint(tuple(block(w) for w in lower))


def _close(a, b, scale):
    return np.all(np.abs(a - b) <= 8 * np.finfo(float).eps * scale)


@SETTINGS
@given(strategies_and_points())
def test_as_affine_and_from_affine_are_inverses(case):
    s, x = case
    d_low = s.lower_anchor
    offset, linear = s.as_affine()
    scale = np.abs(s.own_anchor) + sum(np.abs(Q) @ np.abs(d)
                                       for Q, d in zip(s.coeffs, d_low.blocks))
    back = AffineStrategy.from_affine(s.level, offset, linear, d_low)
    assert back.level == s.level
    assert all(np.array_equal(a, b) for a, b in zip(back.coeffs, s.coeffs))
    assert all(np.array_equal(a, b) for a, b in zip(back.lower_anchor.blocks, d_low.blocks))
    assert _close(back.own_anchor, s.own_anchor, scale)
    offset2, linear2 = back.as_affine()
    assert all(np.array_equal(a, b) for a, b in zip(linear2, linear))
    assert _close(offset2, offset, scale)
    # both forms announce the same block
    direct = offset + sum(C @ xj for C, xj in zip(linear, x.blocks))
    scale_x = scale + sum(np.abs(C) @ np.abs(xj) for C, xj in zip(linear, x.blocks))
    assert _close(s(x), direct, 2 * scale_x)


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------

@SETTINGS
@given(seed=st.integers(0, 10 ** 6), levels=st.sampled_from([2, 3]),
       which=st.integers(0, 10 ** 6), entry=st.sampled_from(["offset", "coeff"]),
       sign=st.sampled_from([1.0, -1.0]))
def test_a_perturbed_chain_never_verifies(seed, levels, which, entry, sign):
    problem = random_convex_game(seed, (1,) * levels)
    d = team_optimum_quadratic(problem).point
    chain = synthesize_cascade(problem, desired=d)
    assert verify_full(problem, chain, desired=d).verified
    # one offset or one coefficient entry of one rule moves by 1e-3 * (1 + |entry|)
    rule = chain[which % len(chain)]
    offset, linear = rule.as_affine()
    offset, linear = offset.copy(), [C.copy() for C in linear]
    target = offset if entry == "offset" else linear[which % len(linear)]
    target.flat[0] += sign * 1e-3 * (1.0 + abs(target.flat[0]))
    bad = AffineStrategy.from_affine(rule.level, offset, linear, rule.lower_anchor)
    broken = [bad if s is rule else s for s in chain]
    assert not verify_full(problem, broken, desired=d).verified
