import tracemalloc

import numpy as np
import pytest

from revstack import (
    DecisionPoint,
    DimensionError,
    Dims,
    ExprObjective,
    GameProblem,
    LinearConstraints,
    QuadraticObjective,
    evaluate,
    evaluate_many,
    parse_formula,
    quadratic_to_expr,
    validate,
)

from revstack.model import split_blocks

from conftest import random_convex_game, scalar_trilevel, wide_leader


def test_dims_basics():
    d = Dims.of(2, 1, 3)
    assert d.levels == 3
    assert d.total == 6
    assert d.drop_top() == Dims.of(1, 3)


def test_dims_rejects_degenerate_shapes():
    with pytest.raises(DimensionError):
        Dims.of(4)          # a single level is not a hierarchy
    with pytest.raises(DimensionError):
        Dims.of(1, 0, 1)
    with pytest.raises(DimensionError):
        Dims(3, (1, 1))     # count mismatch


def test_decision_point_accessors():
    p = DecisionPoint.from_concat((2, 1, 1), [1.0, 2.0, 3.0, 4.0])
    assert p.widths == (2, 1, 1)
    assert np.array_equal(p.block(1), [1.0, 2.0])
    assert np.array_equal(p.block(3), [4.0])
    assert np.array_equal(p.concat(), [1, 2, 3, 4])
    assert p.tail(2).widths == (1, 1)
    with pytest.raises(DimensionError):
        p.tail(5)
    with pytest.raises(DimensionError):
        DecisionPoint.from_concat((2, 2), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        split_blocks((2, 2), np.zeros((5, 3)))


def test_split_blocks_returns_views_of_the_last_axis():
    X = np.arange(12.0).reshape(3, 4)
    a, b = split_blocks((1, 3), X)
    assert a.shape == (3, 1) and b.shape == (3, 3)
    assert np.shares_memory(a, X) and np.shares_memory(b, X)
    assert np.array_equal(b[1], [5.0, 6.0, 7.0])


def test_known_objective_values(tri):
    d = DecisionPoint.of([2.0], [1.0], [3.0])
    assert evaluate(tri.objective(1), d) == pytest.approx(0.0, abs=1e-12)
    assert evaluate(tri.objective(2), d) == pytest.approx(11.0)
    assert evaluate(tri.objective(3), d) == pytest.approx(14.0)


def test_wide_leader_second_cost_at_desired_point(wide):
    d = DecisionPoint.of([-2.5, -1.5], [-0.5], [-0.5])
    assert evaluate(wide.objective(2), d) == pytest.approx(7.5)


def test_expr_and_quadratic_forms_agree(tri, tri_expr):
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = DecisionPoint.from_concat((1, 1, 1), rng.uniform(-5, 5, 3))
        for lev in (1, 2, 3):
            assert evaluate(tri.objective(lev), p) == pytest.approx(
                evaluate(tri_expr.objective(lev), p), rel=1e-12, abs=1e-12)


def test_batched_evaluation_matches_pointwise(tri):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3, 3, (40, 3))
    blocks = [pts[:, [0]], pts[:, [1]], pts[:, [2]]]
    batched = evaluate_many(tri.objective(2), blocks)
    assert batched.shape == (40,)
    for i in range(40):
        p = DecisionPoint.from_concat((1, 1, 1), pts[i])
        assert batched[i] == pytest.approx(evaluate(tri.objective(2), p))


def test_expression_batch_memory_is_linear_in_the_batch():
    quad = random_convex_game(3, (2, 2, 2)).objective(1)
    expr = quadratic_to_expr(quad)
    P = 100_000
    blocks = split_blocks((2, 2, 2), np.random.default_rng(4).uniform(-2, 2, (P, 6)))
    tracemalloc.start()
    try:
        values = evaluate_many(expr, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few length-P temporaries; a (P, M, V) array would be 27 * 6 of them
    assert peak <= 6 * 8 * P
    assert values.shape == (P,)
    assert np.allclose(values, evaluate_many(quad, blocks), rtol=1e-12, atol=1e-9)


def test_quadratic_expansion_to_expression_tree(wide):
    rng = np.random.default_rng(2)
    for lev in (1, 2, 3):
        expr = quadratic_to_expr(wide.objective(lev))
        for _ in range(20):
            p = DecisionPoint.from_concat((2, 1, 1), rng.uniform(-4, 4, 4))
            assert evaluate(expr, p) == pytest.approx(
                evaluate(wide.objective(lev), p), rel=1e-12, abs=1e-12)


def test_lower_triangular_keys_rejected():
    with pytest.raises(DimensionError):
        QuadraticObjective(A={(2, 1): np.eye(1)}, l=([0.0], [0.0]))


def test_diagonal_blocks_are_symmetrized():
    # storing an asymmetric diagonal block must not change the form's values
    dims = Dims.of(2, 1)
    skew = np.array([[1.0, 2.0], [0.0, 1.0]])
    obj = QuadraticObjective.build(dims, {(1, 1): skew, (2, 2): np.eye(1)})
    assert np.allclose(obj.A[(1, 1)], obj.A[(1, 1)].T)
    x = np.array([0.7, -1.3])
    p = DecisionPoint.of(x, [0.0])
    assert evaluate(obj, p) == pytest.approx(x @ skew @ x)


def test_flat_view_round_trips_exactly(wide):
    for game in (wide, random_convex_game(5, (2, 1, 2))):
        for q in game.objectives:
            H, l = q.flat()
            back = QuadraticObjective.from_flat(H, l, q.const, game.dims.m)
            for key, block in q.A.items():
                assert np.array_equal(back.A[key], block)
            missing = set(back.A) - set(q.A)
            assert all(not np.any(back.A[key]) for key in missing)
            assert all(np.array_equal(a, b) for a, b in zip(back.l, q.l))
            assert back.const == q.const
            H2, l2 = back.flat()
            assert np.array_equal(H2, H) and np.array_equal(l2, l)


def test_constant_term_survives():
    dims = Dims.of(1, 1)
    obj = QuadraticObjective.build(dims, {(1, 1): np.eye(1)}, const=3.25)
    assert evaluate(obj, DecisionPoint.of([0.0], [0.0])) == pytest.approx(3.25)


def test_constraint_residual_sign():
    cons = LinearConstraints((np.array([[1.0]]), np.array([[2.0]])),
                             np.array([5.0]))
    inside = DecisionPoint.of([1.0], [1.0])   # 1 + 2 = 3 <= 5
    outside = DecisionPoint.of([4.0], [1.0])  # 4 + 2 = 6 > 5
    assert cons.residual(inside)[0] == pytest.approx(-2.0)
    assert cons.residual(outside)[0] == pytest.approx(1.0)


def test_validate_accepts_the_fixture_games(tri, wide):
    assert validate(tri).ok
    assert validate(wide).ok


def test_validate_flags_shape_problems():
    dims = Dims.of(1, 1)
    bad_block = QuadraticObjective.build(dims, {(1, 1): np.eye(2)})
    prob = GameProblem(dims, (bad_block, bad_block))
    report = validate(prob)
    assert not report.ok
    assert any("shape" in d.message for d in report.errors)


def test_validate_flags_variables_outside_the_hierarchy():
    dims = Dims.of(1, 1)
    ok = ExprObjective(parse_formula("u1^2 + u2^2", dims))
    # Build a tree against a wider shape, then validate under the narrow one.
    wide_dims = Dims.of(1, 1, 1)
    stray = ExprObjective(parse_formula("u3^2", wide_dims))
    report = validate(GameProblem(dims, (ok, stray)))
    assert not report.ok
    assert any("no level 3" in d.message for d in report.errors)


def test_validate_notes_indefinite_diagonal_blocks():
    dims = Dims.of(1, 1)
    saddle = QuadraticObjective.build(dims, {(1, 1): -np.eye(1), (2, 2): np.eye(1)})
    report = validate(GameProblem(dims, (saddle, saddle)))
    assert report.ok  # advisory only
    assert any("not positive definite" in d.message for d in report.diagnostics)


def test_validate_flags_constraint_block_shapes(tri):
    cons = LinearConstraints(
        (np.ones((2, 1)), np.ones((2, 1)), np.ones((1, 1))), np.zeros(2))
    report = validate(GameProblem(tri.dims, tri.objectives, cons))
    assert not report.ok


def test_objective_count_must_match_levels(tri):
    with pytest.raises(DimensionError):
        GameProblem(tri.dims, tri.objectives[:2])
