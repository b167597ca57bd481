import numpy as np
import pytest

from revstack import (
    DecisionPoint,
    Dims,
    EquilibriumError,
    ExprObjective,
    GameProblem,
    InfeasibleError,
    LinearConstraints,
    NonUniqueOptimumError,
    NotMinimumError,
    QuadraticObjective,
    parse_formula,
    quadratic_to_expr,
    team_optimum,
    team_optimum_constrained,
    team_optimum_descent,
    team_optimum_quadratic,
)

from conftest import random_convex_game


def test_scalar_trilevel_optimum_is_exact(tri):
    eq = team_optimum_quadratic(tri)
    assert np.allclose(eq.point.concat(), [2.0, 1.0, 3.0], atol=1e-12)
    assert eq.value == pytest.approx(0.0, abs=1e-12)
    assert eq.method == "linear-solve"
    assert eq.kkt_residual <= 1e-9


def test_wide_leader_optimum(wide):
    eq = team_optimum_quadratic(wide)
    assert np.allclose(eq.point.concat(), [-2.5, -1.5, -0.5, -0.5], atol=1e-12)


def test_router_picks_the_linear_solve(tri):
    assert team_optimum(tri).method == "linear-solve"


def test_descent_agrees_with_the_linear_solve(tri_expr):
    eq = team_optimum(tri_expr)
    assert eq.method == "descent"
    assert np.allclose(eq.point.concat(), [2.0, 1.0, 3.0], atol=1e-6)


def test_newton_solves_the_expression_form_of_a_convex_game():
    # plain steepest descent ran out of iterations on this ill-conditioned game
    quad = random_convex_game(5, (1, 1, 1))
    expr = GameProblem(quad.dims, tuple(quadratic_to_expr(o) for o in quad.objectives))
    eq = team_optimum(expr)
    assert eq.method == "descent"
    assert eq.kkt_residual <= 1e-8
    assert np.allclose(eq.point.concat(), team_optimum_quadratic(quad).point.concat(),
                       rtol=0, atol=1e-9)


def test_descent_handles_two_basins():
    dims = Dims.of(1, 1)
    J1 = ExprObjective(parse_formula("(u1^2 - 1)^2 + u2^2", dims))
    J2 = ExprObjective(parse_formula("u1^2 + u2^2", dims))
    prob = GameProblem(dims, (J1, J2))
    starts = [DecisionPoint.of([-2.0], [0.5]), DecisionPoint.of([2.0], [0.5])]
    eq = team_optimum_descent(prob, starts)
    assert abs(abs(eq.point.concat()[0]) - 1.0) <= 1e-6
    assert abs(eq.point.concat()[1]) <= 1e-6
    assert eq.value == pytest.approx(0.0, abs=1e-10)


def test_descent_requires_starts(tri_expr):
    with pytest.raises(EquilibriumError):
        team_optimum_descent(tri_expr, [])


def test_singular_stationarity_system_is_an_error():
    # (u1 - u2)^2 has a whole line of minimizers
    dims = Dims.of(1, 1)
    J = QuadraticObjective.build(
        dims, {(1, 1): np.eye(1), (1, 2): -2 * np.eye(1), (2, 2): np.eye(1)})
    prob = GameProblem(dims, (J, J))
    with pytest.raises(NonUniqueOptimumError):
        team_optimum_quadratic(prob)


def test_saddle_point_is_rejected():
    dims = Dims.of(1, 1)
    J = QuadraticObjective.build(dims, {(1, 1): np.eye(1), (2, 2): -np.eye(1)})
    prob = GameProblem(dims, (J, J))
    with pytest.raises(NotMinimumError):
        team_optimum_quadratic(prob)


def _with_rows(problem, rows, b):
    cons = LinearConstraints(tuple(np.asarray(r, dtype=float) for r in rows),
                             np.asarray(b, dtype=float))
    return GameProblem(problem.dims, problem.objectives, cons)


def test_active_constraint_shifts_the_optimum(tri):
    # u1 <= 1 binds: the free minimizer has u1 = 2
    prob = _with_rows(tri, ([[1.0]], [[0.0]], [[0.0]]), [1.0])
    eq = team_optimum_constrained(prob)
    assert eq.method == "active-set"
    assert np.allclose(eq.point.concat(), [1.0, 1.0, 3.0], atol=1e-9)
    assert eq.value == pytest.approx(1.0)


def test_slack_constraint_leaves_the_optimum_alone(tri):
    prob = _with_rows(tri, ([[1.0]], [[0.0]], [[0.0]]), [40.0])
    eq = team_optimum_constrained(prob)
    assert np.allclose(eq.point.concat(), [2.0, 1.0, 3.0], atol=1e-9)


def test_router_uses_the_active_set_path(tri):
    prob = _with_rows(tri, ([[1.0]], [[0.0]], [[0.0]]), [1.0])
    assert team_optimum(prob).method == "active-set"


def test_contradictory_rows_are_infeasible(tri):
    prob = _with_rows(tri, ([[1.0], [-1.0]], [[0.0], [0.0]], [[0.0], [0.0]]),
                      [0.0, -1.0])  # u1 <= 0 and u1 >= 1
    with pytest.raises(InfeasibleError):
        team_optimum_constrained(prob)


def test_row_count_cap(tri):
    k = 21
    prob = _with_rows(tri, (np.ones((k, 1)), np.zeros((k, 1)), np.zeros((k, 1))),
                      np.arange(k) + 100.0)
    with pytest.raises(EquilibriumError, match="cap"):
        team_optimum_constrained(prob)


def test_two_active_rows(tri):
    # u1 <= 1 and u3 <= 2 both bind
    prob = _with_rows(
        tri,
        ([[1.0], [0.0]], [[0.0], [0.0]], [[0.0], [1.0]]),
        [1.0, 2.0],
    )
    eq = team_optimum_constrained(prob)
    assert np.allclose(eq.point.concat(), [1.0, 1.0, 2.0], atol=1e-9)
    assert eq.value == pytest.approx(2.0)
