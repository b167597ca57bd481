import itertools

import numpy as np
import pytest

from revstack import (
    ConvergenceError,
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
    evaluate,
    parse_formula,
    quadratic_to_expr,
    team_optimum,
    team_optimum_constrained,
    team_optimum_descent,
    team_optimum_quadratic,
)
from revstack.model import split_blocks

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


def test_descent_does_not_report_a_saddle_as_the_optimum():
    # the gradient vanishes at the origin start, where the Hessian is
    # diag(-4, 2); the minima are (+-1, 0)
    dims = Dims.of(1, 1)
    J1 = ExprObjective(parse_formula("(u1^2 - 1)^2 + u2^2", dims))
    J2 = ExprObjective(parse_formula("(u1 - 1)^2 + (u2 - 1)^2", dims))
    prob = GameProblem(dims, (J1, J2))
    with pytest.raises(NotMinimumError, match=r"stopped at \[0\.0, 0\.0\]"):
        team_optimum(prob)


def test_descent_that_runs_out_of_iterations_is_a_convergence_error():
    # a cost linear in u1 has gradient norm 1 at every iterate
    dims = Dims.of(1, 1)
    J = ExprObjective(parse_formula("u1 + u2^2", dims))
    with pytest.raises(ConvergenceError) as err:
        team_optimum_descent(GameProblem(dims, (J, J)))
    assert str(err.value) == ("descent did not reach gradient norm 1e-08 within 500 "
                              "iterations (best gradient norm 1)")


def test_descent_accepts_a_semidefinite_minimum():
    # u1^4 has a zero second derivative at its minimum
    dims = Dims.of(1, 1)
    J1 = ExprObjective(parse_formula("u1^4 + u2^2", dims))
    prob = GameProblem(dims, (J1, J1))
    eq = team_optimum(prob)
    assert eq.method == "descent"
    assert eq.point.concat().tolist() == [0.0, 0.0]
    assert eq.value == 0.0


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


def test_overflowing_candidates_are_skipped_quietly(tri):
    # the last row is u1 + u2 <= 1 scaled to the edge of the double range:
    # its candidates overflow, and the search keeps a finite feasible point
    # without numpy warnings (the suite turns them into errors)
    prob = _with_rows(
        tri,
        ([[1], [-1], [0], [0], [0], [0], [1e308]],
         [[0], [0], [1], [-1], [0], [0], [1e308]],
         [[0], [0], [0], [0], [1], [-1], [0]]),
        [100, 100, 5, 5, 5, 5, 1e308])
    eq = team_optimum_constrained(prob)
    assert np.isfinite(eq.point.concat()).all()
    assert (prob.constraints.residual(eq.point) <= 0).all()


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


@pytest.mark.xfail(strict=True, reason=(
    "the enumeration loses the multiplier of a row near the double range and "
    "keeps (0, 1, 3), value 4; an active-set QP that scales each row by its "
    "largest entry finds (1, 0, 3)"))
def test_a_row_near_the_double_range_does_not_hide_the_optimum(tri):
    # the README game in a box plus 1e308*u1 + 1e308*u2 <= 1e308; the same
    # rows divided by 1e308 give the optimum (1, 0, 3) with value 2, while
    # the search returns (0, 1, 3) with value 4 and a stationarity residual
    # of 4 (test_cli's huge-row family test shows that output)
    prob = _with_rows(
        tri,
        ([[1], [-1], [0], [0], [0], [0], [1e308]],
         [[0], [0], [1], [-1], [0], [0], [1e308]],
         [[0], [0], [0], [0], [1], [-1], [0]]),
        [100, 100, 5, 5, 5, 5, 1e308])
    eq = team_optimum_constrained(prob)
    assert np.allclose(eq.point.concat(), [1.0, 0.0, 3.0], atol=1e-9)
    assert eq.value == pytest.approx(2.0)
    assert eq.kkt_residual <= 1e-9


# ---------------------------------------------------------------------------
# the active-set search against the plain enumeration of every active set
# ---------------------------------------------------------------------------

def _box_and_cuts(seed, widths, cuts, duplicate):
    """A box around a random centre plus cuts that keep the centre inside;
    with ``duplicate`` the first cut appears twice."""
    game = random_convex_game(seed, widths)
    rng = np.random.default_rng(700 + seed)
    N = sum(widths)
    centre = rng.uniform(-1.0, 1.0, N)
    half = rng.uniform(0.5, 1.5, N)
    C = rng.standard_normal((cuts, N))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    A = np.vstack([np.eye(N), -np.eye(N), C])
    b = np.concatenate([centre + half, half - centre,
                        C @ centre + rng.uniform(0.2, 0.8, cuts)])
    if duplicate:
        A, b = np.vstack([A, C[:1]]), np.append(b, b[2 * N])
    return GameProblem(game.dims, game.objectives,
                       LinearConstraints(tuple(split_blocks(widths, A)), b))


def _enumerated_optimum(problem):
    """The search as a plain loop: every active set of up to N rows, each
    with its own KKT matrix from np.block."""
    obj = problem.objective(1)
    H, l = obj.H, obj.l
    A, b = np.hstack(problem.constraints.A), problem.constraints.b
    k, N = A.shape
    best = None
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(min(k, N) + 1):
            for S in itertools.combinations(range(k), r):
                As = A[list(S)]
                M = np.block([[H, As.T], [As, np.zeros((r, r))]])
                try:
                    sol = np.linalg.solve(M, np.concatenate([-l, b[list(S)]]))
                except np.linalg.LinAlgError:
                    continue
                u, lam = sol[:N], sol[N:]
                rows = A @ u - b
                if not ((lam >= -1e-9).all() and (rows <= 1e-9 * (1.0 + np.abs(b))).all()
                        and np.isfinite(sol).all() and np.isfinite(rows).all()):
                    continue
                value = float(evaluate(obj, DecisionPoint.from_concat(problem.dims.m, u)))
                if best is None or value < best[0] - 1e-12 or (
                        abs(value - best[0]) <= 1e-12 and S < best[1]):
                    best = (value, S, u, float(np.linalg.norm(H @ u + l + As.T @ lam)))
    return best


@pytest.mark.parametrize("seed,widths,cuts,duplicate", [
    (1, (1, 1, 1), 3, False), (2, (1, 1, 1), 6, False), (3, (2, 1, 1), 4, False),
    (4, (1, 2, 1), 3, False), (5, (2, 2), 4, False), (6, (1, 1, 1, 1), 4, False),
    (7, (1, 1), 8, False), (8, (2, 1, 1), 3, True)])
def test_search_is_bitwise_the_plain_enumeration(seed, widths, cuts, duplicate):
    prob = _box_and_cuts(seed, widths, cuts, duplicate)
    assert prob.constraints.k <= 12
    eq = team_optimum_constrained(prob)
    value, _, u, stat = _enumerated_optimum(prob)
    assert eq.point.concat().tobytes() == u.tobytes()
    assert (eq.value, eq.kkt_residual) == (value, stat)


@pytest.mark.parametrize("seed", range(40))
def test_an_equal_or_opposite_pair_of_active_rows_makes_the_kkt_matrix_singular(seed):
    # the search skips every active set holding such a pair
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 7))
    r = int(rng.integers(2, N + 2))
    B = rng.standard_normal((N, N))
    H = B @ B.T + np.eye(N)
    A = rng.standard_normal((r, N)) * 10.0 ** rng.integers(-3, 4, (r, 1))
    i, j = sorted(rng.choice(r, 2, replace=False))
    sign = rng.choice([1.0, -1.0])
    A[j] = sign * A[i]
    M = np.block([[H, A.T], [A, np.zeros((r, r))]])
    null = np.zeros(N + r)
    null[N + i], null[N + j] = 1.0, -sign
    assert (M @ null == 0.0).all()
    assert np.linalg.matrix_rank(M) < N + r
