import numpy as np
import pytest

from revstack import (
    DecisionPoint,
    Dims,
    ExprObjective,
    QuadraticObjective,
    gradient,
    hessian,
    parse_formula,
    strict_convexity_probe,
)
from revstack.calculus import fd_gradient

from conftest import random_convex_game

D3 = Dims.of(1, 1, 1)
D_AT = DecisionPoint.of([2.0], [1.0], [3.0])


def test_known_gradients_at_the_desired_point(tri):
    g2 = gradient(tri.objective(2), D_AT)
    assert np.allclose(g2.concat(), [2.0, 2.0, 6.0])
    g3 = gradient(tri.objective(3), D_AT)
    assert np.allclose(g3.concat(), [4.0, -2.0, 6.0])


def test_expression_gradients_match_quadratic(tri, tri_expr):
    rng = np.random.default_rng(0)
    for _ in range(25):
        p = DecisionPoint.from_concat((1, 1, 1), rng.uniform(-4, 4, 3))
        for lev in (1, 2, 3):
            gq = gradient(tri.objective(lev), p).concat()
            ge = gradient(tri_expr.objective(lev), p).concat()
            assert np.allclose(gq, ge, atol=1e-10)


def test_block_gradient_accessors(wide):
    p = DecisionPoint.of([-2.5, -1.5], [-0.5], [-0.5])
    g = gradient(wide.objective(2), p)
    assert isinstance(g, DecisionPoint)
    assert g.widths == (2, 1, 1)
    assert np.allclose(g.block(1), [-5.0, -3.0])
    assert np.linalg.norm(g.block(1)) == pytest.approx(np.hypot(5, 3))
    assert g.concat().shape == (4,)
    f = fd_gradient(wide.objective(2), p)
    assert isinstance(f, DecisionPoint) and f.widths == (2, 1, 1)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    prob = random_convex_game(4, (2, 2, 1))
    for lev in (1, 2, 3):
        obj = prob.objective(lev)
        for _ in range(10):
            p = DecisionPoint.from_concat((2, 2, 1), rng.uniform(-5, 5, 5))
            a = gradient(obj, p).concat()
            f = fd_gradient(obj, p).concat()
            assert np.linalg.norm(a - f) <= 1e-6 * (1.0 + np.linalg.norm(a))


def test_symbolic_derivative_of_a_product():
    obj = ExprObjective(parse_formula("u1^2 * u2", D3))
    # d/du1 (u1^2 u2) = 2 u1 u2
    for u1, u2 in [(1.0, 2.0), (-3.0, 0.5), (0.0, 4.0)]:
        p = DecisionPoint.of([u1], [u2], [0.0])
        assert gradient(obj, p).block(1)[0] == pytest.approx(2 * u1 * u2)


def test_derivative_with_respect_to_absent_variable_is_zero():
    obj = ExprObjective(parse_formula("u1^2 + u2", D3))
    p = DecisionPoint.of([2.0], [5.0], [7.0])
    assert gradient(obj, p).block(3)[0] == 0.0


def test_quadratic_hessian_assembly():
    dims = Dims.of(2, 1)
    A11 = np.array([[2.0, 0.5], [0.5, 1.0]])
    A12 = np.array([[1.0], [-1.0]])
    A22 = np.array([[3.0]])
    obj = QuadraticObjective.build(dims, {(1, 1): A11, (1, 2): A12, (2, 2): A22})
    H = hessian(obj, DecisionPoint.of([0.0, 0.0], [0.0]))
    expected = np.block([[2 * A11, A12], [A12.T, 2 * A22]])
    assert np.allclose(H, expected)


def test_expression_hessian_is_symmetric_and_correct():
    tree = parse_formula("u1^2*u2 + u2^3 + u1*u3", D3)
    obj = ExprObjective(tree)
    p = DecisionPoint.of([1.5], [-2.0], [0.5])
    H = hessian(obj, p)
    assert np.array_equal(H, H.T)
    # d2/du1du2 = 2 u1, d2/du2du2 = 6 u2, d2/du1du3 = 1
    assert H[0, 1] == pytest.approx(3.0)
    assert H[1, 1] == pytest.approx(-12.0)
    assert H[0, 2] == pytest.approx(1.0)


def test_convexity_probe_verdicts(tri):
    assert strict_convexity_probe(tri.objective(2), D_AT) == "certified"
    saddle = ExprObjective(parse_formula("u1^2 - u2^2 + u3^2", D3))
    assert strict_convexity_probe(saddle, D_AT) == "not-certified"
