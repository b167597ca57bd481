import numpy as np
import pytest

from revstack import (
    DecisionPoint,
    Dims,
    ExistenceError,
    ExprObjective,
    GameProblem,
    QuadraticObjective,
    evaluate,
    evaluate_many,
    gradient,
    leader_existence_check,
    parse_formula,
    reduce_problem,
    sublevel_inequality_check,
    synthesize_single_leader,
    team_optimum_quadratic,
)

D_AT = DecisionPoint.of([2.0], [1.0], [3.0])


def test_hyperplane_normal_and_orientation(tri):
    # the follower gradient at d is the hyperplane's normal
    normal = gradient(tri.objective(2), D_AT).concat()
    assert np.allclose(normal, [2.0, 2.0, 6.0])
    # the set {J2 <= 11} is a ball around (1,0,0); its center must sit on
    # the nonpositive side
    assert normal @ (np.array([1.0, 0.0, 0.0]) - D_AT.concat()) < 0
    # and the rank-one rule's graph lies in the plane
    leader = synthesize_single_leader(tri, D_AT)
    for lower in ([0.0, 0.0], [-3.0, 2.5], [4.0, -1.0]):
        on_graph = np.concatenate([leader(lower), lower])
        assert normal @ (on_graph - D_AT.concat()) == pytest.approx(0.0, abs=1e-12)


def test_no_hyperplane_at_a_stationary_point(tri):
    center = DecisionPoint.of([1.0], [0.0], [0.0])  # gradient of J2 vanishes
    v = leader_existence_check(tri, center)
    assert not v.passed
    assert v.block_norm == 0.0
    with pytest.raises(ExistenceError):
        synthesize_single_leader(tri, center)


def test_leader_check_passes_on_the_scalar_trilevel(tri):
    v = leader_existence_check(tri, D_AT)
    assert v.passed
    assert v.block_norm == pytest.approx(2.0)
    assert v.convexity == "certified"


def test_leader_check_fails_when_the_top_block_is_ignored():
    # second objective does not involve u1 at all
    dims = Dims.of(1, 1, 1)
    J1 = QuadraticObjective.build(
        dims, {(1, 1): np.eye(1), (2, 2): np.eye(1), (3, 3): np.eye(1)})
    J2 = QuadraticObjective.build(dims, {(2, 2): np.eye(1), (3, 3): np.eye(1)},
                                  l=[[0], [-2], [0]])
    prob = GameProblem(dims, (J1, J2, J2))
    v = leader_existence_check(prob, DecisionPoint.of([0.0], [0.0], [0.0]))
    assert not v.passed
    assert any("cannot influence" in r for r in v.reasons)


def test_nonconvex_verdict_carries_an_advisory(tri):
    dims = tri.dims
    bumpy = ExprObjective(parse_formula("u1^2 - u2^2 + u3^2 + u1", dims))
    prob = GameProblem(dims, (tri.objective(1), bumpy, tri.objective(3)))
    v = leader_existence_check(prob, D_AT)
    assert v.passed  # gradient block is nonzero
    assert v.convexity == "not-certified"
    assert any("probed" in r for r in v.reasons)


def test_middle_check_on_the_reduced_game(tri):
    eq = team_optimum_quadratic(tri)
    leader = synthesize_single_leader(tri, eq.point)
    reduced = reduce_problem(tri, leader)
    v = leader_existence_check(reduced, eq.point.tail(2))
    assert v.passed
    assert v.block_norm == pytest.approx(6.0)


def test_probe_is_consistent_for_a_convex_set(tri):
    # every sampled member of the convex set {J2 <= J2(d)} lies on the
    # nonpositive side of the hyperplane through d with the gradient normal
    J2 = tri.objective(2)
    d = D_AT.concat()
    normal = gradient(J2, D_AT).concat()
    pts = d + np.random.default_rng(3).uniform(-4.0, 4.0, (4000, d.size))
    values = evaluate_many(J2, [pts[:, i:i + 1] for i in range(d.size)])
    members = pts[values <= evaluate(J2, D_AT)]
    assert len(members) > 0
    assert ((members - d) @ normal).max() <= 1e-9
    # and the rank-one rule's graph stays out of the set's interior
    stats = sublevel_inequality_check(J2, D_AT, synthesize_single_leader(tri, D_AT), 4000, 3)
    assert stats.violations == 0


def test_probe_determinism(tri):
    leader = synthesize_single_leader(tri, D_AT)
    a = sublevel_inequality_check(tri.objective(2), D_AT, leader, 500, 9)
    b = sublevel_inequality_check(tri.objective(2), D_AT, leader, 500, 9)
    assert a.violations == b.violations
    assert a.min_value == b.min_value
    assert np.array_equal(a.min_point, b.min_point)


def test_a_steep_coordinate_does_not_hide_the_leader_block(tri):
    # at u3 = 3 the u3 terms are ~1e148, but the u1 block only sums 2*u1 - 2
    steep = ExprObjective(parse_formula(
        "(u1-1)^2 + (u2-1)^2 + (u3-3)^2 + u3^310 - u3^305", tri.dims))
    prob = GameProblem(tri.dims, (tri.objective(1), steep, tri.objective(3)))
    v = leader_existence_check(prob, D_AT)
    assert v.passed
    assert v.block_norm == pytest.approx(2.0)
    assert v.tol == pytest.approx(1e-8 * (1.0 + 6.0))   # |2*u1| + |-2| at u1 = 2


def test_gradient_tolerance_scales_with_the_block_terms_of_a_quadratic():
    # J = u1^2 - 2 u1 + 1e12 u2^2: a gradient of 2e12 in u2 leaves the
    # tolerance of the u1 block at 1e-8 * (1 + |H11 u1| + |l1|)
    dims = Dims.of(1, 1)
    J = QuadraticObjective.build(dims, {(1, 1): np.eye(1), (2, 2): 1e12 * np.eye(1)},
                                 l=[[-2.0], [0.0]])
    v = leader_existence_check(GameProblem(dims, (J, J)), DecisionPoint.of([2.0], [1.0]))
    assert v.passed
    assert v.block_norm == pytest.approx(2.0)
    assert v.tol == pytest.approx(1e-8 * (1.0 + 4.0 + 2.0))


def test_an_overflowing_leader_block_norm_is_refused_by_name():
    # 400 * 3^399 ~ 1e193 is finite, but its square is not
    dims = Dims.of(1, 1)
    J = ExprObjective(parse_formula("u1^400 + u2^2", dims))
    with pytest.raises(ExistenceError, match="overflows its norm"):
        leader_existence_check(GameProblem(dims, (J, J)), DecisionPoint.of([3.0], [0.0]))
