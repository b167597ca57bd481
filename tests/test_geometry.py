import numpy as np
import pytest

from revstack import (
    DecisionPoint,
    Dims,
    ExistenceError,
    ExprObjective,
    GameProblem,
    QuadraticObjective,
    SampleSpec,
    SublevelProbe,
    exposed_point_probe,
    leader_existence_check,
    parse_formula,
    reduce_problem,
    supporting_hyperplane_at,
    synthesize_single_leader,
    team_optimum_quadratic,
)

D_AT = DecisionPoint.of([2.0], [1.0], [3.0])


def test_hyperplane_normal_and_orientation(tri):
    plane = supporting_hyperplane_at(tri.objective(2), D_AT)
    assert np.allclose(plane.normal.concat(), [2.0, 2.0, 6.0])
    assert plane.residual(D_AT) == pytest.approx(0.0)
    # the set {J2 <= 11} is a ball around (1,0,0); its center must sit on
    # the nonpositive side
    assert plane.residual(DecisionPoint.of([1.0], [0.0], [0.0])) < 0


def test_no_hyperplane_at_a_stationary_point(tri):
    center = DecisionPoint.of([1.0], [0.0], [0.0])  # gradient of J2 vanishes
    with pytest.raises(ExistenceError):
        supporting_hyperplane_at(tri.objective(2), center)


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
    probe = SublevelProbe.at(tri.objective(2), D_AT)
    plane = supporting_hyperplane_at(tri.objective(2), D_AT)
    res = exposed_point_probe(probe, plane, SampleSpec(count=4000, radius=4.0, seed=3))
    assert res.verdict == "consistent"
    assert res.samples_in_set > 0
    assert res.witness is None


def test_probe_refutes_support_for_an_anti_ball():
    # J = -(u1^2 + u2^2 + u3^2): the sublevel set at (1,0,0) is everything
    # OUTSIDE the unit ball, which no hyperplane through (1,0,0) supports.
    dims = Dims.of(1, 1, 1)
    J = ExprObjective(parse_formula("-(u1^2 + u2^2 + u3^2)", dims))
    anchor = DecisionPoint.of([1.0], [0.0], [0.0])
    probe = SublevelProbe.at(J, anchor)
    plane = supporting_hyperplane_at(J, anchor)
    res = exposed_point_probe(probe, plane, SampleSpec(count=2000, radius=2.0, seed=1))
    assert res.verdict == "refuted"
    assert res.witness is not None
    assert res.witness_residual > 1e-9
    # the witness really is a set member on the wrong side
    w = res.witness.concat()
    assert w @ w >= 1.0 - 1e-9


def test_probe_determinism(tri):
    probe = SublevelProbe.at(tri.objective(2), D_AT)
    plane = supporting_hyperplane_at(tri.objective(2), D_AT)
    spec = SampleSpec(count=500, radius=3.0, seed=9)
    a = exposed_point_probe(probe, plane, spec)
    b = exposed_point_probe(probe, plane, spec)
    assert a.verdict == b.verdict
    assert a.samples_in_set == b.samples_in_set


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
