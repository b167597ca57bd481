import json

import numpy as np
import pytest

from revstack import (
    AffineStrategy,
    DecisionPoint,
    DimensionError,
    Dims,
    GameProblem,
    GridSpec,
    QuadraticObjective,
    SampleSpec,
    SublevelProbe,
    evaluate,
    oracle_best_response,
    parse_formula,
    synthesize_cascade,
    synthesize_single_leader,
    sublevel_inequality_check,
    team_optimum_quadratic,
    verify_full,
)
from revstack.model import ExprObjective
from revstack.verify import ALGEBRAIC_TOL, ARGMIN_TOL

from conftest import random_convex_game


def _chain(problem):
    eq = team_optimum_quadratic(problem)
    return eq, synthesize_cascade(problem, desired=eq.point)


# ---------------------------------------------------------------------------
# the brute-force oracle
# ---------------------------------------------------------------------------

def test_oracle_level_two_recovers_the_desired_tail(tri):
    eq, chain = _chain(tri)
    res = oracle_best_response(tri, chain, 2, anchor=eq.point.tail(2))
    assert np.abs(res.argmin.concat() - [1.0, 3.0]).max() <= ARGMIN_TOL
    assert res.value == pytest.approx(11.0, abs=1e-6)
    assert res.evaluations >= 41 * 41


def test_oracle_level_three_recovers_the_bottom_block(tri):
    eq, chain = _chain(tri)
    res = oracle_best_response(tri, chain, 3, anchor=eq.point.tail(3))
    assert res.argmin.concat() == pytest.approx([3.0], abs=ARGMIN_TOL)
    assert res.value == pytest.approx(14.0, abs=1e-6)


def test_oracle_respects_explicit_bounds(tri):
    eq, chain = _chain(tri)
    res = oracle_best_response(
        tri, chain, 3, GridSpec(bounds=((0.0, 4.0),)), anchor=eq.point.tail(3))
    assert res.argmin.concat() == pytest.approx([3.0], abs=ARGMIN_TOL)
    assert res.grid_argmin == pytest.approx([3.0])  # 3.0 is a grid node here
    assert res.refinement_drift <= 1e-6


def test_oracle_breaks_grid_ties_toward_the_smallest_node():
    dims = Dims.of(1, 1)
    J1 = QuadraticObjective.build(dims, {(1, 1): np.eye(1), (2, 2): np.eye(1)})
    J2 = ExprObjective(parse_formula("(u2^2 - 1)^2", dims))
    prob = GameProblem(dims, (J1, J2))
    gamma = AffineStrategy(1, DecisionPoint.of([0.0], [0.0]), (np.zeros((1, 1)),))
    res = oracle_best_response(prob, [gamma], 2)
    # both wells (+1 and -1) are exact grid nodes with value 0
    assert res.argmin.concat() == pytest.approx([-1.0], abs=1e-9)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_oracle_rejects_bad_levels_and_chains(tri):
    eq, chain = _chain(tri)
    with pytest.raises(DimensionError):
        oracle_best_response(tri, chain, 1)
    with pytest.raises(DimensionError):
        oracle_best_response(tri, chain, 4)
    with pytest.raises(DimensionError):
        oracle_best_response(tri, [], 2)


@pytest.mark.parametrize("seed", range(20))
def test_oracle_agrees_with_quadratic_identification(seed):
    # identify the substituted second-stage cost from function values alone
    # (exact for quadratics) and solve it in closed form
    widths = (seed % 2 + 1, seed % 3 + 1, 1)
    prob = random_convex_game(200 + seed, widths)
    eq = team_optimum_quadratic(prob)
    leader = synthesize_single_leader(prob, eq.point)

    lower_w = prob.dims.m[1:]
    offs = np.concatenate([[0], np.cumsum(lower_w)])
    D = int(offs[-1])

    def F(x):
        blocks = [x[offs[i]:offs[i + 1]] for i in range(len(lower_w))]
        return evaluate(prob.objective(2),
                        DecisionPoint(tuple([leader(blocks)] + blocks)))

    f0 = F(np.zeros(D))
    e = np.eye(D)
    H = np.empty((D, D))
    for i in range(D):
        H[i, i] = F(2 * e[i]) - 2 * F(e[i]) + f0
        for j in range(i + 1, D):
            H[i, j] = H[j, i] = F(e[i] + e[j]) - F(e[i]) - F(e[j]) + f0
    b = np.array([F(e[i]) - f0 - H[i, i] / 2 for i in range(D)])
    closed_form = np.linalg.solve(H, -b)

    res = oracle_best_response(prob, [leader], 2, anchor=eq.point.tail(2))
    assert np.abs(res.argmin.concat() - closed_form).max() <= 2 * ARGMIN_TOL
    # and both sit on the desired tail, as the construction promises
    assert np.abs(closed_form - eq.point.tail(2).concat()).max() <= 1e-8


# ---------------------------------------------------------------------------
# sublevel one-sidedness sampling
# ---------------------------------------------------------------------------

def test_sublevel_check_accepts_the_synthesized_strategy(tri):
    eq, chain = _chain(tri)
    probe = SublevelProbe.at(tri.objective(2), eq.point)
    stats = sublevel_inequality_check(
        probe, chain[0], SampleSpec(count=2000, radius=5.0, seed=5))
    assert stats.violations == 0
    assert stats.threshold == pytest.approx(11.0)
    # the anchor is sample 0 and, the objective being strictly convex, the
    # unique minimum over the graph
    assert stats.min_value == pytest.approx(11.0)
    assert stats.min_point == pytest.approx([1.0, 3.0])


def test_sublevel_check_flags_a_constant_strategy(tri):
    eq = team_optimum_quadratic(tri)
    probe = SublevelProbe.at(tri.objective(2), eq.point)
    flat = AffineStrategy.from_affine(
        1, [1.0], [np.zeros((1, 1)), np.zeros((1, 1))], eq.point.tail(2))
    stats = sublevel_inequality_check(
        probe, flat, SampleSpec(count=2000, radius=5.0, seed=5))
    assert stats.violations > 0
    assert stats.min_value < stats.threshold - ALGEBRAIC_TOL


def test_sublevel_check_is_deterministic(tri):
    eq, chain = _chain(tri)
    probe = SublevelProbe.at(tri.objective(2), eq.point)
    spec = SampleSpec(count=500, radius=5.0, seed=11)
    a = sublevel_inequality_check(probe, chain[0], spec)
    b = sublevel_inequality_check(probe, chain[0], spec)
    assert a.min_value == b.min_value
    assert np.array_equal(a.min_point, b.min_point)


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

def test_full_verification_passes_on_the_scalar_trilevel(tri):
    eq, chain = _chain(tri)
    report = verify_full(tri, chain, desired=eq.point)
    assert report.verified
    assert report.verdict == "verified"
    assert report.reasons == []
    assert [c.level for c in report.strategy_checks] == [1, 2]
    assert [c.level for c in report.response_checks] == [2, 3]
    assert all(c.passed for c in report.strategy_checks)
    assert all(c.passed for c in report.response_checks)
    assert report.response_checks[0].distance <= ARGMIN_TOL
    assert report.desired == [[2.0], [1.0], [3.0]]


def test_full_verification_passes_on_the_wide_game(wide):
    eq, chain = _chain(wide)
    report = verify_full(wide, chain, desired=eq.point)
    assert report.verified
    assert report.strategy_checks[0].membership_residual <= ALGEBRAIC_TOL


def test_full_verification_computes_the_optimum_when_not_given(tri):
    _, chain = _chain(tri)
    report = verify_full(tri, chain)
    assert report.verified
    assert report.desired == [[2.0], [1.0], [3.0]]


def test_corrupted_top_strategy_is_rejected(tri):
    eq, chain = _chain(tri)
    bad = AffineStrategy.from_affine(
        1, [11.0], [np.array([[-1.0]]), np.array([[-2.0]])], eq.point.tail(2))
    report = verify_full(tri, [bad, chain[1]], desired=eq.point)
    assert not report.verified
    assert report.verdict == "failed"
    assert report.reasons  # at least the realization failure is spelled out
    top = report.strategy_checks[0]
    assert top.realization_residual == pytest.approx(2.0, abs=1e-12)
    assert not top.passed
    # the substituted cost now bottoms out at u2 = 5/3, u3 = 10/3
    level2 = report.response_checks[0]
    assert not level2.passed
    assert level2.distance == pytest.approx(2 / 3, abs=1e-3)


def test_report_is_deterministic_and_serializable(tri):
    eq, chain = _chain(tri)
    a = verify_full(tri, chain, desired=eq.point, seed=3).to_dict()
    b = verify_full(tri, chain, desired=eq.point, seed=3).to_dict()
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert set(a["tolerances"]) == {"argmin", "algebraic",
                                    "grid_radius", "grid_points"}


def test_wrong_chain_length_is_rejected(tri):
    _, chain = _chain(tri)
    with pytest.raises(DimensionError):
        verify_full(tri, chain[:1])
    with pytest.raises(DimensionError):
        verify_full(tri, list(chain) + list(chain))


def test_degenerate_bilevel_verifies_with_informational_existence():
    # second objective equal to the first: the desired point is its global
    # minimum, so no hyperplane construction exists, yet announcing the
    # constant strategy still realizes the optimum
    dims = Dims.of(1, 1)
    J1 = QuadraticObjective.build(
        dims, {(1, 1): np.eye(1), (2, 2): np.eye(1)},
        [[-4.0], [2.0]])
    prob = GameProblem(dims, (J1, J1))
    eq = team_optimum_quadratic(prob)
    assert eq.point.concat() == pytest.approx([2.0, -1.0])
    flat = AffineStrategy(1, eq.point, (np.zeros((1, 1)),))
    report = verify_full(prob, [flat], desired=eq.point)
    assert report.verified
    assert report.reasons == []
    assert not report.strategy_checks[0].existence_passed
    assert report.strategy_checks[0].existence_norm == pytest.approx(0.0)


def test_verification_soundness_on_random_games():
    for i in range(8):
        prob = random_convex_game(400 + i, (i % 3 + 1, 1, 1))
        eq, chain = _chain(prob)
        report = verify_full(prob, chain, desired=eq.point)
        assert report.verified, report.reasons
