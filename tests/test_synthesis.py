import pathlib

import numpy as np
import pytest

from revstack import (
    AffineStrategy,
    DecisionPoint,
    DimensionError,
    DocumentError,
    ExistenceError,
    GameProblem,
    LinearConstraints,
    QuadraticObjective,
    RevstackError,
    evaluate,
    gradient,
    instantiate,
    parse_problem,
    reduce_problem,
    synthesize_cascade,
    synthesize_family_leader,
    synthesize_single_leader,
    team_optimum,
    team_optimum_quadratic,
    verify_full,
)
from revstack.synthesis import _look_ahead, _stage_family

from conftest import outcome, quadratic_to_expr, random_convex_game


# ---------------------------------------------------------------------------
# scalar trilevel: everything is known in closed form
# ---------------------------------------------------------------------------

def test_leader_gains_on_the_scalar_trilevel(tri):
    eq = team_optimum_quadratic(tri)
    s = synthesize_single_leader(tri, eq.point)
    assert s.level == 1
    assert np.allclose(s.coeffs[0], [[1.0]], atol=1e-12)
    assert np.allclose(s.coeffs[1], [[3.0]], atol=1e-12)
    assert s.describe() == ["u1 = 12 - u2 - 3*u3"]


def test_leader_realizes_the_desired_point(tri):
    eq = team_optimum_quadratic(tri)
    s = synthesize_single_leader(tri, eq.point)
    assert s(eq.point.tail(2))[0] == pytest.approx(2.0, abs=1e-12)
    # deviation response off the anchor
    assert s([np.array([0.0]), np.array([0.0])])[0] == pytest.approx(12.0)


def test_reduced_gradients_chain_rule(tri):
    eq = team_optimum_quadratic(tri)
    leader = synthesize_single_leader(tri, eq.point)
    # the bottom cost once the top strategy is substituted (stage 2 of the cascade)
    reduced = reduce_problem(tri, leader)
    g = gradient(reduced.objective(2), eq.point.tail(2))
    assert g.block(1) == pytest.approx(-6.0)
    assert g.block(2) == pytest.approx(-6.0)
    # chain rule through u1 = gamma(u2, u3): dJ/du_j - Q_j' dJ/du1
    raw = gradient(tri.objective(3), eq.point)
    for j, Q in enumerate(leader.coeffs, start=1):
        assert g.block(j) == pytest.approx(raw.block(j + 1) - Q.T @ raw.block(1))


def test_middle_strategy_on_the_scalar_trilevel(tri):
    eq = team_optimum_quadratic(tri)
    mid = synthesize_cascade(tri, desired=eq.point)[1]
    assert mid.level == 2
    assert np.allclose(mid.coeffs[0], [[1.0]], atol=1e-12)
    assert mid.describe() == ["u2 = 4 - u3"]


def test_cascade_equals_the_two_explicit_stages(tri):
    eq = team_optimum_quadratic(tri)
    leader = synthesize_single_leader(tri, eq.point)
    # stage 2 by hand: the rank-one top strategy of the reduced game
    mid = synthesize_single_leader(reduce_problem(tri, leader), eq.point.tail(2))
    cascade = synthesize_cascade(tri, desired=eq.point)
    assert len(cascade) == 2
    assert [s.level for s in cascade] == [1, 2]
    for a, b in zip(cascade, (leader, mid)):
        for qa, qb in zip(a.coeffs, b.coeffs):
            assert np.allclose(qa, qb, atol=1e-12)


def test_leader_existence_failure_raises(tri):
    # second objective ignores the top block entirely
    dims = tri.dims
    J2 = QuadraticObjective.build(dims, {(2, 2): np.eye(1), (3, 3): np.eye(1)})
    prob = GameProblem(dims, (tri.objective(1), J2, tri.objective(3)))
    eq = team_optimum_quadratic(prob)
    with pytest.raises(ExistenceError) as info:
        synthesize_single_leader(prob, eq.point)
    assert info.value.level == 1


def test_middle_existence_failure_raises(tri):
    # bottom cost identical to the second: after the top substitution its
    # reduced gradient vanishes at the desired point
    prob = GameProblem(tri.dims, (tri.objective(1), tri.objective(2),
                                  tri.objective(2)))
    eq = team_optimum_quadratic(prob)
    with pytest.raises(ExistenceError) as info:
        synthesize_cascade(prob, desired=eq.point)
    assert info.value.level == 2
    # the refusal names the stage and its announcing level
    assert "stage 2 (announcing level 2)" in str(info.value)
    assert "cannot influence" in str(info.value)
    assert "top player" not in str(info.value)


# ---------------------------------------------------------------------------
# wide leader: the family of optimal gains
# ---------------------------------------------------------------------------

def _wide_family(wide):
    eq = team_optimum_quadratic(wide)
    return eq, synthesize_family_leader(wide, eq.point)


def test_family_null_basis_orthogonal_to_the_gradient(wide):
    eq, fam = _wide_family(wide)
    g1 = gradient(wide.objective(2), eq.point).block(1)
    assert np.allclose(g1, [-5.0, -3.0])
    assert fam.null_basis.shape == (2, 1)
    assert abs(g1 @ fam.null_basis).max() <= 1e-12 * np.linalg.norm(g1)
    assert np.linalg.norm(fam.null_basis) == pytest.approx(1.0)


def test_family_particular_member_is_the_rank_one_strategy(wide):
    eq, fam = _wide_family(wide)
    rank_one = synthesize_single_leader(wide, eq.point)
    zero = instantiate(fam, [np.zeros(s) for s in fam.param_shapes])
    for a, b in zip(zero.coeffs, rank_one.coeffs):
        assert np.allclose(a, b, atol=1e-14)


def test_gain_identity_holds_for_every_member(wide):
    # every member's gains push the top gradient onto the lower ones:
    # Q_j^T g_1 = g_j
    eq, fam = _wide_family(wide)
    g = gradient(wide.objective(2), eq.point)
    rng = np.random.default_rng(12)
    for _ in range(10):
        member = instantiate(
            fam, [rng.standard_normal(s) for s in fam.param_shapes])
        for j, Q in enumerate(member.coeffs, start=2):
            assert np.allclose(Q.T @ g.block(1), g.block(j), atol=1e-10)


def test_published_coefficients_belong_to_the_family(wide):
    # the hand-derived member: u1 = d1 + (2/5, 0)(u2 - d2) + (-1/5, 0)(u3 - d3)
    eq, fam = _wide_family(wide)
    member = AffineStrategy.from_affine(
        1, np.array([-12 / 5, -3 / 2]),
        (np.array([[2 / 5], [0.0]]), np.array([[-1 / 5], [0.0]])),
        eq.point.tail(2))
    params, residual = fam.membership(member)
    assert residual <= 1e-9
    assert member(eq.point.tail(2)) == pytest.approx([-2.5, -1.5])


def test_family_matches_the_independent_parameterization(wide):
    # Direct construction: c1(t) = ((2-3t)/5, t), c2(t) = (-(1+3t)/5, t)
    # gives exactly the strategies satisfying the gain identity; every such
    # map must be a family member and vice versa.
    eq, fam = _wide_family(wide)
    d = eq.point

    def direct_member(t1, t2):
        c1 = np.array([[(2 - 3 * t1) / 5], [t1]])
        c2 = np.array([[-(1 + 3 * t2) / 5], [t2]])
        offset = d.block(1) - c1 @ d.block(2) - c2 @ d.block(3)
        return AffineStrategy.from_affine(1, offset, (c1, c2), d.tail(2))

    rng = np.random.default_rng(21)
    for _ in range(10):
        t1, t2 = rng.uniform(-2, 2, 2)
        _, residual = fam.membership(direct_member(t1, t2))
        assert residual <= 1e-9

    # and the reverse direction: each instantiated member has the direct shape
    for _ in range(10):
        member = instantiate(
            fam, [rng.standard_normal(s) for s in fam.param_shapes])
        C = [-Q for Q in member.coeffs]  # direct linear coefficients
        t1, t2 = C[0][1, 0], C[1][1, 0]
        assert C[0][0, 0] == pytest.approx((2 - 3 * t1) / 5, abs=1e-10)
        assert C[1][0, 0] == pytest.approx(-(1 + 3 * t2) / 5, abs=1e-10)


def test_perturbation_along_the_gradient_leaves_the_family(wide):
    eq, fam = _wide_family(wide)
    g1 = gradient(wide.objective(2), eq.point).block(1)
    member = instantiate(fam, [np.zeros(s) for s in fam.param_shapes])
    bad = AffineStrategy(
        1, eq.point,
        (member.coeffs[0] + 0.05 * g1.reshape(-1, 1), member.coeffs[1]))
    _, residual = fam.membership(bad)
    assert residual > 1e-6


def test_scalar_top_level_family_is_a_single_point(tri):
    eq = team_optimum_quadratic(tri)
    fam = synthesize_family_leader(tri, eq.point)
    assert fam.is_single_point
    assert fam.param_shapes == ((0, 1), (0, 1))
    only = instantiate(fam, [np.zeros((0, 1)), np.zeros((0, 1))])
    assert np.allclose(only.coeffs[0], [[1.0]])


def test_stage_two_family_of_a_wide_middle_level():
    # dims (1, 2, 1): the stage-2 player owns two variables, so its family
    # has a one-column null basis and the cascade's rule is its particular member
    problem = random_convex_game(5, (1, 2, 1))
    eq = team_optimum_quadratic(problem)
    chain = synthesize_cascade(problem, desired=eq.point)
    fam = _stage_family(reduce_problem(problem, chain[0]), eq.point.tail(2), 2)
    assert fam.level == 2
    assert fam.null_basis.shape == (2, 1)
    assert [Q.tobytes() for Q in fam.particular] == [Q.tobytes() for Q in chain[1].coeffs]
    member = instantiate(fam, [np.zeros(s) for s in fam.param_shapes])
    assert member.level == chain[1].level
    for a, b in zip(member.anchor.blocks + member.coeffs,
                    chain[1].anchor.blocks + chain[1].coeffs):
        assert np.array_equal(a, b)
    assert fam.membership(chain[1])[1] == 0.0


def test_instantiate_rejects_bad_shapes(wide):
    _, fam = _wide_family(wide)
    with pytest.raises(DimensionError):
        instantiate(fam, [np.zeros((2, 2)), np.zeros((1, 1))])
    with pytest.raises(DimensionError):
        instantiate(fam, [np.zeros((1, 1))])


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _substitution_agrees(problem, strategy, seed, atol=1e-9):
    """Reduced objective values must equal the originals on the graph."""
    reduced = reduce_problem(problem, strategy)
    rng = np.random.default_rng(seed)
    widths = problem.dims.m[1:]
    for _ in range(100):
        lower = [rng.uniform(-5, 5, w) for w in widths]
        top = strategy(lower)
        full = DecisionPoint(tuple([top] + lower))
        tail = DecisionPoint(tuple(lower))
        for lev in range(2, problem.levels + 1):
            a = evaluate(problem.objective(lev), full)
            b = evaluate(reduced.objective(lev - 1), tail)
            assert abs(a - b) <= atol * (1.0 + abs(a))


def test_reduction_is_exact_on_the_scalar_trilevel(tri):
    eq = team_optimum_quadratic(tri)
    _substitution_agrees(tri, synthesize_single_leader(tri, eq.point), 31)


def test_reduction_is_exact_on_the_wide_game(wide):
    eq = team_optimum_quadratic(wide)
    _substitution_agrees(wide, synthesize_single_leader(wide, eq.point), 32)


def test_reduction_is_exact_on_expression_objectives(tri_expr):
    eq = team_optimum(tri_expr)
    _substitution_agrees(
        tri_expr, synthesize_single_leader(tri_expr, eq.point), 33, atol=1e-6)


def test_reduction_refuses_a_non_finite_expansion(tri_expr):
    # u1 = 1e200 + u2 squares to a coefficient beyond the double range
    rule = AffineStrategy.from_affine(
        1, [1e200], [[[1.0]], [[0.0]]], DecisionPoint.of([0.0], [0.0]))
    with pytest.raises(RevstackError, match="not finite") as info:
        reduce_problem(tri_expr, rule)
    assert not isinstance(info.value, DocumentError)


def test_reduction_refuses_a_non_finite_quadratic(tri):
    # u1 = 1e200 puts (1e200)^2 / 2 into the constant of every reduced cost
    rule = AffineStrategy.from_affine(
        1, [1e200], [[[1.0]], [[0.0]]], DecisionPoint.of([0.0], [0.0]))
    with pytest.raises(RevstackError, match="quadratic coefficient is not finite") as info:
        reduce_problem(tri, rule)
    assert not isinstance(info.value, (DocumentError, DimensionError))


def test_reduction_is_exact_on_a_random_game():
    for widths in ((3, 2, 2), (2, 1, 1, 1), (1, 2, 2)):
        prob = random_convex_game(17, widths)
        eq = team_optimum_quadratic(prob)
        _substitution_agrees(prob, synthesize_single_leader(prob, eq.point), 34)


def test_reduction_ignores_the_rule_label():
    # stage 2 of a four-level cascade, reduced by the level-2 rule as labelled
    # and relabelled as the stage's top level, with an expression objective
    # and constraint rows, which the reduction drops
    base = random_convex_game(9, (2, 1, 1, 1))
    rng = np.random.default_rng(37)
    rows = LinearConstraints(tuple(rng.standard_normal((3, w)) for w in base.dims.m),
                             rng.standard_normal(3))
    prob = GameProblem(base.dims, base.objectives[:2] + (quadratic_to_expr(base.objective(3)),)
                       + base.objectives[3:], rows)
    cascade = synthesize_cascade(prob, desired=team_optimum_quadratic(base).point)
    stage = reduce_problem(prob, cascade[0])
    rule = cascade[1]
    assert rule.level == 2
    a = reduce_problem(stage, rule)
    b = reduce_problem(stage, AffineStrategy(1, rule.anchor, rule.coeffs))
    assert a.dims.m == b.dims.m == (1, 1)
    for oa, ob in zip(a.objectives, b.objectives):
        if isinstance(oa, QuadraticObjective):
            assert np.array_equal(oa.H, ob.H) and np.array_equal(oa.l, ob.l)
            assert oa.const == ob.const and oa.widths == ob.widths
        else:
            assert oa.poly.keys == ob.poly.keys
            assert outcome(lambda: oa.poly) == outcome(lambda: ob.poly)
    assert a.constraints is None
    # a rule mapping the wrong number of lower levels is still refused
    for wrong in (cascade[0], cascade[2]):
        with pytest.raises(DimensionError):
            reduce_problem(stage, wrong)


def test_reduced_scalar_trilevel_bottom_cost(tri):
    # substituting u1 = 12 - u2 - 3 u3 into u1^2 + (u2-2)^2 + u3^2 gives
    # 2 u2^2 + 6 u2 u3 + 10 u3^2 - 28 u2 - 72 u3 + 148
    eq = team_optimum_quadratic(tri)
    leader = synthesize_single_leader(tri, eq.point)
    reduced = reduce_problem(tri, leader)
    bottom = reduced.objective(2)
    rng = np.random.default_rng(35)
    for _ in range(20):
        u2, u3 = rng.uniform(-4, 4, 2)
        expected = (2 * u2 ** 2 + 6 * u2 * u3 + 10 * u3 ** 2
                    - 28 * u2 - 72 * u3 + 148)
        assert evaluate(bottom, DecisionPoint.of([u2], [u3])) == pytest.approx(expected)


def test_cascade_on_a_four_level_game_matches_manual_reduction():
    prob = random_convex_game(9, (2, 1, 1, 1))
    eq = team_optimum_quadratic(prob)
    cascade = synthesize_cascade(prob, desired=eq.point)
    assert [s.level for s in cascade] == [1, 2, 3]
    assert [len(s.coeffs) for s in cascade] == [3, 2, 1]

    # manual: synthesize, reduce, repeat
    stage, d = prob, eq.point
    for s in cascade:
        fresh = synthesize_single_leader(stage, d)
        for qa, qb in zip(s.coeffs, fresh.coeffs):
            assert np.allclose(qa, qb, atol=1e-10)
        if s.level < 3:
            stage = reduce_problem(stage, fresh)
            d = d.tail(2)

    # anchors sit at the tails of the original desired point
    for s in cascade:
        assert np.allclose(s.anchor.concat(),
                           eq.point.tail(s.level).concat(), atol=1e-12)


def test_look_ahead_member_replaces_a_rank_one_rule_that_blinds_the_next_stage():
    path = pathlib.Path(__file__).parent / "data" / "lookahead_c2111k13.json"
    problem = parse_problem(path.read_text())
    d = team_optimum(problem).point
    rank_one = synthesize_single_leader(problem, d)
    with pytest.raises(ExistenceError, match="stage 2 .*cannot influence") as info:
        _stage_family(reduce_problem(problem, rank_one), d.tail(2), 2)
    assert info.value.verdict.block_norm == pytest.approx(1.26e-6, rel=0.01)
    chain = synthesize_cascade(problem, desired=d)
    # only the top rule's gain on level 2 changed: it is still a stage-1
    # family member, and it cancels level 3's gradient in u1
    g = gradient(problem.objective(2), d)
    h = gradient(problem.objective(3), d).block(1)
    Q2 = chain[0].coeffs[0]
    assert np.allclose(g.block(1) @ Q2, g.block(2), rtol=0, atol=1e-12)
    assert np.abs(h @ Q2).max() <= 1e-12
    assert all(np.array_equal(a, b) for a, b in zip(chain[0].coeffs[1:], rank_one.coeffs[1:]))
    assert verify_full(problem, chain, desired=d).verified


def test_a_failure_every_member_shares_is_called_a_proof(tri):
    # one-wide top level: every stage-1 member adds the same term to stage 2
    prob = GameProblem(tri.dims, (tri.objective(1), tri.objective(2), tri.objective(2)))
    eq = team_optimum_quadratic(prob)
    with pytest.raises(ExistenceError) as info:
        synthesize_cascade(prob, desired=eq.point)
    assert info.value.level == 2
    assert str(info.value).startswith("stage 2 (announcing level 2): the announcing player "
                                      "cannot influence this objective at the anchor")
    assert ("every member of stage 1's family gives this block, since level 3's gradient "
            "in u1 is parallel to level 2's" in str(info.value))


def _least_squares_look_ahead(stage, d):
    """The look-ahead gain on level 2 as least squares builds it: the
    minimum-norm Q with [g_1 h]^T Q = [g_2^T; 0], g being level 2's
    gradient and h level 3's gradient in u1."""
    g = gradient(stage.objective(2), d)
    h = gradient(stage.objective(3), d).block(1)
    rhs = np.vstack([g.block(2)[None, :], np.zeros((1, g.block(2).size))])
    return np.linalg.lstsq(np.column_stack([g.block(1), h]).T, rhs, rcond=None)[0]


@pytest.mark.parametrize("seed, widths", [(51, (2, 1, 1)), (52, (3, 2, 1)),
                                          (53, (4, 1, 2, 1)), (54, (4, 3, 2))])
def test_look_ahead_parameters_name_the_least_norm_member_that_cancels_h(seed, widths):
    stage = random_convex_game(seed, widths)
    d = team_optimum_quadratic(stage).point
    family = _stage_family(stage, d, 1)
    assert family.null_basis.shape[1] == widths[0] - 1
    params = _look_ahead(stage, family, ExistenceError("blocked", verdict=object(), level=2))
    member = instantiate(family, params)
    Q = member.coeffs[0]
    reference = _least_squares_look_ahead(stage, d)
    assert np.linalg.norm(Q - reference) <= 1e-12 * np.linalg.norm(reference)
    h = gradient(stage.objective(3), d).block(1)
    assert np.abs(h @ Q).max() <= 1e-12 * np.linalg.norm(h) * np.linalg.norm(Q)
    # only T on level 2 is chosen; the member lies in the family under it
    assert all(not T.any() for T in params[1:])
    back, residual = family.membership(member)
    assert residual <= 1e-12
    for T, T_back in zip(params, back):
        assert np.allclose(T_back, T, rtol=1e-12, atol=1e-12)
    # scaling level 2 by 2^480 and level 3 by 2^520 leaves Q^0 and T bit for
    # bit, though v^T v would then overflow
    def scaled(J, e):
        return QuadraticObjective(np.ldexp(J.H, e), np.ldexp(J.l, e), J.const, J.widths)

    far = GameProblem(stage.dims, (stage.objective(1), scaled(stage.objective(2), 480),
                                   scaled(stage.objective(3), 520)) + stage.objectives[3:])
    far_family = _stage_family(far, d, 1)
    assert all(np.array_equal(a, b) for a, b in zip(far_family.particular, family.particular))
    again = _look_ahead(far, far_family, ExistenceError("blocked", verdict=object(), level=2))
    assert all(np.array_equal(a, b) for a, b in zip(again, params))
    # level 3 alone by 2^600: h keeps its direction, so T keeps its bits and
    # h is not taken for parallel to g_1
    steep = GameProblem(stage.dims, stage.objectives[:2] + (scaled(stage.objective(3), 600),)
                        + stage.objectives[3:])
    again = _look_ahead(steep, family, ExistenceError("blocked", verdict=object(), level=2))
    assert all(np.array_equal(a, b) for a, b in zip(again, params))


@pytest.mark.parametrize("widths, parallel", [((2, 1, 1), True), ((3, 2, 1), True),
                                              ((1, 2, 1), False), ((1, 1, 2, 1), False)])
def test_look_ahead_refuses_when_every_member_adds_the_same_term(widths, parallel):
    # h parallel to g_1 (level 3 copies level 2's cost), or a one-wide top
    # level, where every h is parallel to g_1
    base = random_convex_game(55, widths)
    stage = GameProblem(base.dims, base.objectives[:2]
                        + (base.objective(2) if parallel else base.objective(3),)
                        + base.objectives[3:])
    d = team_optimum_quadratic(base).point
    family = _stage_family(stage, d, 1)
    verdict = object()
    failure = ExistenceError("stage 2 (announcing level 2): blocked", verdict=verdict, level=2)
    with pytest.raises(ExistenceError) as info:
        _look_ahead(stage, family, failure)
    assert str(info.value) == (
        "stage 2 (announcing level 2): blocked; every member of stage 1's family gives this "
        "block, since level 3's gradient in u1 is parallel to level 2's: no rule there "
        "avoids it")
    assert info.value.verdict is verdict and info.value.level == 2


def test_cascade_announces_the_member_the_look_ahead_names():
    path = pathlib.Path(__file__).parent / "data" / "lookahead_c2111k13.json"
    problem = parse_problem(path.read_text())
    d = team_optimum(problem).point
    family = _stage_family(problem, d, 1)
    with pytest.raises(ExistenceError) as info:
        _stage_family(reduce_problem(problem, synthesize_single_leader(problem, d)), d.tail(2), 2)
    member = instantiate(family, _look_ahead(problem, family, info.value))
    chain = synthesize_cascade(problem, desired=d)
    assert all(np.array_equal(a, b) for a, b in zip(chain[0].coeffs, member.coeffs))
    assert np.array_equal(chain[0].anchor.concat(), member.anchor.concat())


def test_cascade_annotates_existence_failures(tri):
    prob = GameProblem(tri.dims, (tri.objective(1), tri.objective(2),
                                  tri.objective(2)))
    eq = team_optimum_quadratic(prob)
    with pytest.raises(ExistenceError) as info:
        synthesize_cascade(prob, desired=eq.point)
    assert info.value.level == 2
    assert "stage 2" in str(info.value)
    assert "top player" not in str(info.value)


def test_strategy_offset_form_round_trip(wide):
    eq = team_optimum_quadratic(wide)
    s = synthesize_single_leader(wide, eq.point)
    offset, linear = s.as_affine()
    back = AffineStrategy.from_affine(1, offset, linear, eq.point.tail(2))
    rng = np.random.default_rng(37)
    for _ in range(20):
        lower = [rng.uniform(-5, 5, 1), rng.uniform(-5, 5, 1)]
        assert np.allclose(s(lower), back(lower), atol=1e-12)


def test_a_rule_sums_over_every_coordinate_of_each_lower_block():
    # a rule's value is a sum over each lower block's coordinates: a block
    # without one is refused, and so is a point of other widths
    with pytest.raises(DimensionError, match="every lower block"):
        AffineStrategy(1, DecisionPoint.of([1.0], []), (np.zeros((1, 0)),))
    rule = AffineStrategy(1, DecisionPoint.of([1.0], [0.0, 0.0]), (np.ones((1, 2)),))
    assert rule([[1.0, 2.0]]).tolist() == [-2.0]
    for lower in ([[1.0]], [[1.0, 2.0, 3.0]], [[[1.0, 2.0]]]):
        with pytest.raises(DimensionError, match="expected widths"):
            rule(lower)


def test_an_offset_past_the_double_range_is_refused():
    # u1 = d1 - 1e10 * (u2 - d2) with d2 = 1e300: the offset d1 + 1e10 * d2 overflows
    rule = AffineStrategy(1, DecisionPoint.of([0.0], [1e300]), ([[1e10]],))
    with pytest.raises(RevstackError, match="offset of the level 1 rule is not finite"):
        rule.as_affine()
