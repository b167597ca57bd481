"""End-to-end acceptance checks.

Each test covers one headline capability and records exactly one
``criterion N: PASS/FAIL - <detail>`` line; the lines are echoed in a
summary section after every run (see conftest) and the test fails loudly
when any sub-check misses its stated tolerance.
"""

import numpy as np
import pytest

from revstack import (
    AffineStrategy,
    DecisionPoint,
    LinearConstraints,
    feasibility_check,
    gradient,
    instantiate,
    oracle_best_response,
    sublevel_inequality_check,
    synthesize_cascade,
    synthesize_family_leader,
    synthesize_single_leader,
    team_optimum_quadratic,
    verify_full,
)
from revstack.verify import SAMPLE_RADIUS

import conftest
from conftest import (
    fd_gradient,
    random_convex_game,
    scalar_trilevel,
    scalar_trilevel_expr,
    wide_leader,
)


class Criterion:
    """Collects sub-check failures and emits the single summary line."""

    def __init__(self, number, summary):
        self.number = number
        self.summary = summary
        self.problems = []

    def check(self, ok, label):
        if not ok:
            self.problems.append(label)
        return ok

    def conclude(self):
        ok = not self.problems
        detail = self.summary if ok else "; ".join(self.problems)
        line = "criterion %d: %s - %s" % (self.number, "PASS" if ok else "FAIL", detail)
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, detail


def _run(criterion):
    def wrap(fn):
        def test():
            try:
                fn(criterion)
            except AssertionError:
                raise
            except Exception as exc:  # ensure the line still appears
                criterion.problems.append("unexpected error: %r" % exc)
            criterion.conclude()
        return test
    return wrap


# ---------------------------------------------------------------------------
# 1. exact synthesis and independent best responses on the scalar trilevel
# ---------------------------------------------------------------------------

@_run(Criterion(1, "scalar trilevel: optimum (2,1,3), gains (1,3)/(1), "
                   "oracle argmins within 1e-4"))
def test_criterion_1_scalar_trilevel_synthesis(c):
    tri = scalar_trilevel()
    eq = team_optimum_quadratic(tri)
    c.check(eq.method == "linear-solve", "expected the linear-solve route")
    c.check(eq.kkt_residual <= 1e-9, "stationarity residual above 1e-9")
    c.check(np.abs(eq.point.concat() - [2.0, 1.0, 3.0]).max() <= 1e-9,
            "team optimum is not (2, 1, 3) to 1e-9")

    leader = synthesize_single_leader(tri, eq.point)
    middle = synthesize_cascade(tri, desired=eq.point)[1]
    c.check(abs(leader.coeffs[0][0, 0] - 1.0) <= 1e-9
            and abs(leader.coeffs[1][0, 0] - 3.0) <= 1e-9,
            "top-level gains are not (1, 3) to 1e-9")
    c.check(abs(middle.coeffs[0][0, 0] - 1.0) <= 1e-9,
            "middle gain is not 1 to 1e-9")
    c.check(leader.describe() == ["u1 = 12 - u2 - 3*u3"],
            "top strategy does not print as u1 = 12 - u2 - 3*u3")

    chain = [leader, middle]
    r2 = oracle_best_response(tri, chain, 2, anchor=eq.point.tail(2))
    r3 = oracle_best_response(tri, chain, 3, anchor=eq.point.tail(3))
    c.check(np.abs(r2.argmin.concat() - [1.0, 3.0]).max() <= 1e-4,
            "level-2 brute-force argmin misses (1, 3) by more than 1e-4")
    c.check(np.abs(r3.argmin.concat() - [3.0]).max() <= 1e-4,
            "level-3 brute-force argmin misses 3 by more than 1e-4")


# ---------------------------------------------------------------------------
# 2. the full strategy family on a game with a two-wide top level
# ---------------------------------------------------------------------------

@_run(Criterion(2, "wide top level: family basis orthogonal, published member "
                   "inside to 1e-9, 10 members all supporting and optimal"))
def test_criterion_2_wide_strategy_family(c):
    wide = wide_leader()
    eq = team_optimum_quadratic(wide)
    d = eq.point
    c.check(np.abs(d.concat() - [-2.5, -1.5, -0.5, -0.5]).max() <= 1e-9,
            "team optimum is not (-5/2, -3/2, -1/2, -1/2) to 1e-9")

    family = synthesize_family_leader(wide, d)
    g = gradient(wide.objective(2), d)
    g1 = g.block(1)
    c.check(family.null_basis.shape == (2, 1), "null basis should have one column")
    c.check(float(np.abs(g1 @ family.null_basis).max())
            <= 1e-12 * float(np.linalg.norm(g1)),
            "null basis is not orthogonal to the top gradient block")

    published = AffineStrategy.from_affine(
        1, np.array([-12 / 5, -3 / 2]),
        (np.array([[2 / 5], [0.0]]), np.array([[-1 / 5], [0.0]])),
        d.tail(2))
    _, residual = family.membership(published)
    c.check(residual <= 1e-9,
            "hand-derived member has family residual %.3g > 1e-9" % residual)

    rng = np.random.default_rng(2024)
    probe_pts = rng.uniform(-3.0, 3.0, (100, 2))
    worst_plane = 0.0
    worst_argmin = 0.0
    for _ in range(10):
        member = instantiate(
            family, [rng.standard_normal(s) for s in family.param_shapes])
        # supporting-hyperplane residual, assembled from raw dot products
        for u2, u3 in probe_pts:
            x = [np.array([u2]), np.array([u3])]
            r = (g1 @ (member(x) - d.block(1))
                 + g.block(2) @ (x[0] - d.block(2))
                 + g.block(3) @ (x[1] - d.block(3)))
            worst_plane = max(worst_plane, abs(float(r)))
        res = oracle_best_response(wide, [member], 2, anchor=d.tail(2))
        worst_argmin = max(
            worst_argmin,
            float(np.abs(res.argmin.concat() - [-0.5, -0.5]).max()))
    c.check(worst_plane <= 1e-9,
            "a member leaves the supporting hyperplane by %.3g" % worst_plane)
    c.check(worst_argmin <= 1e-4,
            "a member's induced argmin misses (-1/2, -1/2) by %.3g" % worst_argmin)

    # stage 2 of the cascade under the rank-one (zero-parameter) member
    middle = synthesize_cascade(wide, desired=d)[1]
    c.check(float(np.abs(middle([d.block(3)]) - d.block(2)).max()) <= 1e-9,
            "middle strategy does not realize the desired block")


# ---------------------------------------------------------------------------
# 3. analytic derivatives against finite differences
# ---------------------------------------------------------------------------

@_run(Criterion(3, "analytic gradients match central differences to 1e-6 "
                   "relative on 100 seeded points"))
def test_criterion_3_derivative_consistency(c):
    games = [scalar_trilevel(), scalar_trilevel_expr(), wide_leader(),
             random_convex_game(77, (2, 2, 1))]
    rng = np.random.default_rng(42)
    worst = 0.0
    for prob in games:
        for _ in range(25):
            p = DecisionPoint.of(*[rng.uniform(-4.0, 4.0, w) for w in prob.dims.m])
            for lev in range(1, prob.levels + 1):
                a = gradient(prob.objective(lev), p).concat()
                f = fd_gradient(prob.objective(lev), p).concat()
                rel = float(np.linalg.norm(a - f) / (1.0 + np.linalg.norm(a)))
                worst = max(worst, rel)
    c.check(worst <= 1e-6,
            "worst relative gradient disagreement %.3g exceeds 1e-6" % worst)


# ---------------------------------------------------------------------------
# 4. synthesis + verification across a seeded batch of random games
# ---------------------------------------------------------------------------

@_run(Criterion(4, "50 random strictly convex trilevel games: cascade "
                   "synthesized and fully verified"))
def test_criterion_4_random_game_batch(c):
    failures = []
    for i in range(50):
        prob = random_convex_game(1000 + i, (i % 3 + 1, 1, 1))
        eq = team_optimum_quadratic(prob)
        chain = synthesize_cascade(prob, desired=eq.point)
        report = verify_full(prob, chain, desired=eq.point)
        if not report.verified:
            failures.append("seed %d: %s" % (1000 + i, "; ".join(report.reasons)))
    c.check(not failures,
            "%d of 50 games failed verification (%s)"
            % (len(failures), failures[:2]))


# ---------------------------------------------------------------------------
# 5. sampled one-sidedness of the follower cost on the strategy graph
# ---------------------------------------------------------------------------

@_run(Criterion(5, "10000-sample sublevel check: zero violations, minimum at "
                   "the anchor within 1e-3"))
def test_criterion_5_sublevel_sampling(c):
    tri = scalar_trilevel()
    eq = team_optimum_quadratic(tri)
    gamma = synthesize_single_leader(tri, eq.point)
    # 10000 samples within radius 5 of the anchor, from seed 0
    assert SAMPLE_RADIUS == 5.0
    stats = sublevel_inequality_check(tri.objective(2), eq.point, gamma, 10000, 0)
    c.check(stats.samples == 10000, "sample count mismatch")
    c.check(stats.violations == 0,
            "%d of 10000 graph samples dip below the anchor value"
            % stats.violations)
    c.check(abs(stats.min_value - 11.0) <= 1e-9,
            "graph minimum %.6g is not the anchor value 11" % stats.min_value)
    c.check(float(np.abs(stats.min_point - [1.0, 3.0]).max()) <= 1e-3,
            "graph minimum sits away from the anchor (1, 3)")


# ---------------------------------------------------------------------------
# 6. exact LP feasibility versus brute-force sampling
# ---------------------------------------------------------------------------

def _box_rows(ceiling):
    A1 = np.array([[1], [-1], [0], [0], [0], [0]], float)
    A2 = np.array([[0], [0], [1], [-1], [0], [0]], float)
    A3 = np.array([[0], [0], [0], [0], [1], [-1]], float)
    b = np.array([ceiling, 28.0, 3.0, 1.0, 5.0, -1.0])
    return LinearConstraints((A1, A2, A3), b)


@_run(Criterion(6, "LP feasibility margins exact on both box systems and "
                   "consistent with 10000-point sampling"))
def test_criterion_6_constrained_feasibility(c):
    tri = scalar_trilevel()
    eq = team_optimum_quadratic(tri)
    gamma = synthesize_single_leader(tri, eq.point)

    loose = feasibility_check(gamma, _box_rows(18.0), tri.dims)
    c.check(loose.feasible, "the loose system should be feasible")
    c.check(np.allclose(loose.margins, [-8.0, -22.0, 0.0, 0.0, 0.0, 0.0],
                        atol=1e-9),
            "loose-system margins differ from (-8, -22, 0, 0, 0, 0)")
    c.check(loose.worst_row == 2, "worst row of the loose system is not 2")

    tight = feasibility_check(gamma, _box_rows(6.0), tri.dims)
    c.check(not tight.feasible, "the tight system should be infeasible")
    c.check(tight.worst_row == 0, "violated row should be the u1 ceiling")
    c.check(abs(tight.worst_margin - 4.0) <= 1e-9,
            "worst margin %.6g is not the exact overshoot 4" % tight.worst_margin)

    rng = np.random.default_rng(123)
    u2 = rng.uniform(-1.0, 3.0, 10000)
    u3 = rng.uniform(1.0, 5.0, 10000)
    u1 = gamma.batch([u2[:, None], u3[:, None]])[:, 0]
    joint = np.stack([u1, u2, u3], axis=1)
    for verdict, rows, label in ((loose, _box_rows(18.0), "loose"),
                                 (tight, _box_rows(6.0), "tight")):
        residual = joint @ np.hstack(rows.A).T - rows.b
        sampled_violation = bool((residual > 1e-9).any())
        c.check(sampled_violation == (not verdict.feasible),
                "%s system: sampling disagrees with the LP verdict" % label)
    # the exact LP margin must dominate every sample yet be nearly attained
    overshoot = float((joint[:, 0] - 6.0).max())
    c.check(overshoot <= 4.0 + 1e-9,
            "a sample exceeds the exact LP margin: %.6g > 4" % overshoot)
    c.check(overshoot >= 3.8,
            "sampled overshoot %.3g never approaches the LP margin 4" % overshoot)


# ---------------------------------------------------------------------------
# 7. a four-level hierarchy end to end
# ---------------------------------------------------------------------------

@_run(Criterion(7, "four-level random game: three-stage cascade verified at "
                   "every level"))
def test_criterion_7_four_level_cascade(c):
    prob = random_convex_game(7, (2, 1, 1, 1))
    eq = team_optimum_quadratic(prob)
    chain = synthesize_cascade(prob, desired=eq.point)
    c.check([s.level for s in chain] == [1, 2, 3],
            "cascade should announce at levels 1, 2, 3")
    report = verify_full(prob, chain, desired=eq.point)
    c.check(report.verified, "verification failed: %s" % "; ".join(report.reasons))
    c.check(all(ch.passed for ch in report.strategy_checks),
            "an announcing-level check failed")
    c.check(all(ch.passed for ch in report.response_checks),
            "a responding-level oracle check failed")
    c.check(all(not ch.low_confidence for ch in report.response_checks),
            "an oracle refinement drifted suspiciously far")
