import itertools
import math

import numpy as np
import pytest

from revstack import (
    AffineStrategy,
    DecisionPoint,
    DimensionError,
    GameProblem,
    LinearConstraints,
    UnboundedRegionError,
    feasibility_check,
    filter_family,
    simplex_maximize,
    synthesize_cascade,
    synthesize_family_leader,
    team_optimum_constrained,
    team_optimum_quadratic,
)
from revstack.model import split_blocks

from conftest import random_convex_game


# ---------------------------------------------------------------------------
# the LP core
# ---------------------------------------------------------------------------

def test_simplex_box_maximum():
    status, x, value = simplex_maximize(
        [1.0, 1.0],
        [[1, 0], [0, 1], [-1, 0], [0, -1]],
        [1.0, 2.0, 0.0, 0.0])
    assert status == "optimal"
    assert value == pytest.approx(3.0)
    assert x == pytest.approx([1.0, 2.0])


def test_simplex_detects_infeasibility():
    status, x, value = simplex_maximize([1.0], [[1], [-1]], [-1.0, 0.0])
    assert status == "infeasible"
    assert x is None and value is None


def test_simplex_detects_unboundedness():
    status, x, value = simplex_maximize([1.0], [[-1]], [0.0])
    assert status == "unbounded"
    assert x is None and value is None


def test_simplex_negative_rhs_needs_phase_one():
    # x in [-5, -1]: the origin is infeasible, so a feasible basis must be
    # built first; max of -x is 5 at the left endpoint
    status, x, value = simplex_maximize([-1.0], [[1], [-1]], [-1.0, 5.0])
    assert status == "optimal"
    assert value == pytest.approx(5.0)
    assert x == pytest.approx([-5.0])


def test_simplex_zero_objective_reports_a_feasible_point():
    status, x, value = simplex_maximize([0.0], [[1], [-1]], [-1.0, 5.0])
    assert status == "optimal"
    assert value == 0.0
    assert x[0] <= -1.0 + 1e-9 and -x[0] <= 5.0 + 1e-9


def test_simplex_with_no_rows():
    status, x, value = simplex_maximize([0.0, 0.0], np.zeros((0, 2)), [])
    assert status == "optimal" and value == 0.0 and x == pytest.approx([0.0, 0.0])
    status, x, value = simplex_maximize([1.0, 0.0], np.zeros((0, 2)), [])
    assert status == "unbounded"


def test_simplex_rejects_mismatched_shapes():
    with pytest.raises(DimensionError):
        simplex_maximize([1.0, 2.0], [[1.0]], [1.0])


def _vertex_maximum(c, A, b):
    """Best vertex of {x : A x <= b} over every square subsystem; None if empty."""
    best = None
    for rows in itertools.combinations(range(A.shape[0]), A.shape[1]):
        try:
            x = np.linalg.solve(A[list(rows)], b[list(rows)])
        except np.linalg.LinAlgError:
            continue
        if np.all(A @ x - b <= 1e-9 * (1.0 + np.abs(b))):
            best = float(c @ x) if best is None else max(best, float(c @ x))
    return best


def _random_box_lp(rng):
    """A box around a random centre plus up to four cuts, rows shuffled.

    Negative cut offsets can remove the centre and, often enough, the whole
    box; a non-empty region is bounded, so its maximum sits at a vertex.
    """
    v = int(rng.integers(1, 4))
    centre = rng.uniform(-2.0, 2.0, v)
    half = rng.uniform(0.5, 2.0, v)
    cuts = rng.standard_normal((int(rng.integers(0, 5)), v))
    A = np.vstack([np.eye(v), -np.eye(v), cuts])
    b = np.concatenate([centre + half, half - centre,
                        cuts @ centre + rng.uniform(-1.5, 1.0, len(cuts))])
    order = rng.permutation(len(b))
    return rng.standard_normal(v), A[order], b[order]


def test_simplex_matches_vertex_enumeration():
    rng = np.random.default_rng(2024)
    statuses = []
    for _ in range(300):
        c, A, b = _random_box_lp(rng)
        status, x, value = simplex_maximize(c, A, b)
        statuses.append(status)
        best = _vertex_maximum(c, A, b)
        if best is None:
            assert status == "infeasible"
            continue
        assert status == "optimal"
        assert value == pytest.approx(best, abs=1e-9 * (1.0 + abs(best)))
        assert value == float(c @ x)
        assert np.all(A @ x - b <= 1e-9 * (1.0 + np.abs(b)))
    assert statuses.count("infeasible") >= 30
    assert statuses.count("optimal") >= 150


def test_bland_rule_terminates_on_beales_cycling_example():
    # Beale (1955): the textbook largest-coefficient rule cycles here
    A = np.vstack([[[0.25, -8.0, -1.0, 9.0],
                    [0.5, -12.0, -0.5, 3.0],
                    [0.0, 0.0, 1.0, 0.0]],
                   -np.eye(4)])
    b = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    status, x, value = simplex_maximize([0.75, -20.0, 0.5, -6.0], A, b)
    assert status == "optimal"
    assert value == pytest.approx(1.25)
    assert x == pytest.approx([1.0, 0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# the active-set team optimum against the KKT conditions
# ---------------------------------------------------------------------------

KKT_TOL = 1e-7


@pytest.mark.parametrize("seed,widths,cuts", [
    (1, (1, 1, 1), 3), (2, (2, 1, 1, 1), 3), (3, (2, 1, 1, 1), 3), (4, (2, 2, 2), 4)])
def test_constrained_optimum_satisfies_kkt(seed, widths, cuts):
    # a narrow box around a random centre plus cuts that keep the centre
    # inside, so the polytope is not empty and the optimum usually on its face
    game = random_convex_game(seed, widths)
    rng = np.random.default_rng(900 + seed)
    N = sum(widths)
    centre = rng.uniform(-1.0, 1.0, N)
    half = rng.uniform(0.5, 1.5, N)
    C = rng.standard_normal((cuts, N))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    A = np.vstack([np.eye(N), -np.eye(N), C])
    b = np.concatenate([centre + half, half - centre,
                        C @ centre + rng.uniform(0.2, 0.8, cuts)])
    prob = GameProblem(game.dims, game.objectives,
                       LinearConstraints(tuple(split_blocks(widths, A)), b))

    u = team_optimum_constrained(prob).point.concat()
    H, l = prob.objective(1).H, prob.objective(1).l
    slack = A @ u - b
    scale = 1.0 + np.abs(b)
    assert np.all(slack <= KKT_TOL * scale)
    active = np.abs(slack) <= KKT_TOL * scale
    grad = H @ u + l
    lam, *_ = np.linalg.lstsq(A[active].T, -grad, rcond=None)
    assert np.all(lam >= -KKT_TOL * (1.0 + np.abs(lam).max(initial=0.0)))
    resid = grad + A[active].T @ lam
    assert np.abs(resid).max() <= 1e-6 * (1.0 + np.abs(l).max())


# ---------------------------------------------------------------------------
# strategy feasibility on the scalar trilevel game
# ---------------------------------------------------------------------------

def _row_system(*triples):
    A1, A2, A3, b = [], [], [], []
    for a1, a2, a3, bb in triples:
        A1.append([a1]); A2.append([a2]); A3.append([a3]); b.append(bb)
    return LinearConstraints(
        (np.array(A1, float), np.array(A2, float), np.array(A3, float)),
        np.array(b, float))


@pytest.fixture()
def gamma(tri):
    eq = team_optimum_quadratic(tri)
    return synthesize_cascade(tri, desired=eq.point)[0]


# two bands on u1 plus the follower box u2 in [-1, 3], u3 in [1, 5]
FEASIBLE_ROWS = (
    (1, 0, 0, 18.0), (-1, 0, 0, 28.0),
    (0, 1, 0, 3.0), (0, -1, 0, 1.0),
    (0, 0, 1, 5.0), (0, 0, -1, -1.0),
)
# same box, but the u1 ceiling drops below the strategy's box maximum of 10
INFEASIBLE_ROWS = ((1, 0, 0, 6.0),) + FEASIBLE_ROWS[1:]


def test_feasible_box_system(tri, gamma):
    verdict = feasibility_check(gamma, _row_system(*FEASIBLE_ROWS), tri.dims)
    assert verdict.feasible
    assert verdict.method == "lp-exact"
    # u1 over the box spans [-6, 10]: bands clear by 8 and 22, box rows are tight
    assert verdict.margins == pytest.approx([-8.0, -22.0, 0.0, 0.0, 0.0, 0.0])
    assert verdict.worst_row == 2
    assert verdict.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_infeasible_box_system(tri, gamma):
    verdict = feasibility_check(gamma, _row_system(*INFEASIBLE_ROWS), tri.dims)
    assert not verdict.feasible
    assert verdict.worst_row == 0
    assert verdict.worst_margin == pytest.approx(4.0)
    assert verdict.margins == pytest.approx([4.0, -22.0, 0.0, 0.0, 0.0, 0.0])
    # the violation happens where the strategy peaks: u2 = -1, u3 = 1
    assert verdict.witness[1:] == pytest.approx([-1.0, 1.0])


@pytest.mark.parametrize("triples,expect", [(FEASIBLE_ROWS, True),
                                            (INFEASIBLE_ROWS, False)])
def test_sampling_agrees_with_the_lp_verdict(tri, gamma, triples, expect):
    rows = _row_system(*triples)
    rng = np.random.default_rng(8)
    u2 = rng.uniform(-1.0, 3.0, 4000)
    u3 = rng.uniform(1.0, 5.0, 4000)
    u1 = gamma.batch([u2[:, None], u3[:, None]])[:, 0]
    joint = np.stack([u1, u2, u3], axis=1)
    A = np.hstack(rows.A)
    violated = bool((joint @ A.T - rows.b > 1e-9).any())
    assert violated == (not expect)


def test_empty_follower_region_is_vacuously_feasible(tri, gamma):
    rows = _row_system((1, 0, 0, 18.0),
                       (0, 1, 0, -1.0),   # u2 <= -1
                       (0, -1, 0, 0.0),   # u2 >= 0
                       (0, 0, 1, 5.0), (0, 0, -1, -1.0))
    verdict = feasibility_check(gamma, rows, tri.dims)
    assert verdict.feasible
    assert verdict.worst_row is None
    assert math.isinf(verdict.worst_margin) and verdict.worst_margin < 0
    assert verdict.note == "empty follower region"


def test_unbounded_region_is_refused(tri, gamma):
    # nothing pins u3 down, and the strategy leans on it
    rows = _row_system((1, 0, 0, 18.0), (0, 1, 0, 3.0), (0, -1, 0, 1.0))
    with pytest.raises(UnboundedRegionError, match="explicit bounds"):
        feasibility_check(gamma, rows, tri.dims)


def test_bounds_argument_stands_in_for_box_rows(tri, gamma):
    rows = _row_system((1, 0, 0, 18.0), (-1, 0, 0, 28.0))
    verdict = feasibility_check(gamma, rows, tri.dims,
                                bounds=[(-1.0, 3.0), (1.0, 5.0)])
    assert verdict.feasible
    assert verdict.margins == pytest.approx([-8.0, -22.0])
    assert verdict.worst_row == 0
    with pytest.raises(DimensionError):
        feasibility_check(gamma, rows, tri.dims, bounds=[(-1.0, 3.0)])


def test_bottom_level_rule_is_a_fixed_block(tri):
    # a rule announced by the last level maps no lower level: u3 = 4
    rule = AffineStrategy(3, DecisionPoint.of([4.0]), ())
    verdict = feasibility_check(rule, _row_system(*FEASIBLE_ROWS), tri.dims)
    assert verdict.feasible
    assert verdict.margins == pytest.approx([0.0, 0.0, 0.0, 0.0, -1.0, -3.0])


def test_no_rows_means_nothing_to_check(tri, gamma):
    rows = LinearConstraints(
        (np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 1))), np.zeros(0))
    verdict = feasibility_check(gamma, rows, tri.dims)
    assert verdict.feasible
    assert verdict.worst_row is None
    assert math.isinf(verdict.worst_margin) and verdict.worst_margin < 0
    assert verdict.note == "no constraint rows"


def test_feasibility_rejects_mismatched_shapes(tri, gamma):
    rows = LinearConstraints((np.ones((1, 1)), np.zeros((1, 1))), np.ones(1))
    with pytest.raises(DimensionError):
        feasibility_check(gamma, rows, tri.dims)


# ---------------------------------------------------------------------------
# interval-arithmetic cross-check on random strategies over boxes
# ---------------------------------------------------------------------------

def _interval_max(coefs, lo, hi):
    """Exact maximum of sum(c_i * u_i) over the box [lo, hi]."""
    return float(sum(c * (h if c > 0 else l) for c, l, h in zip(coefs, lo, hi)))


@pytest.mark.parametrize("seed", range(20))
def test_lp_margins_match_interval_arithmetic(tri, seed):
    rng = np.random.default_rng(700 + seed)
    lo = rng.uniform(-3.0, 0.0, 2)
    hi = lo + rng.uniform(0.5, 3.0, 2)
    offset = rng.uniform(-2.0, 2.0, 1)
    C = [rng.uniform(-2.0, 2.0, (1, 1)) for _ in range(2)]
    strategy = AffineStrategy.from_affine(
        1, offset, C, DecisionPoint.of([0.0], [0.0]))
    b0, b1 = rng.uniform(5.0, 10.0, 2)
    rows = _row_system(
        (1, 0, 0, b0), (-1, 0, 0, b1),
        (0, 1, 0, hi[0]), (0, -1, 0, -lo[0]),
        (0, 0, 1, hi[1]), (0, 0, -1, -lo[1]))
    verdict = feasibility_check(strategy, rows, tri.dims)

    c = [float(C[0][0, 0]), float(C[1][0, 0])]
    expected = [
        float(offset[0]) + _interval_max(c, lo, hi) - b0,
        -float(offset[0]) + _interval_max([-v for v in c], lo, hi) - b1,
        _interval_max([1, 0], lo, hi) - hi[0],
        _interval_max([-1, 0], lo, hi) + lo[0],
        _interval_max([0, 1], lo, hi) - hi[1],
        _interval_max([0, -1], lo, hi) + lo[1],
    ]
    assert verdict.margins == pytest.approx(expected, abs=1e-7)
    assert verdict.feasible == (max(expected) <= 1e-9)


# ---------------------------------------------------------------------------
# family filtering
# ---------------------------------------------------------------------------

def test_filter_family_preserves_order_and_captures_errors(wide):
    eq = team_optimum_quadratic(wide)
    family = synthesize_family_leader(wide, eq.point)
    rows = LinearConstraints(
        (np.array([[1.0, 0.0], [0.0, 1.0]] + [[0, 0]] * 4, float),
         np.array([[0.0], [0.0], [1.0], [-1.0], [0.0], [0.0]], float),
         np.array([[0.0], [0.0], [0.0], [0.0], [1.0], [-1.0]], float)),
        np.array([2.0, 2.0, 1.0, 2.0, 1.0, 2.0], float))
    grid = [
        (np.zeros((1, 1)), np.zeros((1, 1))),       # rank-one member: fits
        (np.full((1, 1), 10.0), np.full((1, 1), 10.0)),  # huge gains: exits
        (np.zeros((3, 1)), np.zeros((1, 1))),       # wrong parameter shape
    ]
    items = filter_family(family, rows, wide.dims, grid)
    assert len(items) == 3
    for item, params in zip(items, grid):
        for got, want in zip(item.params, params):
            assert np.array_equal(got, np.asarray(want, float))
    assert items[0].error is None and items[0].verdict.feasible
    assert items[1].error is None and not items[1].verdict.feasible
    assert items[2].verdict is None
    assert "shape" in items[2].error
