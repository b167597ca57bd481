import ast
import itertools
import json
import pathlib
import time
import tracemalloc
import warnings
from dataclasses import asdict

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
    RevstackError,
    evaluate,
    evaluate_many,
    oracle_best_response,
    parse_formula,
    synthesize_cascade,
    synthesize_single_leader,
    sublevel_inequality_check,
    team_optimum_quadratic,
    verify_full,
)
from revstack.model import ExprObjective, split_blocks
from revstack.verify import (
    ALGEBRAIC_TOL,
    ARGMIN_TOL,
    GRID_CHUNK_NODES,
    GRID_WINDOW_NODES,
    MAX_GRID_NODES,
    REFINE_FLOOR,
    REFINE_SHRINK,
)

import revstack.verify as verify_module
from conftest import quadratic_to_expr, random_convex_game


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


def test_oracle_breaks_grid_ties_toward_the_smallest_node():
    dims = Dims.of(1, 1)
    J1 = QuadraticObjective.build(dims, {(1, 1): np.eye(1), (2, 2): np.eye(1)})
    J2 = ExprObjective(parse_formula("(u2^2 - 1)^2", dims))
    prob = GameProblem(dims, (J1, J2))
    gamma = AffineStrategy(1, DecisionPoint.of([0.0], [0.0]), (np.zeros((1, 1)),))
    res = oracle_best_response(prob, [gamma], 2, anchor=DecisionPoint.of([0.0]))
    # both wells (+1 and -1) are exact grid nodes with value 0
    assert res.argmin.concat() == pytest.approx([-1.0], abs=1e-9)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def _substituted_values(problem, chain, level, X):
    blocks = split_blocks(problem.dims.m[level - 1:], X)
    for strategy in reversed(chain[:level - 1]):
        blocks = [strategy.batch(blocks)] + blocks
    return evaluate_many(problem.objective(level), blocks)


def _dense_grid_best(problem, chain, level, anchor, grid):
    """The whole grid as one array, the smallest node index winning ties."""
    axes = [np.linspace(c - grid.radius, c + grid.radius, grid.points)
            for c in anchor.concat()]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    values = _substituted_values(problem, chain, level, pts)
    best = int(np.argmin(values))
    return pts[best], values[best]


def _one_at_a_time_refinement(problem, chain, level, center, x, fx, grid):
    """Compass search from the grid's best node, one trial per evaluation."""
    steps = ((center + grid.radius) - (center - grid.radius)) / (grid.points - 1)
    evaluations = 0
    for _ in range(verify_module.REFINE_ITERS):
        if steps.max() < REFINE_FLOOR:
            break
        improved = False
        for i in range(x.size):
            for delta in (steps[i], -steps[i]):
                trial = x.copy()
                trial[i] += delta
                f = float(_substituted_values(problem, chain, level, trial[None, :])[0])
                evaluations += 1
                if f < fx:
                    x, fx, improved = trial, f, True
                    break
        if not improved:
            steps *= REFINE_SHRINK
    return x, fx, evaluations


@pytest.mark.parametrize("name", ["tri", "wide", "r111", "r2111", "r122", "r122_17"])
def test_chunked_grid_walk_matches_the_dense_grid(name, tri, wide, monkeypatch):
    # level 2 of (1,2,2) has four coordinates: 141 windows of 12 slabs of
    # 41^2 nodes; at 17 points, 17^4 nodes in windows of 4 slabs of 17^3
    # nodes, each spanning four first-axis values
    problem = {"tri": tri, "wide": wide,
               "r111": random_convex_game(11, (1, 1, 1)),
               "r2111": random_convex_game(12, (2, 1, 1, 1)),
               "r122": random_convex_game(13, (1, 2, 2)),
               "r122_17": random_convex_game(13, (1, 2, 2))}[name]
    eq, chain = _chain(problem)
    grid = GridSpec(points=17) if name == "r122_17" else GridSpec()
    assert name != "r122_17" or 17 ** 4 > GRID_CHUNK_NODES
    monkeypatch.setattr(verify_module, "REFINE_ITERS", 0)  # the grid's best node
    for level in range(2, problem.levels + 1):
        anchor = eq.point.tail(level)
        node, value = _dense_grid_best(problem, chain, level, anchor, grid)
        res = oracle_best_response(problem, chain, level, grid, anchor=anchor)
        assert np.array_equal(res.grid_argmin, node)
        assert res.value == value
        assert res.evaluations == grid.points ** node.size


@pytest.mark.parametrize("name", ["tri_expr", "tri", "r2111", "r122"])
def test_batched_refinement_follows_the_one_at_a_time_sweep(name, tri, tri_expr,
                                                            monkeypatch):
    problem = {"tri": tri, "tri_expr": tri_expr,
               "r2111": random_convex_game(12, (2, 1, 1, 1)),
               "r122": random_convex_game(13, (1, 2, 2))}[name]
    eq, chain = _chain(tri if name == "tri_expr" else problem)  # the same game
    grid = GridSpec()
    for level in range(2, problem.levels + 1):
        # centred off the desired blocks, so they are not a grid node
        center = eq.point.tail(level).concat() + 0.123
        anchor = DecisionPoint.from_concat(problem.dims.m[level - 1:], center)
        with monkeypatch.context() as m:
            m.setattr(verify_module, "REFINE_ITERS", 0)  # the grid's best node
            node = oracle_best_response(problem, chain, level, grid, anchor=anchor)
        x, fx, trials = _one_at_a_time_refinement(
            problem, chain, level, center, node.grid_argmin, node.value, grid)
        res = oracle_best_response(problem, chain, level, grid, anchor=anchor)
        assert res.refinement_drift > 0.0
        # elementwise arithmetic: a batched row equals a one-row call, so
        # the accepted path and its trial count are the same
        assert np.array_equal(res.argmin.concat(), x)
        assert res.value == fx
        assert res.evaluations == node.evaluations + trials


@pytest.mark.parametrize("refine_iters", [1, 2, 3, 5, 44, 60])
def test_refinement_cap_and_floor_follow_the_one_at_a_time_sweep(
        refine_iters, tri, tri_expr, monkeypatch):
    # a small cap ends the search inside a batch of several sweeps; at 44 and
    # 60 the floor ends it.  Elementwise arithmetic, so bitwise equal
    eq, chain = _chain(tri)
    grid = GridSpec()
    monkeypatch.setattr(verify_module, "REFINE_ITERS", refine_iters)
    for problem, level in itertools.product((tri, tri_expr), (2, 3)):
        center = eq.point.tail(level).concat() + 0.123
        anchor = DecisionPoint.from_concat(tri.dims.m[level - 1:], center)
        with monkeypatch.context() as m:
            m.setattr(verify_module, "REFINE_ITERS", 0)  # the grid's best node
            node = oracle_best_response(problem, chain, level, grid, anchor=anchor)
        x, fx, trials = _one_at_a_time_refinement(
            problem, chain, level, center, node.grid_argmin, node.value, grid)
        res = oracle_best_response(problem, chain, level, grid, anchor=anchor)
        assert np.array_equal(res.argmin.concat(), x)
        assert res.value == fx
        assert res.evaluations == node.evaluations + trials


def _diagonal_122():
    """A (1,2,2) game of identity Hessians; desired point (2, (1,-1), (3,0))."""
    dims = Dims.of(1, 2, 2)
    eye = {(1, 1): np.eye(1), (2, 2): np.eye(2), (3, 3): np.eye(2)}
    return GameProblem(dims, tuple(QuadraticObjective.build(dims, eye, l=l) for l in (
        [[-4], [-2, 2], [-6, 0]], [[-2], [0, 0], [0, 0]], [[0], [-4, 0], [0, 0]])))


@pytest.mark.parametrize("name,level", [
    ("tri", 2), ("tri", 3), ("wide", 2), ("wide", 3), ("diagonal_122", 2)])
def test_refinement_on_the_desired_node_is_one_batch(name, level, tri, wide, monkeypatch):
    # the desired blocks are exact grid nodes with no better neighbour at any
    # step; level 2 of the (1,2,2) game walks its four-coordinate grid in
    # ceil(41^2 / 12) = 141 windows of 12 slabs of 41^2 nodes
    problem = {"tri": tri, "wide": wide, "diagonal_122": _diagonal_122()}[name]
    eq, chain = _chain(problem)
    calls = []

    def counting(obj, blocks):
        calls.append(len(blocks[0]))
        return evaluate_many(obj, blocks)

    monkeypatch.setattr(verify_module, "evaluate_many", counting)
    res = oracle_best_response(problem, chain, level, anchor=eq.point.tail(level))
    D = res.grid_argmin.size
    # no trial improves: the grid's windows, then every sweep down to the
    # floor (43 sweeps from the 0.5 spacing) in one call
    assert np.array_equal(res.argmin.concat(), eq.point.tail(level).concat())
    assert GRID_CHUNK_NODES == 41 ** 3 and GRID_WINDOW_NODES == 12 * 41 ** 2
    assert len(calls) == (141 if D == 4 else 1) + 1
    assert calls[-1] == res.evaluations - 41 ** D == 2 * D * 43


def test_grid_ties_across_chunks_go_to_the_smallest_node():
    # two exact wells in different windows of the four-coordinate grid:
    # u2_1 = -1 and +1 (first-axis indices 18 and 22), then u2_2 = -5 and +5
    # on one first-axis value (slabs 830 and 850 of 41^2 nodes)
    dims = Dims.of(1, 4)
    J1 = QuadraticObjective.build(dims, {(1, 1): np.eye(1), (2, 2): np.eye(4)})
    gamma = AffineStrategy(1, DecisionPoint.of([0.0], [0.0] * 4), (np.zeros((1, 4)),))
    assert 41 ** 4 > GRID_CHUNK_NODES
    for well, nodes in (("(u2_1^2 - 1)^2 + u2_2^2", [(18, 20), (22, 20)]),
                        ("u2_1^2 + (u2_2^2 - 25)^2", [(20, 10), (20, 30)])):
        J2 = ExprObjective(parse_formula(well + " + u2_3^2 + u2_4^2", dims))
        prob = GameProblem(dims, (J1, J2))
        first, second = ((a * 41 + b) * 41 ** 2 // GRID_WINDOW_NODES for a, b in nodes)
        assert first < second
        res = oracle_best_response(prob, [gamma], 2, anchor=DecisionPoint.of([0.0] * 4))
        expected = [0.5 * nodes[0][0] - 10.0, 0.5 * nodes[0][1] - 10.0, 0.0, 0.0]
        assert np.array_equal(res.grid_argmin, expected)
        assert res.argmin.concat() == pytest.approx(expected, abs=1e-9)
        assert res.value == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_a_rule_gives_the_same_bits_in_any_batch(seed):
    # the level-1 rule of a (1,2,1) game, two-wide block first, over level
    # 2's 41^3 oracle grid: one batch, 41^2-row slabs, window-sized slabs
    # and one point at a time
    problem = random_convex_game(seed, (1, 2, 1))
    eq, chain = _chain(problem)
    rule = chain[0]
    axes = [np.linspace(c - 10.0, c + 10.0, 41) for c in eq.point.tail(2).concat()]
    grid = np.asfortranarray(np.stack(
        [m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1))
    whole = rule.batch(split_blocks([2, 1], grid))
    for rows in (41 ** 2, GRID_WINDOW_NODES):
        parts = [rule.batch(split_blocks([2, 1], grid[i:i + rows]))
                 for i in range(0, len(grid), rows)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
    for i in np.random.default_rng(seed).choice(len(grid), 70, replace=False):
        assert rule(split_blocks([2, 1], grid[i])).tobytes() == whole[i].tobytes()


def _three_coordinate_cases():
    """Level 2 of (k,1,1,1) and (k,1,2) games, level 3 of (k,1,1,1,1):
    cascade and random chains, on the desired tail and shifted off it."""
    rng = np.random.default_rng(23)
    for i, widths in enumerate([(1, 1, 1, 1), (2, 1, 1, 1), (6, 1, 1, 1), (9, 1, 1, 1),
                                (3, 1, 2), (7, 1, 2), (1, 2, 1, 1, 1), (4, 4, 1, 1, 1)]):
        problem = random_convex_game(60 + i, widths)
        level = 2 if sum(widths[1:]) == 3 else 3
        eq, chain = _chain(problem)
        if i % 2:
            chain = [AffineStrategy(s.level, s.anchor, tuple(
                Q + rng.standard_normal(Q.shape) for Q in s.coeffs)) for s in chain]
        for radius, shift in ((3.0, 0.0), (50.0, 0.37), (10.0, 1.3)):
            anchor = DecisionPoint.from_concat(
                problem.dims.m[level - 1:], eq.point.tail(level).concat() + shift)
            yield problem, chain, level, anchor, GridSpec(radius)


def _fields(res):
    return (res.argmin.concat().tobytes(), res.value, res.grid_argmin.tobytes(),
            res.refinement_drift, res.evaluations)


def test_slab_walk_is_bitwise_the_dense_grid_and_the_node_order_walk(monkeypatch):
    # total widths 4 to 12; the node-order walk is the same loop with no bound
    for problem, chain, level, anchor, grid in _three_coordinate_cases():
        res = oracle_best_response(problem, chain, level, grid, anchor=anchor)
        with monkeypatch.context() as m:
            m.setattr(verify_module, "_slab_bounds", lambda *args: None)
            assert _fields(oracle_best_response(problem, chain, level, grid,
                                                anchor=anchor)) == _fields(res)
            m.setattr(verify_module, "REFINE_ITERS", 0)  # the grid's best node
            node_value = oracle_best_response(problem, chain, level, grid, anchor=anchor).value
        node, value = _dense_grid_best(problem, chain, level, anchor, grid)
        assert np.array_equal(res.grid_argmin, node)
        assert node_value == value
        assert res.evaluations >= grid.points ** 3


def test_slab_bounds_are_below_every_grid_value_of_their_slab():
    # on the desired tail the grid's best node is the composed cost's exact
    # minimizer, so the bound of its slab is as tight as it gets
    for i in range(30):
        widths = [(1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 2), (5, 2, 1), (9, 1, 1, 1)][i % 5]
        problem = random_convex_game(90 + i, widths)
        eq, chain = _chain(problem)
        center = eq.point.tail(2).concat()
        radius = [3.0, 10.0, 50.0, 1e3, 1e6][i % 5]
        axes = [np.linspace(c - radius, c + radius, 41) for c in center]
        bounds = verify_module._slab_bounds(problem, chain, 2, center, axes)
        grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        values = _substituted_values(problem, chain, 2, np.asfortranarray(grid))
        assert (bounds <= values.reshape(41, -1).min(axis=1)).all()


def _counted_slabs(monkeypatch, problem, chain, level, anchor, grid=GridSpec()):
    slabs = []

    def counting(obj, blocks):
        slabs.append(len(blocks[0]) == grid.points ** 2)
        return evaluate_many(obj, blocks)

    monkeypatch.setattr(verify_module, "evaluate_many", counting)
    res = oracle_best_response(problem, chain, level, grid, anchor=anchor)
    monkeypatch.undo()
    return sum(slabs), res


def test_grid_ties_across_slabs_go_to_the_smallest_node(monkeypatch):
    # J2 = (u2 - 0.25)^2 + u3^2 + u4^2 ties exactly at the nodes u2 = 0 and
    # u2 = 0.5, slabs 20 and 21.  Slab 21 is made to be walked first, and
    # slab 20's bound to equal the value found there: it is still walked
    dims = Dims.of(1, 1, 1, 1)
    J2 = QuadraticObjective(2.0 * np.diag([0.0, 1.0, 1.0, 1.0]),
                            [0.0, -0.5, 0.0, 0.0], 0.0625, dims.m)
    prob = GameProblem(dims, (J2, J2, J2, J2))
    chain = [AffineStrategy(1, DecisionPoint.of([0.0], [0.0], [0.0], [0.0]),
                            (np.zeros((1, 1)),) * 3)]
    anchor = DecisionPoint.of([0.0], [0.0], [0.0])
    original = verify_module._slab_bounds

    def later_first(*args):
        bounds = original(*args)
        bounds[20], bounds[21] = 0.0625, -np.inf  # still lower bounds
        return bounds

    monkeypatch.setattr(verify_module, "_slab_bounds", later_first)
    monkeypatch.setattr(verify_module, "REFINE_ITERS", 0)
    slabs, res = _counted_slabs(monkeypatch, prob, chain, 2, anchor)
    assert slabs == 2
    assert np.array_equal(res.grid_argmin, [0.0, 0.0, 0.0])
    assert res.value == 0.0625


def test_only_a_certified_quadratic_bound_skips_slabs(monkeypatch):
    problem = random_convex_game(31, (1, 1, 1, 1))
    eq, chain = _chain(problem)
    anchor = eq.point.tail(2)
    slabs, res = _counted_slabs(monkeypatch, problem, chain, 2, anchor)
    assert slabs < 41
    assert res.evaluations > 41 ** 3  # a skipped node counts as covered
    # an expression cost
    as_expr = GameProblem(problem.dims, tuple(
        ExprObjective(parse_formula("u1^2 + u2^2 + u3^2 + u4^2", problem.dims))
        for _ in range(4)))
    assert _counted_slabs(monkeypatch, as_expr, chain, 2, anchor)[0] == 41
    # an indefinite trailing block: u3 * u4 is a saddle
    dims = problem.dims
    saddle = QuadraticObjective.build(dims, {(2, 2): np.eye(1), (3, 4): np.eye(1)})
    indefinite = GameProblem(dims, (saddle,) * 4)
    assert _counted_slabs(monkeypatch, indefinite, chain, 2, anchor)[0] == 41
    # a window whose magnitudes are not safely below the double range
    wide = GridSpec(radius=1e150)
    slabs, res = _counted_slabs(monkeypatch, problem, chain, 2, anchor, wide)
    assert slabs == 41 and np.isfinite(res.value)


def test_a_one_chunk_grid_keeps_the_refusal_of_its_single_batch():
    # 8e307 * u2 * u3 is NaN at u2 = 0 (slab 0 of the window [0, 20]); u1 =
    # 1e307 * u2 leaves the double range at u2 = 20 (slab 40).  Walked as one
    # batch, the grid leaves the double range, and so it still does
    dims = Dims.of(1, 1, 1, 1)
    H = np.zeros((4, 4))
    H[1, 2] = H[2, 1] = 8e307
    J = QuadraticObjective(H, np.zeros(4), 0.0, dims.m)
    rule_1 = AffineStrategy(1, DecisionPoint.of([0.0], [0.0], [0.0], [0.0]),
                            (np.array([[-1e307]]), np.zeros((1, 1)), np.zeros((1, 1))))
    rule_2 = AffineStrategy(2, DecisionPoint.of([0.0], [0.0], [0.0]), (np.zeros((1, 1)),) * 2)
    for objective in (J, quadratic_to_expr(J)):
        prob = GameProblem(dims, (objective,) * 4)
        with pytest.raises(RevstackError, match="level 2: the oracle grid leaves the "
                                                "double range.*--grid-radius"):
            oracle_best_response(prob, [rule_1, rule_2], 2,
                                 anchor=DecisionPoint.of([10.0], [0.0], [0.0]))


def test_oracle_memory_does_not_grow_with_the_grid():
    prob = random_convex_game(5, (1, 2, 2))
    eq, chain = _chain(prob)
    tracemalloc.start()
    try:
        res = oracle_best_response(prob, chain, 2, anchor=eq.point.tail(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.evaluations > 41 ** 4
    assert peak < 16 * 2 ** 20


def test_a_four_coordinate_solve_peaks_under_two_mib():
    # a 41^4 grid walked in windows of 12 * 41^2 nodes: every buffer about
    # 161 KB; a walk in 41^3-node chunks peaks near 4.8 MiB
    prob = random_convex_game(5, (1, 2, 2))
    tracemalloc.start()
    try:
        eq, chain = _chain(prob)
        report = verify_full(prob, chain, desired=eq.point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verified
    assert peak < 2 * 2 ** 20


def test_oracle_refuses_a_nan_cost_by_name(tri):
    # u3^310 and u3^305 both overflow for u3 >= 10.5, and inf - inf is NaN;
    # the first such node in index order is (-9, 10.5).  The refusal is the
    # only outcome: numpy warns of nothing
    eq, chain = _chain(tri)
    J2 = ExprObjective(parse_formula("(u2-1)^2 + (u3-3)^2 + u3^310 - u3^305", tri.dims))
    prob = GameProblem(tri.dims, (tri.objective(1), J2, tri.objective(3)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RevstackError, match=r"level 2: .*NaN.*\[-9\.0, 10\.5\]") as err:
            oracle_best_response(prob, chain, 2, anchor=eq.point.tail(2))
    assert not isinstance(err.value, DimensionError)
    assert [str(w.message) for w in caught] == []


def test_oracle_rejects_bad_levels_and_chains(tri):
    eq, chain = _chain(tri)
    with pytest.raises(DimensionError):
        oracle_best_response(tri, chain, 1, anchor=eq.point)
    with pytest.raises(DimensionError):
        oracle_best_response(tri, chain, 4, anchor=eq.point.tail(3))
    with pytest.raises(DimensionError):
        oracle_best_response(tri, [], 2, anchor=eq.point.tail(2))
    with pytest.raises(DimensionError, match="anchor"):
        oracle_best_response(tri, chain, 2, anchor=eq.point.tail(3))


def test_oracle_refuses_grids_above_the_node_limit():
    # level 2 of a (1,2,2,2) game has six free coordinates: 41^6 nodes
    prob = random_convex_game(3, (1, 2, 2, 2))
    eq, chain = _chain(prob)
    assert 41 ** 6 > MAX_GRID_NODES
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(RevstackError, match=r"level 2: .*41\^6.*--grid-points") as err:
            verify_full(prob, chain, desired=eq.point)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not isinstance(err.value, DimensionError)  # a refusal, not bad input
    assert elapsed < 1.0
    assert peak < 5 * 2 ** 20


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
    stats = sublevel_inequality_check(tri.objective(2), eq.point, chain[0], 2000, 5)
    assert stats.violations == 0
    assert stats.threshold == pytest.approx(11.0)
    # the anchor is sample 0 and, the objective being strictly convex, the
    # unique minimum over the graph
    assert stats.min_value == pytest.approx(11.0)
    assert stats.min_point == pytest.approx([1.0, 3.0])


def test_sublevel_check_flags_a_constant_strategy(tri):
    eq = team_optimum_quadratic(tri)
    flat = AffineStrategy.from_affine(
        1, [1.0], [np.zeros((1, 1)), np.zeros((1, 1))], eq.point.tail(2))
    stats = sublevel_inequality_check(tri.objective(2), eq.point, flat, 2000, 5)
    assert stats.violations > 0
    assert stats.min_value < stats.threshold - ALGEBRAIC_TOL


def test_sublevel_check_is_deterministic(tri):
    eq, chain = _chain(tri)
    a = sublevel_inequality_check(tri.objective(2), eq.point, chain[0], 500, 11)
    b = sublevel_inequality_check(tri.objective(2), eq.point, chain[0], 500, 11)
    assert a.min_value == b.min_value
    assert np.array_equal(a.min_point, b.min_point)


def test_sublevel_check_refuses_a_nan_cost_by_name(tri):
    # u3^400 and u3^399 both overflow from u3 ~ 5.9 on, and inf - inf is NaN;
    # NaN < threshold is False, so counting it would hide the sample
    eq, chain = _chain(tri)
    J2 = ExprObjective(parse_formula("(u1-1)^2 + u2^2 + u3^2 + u3^400 - u3^399", tri.dims))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RevstackError, match=r"level 1: the sublevel check found a NaN"):
            sublevel_inequality_check(J2, eq.point, chain[0], 2000, 5)
    assert [str(w.message) for w in caught] == []


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
    a = asdict(verify_full(tri, chain, desired=eq.point, seed=3))
    b = asdict(verify_full(tri, chain, desired=eq.point, seed=3))
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert set(a["tolerances"]) == {"argmin", "algebraic",
                                    "grid_radius", "grid_points"}


def test_wrong_chain_length_is_rejected(tri):
    eq, chain = _chain(tri)
    with pytest.raises(DimensionError):
        verify_full(tri, chain[:1], desired=eq.point)
    with pytest.raises(DimensionError):
        verify_full(tri, list(chain) + list(chain), desired=eq.point)


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


def test_verifier_imports_only_the_strategy_type_and_the_reduction_from_synthesis():
    # the oracle is independent of synthesis; the existence, membership and
    # sublevel checks of levels >= 2 still run on the reduce_problem game
    import revstack.verify
    tree = ast.parse(pathlib.Path(revstack.verify.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("synthesis", "revstack.synthesis"):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name == "revstack.synthesis" for a in node.names)
    assert imported <= {"AffineStrategy", "reduce_problem"}


def test_calculus_geometry_and_synthesis_name_no_concrete_cost_type():
    # each cost type answers its own algebra in model; these modules ask the
    # objective and never branch on which type it is
    import revstack.calculus
    import revstack.geometry
    import revstack.synthesis
    for module in (revstack.calculus, revstack.geometry, revstack.synthesis):
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        named = {alias.name for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not named & {"QuadraticObjective", "ExprObjective", "Polynomial"}, module


def test_synthesis_and_the_verifier_take_the_desired_point_from_their_caller():
    # neither computes the team optimum itself, and feasibility needs only
    # the strategy type
    import revstack.constrained
    import revstack.synthesis

    def imports(module):
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        return {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}

    for module in (revstack.synthesis, verify_module):
        assert not any(m == "equilibrium" for m, _ in imports(module))
    assert {n for m, n in imports(revstack.constrained) if m == "synthesis"} == {
        "AffineStrategy"}
