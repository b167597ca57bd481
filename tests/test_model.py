import tracemalloc

import numpy as np
import pytest

from revstack import (
    DecisionPoint,
    DimensionError,
    Dims,
    ExprObjective,
    GameProblem,
    LinearConstraints,
    QuadraticObjective,
    RevstackError,
    evaluate,
    evaluate_many,
    hessian,
    parse_formula,
    parse_problem,
    synthesize_cascade,
    team_optimum_quadratic,
)

from revstack import formula, model
from revstack.model import split_blocks

from conftest import (build_game, problem_text, quadratic_to_expr, random_convex_data,
                      random_convex_game)


def test_dims_basics():
    d = Dims.of(2, 1, 3)
    assert d.levels == 3
    assert d.total == 6
    assert d.drop_top() == Dims.of(1, 3)


def test_dims_rejects_degenerate_shapes():
    with pytest.raises(DimensionError):
        Dims.of(4)          # a single level is not a hierarchy
    with pytest.raises(DimensionError):
        Dims.of(1, 0, 1)
    with pytest.raises(DimensionError):
        Dims(3, (1, 1))     # count mismatch


def test_decision_point_accessors():
    p = DecisionPoint.from_concat((2, 1, 1), [1.0, 2.0, 3.0, 4.0])
    assert p.widths == (2, 1, 1)
    assert np.array_equal(p.block(1), [1.0, 2.0])
    assert np.array_equal(p.block(3), [4.0])
    assert np.array_equal(p.concat(), [1, 2, 3, 4])
    assert p.tail(2).widths == (1, 1)
    with pytest.raises(DimensionError):
        p.tail(5)
    with pytest.raises(DimensionError):
        DecisionPoint.from_concat((2, 2), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        split_blocks((2, 2), np.zeros((5, 3)))


def test_split_blocks_returns_views_of_the_last_axis():
    X = np.arange(12.0).reshape(3, 4)
    a, b = split_blocks((1, 3), X)
    assert a.shape == (3, 1) and b.shape == (3, 3)
    assert np.shares_memory(a, X) and np.shares_memory(b, X)
    assert np.array_equal(b[1], [5.0, 6.0, 7.0])


def test_known_objective_values(tri):
    d = DecisionPoint.of([2.0], [1.0], [3.0])
    assert evaluate(tri.objective(1), d) == pytest.approx(0.0, abs=1e-12)
    assert evaluate(tri.objective(2), d) == pytest.approx(11.0)
    assert evaluate(tri.objective(3), d) == pytest.approx(14.0)


def test_wide_leader_second_cost_at_desired_point(wide):
    d = DecisionPoint.of([-2.5, -1.5], [-0.5], [-0.5])
    assert evaluate(wide.objective(2), d) == pytest.approx(7.5)


def test_expr_and_quadratic_forms_agree(tri, tri_expr):
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = DecisionPoint.from_concat((1, 1, 1), rng.uniform(-5, 5, 3))
        for lev in (1, 2, 3):
            assert evaluate(tri.objective(lev), p) == pytest.approx(
                evaluate(tri_expr.objective(lev), p), rel=1e-12, abs=1e-12)


TWIN_GAME = random_convex_game(61, (2, 2, 1))


@pytest.mark.parametrize("level", [1, 2, 3])
def test_a_quadratic_and_its_formula_twin_answer_every_method_alike(level):
    # each cost type owns its algebra; both must give the same cost
    quad = TWIN_GAME.objective(level)
    twin = quadratic_to_expr(quad)
    rng = np.random.default_rng(level)

    def close(a, b):
        return np.linalg.norm(np.subtract(a, b)) <= 1e-12 * np.linalg.norm(a)

    blocks = [rng.uniform(-3, 3, (40, w)) for w in quad.widths]
    assert close(quad.values(blocks), twin.values(blocks))
    p = DecisionPoint.from_concat(quad.widths, rng.uniform(-3, 3, sum(quad.widths)))
    assert close(quad.gradient(p).concat(), twin.gradient(p).concat())
    assert close(quad.hessian(p), twin.hessian(p))
    assert close(quad.term_scale(p, 1), twin.term_scale(p, 1))
    # the same rule, put in by a congruence and into the polynomial
    rule = synthesize_cascade(TWIN_GAME, team_optimum_quadratic(TWIN_GAME).point)[0]
    offset, C = rule.as_affine()
    lower = [rng.uniform(-3, 3, (40, w)) for w in quad.widths[1:]]
    assert close(quad.substitute_top(offset, C).values(lower),
                 twin.substitute_top(offset, C).values(lower))


def test_batched_evaluation_matches_pointwise(tri):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3, 3, (40, 3))
    blocks = [pts[:, [0]], pts[:, [1]], pts[:, [2]]]
    batched = evaluate_many(tri.objective(2), blocks)
    assert batched.shape == (40,)
    for i in range(40):
        p = DecisionPoint.from_concat((1, 1, 1), pts[i])
        assert batched[i] == pytest.approx(evaluate(tri.objective(2), p))


def _reference_value(obj, x):
    """The quadratic at one point x (concatenated coordinates) in Python floats,
    in the evaluation's order: ``const + 0.0``, then coordinate by coordinate
    ``x_i * (H_ii/2 * x_i + sum_{j>i} H_ij * x_j + l_i)``, left to right."""
    H, l = obj.H.tolist(), obj.l.tolist()
    total = obj.const + 0.0
    for i, xi in enumerate(x):
        inner = H[i][i] / 2 * xi
        for j in range(i + 1, len(x)):
            inner = inner + H[i][j] * x[j]
        total = total + xi * (inner + l[i])
    return total


def _same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("width", list(range(1, 25)) + [130])
def test_quadratic_batch_is_bitwise_the_row_major_formula(width):
    rng = np.random.default_rng(width)
    # up to three blocks; magnitudes spread so that every rounding shows
    cuts = sorted({0, width} | set(rng.integers(1, width, 2).tolist() if width > 1 else []))
    widths = tuple(np.diff(cuts))
    H = rng.standard_normal((width, width)) * 10.0 ** rng.integers(-3, 4, (width, width))
    l = rng.standard_normal(width) * 10.0 ** rng.integers(-3, 4, width)
    obj = QuadraticObjective(H, l, rng.standard_normal(), widths)
    # the batches are prefixes of X: a point's value must not depend on the
    # batch.  `step` rows filled the 65,536-coordinate chunks of an earlier
    # evaluation; 14,000 rows is past one such chunk from width 5 on
    step = 65_536 // width
    sizes = (0, 1, 2, step, step + 1, 14_000)
    X = rng.standard_normal((max(sizes), width)) * 10.0 ** rng.integers(-2, 3, (max(sizes), width))
    whole = evaluate_many(obj, split_blocks(widths, X))
    # rows evaluated alone, and in Python floats, at a few positions
    for k in {0, 1, step - 1, step, len(X) - 1} | set(rng.integers(0, len(X), 8).tolist()):
        alone = evaluate_many(obj, split_blocks(widths, X[k]))
        assert _same_bits(whole[k], alone)
        assert _same_bits(alone, _reference_value(obj, X[k].tolist()))
    for P in sizes:
        # row-major, column-major like the oracle's chunk, and a separate
        # first block beside column-major slices like a substituted chain
        for layout in (split_blocks(widths, X[:P]),
                       split_blocks(widths, np.asfortranarray(X[:P])),
                       [X[:P, :widths[0]].copy()]
                       + split_blocks(widths[1:], np.asfortranarray(X[:P, widths[0]:]))):
            assert _same_bits(evaluate_many(obj, layout), whole[:P])


def test_quadratic_batch_keeps_leading_axes_and_the_sign_of_zero():
    rng = np.random.default_rng(7)
    obj = QuadraticObjective(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), -np.arange(1.0, 6.0), -0.0,
                             (1, 2, 2))
    blocks = [rng.standard_normal((3, 4, w)) for w in (1, 2, 2)]
    values = evaluate_many(obj, blocks)
    assert values.shape == (3, 4)
    X = np.concatenate(blocks, axis=-1)
    assert _same_bits(values, np.array([[_reference_value(obj, x) for x in row]
                                        for row in X.tolist()]))
    # every term -0.0: the value starts from const + 0.0, so it is +0.0
    for widths in ((1, 2, 2), (1, 4, 4)):
        obj = QuadraticObjective(np.eye(sum(widths)), -np.ones(sum(widths)), -0.0, widths)
        zero = evaluate_many(obj, [np.zeros((2, w)) for w in widths])
        assert _same_bits(zero, np.zeros(2))


@pytest.mark.parametrize("widths", [(1,), (2, 1), (1, 2, 2), (3, 1, 2)])
def test_one_point_is_its_batch_row_past_the_double_range_and_at_minus_zero(widths):
    # a point alone is summed in Python floats: its overflows, infinities,
    # NaNs (payload and sign included) and zeros must be the batch row's bits
    rng = np.random.default_rng(len(widths))
    N = sum(widths)
    obj = QuadraticObjective(np.clip(rng.standard_normal((N, N)) * 1e300, -1e307, 1e307),
                             rng.standard_normal(N) * 1e300, 1e300, widths)
    X = np.array([[1e300] * N,                      # every product overflows
                  [np.inf] + [0.0] * (N - 1),       # inf * 0 is NaN
                  [np.nan] + [1.0] * (N - 1),
                  [-np.inf] * N,
                  [1.0] * (N - 1) + [np.nan],
                  [-0.0] * N,
                  [1e-300] * N])
    with np.errstate(over="ignore", invalid="ignore"):
        whole = evaluate_many(obj, split_blocks(widths, X))
        for k, x in enumerate(X):
            alone = evaluate_many(obj, split_blocks(widths, x))
            assert _same_bits(whole[k], alone)
            assert _same_bits(alone, _reference_value(obj, x.tolist()))
    # every term -0.0 from a -0.0 constant: +0.0 alone as in a batch
    zero = QuadraticObjective(-np.eye(N), np.zeros(N), -0.0, widths)
    alone = evaluate_many(zero, split_blocks(widths, X[5]))
    assert _same_bits(alone, 0.0)
    assert _same_bits(evaluate_many(zero, split_blocks(widths, X[5:6])), np.zeros(1))


def test_expression_batch_memory_is_linear_in_the_batch():
    quad = random_convex_game(3, (2, 2, 2)).objective(1)
    expr = quadratic_to_expr(quad)
    P = 100_000
    blocks = split_blocks((2, 2, 2), np.random.default_rng(4).uniform(-2, 2, (P, 6)))
    for obj, twin in ((expr, quad), (quad, expr)):
        tracemalloc.start()
        try:
            values = evaluate_many(obj, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few length-P temporaries; a (P, M, V) array would be 27 * 6 of
        # them, and an unchunked quadratic's X and X H 2 * 6
        assert peak <= 6 * 8 * P
        assert values.shape == (P,)
        assert np.allclose(values, evaluate_many(twin, blocks), rtol=1e-12, atol=1e-9)


def test_quadratic_expansion_to_expression_tree(wide):
    rng = np.random.default_rng(2)
    for lev in (1, 2, 3):
        expr = quadratic_to_expr(wide.objective(lev))
        for _ in range(20):
            p = DecisionPoint.from_concat((2, 1, 1), rng.uniform(-4, 4, 4))
            assert evaluate(expr, p) == pytest.approx(
                evaluate(wide.objective(lev), p), rel=1e-12, abs=1e-12)


def _python_terms(poly) -> bool:
    return (all(type(row) is tuple and all(type(e) is int for e in row) for row in poly.rows)
            and all(type(coef) is float for coef in poly.coefs))


def test_every_polynomial_holds_python_ints_and_floats():
    dims = Dims.of(2, 1, 3)
    poly = parse_formula("(u1_1 - 2*u2)^3 * u3_2 + 0.5*u1_2^2 - u3_3 + 7", dims)
    first, second = poly.derivatives
    # numpy offsets and gains, as the cascade's rules hold them
    offset = np.array([0.5, -1.25])
    gains = [np.array([[2.0], [-1.0]]), np.arange(6.0).reshape(2, 3)]
    built = [poly, *first, *second.values(), poly.substitute_top(offset, gains),
             quadratic_to_expr(random_convex_game(3, (2, 1, 3)).objective(1)).poly,
             model.Polynomial.from_terms([(1, 1)], np.array([[2]]), np.array([1.5]))]
    assert all(map(_python_terms, built))
    # a numpy product that overflows would warn, not give the inf that is refused
    big = model.Polynomial.from_terms([(1, 1)], np.array([[1]]), np.array([1e200]))
    with pytest.raises(RevstackError, match="^polynomial coefficient is not finite$"):
        model._product(big, big)


def test_a_flat_formula_is_summed_once(monkeypatch):
    # a quadratic written out monomial by monomial, as documents state one:
    # 36 squares and products of 8 scalars, then 8 linear terms, signs mixed
    names = ["u%d_%d" % (lev, i) for lev in (1, 2, 3, 4) for i in (1, 2)]
    monomials = [a + "^2" if a == b else a + "*" + b
                 for k, a in enumerate(names) for b in names[k:]] + names
    text = "0.75*" + monomials[0] + "".join(
        " %s %r*%s" % ("-+"[k % 2], 0.25 + k / 8, mono)
        for k, mono in enumerate(monomials[1:], start=1))
    sums = []

    def counted(parts):
        sums.append(len(parts))
        return model._sum(parts)

    monkeypatch.setattr(formula, "_sum", counted)
    poly = parse_formula(text, Dims.of(2, 2, 2, 2))
    assert sums == [44]
    assert len(poly.coefs) == 44


def test_lower_triangular_keys_rejected():
    with pytest.raises(DimensionError):
        QuadraticObjective.build(Dims.of(1, 1), {(2, 1): np.eye(1)}, l=([0.0], [0.0]))


def test_build_refuses_bad_linear_parts():
    dims = Dims.of(1, 1)
    with pytest.raises(DimensionError, match="level 2 has length 2"):
        QuadraticObjective.build(dims, {}, l=[[0.0], [0.0, 1.0]])
    # a dict is refused, not read as its keys
    with pytest.raises(DimensionError, match="got a dict"):
        QuadraticObjective.build(dims, {}, l={1: [1.0], 2: [1.0]})


def test_diagonal_blocks_are_symmetrized():
    # storing an asymmetric diagonal block must not change the form's values
    dims = Dims.of(2, 1)
    skew = np.array([[1.0, 2.0], [0.0, 1.0]])
    obj = QuadraticObjective.build(dims, {(1, 1): skew, (2, 2): np.eye(1)})
    assert np.array_equal(obj.H, obj.H.T)
    x = np.array([0.7, -1.3])
    p = DecisionPoint.of(x, [0.0])
    assert evaluate(obj, p) == pytest.approx(x @ skew @ x)


def test_flat_form_round_trips_bitwise_through_documents():
    # the (A, l) blocks a game is built from, written as a document, parse
    # to the same flat H and l
    widths = (2, 1, 2)
    data = random_convex_data(5, widths)
    game, back = build_game(widths, data), parse_problem(problem_text(widths, data))
    for q, r in zip(game.objectives, back.objectives):
        assert np.array_equal(r.H, q.H)
        assert np.array_equal(r.l, q.l)
        assert r.const == q.const


def test_stored_arrays_refuse_writes(wide):
    q = wide.objective(2)
    with pytest.raises(ValueError):
        hessian(q, DecisionPoint.of([0.0, 0.0], [0.0], [0.0]))[0, 0] = 1.0
    with pytest.raises(ValueError):
        q.H[0, 0] = 1.0
    with pytest.raises(ValueError):
        q.l[0] = 1.0


def test_constant_term_survives():
    dims = Dims.of(1, 1)
    obj = QuadraticObjective.build(dims, {(1, 1): np.eye(1)}, const=3.25)
    assert evaluate(obj, DecisionPoint.of([0.0], [0.0])) == pytest.approx(3.25)


def test_constraint_residual_sign():
    cons = LinearConstraints((np.array([[1.0]]), np.array([[2.0]])),
                             np.array([5.0]))
    inside = DecisionPoint.of([1.0], [1.0])   # 1 + 2 = 3 <= 5
    outside = DecisionPoint.of([4.0], [1.0])  # 4 + 2 = 6 > 5
    assert cons.residual(inside)[0] == pytest.approx(-2.0)
    assert cons.residual(outside)[0] == pytest.approx(1.0)


def test_validate_accepts_the_fixture_games(tri, wide):
    # a game is validated once, when the GameProblem is built
    assert GameProblem(tri.dims, tri.objectives).objectives == tri.objectives
    assert GameProblem(wide.dims, wide.objectives).objectives == wide.objectives


def test_validate_flags_shape_problems():
    dims = Dims.of(1, 1)
    with pytest.raises(DimensionError, match="shape"):
        QuadraticObjective.build(dims, {(1, 1): np.eye(2)})
    # a quadratic built for other widths
    other = QuadraticObjective.build(Dims.of(2, 1), {(1, 1): np.eye(2)})
    with pytest.raises(DimensionError, match="widths"):
        GameProblem(dims, (other, other))
    ok = ExprObjective(parse_formula("u1^2 + u2^2", dims))
    with pytest.raises(TypeError, match="not an objective"):
        GameProblem(dims, (ok, "u1^2"))
    with pytest.raises(TypeError, match="wants a Polynomial"):
        ExprObjective("u1^2")


def test_validate_flags_variables_outside_the_hierarchy():
    dims = Dims.of(1, 1)
    ok = ExprObjective(parse_formula("u1^2 + u2^2", dims))
    # a formula parsed against a wider shape
    stray = ExprObjective(parse_formula("u3^2", Dims.of(1, 1, 1)))
    with pytest.raises(DimensionError, match="u3_1 is outside the hierarchy"):
        GameProblem(dims, (ok, stray))
    wide_stray = ExprObjective(parse_formula("u2_2^2", Dims.of(1, 2)))
    with pytest.raises(DimensionError, match="u2_2 is outside the hierarchy"):
        GameProblem(dims, (ok, wide_stray))


def test_validate_flags_constraint_block_shapes(tri):
    # constraint blocks must be (k, m_level) for each level
    cons = LinearConstraints(
        (np.ones((2, 1)), np.ones((2, 1)), np.ones((1, 1))), np.zeros(2))
    with pytest.raises(DimensionError, match="constraint blocks"):
        GameProblem(tri.dims, tri.objectives, cons)
    with pytest.raises(DimensionError, match="constraint blocks"):
        GameProblem(tri.dims, tri.objectives, LinearConstraints(cons.A[:2], cons.b))


def test_quadratic_coefficients_must_be_finite():
    dims = Dims.of(1, 1)
    # 1e308 is a double, but the diagonal block doubles it to inf
    with pytest.raises(RevstackError, match="quadratic coefficient is not finite"):
        QuadraticObjective.build(dims, {(1, 1): [[1e308]]})
    with pytest.raises(RevstackError, match="not finite"):
        QuadraticObjective.build(dims, {(1, 2): [[np.inf]]})
    with pytest.raises(RevstackError, match="not finite"):
        QuadraticObjective.build(dims, {}, l=[[np.nan], [0.0]])
    with pytest.raises(RevstackError, match="not finite"):
        QuadraticObjective.build(dims, {}, const=np.inf)


def test_constraint_entries_must_be_finite():
    with pytest.raises(RevstackError, match="constraint coefficient is not finite") as err:
        LinearConstraints((np.array([[np.inf]]), np.zeros((1, 1))), np.ones(1))
    assert not isinstance(err.value, DimensionError)
    with pytest.raises(RevstackError, match="not finite"):
        LinearConstraints((np.ones((1, 1)), np.zeros((1, 1))), [np.nan])


def test_objective_count_must_match_levels(tri):
    with pytest.raises(DimensionError):
        GameProblem(tri.dims, tri.objectives[:2])
