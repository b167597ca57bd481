import time

import numpy as np
import pytest

from revstack import (
    Constant,
    DecisionPoint,
    Dims,
    ExprObjective,
    FormulaError,
    Negate,
    Power,
    Product,
    Sum,
    UnknownVariableError,
    Var,
    evaluate,
    parse_formula,
)

from conftest import formula_text

D3 = Dims.of(1, 1, 1)
DW = Dims.of(2, 1)


def test_basic_structure():
    node = parse_formula("(u1 - 2)^2", D3)
    assert node == Power(Sum((Var(1, 1), Negate(Constant(2.0)))), 2)


def test_sum_and_product_are_n_ary():
    node = parse_formula("u1 + u2 + u3", D3)
    assert isinstance(node, Sum) and len(node.terms) == 3
    node = parse_formula("2*u1*u2", D3)
    assert isinstance(node, Product) and len(node.factors) == 3


def test_unary_minus_binds_tighter_than_product():
    # "-a*b" parses as (-a)*b
    node = parse_formula("-u1*u2", D3)
    assert node == Product((Negate(Var(1, 1)), Var(2, 1)))


def test_power_binds_tighter_than_unary_minus():
    node = parse_formula("-u1^2", D3)
    assert node == Negate(Power(Var(1, 1), 2))


def test_exponent_chain_is_right_associative():
    node = parse_formula("u1^2^3", D3)
    assert node == Power(Var(1, 1), 8)


def test_whitespace_is_irrelevant():
    assert parse_formula("u1+2*u2", D3) == parse_formula(" u1 + 2 * u2 ", D3)


def test_scalar_shorthand_and_indexed_names():
    assert parse_formula("u2", D3) == Var(2, 1)
    assert parse_formula("u1_2", DW) == Var(1, 2)


def test_shorthand_refused_for_wide_levels():
    with pytest.raises(FormulaError, match="ambiguous"):
        parse_formula("u1", DW)


def test_unknown_variables_are_reported_with_position():
    with pytest.raises(UnknownVariableError) as info:
        parse_formula("u1 + u5", D3)
    assert info.value.column == 6
    with pytest.raises(UnknownVariableError):
        parse_formula("u1_2 + u2", D3)  # level 1 has width 1


@pytest.mark.parametrize("text", [
    "u1 +",
    "(u1",
    "u1 ^ 2.5",
    "u1 ^ -2",
    "u1 $ u2",
    "u1 u2",
    "* u1",
    "",
    "u1 + 1e999",
])
def test_malformed_input_raises(text):
    with pytest.raises(FormulaError):
        parse_formula(text, D3)


def test_huge_exponents_are_refused():
    with pytest.raises(FormulaError, match="large"):
        parse_formula("u1^9^9^9", D3)
    # the chain is bounded before it is evaluated: no 3M-digit integer
    for text in ("u1^999^999999", "u1^99999^999999", "u1^" + "9" * 5000):
        start = time.perf_counter()
        with pytest.raises(FormulaError, match="large"):
            parse_formula(text, D3)
        assert time.perf_counter() - start < 0.5
    assert parse_formula("u1^10^6", D3).exponent == 1_000_000
    assert parse_formula("u1^1^999999", D3).exponent == 1


def test_evaluation_of_parsed_formula():
    node = parse_formula("(u1 - 1)^2 + u2^2 + u3^2", D3)
    p = DecisionPoint.of([2.0], [1.0], [3.0])
    assert evaluate(ExprObjective(node), p) == pytest.approx(11.0)


@pytest.mark.parametrize("text", [
    "u1",
    "-u1",
    "u1 + u2 - u3",
    "u1 - -u2",
    "2*u1*u3 + 0.5",
    "(u1 + u2)^2",
    "-(u1*u2)",
    "-(u1 + u2)",
    "u1^2^2 - 3*u2",
    "1e-3*u1 + 2.5",
    "((u1 - 2)^2 + (u2 - 1)^2) * u3",
])
def test_parse_print_parse_is_identity(text):
    tree = parse_formula(text, D3)
    assert parse_formula(formula_text(tree), D3) == tree


def _random_tree(rng, depth):
    """Random tree over the scalar trilevel variables; constants nonnegative
    (the printer writes negative constants as unary minus, which the parser
    reads back as Negate — structurally different, numerically equal)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Constant(float(np.round(rng.uniform(0, 5), 3)))
        return Var(int(rng.integers(1, 4)), 1)
    kind = rng.integers(0, 4)
    if kind == 0:
        width = int(rng.integers(2, 4))
        return Sum(tuple(_random_tree(rng, depth - 1) for _ in range(width)))
    if kind == 1:
        width = int(rng.integers(2, 4))
        return Product(tuple(_random_tree(rng, depth - 1) for _ in range(width)))
    if kind == 2:
        return Power(_random_tree(rng, depth - 1), int(rng.integers(1, 4)))
    return Negate(_random_tree(rng, depth - 1))


def test_printer_round_trips_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(60):
        tree = _random_tree(rng, 3)
        assert parse_formula(formula_text(tree), D3) == tree


def test_printed_form_evaluates_identically():
    rng = np.random.default_rng(8)
    for _ in range(30):
        tree = _random_tree(rng, 3)
        back = parse_formula(formula_text(tree), D3)
        p = DecisionPoint.from_concat((1, 1, 1), rng.uniform(-2, 2, 3))
        assert evaluate(ExprObjective(back), p) == pytest.approx(
            evaluate(ExprObjective(tree), p), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("text", [
    "(u1 - 2)^1000000",
    "(u1 + u2 + u3)^1000",
    "(u1 + 1e200)^2",
    "(((u1^1000000)^1000000)^1000000)^10",
])
def test_oversized_expansions_are_refused(text):
    tree = parse_formula(text, D3)
    start = time.perf_counter()
    with pytest.raises(FormulaError):
        ExprObjective(tree)
    assert time.perf_counter() - start < 0.5


def test_large_exponent_on_one_variable_loads():
    poly = ExprObjective(parse_formula("u1^10^6", D3)).poly
    assert poly.keys == ((1, 1),)
    assert poly.E.tolist() == [[1_000_000]]
    assert poly.c.tolist() == [1.0]
