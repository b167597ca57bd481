import math
import time

import numpy as np
import pytest

from revstack import (
    DecisionPoint,
    Dims,
    ExprObjective,
    FormulaError,
    UnknownVariableError,
    evaluate,
    parse_formula,
)

from conftest import Const, Negate, Power, Product, RefPoly, Sum, Var, formula_text, outcome

D3 = Dims.of(1, 1, 1)
DW = Dims.of(2, 1)


def assert_reads_as(text, tree, dims=D3):
    """``text`` parses to the polynomial of ``tree``, bit for bit."""
    got = outcome(lambda: parse_formula(text, dims))
    assert not isinstance(got, str), got
    assert got == outcome(lambda: RefPoly.compile(tree))


def test_basic_structure():
    assert_reads_as("(u1 - 2)^2", Power(Sum((Var(1, 1), Negate(Const(2.0)))), 2))


def test_sum_and_product_are_n_ary():
    assert_reads_as("u1 + u2 + u3", Sum((Var(1, 1), Var(2, 1), Var(3, 1))))
    assert_reads_as("2*u1*u2", Product((Const(2.0), Var(1, 1), Var(2, 1))))
    # like terms merge in one pass, left to right: (0.1 + 0.2) + 0.3, where
    # 0.1 + (0.2 + 0.3) would read 0.6
    assert_reads_as("0.1 + 0.2 + 0.3", Sum((Const(0.1), Const(0.2), Const(0.3))))
    assert parse_formula("0.1 + 0.2 + 0.3", D3).coefs == [0.6000000000000001]


def test_unary_minus_binds_tighter_than_product():
    # "-a*b" parses as (-a)*b
    assert_reads_as("-u1*u2", Product((Negate(Var(1, 1)), Var(2, 1))))


def test_power_binds_tighter_than_unary_minus():
    assert_reads_as("-u1^2", Negate(Power(Var(1, 1), 2)))
    assert parse_formula("-u1^2", D3).coefs == [-1.0]


def test_exponent_chain_is_right_associative():
    assert_reads_as("u1^2^3", Power(Var(1, 1), 8))


def test_whitespace_is_irrelevant():
    assert outcome(lambda: parse_formula("u1+2*u2", D3)) == outcome(
        lambda: parse_formula(" u1 + 2 * u2 ", D3))


def test_scalar_shorthand_and_indexed_names():
    assert_reads_as("u2", Var(2, 1))
    assert_reads_as("u1_2", Var(1, 2), DW)


def test_shorthand_refused_for_wide_levels():
    with pytest.raises(FormulaError, match="ambiguous"):
        parse_formula("u1", DW)


def test_unknown_variables_are_reported_with_position():
    with pytest.raises(UnknownVariableError) as info:
        parse_formula("u1 + u5", D3)
    assert info.value.column == 6
    with pytest.raises(UnknownVariableError):
        parse_formula("u1_2 + u2", D3)  # level 1 has width 1
    # a variable after an expanded power is still checked
    with pytest.raises(UnknownVariableError):
        parse_formula("(u1 + 1)^3 * u4", D3)


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
    assert parse_formula("u1^10^6", D3).rows == [(1_000_000,)]
    assert parse_formula("u1^1^999999", D3).rows == [(1,)]


def test_evaluation_of_parsed_formula():
    poly = parse_formula("(u1 - 1)^2 + u2^2 + u3^2", D3)
    p = DecisionPoint.of([2.0], [1.0], [3.0])
    assert evaluate(ExprObjective(poly), p) == pytest.approx(11.0)


ROUND_TRIPS = [
    ("u1", Var(1, 1)),
    ("-u1", Negate(Var(1, 1))),
    ("u1 + u2 - u3", Sum((Var(1, 1), Var(2, 1), Negate(Var(3, 1))))),
    ("u1 - -u2", Sum((Var(1, 1), Negate(Negate(Var(2, 1)))))),
    ("2*u1*u3 + 0.5", Sum((Product((Const(2.0), Var(1, 1), Var(3, 1))), Const(0.5)))),
    ("(u1 + u2)^2", Power(Sum((Var(1, 1), Var(2, 1))), 2)),
    ("-(u1*u2)", Negate(Product((Var(1, 1), Var(2, 1))))),
    ("-(u1 + u2)", Negate(Sum((Var(1, 1), Var(2, 1))))),
    ("u1^2^2 - 3*u2", Sum((Power(Var(1, 1), 4), Negate(Product((Const(3.0), Var(2, 1))))))),
    ("1e-3*u1 + 2.5", Sum((Product((Const(1e-3), Var(1, 1))), Const(2.5)))),
    ("((u1 - 2)^2 + (u2 - 1)^2) * u3",
     Product((Sum((Power(Sum((Var(1, 1), Negate(Const(2.0)))), 2),
                   Power(Sum((Var(2, 1), Negate(Const(1.0)))), 2))), Var(3, 1)))),
]


@pytest.mark.parametrize("text, tree", ROUND_TRIPS, ids=[text for text, _ in ROUND_TRIPS])
def test_parse_print_parse_is_identity(text, tree):
    assert_reads_as(text, tree)
    assert_reads_as(formula_text(tree), tree)


def _random_tree(rng, depth):
    """Random tree over the scalar trilevel variables; constants nonnegative
    (the printer writes negative constants as unary minus)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(float(np.round(rng.uniform(0, 5), 3)))
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


def _value(node, p):
    """The tree's value at ``p``, computed node by node."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return p.block(node.level)[node.index - 1]
    if isinstance(node, Sum):
        return sum(_value(t, p) for t in node.terms)
    if isinstance(node, Product):
        return math.prod(_value(f, p) for f in node.factors)
    if isinstance(node, Power):
        return _value(node.base, p) ** node.exponent
    return -_value(node.child, p)


def test_printer_round_trips_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(60):
        tree = _random_tree(rng, 3)
        assert_reads_as(formula_text(tree), tree)


def test_printed_form_evaluates_identically():
    rng = np.random.default_rng(8)
    for _ in range(30):
        tree = _random_tree(rng, 3)
        back = ExprObjective(parse_formula(formula_text(tree), D3))
        p = DecisionPoint.from_concat((1, 1, 1), rng.uniform(-2, 2, 3))
        assert evaluate(back, p) == pytest.approx(_value(tree, p), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("text", [
    "(u1 - 2)^1000000",
    "(u1 + u2 + u3)^1000",
    "(u1 + 1e200)^2",
    "(((u1^1000000)^1000000)^1000000)^10",
])
def test_oversized_expansions_are_refused(text):
    start = time.perf_counter()
    with pytest.raises(FormulaError):
        parse_formula(text, D3)
    assert time.perf_counter() - start < 0.5


def test_large_exponent_on_one_variable_loads():
    poly = parse_formula("u1^10^6", D3)
    assert poly.keys == ((1, 1),)
    assert poly.rows == [(1_000_000,)]
    assert poly.coefs == [1.0]
