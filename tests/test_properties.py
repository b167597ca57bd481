"""Property tests: round trips, polynomial arithmetic, strategy forms and the
verifier's soundness.

Hypothesis draws the cases deterministically (``derandomize=True``), so a
run is repeatable and needs no example database.
"""

import contextlib
import io
import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, reject, settings, strategies as st  # noqa: E402

from revstack import (  # noqa: E402
    AffineStrategy,
    DecisionPoint,
    Dims,
    FormulaError,
    QuadraticObjective,
    RevstackError,
    parse_formula,
    parse_problem,
    synthesize_cascade,
    team_optimum_quadratic,
    verify_full,
)

from revstack import model  # noqa: E402

from conftest import (  # noqa: E402
    TOO_LARGE,
    Const,
    Negate,
    Power,
    Product,
    RefPoly,
    Sum,
    Var,
    build_game,
    formula_text,
    outcome,
    problem_text,
    random_convex_game,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
MODEST = st.floats(-1e6, 1e6, allow_nan=False)


# ---------------------------------------------------------------------------
# formulas and documents
# ---------------------------------------------------------------------------

def formula_trees(dims, max_exponent, max_leaves):
    """Trees ``formula_text`` prints as the parser reads them: every Sum and
    Product has at least two terms and constants are non-negative (the
    printer writes a negative constant as a minus sign, which re-reads as
    Negate)."""
    variables = st.integers(1, dims.levels).flatmap(
        lambda lev: st.builds(Var, st.just(lev), st.integers(1, dims.m[lev - 1])))
    constants = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Const)

    def extend(kids):
        terms = st.lists(kids, min_size=2, max_size=4).map(tuple)
        return st.one_of(terms.map(Sum), terms.map(Product),
                         st.builds(Power, kids, st.integers(1, max_exponent)),
                         kids.map(Negate))

    return st.recursive(variables | constants, extend, max_leaves=max_leaves)


WIDE = Dims.of(2, 1, 3)


@SETTINGS
@given(formula_trees(WIDE, 10 ** 6, 12))
def test_formula_print_parse_round_trip(tree):
    assert outcome(lambda: parse_formula(formula_text(tree), WIDE)) == outcome(
        lambda: RefPoly.compile(tree))


@st.composite
def problems(draw):
    """A game as data (widths, objectives, constraints), each level an
    ``(A, l, const)`` triple or a formula tree, and the game built from it."""
    widths = tuple(draw(st.lists(st.integers(1, 2), min_size=2, max_size=3)))
    dims = Dims.of(*widths)
    n, m = dims.levels, dims.m
    objectives = []
    for _ in range(n):
        if draw(st.booleans()):
            A = {(j, k): np.array(draw(st.lists(
                     st.lists(FINITE, min_size=m[k - 1], max_size=m[k - 1]),
                     min_size=m[j - 1], max_size=m[j - 1])))
                 for j in range(1, n + 1) for k in range(j, n + 1) if draw(st.booleans())}
            l = [draw(st.lists(FINITE, min_size=w, max_size=w)) for w in m]
            objectives.append((A, l, draw(FINITE)))
        else:
            objectives.append(draw(formula_trees(dims, 3, 6)))
    constraints = None
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        rows = st.lists(FINITE, min_size=k, max_size=k)
        constraints = (tuple(np.array([draw(rows) for _ in range(w)]).T for w in m),
                       draw(rows))
    try:
        game = build_game(widths, objectives, constraints)
    except RevstackError:  # an overflowing coefficient or expansion is refused
        reject()
    return (widths, objectives, constraints), game


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@SETTINGS
@given(problems())
def test_document_round_trip(drawn):
    data, game = drawn
    text = problem_text(*data)
    json.loads(text)  # plain JSON: every number finite
    parsed = parse_problem(text)
    assert parsed.dims == game.dims
    for got, want in zip(parsed.objectives, game.objectives):
        assert type(got) is type(want)
        if isinstance(want, QuadraticObjective):
            assert [_bits(got.H), _bits(got.l), _bits(got.const)] == [
                _bits(want.H), _bits(want.l), _bits(want.const)]
        else:
            assert got.poly.keys == want.poly.keys
            assert outcome(lambda: got.poly) == outcome(lambda: want.poly)
    if game.constraints is None:
        assert parsed.constraints is None
    else:
        assert ([_bits(M) for M in parsed.constraints.A], _bits(parsed.constraints.b)) == (
            [_bits(M) for M in game.constraints.A], _bits(game.constraints.b))


# ---------------------------------------------------------------------------
# polynomial arithmetic against numpy array arithmetic
# ---------------------------------------------------------------------------

ARITHMETIC = settings(SETTINGS, max_examples=150)

# Sums whose like terms merge three or more at a time, and their powers:
# there the order in which coefficients are added shows in the last bit.
LIKE_TERMS = st.lists(
    st.builds(lambda coef, mono: Product((Const(coef), mono)), st.floats(0.01, 100.0),
              st.sampled_from([Var(1, 1), Power(Var(2, 1), 2), Product((Var(1, 2), Var(3, 1)))])),
    min_size=3, max_size=8).map(lambda terms: Sum(tuple(terms)))
LIKE_TERMS = st.one_of(LIKE_TERMS, st.builds(Power, LIKE_TERMS, st.integers(2, 4)))



def nested_powers(trees):
    """Powers of powers with exponents up to the parser's 10^6 each, so the
    exponents of the polynomial reach and pass int64."""
    big = st.integers(2 ** 10, 10 ** 6)
    return st.recursive(st.builds(Power, trees, big), lambda inner: st.builds(Power, inner, big),
                        max_leaves=4)


# small and huge exponents, and huge powers of whole trees, which end in
# refusals as well as in polynomials
@ARITHMETIC
@given(st.one_of(formula_trees(WIDE, 4, 12), formula_trees(WIDE, 10 ** 6, 12), LIKE_TERMS,
                 nested_powers(formula_trees(WIDE, 10 ** 6, 6))))
def test_compiled_polynomials_match_the_array_arithmetic(tree):
    got = outcome(lambda: parse_formula(formula_text(tree), WIDE))
    assert got == outcome(lambda: RefPoly.compile(tree))
    if not isinstance(got, str):
        poly, ref = parse_formula(formula_text(tree), WIDE), RefPoly.compile(tree)
        for v in range(len(poly.keys)):
            assert outcome(lambda: poly.derivative(v)) == outcome(lambda: ref.derivative(v))


@ARITHMETIC
@given(st.one_of(formula_trees(WIDE, 4, 8), LIKE_TERMS),
       st.lists(st.one_of(st.integers(-3, 3).map(float), MODEST, FINITE),
                min_size=8, max_size=8))
def test_substitution_matches_the_array_arithmetic(tree, entries):
    try:
        poly, ref = parse_formula(formula_text(tree), WIDE), RefPoly.compile(tree)
    except RevstackError:
        reject()
    offset = np.array(entries[:2])
    C = [np.array(entries[2:4]).reshape(2, 1), np.array(entries[2:8]).reshape(2, 3)]
    try:
        want = outcome(lambda: ref.substitute_top(offset, C))
    except ValueError:
        # the arrays cannot stack zero parts: a level-1 key with no monomial left
        # substitutes to the zero polynomial
        assert outcome(lambda: poly.substitute_top(offset, C)) == outcome(
            lambda: model.Polynomial.from_terms((), np.zeros((0, 0)), []))
        return
    assert outcome(lambda: poly.substitute_top(offset, C)) == want


U2_SQUARED = Power(Var(2, 1), 2)


REFUSED = [
    ("(u1_1 + u1_2 + u2 + u3_1 + u3_2 + u3_3)^40",
     Power(Sum((Var(1, 1), Var(1, 2), Var(2, 1), Var(3, 1), Var(3, 2), Var(3, 3))), 40),
     TOO_LARGE),
    ("1e308*u2^2 + 1e308*u2^2", Sum((Product((Const(1e308), U2_SQUARED)),) * 2),
     "polynomial coefficient is not finite"),
    ("(2*u2)^1100", Power(Product((Const(2.0), Var(2, 1))), 1100),
     "polynomial coefficient is not finite"),
]


@pytest.mark.parametrize("text, tree, message", REFUSED,
                         ids=["%s-%s" % (text, message) for text, _, message in REFUSED])
def test_refused_expansions_keep_their_messages(text, tree, message):
    with pytest.raises(FormulaError) as err:
        parse_formula(text, WIDE)
    assert str(err.value) == message
    with pytest.raises(RevstackError) as ref_err:
        RefPoly.compile(tree)
    assert str(ref_err.value) == message


def _power_tower(base, exponents):
    for k in exponents:
        base = Power(base, k)
    return base


def test_an_exponent_past_int64_is_refused():
    # 2^62 as (((u2^2^18)^2^18)^2^18)^2^8, squared
    tree = Power(_power_tower(Var(2, 1), (2 ** 18, 2 ** 18, 2 ** 18, 2 ** 8)), 2)
    start = time.perf_counter()
    with pytest.raises(FormulaError) as err:
        parse_formula(formula_text(tree), WIDE)
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == "polynomial exponent overflows"
    with pytest.raises(RevstackError, match="^polynomial exponent overflows$"):
        RefPoly.compile(tree)
    # 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657 itself is stored, one more is not
    top = _power_tower(Var(2, 1), (49, 73, 127, 337, 92737, 649657))
    assert parse_formula(formula_text(top), WIDE).rows == [(2 ** 63 - 1,)]
    with pytest.raises(FormulaError, match="^polynomial exponent overflows$"):
        parse_formula(formula_text(Product((Var(2, 1), top))), WIDE)


# ---------------------------------------------------------------------------
# strategy forms
# ---------------------------------------------------------------------------

@st.composite
def strategies_and_points(draw):
    """A rule at level 2 of a hierarchy with the drawn widths, plus a lower point."""
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    own, lower = widths[0], widths[1:]

    def block(w):
        return np.array(draw(st.lists(MODEST, min_size=w, max_size=w)))

    anchor = DecisionPoint(tuple(block(w) for w in widths))
    coeffs = tuple(block(own * w).reshape(own, w) for w in lower)
    return AffineStrategy(2, anchor, coeffs), DecisionPoint(tuple(block(w) for w in lower))


def _close(a, b, scale):
    return np.all(np.abs(a - b) <= 8 * np.finfo(float).eps * scale)


@SETTINGS
@given(strategies_and_points())
def test_as_affine_and_from_affine_are_inverses(case):
    s, x = case
    d_low = s.lower_anchor
    offset, linear = s.as_affine()
    scale = np.abs(s.own_anchor) + sum(np.abs(Q) @ np.abs(d)
                                       for Q, d in zip(s.coeffs, d_low.blocks))
    back = AffineStrategy.from_affine(s.level, offset, linear, d_low)
    assert back.level == s.level
    assert all(np.array_equal(a, b) for a, b in zip(back.coeffs, s.coeffs))
    assert all(np.array_equal(a, b) for a, b in zip(back.lower_anchor.blocks, d_low.blocks))
    assert _close(back.own_anchor, s.own_anchor, scale)
    offset2, linear2 = back.as_affine()
    assert all(np.array_equal(a, b) for a, b in zip(linear2, linear))
    assert _close(offset2, offset, scale)
    # both forms announce the same block
    direct = offset + sum(C @ xj for C, xj in zip(linear, x.blocks))
    scale_x = scale + sum(np.abs(C) @ np.abs(xj) for C, xj in zip(linear, x.blocks))
    assert _close(s(x), direct, 2 * scale_x)


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------

@SETTINGS
@given(seed=st.integers(0, 10 ** 6), levels=st.sampled_from([2, 3]),
       which=st.integers(0, 10 ** 6), entry=st.sampled_from(["offset", "coeff"]),
       sign=st.sampled_from([1.0, -1.0]))
def test_a_perturbed_chain_never_verifies(seed, levels, which, entry, sign):
    problem = random_convex_game(seed, (1,) * levels)
    d = team_optimum_quadratic(problem).point
    chain = synthesize_cascade(problem, desired=d)
    assert verify_full(problem, chain, desired=d).verified
    # one offset or one coefficient entry of one rule moves by 1e-3 * (1 + |entry|)
    rule = chain[which % len(chain)]
    offset, linear = rule.as_affine()
    offset, linear = offset.copy(), [C.copy() for C in linear]
    target = offset if entry == "offset" else linear[which % len(linear)]
    target.flat[0] += sign * 1e-3 * (1.0 + abs(target.flat[0]))
    bad = AffineStrategy.from_affine(rule.level, offset, linear, rule.lower_anchor)
    broken = [bad if s is rule else s for s in chain]
    assert not verify_full(problem, broken, desired=d).verified


# ---------------------------------------------------------------------------
# the command line on constraint rows from a ladder of magnitudes
# ---------------------------------------------------------------------------

README_OBJECTIVES = [
    {"type": "quadratic", "A": {"1,1": [[1]], "2,2": [[1]], "3,3": [[1]]},
     "l": [[-4], [-2], [-6]], "c": 14},
    {"type": "quadratic", "A": {"1,1": [[1]], "2,2": [[1]], "3,3": [[1]]},
     "l": [[-2], [0], [0]], "c": 1},
    {"type": "expr", "formula": "u1^2 + (u2 - 2)^2 + u3^2"},
]

LADDER = st.sampled_from(
    [0.0] + [s * m for m in (1.0, 2.0, 1e-300, 1e-160, 1e154, 1e300) for s in (1.0, -1.0)])

COMMANDS = (["feasible"], ["feasible", "--samples", "2"], ["solve"],
            ["family", "--samples", "1"])


def _run_main(argv):
    """Exit code and stderr of ``cli.main``; a numpy warning raises."""
    from revstack.cli import main

    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


@SETTINGS
@given(rows=st.lists(st.tuples(LADDER, LADDER, LADDER, LADDER), min_size=1, max_size=3))
# the simplex tableau overflows; the rank-one gains overflow
@example(rows=[(1e-160, 1e300, 0.0, -2.0), (-1e300, 0.0, 1e154, -1e-300),
               (2.0, 1e300, 0.5, 1e-12)])
@example(rows=[(-1e-300, -2.0, -5.0, -1e300), (1e-160, 1.0, 0.0, 0.0)])
def test_constraint_magnitudes_end_in_a_documented_exit(tmp_path_factory, rows):
    doc = {"levels": 3, "dims": [1, 1, 1], "objectives": README_OBJECTIVES,
           "constraints": {"A": [[[r[j]] for r in rows] for j in range(3)],
                           "b": [r[3] for r in rows]}}
    path = tmp_path_factory.mktemp("ladder") / "game.json"
    path.write_text(json.dumps(doc))
    for argv in COMMANDS:
        code, err = _run_main([argv[0], str(path), *argv[1:]])
        assert code in (0, 2, 3, 4), (argv, code, err)
        if code in (2, 4):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


# ---------------------------------------------------------------------------
# the command line on follower formulas from the same ladder
# ---------------------------------------------------------------------------

def ladder_formulas(names=("u1", "u2", "u3"), cut=True):
    """Formula text over the variables ``names`` (the README hierarchy's by
    default): constants from the ladder, small and huge exponents, and, with
    ``cut``, the same text cut short."""
    atoms = st.one_of(st.sampled_from(names), LADDER.map(lambda v: "(%r)" % v))
    exponents = st.one_of(st.integers(1, 4), st.integers(300, 10 ** 6))

    def extend(kids):
        return st.one_of(
            st.tuples(kids, st.sampled_from([" + ", " - ", "*"]), kids).map("".join),
            st.tuples(kids, exponents).map(lambda t: "(%s)^%d" % t))

    whole = st.recursive(atoms, extend, max_leaves=8)
    if not cut:
        return whole
    return st.one_of(whole, whole.flatmap(lambda t: st.integers(0, len(t) - 1).map(
        lambda k: t[:k])))


@SETTINGS
@given(formula=ladder_formulas())
def test_follower_formulas_end_in_a_documented_exit(tmp_path_factory, formula):
    doc = {"levels": 3, "dims": [1, 1, 1],
           "objectives": README_OBJECTIVES[:2] + [{"type": "expr", "formula": formula}]}
    path = tmp_path_factory.mktemp("formula") / "game.json"
    path.write_text(json.dumps(doc))
    for argv in (["solve"], ["family", "--samples", "1"]):
        code, err = _run_main([argv[0], str(path), *argv[1:]])
        assert code in (0, 2, 3, 4), (argv, code, err)
        if code in (2, 4):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


# ---------------------------------------------------------------------------
# the command line on quadratic coefficients and oracle windows
# ---------------------------------------------------------------------------

def _squares(targets, widths=(1, 1, 1, 1)):
    """sum_v (u_v - t_v)^2 over the scalars of levels ``widths`` wide, as a
    quadratic document."""
    at = np.cumsum((0,) + tuple(widths))
    return {"type": "quadratic",
            "A": {"%d,%d" % (j, j): np.eye(w).tolist() for j, w in enumerate(widths, start=1)},
            "l": [[-2.0 * t for t in targets[a:b]] for a, b in zip(at, at[1:])],
            "c": float(sum(t * t for t in targets))}


# a (1,1,1,1) game that verifies: level 2's three-coordinate grid is one
# window at up to 27 points, and first-axis slabs at 41
SQUARES = [_squares(t) for t in ((2, 1, 3, 0), (1, 0, 0, 1), (0, 2, 1, 1), (1, 1, 2, 3))]

QUADRATIC_CHANGES = st.one_of(
    st.tuples(st.just("A"), st.integers(0, 3),
              st.sampled_from(["1,1", "2,2", "3,3", "4,4", "1,2", "2,3", "3,4", "1,4"]),
              LADDER),
    st.tuples(st.just("l"), st.integers(0, 3), st.integers(0, 3), LADDER),
    st.tuples(st.just("c"), st.integers(0, 3), st.just(None), LADDER))


@SETTINGS
@given(changes=st.lists(QUADRATIC_CHANGES, max_size=2),
       radius=st.sampled_from([1e-300, 0.5, 10.0, 1e6, 1e150, 1e300, 1.7e308]),
       points=st.sampled_from([1, 2, 5, 41]))
@example(changes=[], radius=10.0, points=41)
# the team optimum's |l| and cost overflow; its stationarity residual is NaN
@example(changes=[("l", 0, 1, 1e300), ("c", 2, None, -1e300)], radius=1e-300, points=41)
@example(changes=[("A", 0, "3,4", -1e-300), ("A", 0, "2,3", 2.0)], radius=1.7e308, points=1)
def test_quadratic_coefficients_and_windows_end_in_a_documented_exit(
        tmp_path_factory, changes, radius, points):
    objectives = json.loads(json.dumps(SQUARES))
    for part, level, where, value in changes:
        if part == "A":
            objectives[level]["A"][where] = [[value]]
        elif part == "l":
            objectives[level]["l"][where] = [value]
        else:
            objectives[level]["c"] = value
    doc = {"levels": 4, "dims": [1, 1, 1, 1], "objectives": objectives}
    path = tmp_path_factory.mktemp("quadratic") / "game.json"
    path.write_text(json.dumps(doc))
    code, err = _run_main(["solve", str(path), "--grid-radius", repr(radius),
                           "--grid-points", str(points)])
    assert code in (0, 2, 3, 4), (code, err)
    if code in (2, 4):
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if not changes and (radius, points) == (10.0, 41):
        assert code == 0


# ---------------------------------------------------------------------------
# the command line on formula widths and on its options
# ---------------------------------------------------------------------------

def _scalars(widths):
    return ["u%d_%d" % (lev, i) for lev, w in enumerate(widths, start=1)
            for i in range(1, w + 1)]


def _game(widths, targets, extras, rows=None):
    """A game whose level-j cost is the bowl around ``targets[j]`` plus the
    formula text ``extras[j]``, or the quadratic bowl, which constraint rows
    need of the leader, where that is None."""
    objectives = [_squares(t, widths) if extra is None else
                  {"type": "expr", "formula": " + ".join(
                      "(%s - %r)^2" % vt for vt in zip(_scalars(widths), t)) + extra}
                  for t, extra in zip(targets, extras)]
    doc = {"levels": len(widths), "dims": list(widths), "objectives": objectives}
    if rows is not None:
        doc["constraints"] = rows
    return doc


def _rules(*rules):
    """A strategy document of ``(offset, coeffs)`` rules from level 1 down."""
    return {"strategies": [{"level": lev, "offset": offset, "coeffs": list(coeffs)}
                           for lev, (offset, coeffs) in enumerate(rules, start=1)]}


@st.composite
def option_cases(draw):
    """A game over drawn widths whose every cost is a bowl plus, maybe, a
    ladder formula (the leader's may be a quadratic bowl); maybe constraint
    rows; a strategy document of the right shapes; and ``--tol``,
    ``--samples`` and ``--params`` values."""
    widths = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    targets = [[draw(st.integers(-2, 2)) for _ in range(sum(widths))] for _ in widths]
    entries = st.one_of(st.integers(-2, 2).map(float), LADDER)
    k = draw(st.integers(0, 2))
    rows = {"A": [[[draw(entries) for _ in range(w)] for _ in range(k)] for w in widths],
            "b": [draw(entries) for _ in range(k)]} if k else None
    extras = [None if j == 0 and (k or draw(st.booleans())) else draw(st.one_of(
        st.just(""), st.tuples(st.sampled_from([" + ", " - "]),
                               ladder_formulas(_scalars(widths), cut=False)).map("".join)))
        for j in range(len(widths))]

    def matrix(r, c):
        return [[draw(LADDER) for _ in range(c)] for _ in range(r)]

    rules = [([draw(LADDER) for _ in range(widths[lev])],
              [matrix(widths[lev], w) for w in widths[lev + 1:]])
             for lev in range(len(widths) - 1)]
    params = draw(st.one_of(
        st.none(),
        st.builds(lambda: ";".join(json.dumps(matrix(widths[0] - 1, w)) for w in widths[1:])),
        st.sampled_from(["", "[[1]]", "[[NaN]]", "[]", "1;2;3", "[[1e999]]", "[[0.5, 1]]"])))
    tol = draw(st.sampled_from(["0", "1e-300", "1e-9", "1e-4", "0.5", "1e300"]))
    # the default grid where the oracle's largest grid is at most 41^3 nodes
    points = draw(st.sampled_from([None, 9])) if sum(widths[1:]) <= 3 else 9
    return _game(widths, targets, extras, rows), _rules(*rules), tol, draw(
        st.integers(0, 3)), params, points


# Caps on one `cli.main` run of the property below: its wall time under
# tracemalloc, and the peak of the memory tracemalloc traces.  The slowest of
# its 112 runs took 0.08-0.11 s and the largest peak was 1.03 MiB, on one core
# of a shared Xeon VM, so the caps leave about 20x and 16x headroom.
RUN_SECONDS = 2.0
RUN_PEAK_BYTES = 16 << 20


def _run_capped(argv):
    """``_run_main`` under tracemalloc, with its time and peak checked."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, err = _run_main(argv)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < RUN_SECONDS, (argv, seconds)
    assert peak < RUN_PEAK_BYTES, (argv, peak)
    return code, err


@settings(SETTINGS, max_examples=25)
@given(case=option_cases())
# no constraint rows: feasible printed its refusal without "error: "; the
# descent's line search took a trial whose cost overflowed to -inf
@example(case=(_game((1, 1), [(-1, 0), (0, 0)], [" + (u1_1)^301", ""]),
               _rules(([0.0], [[[0.0]]])), "0", 0, None, 9))
# the rule's value at the desired point overflowed when the document was read
@example(case=(_game((2, 2), [(-1, 0, 2, -2), (-2, 0, -1, -2)], [None, ""],
                     {"A": [[[-1e-300, 1e-160]], [[0.0, -1.0]]], "b": [-1e300]}),
               _rules(([1e-160, -1e300], [[[-1e-160, -2.0], [-1e-160, 1e300]]])),
               "1e-300", 1, None, 9))
# the follower's cost at the desired point overflowed in the sublevel check
@example(case=(_game((1, 2), [(2, -2, 0), (-1, -2, 1)], [None, ""],
                     {"A": [[[-2.0], [-1e-300]], [[-1.0, 1.0], [2.0, 2.0]]],
                      "b": [1e154, -1e300]}),
               _rules(([-2.0], [[[1e-160, -1.0]]])), "0.5", 3, None, 9))
def test_formula_widths_and_options_end_in_a_documented_exit(tmp_path_factory, case):
    doc, strategies, tol, samples, params, points = case
    where = tmp_path_factory.mktemp("options")
    path, spath = where / "game.json", where / "strategies.json"
    path.write_text(json.dumps(doc))
    spath.write_text(json.dumps(strategies))
    # a coarse oracle grid keeps a wide run short; the window has its own property
    grid = ["--tol", tol] + ([] if points is None else ["--grid-points", str(points)])
    family = ["--samples", str(samples)] + ([] if params is None else ["--params", params])
    for argv in (["solve", str(path), *grid],
                 ["verify", str(path), "--strategies", str(spath), *grid],
                 ["feasible", str(path), "--samples", str(samples)],
                 ["family", str(path), *family, *grid]):
        code, err = _run_capped(argv)
        assert code in (0, 2, 3, 4), (argv, code, err)
        if code in (2, 4):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_a_quartic_follower_over_four_coordinates_ends_in_a_documented_exit(tmp_path):
    # level 2's subtree has four coordinates, so at the default grid the
    # oracle walks its degree-4 polynomial over 41^4 nodes in 141 windows
    doc = _game((1, 2, 2), [[1, 0, -1, 2, 0], [0, 1, 1, -1, 0], [-1, 0, 2, 0, 1]],
                [None, " + (u2_1 - u3_1)^4 + (u2_2 + u3_2)^4", None])
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, err = _run_main(["solve", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 2, 3), (code, err)
    assert code != 2 or (err.startswith("error: ") and err.count("\n") == 1), err
    assert peak < RUN_PEAK_BYTES, peak
