import json

import numpy as np
import pytest

from revstack import (
    DocumentError,
    DocumentSyntaxError,
    ExprObjective,
    QuadraticObjective,
    UnknownVariableError,
    parse_problem,
    parse_strategies,
    strategies_to_document,
    synthesize_cascade,
    team_optimum_quadratic,
    verify_full,
)

from conftest import problem_text, wide_leader_data

TRI_DOC = """
{
  "levels": 3,
  "dims": [1, 1, 1],
  "objectives": [
    {"type": "quadratic",
     "A": {"1,1": [[1]], "2,2": [[1]], "3,3": [[1]]},
     "l": [[-4], [-2], [-6]],
     "c": 14},
    {"type": "quadratic",
     "A": {"1,1": [[1]], "2,2": [[1]], "3,3": [[1]]},
     "l": [[-2], [0], [0]],
     "c": 1},
    {"type": "expr", "formula": "u1^2 + (u2 - 2)^2 + u3^2"}
  ]
}
"""


def test_parse_problem_reads_a_mixed_document(tri):
    prob = parse_problem(TRI_DOC)
    assert prob.dims.m == (1, 1, 1)
    assert isinstance(prob.objective(1), QuadraticObjective)
    assert isinstance(prob.objective(3), ExprObjective)
    eq = team_optimum_quadratic(prob)
    assert eq.point.concat() == pytest.approx([2.0, 1.0, 3.0])


def test_constraints_are_read():
    doc = json.loads(TRI_DOC)
    doc["constraints"] = {"A": [[[1]], [[0]], [[0]]], "b": [10]}
    prob = parse_problem(json.dumps(doc))
    assert np.array_equal(prob.constraints.b, [10.0])
    assert [m.tolist() for m in prob.constraints.A] == [[[1.0]], [[0.0]], [[0.0]]]


def test_document_of_a_programmatic_problem_round_trips(wide):
    again = parse_problem(problem_text(*wide_leader_data()))
    assert again.dims == wide.dims
    for q, r in zip(wide.objectives, again.objectives):
        assert (r.H.tobytes(), r.l.tobytes(), r.const) == (q.H.tobytes(), q.l.tobytes(), q.const)


def test_missing_l_and_c_default_to_zero():
    text = """
    {"levels": 2, "dims": [1, 1],
     "objectives": [
       {"type": "quadratic", "A": {"1,1": [[1]], "2,2": [[1]]}},
       {"type": "quadratic", "A": {"1,1": [[1]], "2,2": [[1]]}}]}
    """
    prob = parse_problem(text)
    top = prob.objective(1)
    assert top.const == 0.0
    assert all(not np.any(seg) for seg in top.l)


def test_json_syntax_errors_carry_line_and_column():
    with pytest.raises(DocumentSyntaxError) as info:
        parse_problem('{"levels": 3,\n  "dims": [1, 1, 1],,}')
    assert info.value.line == 2
    assert info.value.column is not None
    assert "line 2" in str(info.value)


@pytest.mark.parametrize("mangle,needle", [
    (lambda d: d.pop("levels"), "missing key"),
    (lambda d: d.__setitem__("levels", "three"), "levels"),
    (lambda d: d.__setitem__("dims", [1, 1]), "dims"),
    (lambda d: d.__setitem__("dims", [1, 0, 1]), "width"),
    (lambda d: d.__setitem__("objectives", d["objectives"][:2]), "one entry per level"),
    (lambda d: d["objectives"][0].__setitem__("type", "cubic"), "unknown objective type"),
    (lambda d: d["objectives"][0].__setitem__("l", [[-4], [-2]]), "one segment per level"),
    (lambda d: d["objectives"][0].__setitem__("c", "zero"), "must be a number"),
    (lambda d: d["objectives"][0]["A"].__setitem__("2,1", [[1]]), "j <= k"),
    (lambda d: d["objectives"][0]["A"].__setitem__("1,7", [[1]]), "outside the hierarchy"),
    (lambda d: d["objectives"][0]["A"].__setitem__("diag", [[1]]), "bad block key"),
    (lambda d: d.__setitem__("constraints", {"A": [[[1]], [[0]]], "b": [1]}),
     "one block per level"),
    (lambda d: d.__setitem__("constraints", {"A": [[[1]], [[0]], [[0]]]}),
     "missing key"),
    (lambda d: d["objectives"][0]["l"].__setitem__(0, [float("nan")]), "NaN"),
    (lambda d: d["objectives"][0]["l"].__setitem__(0, [10 ** 400]), "overflows"),
    # a double that the diagonal block doubles past the range
    (lambda d: d["objectives"][0]["A"].__setitem__("1,1", [[1e308]]),
     "quadratic coefficient is not finite"),
    (lambda d: d.__setitem__("constraints", {"A": [[[1], [1]], [[1]], [[1]]], "b": [1]}),
     "constraint blocks"),
])
def test_malformed_documents_are_refused(mangle, needle):
    doc = json.loads(TRI_DOC)
    mangle(doc)
    with pytest.raises(DocumentError) as info:
        parse_problem(json.dumps(doc))
    assert needle in str(info.value)


def test_formula_errors_point_into_the_document():
    doc = json.loads(TRI_DOC)
    doc["objectives"][2]["formula"] = "u1^2 + u9"
    with pytest.raises(UnknownVariableError) as info:
        parse_problem(json.dumps(doc))
    assert info.value.where == "objectives[2].formula"


def test_shape_problems_surface_as_dimension_errors():
    doc = json.loads(TRI_DOC)
    doc["objectives"][0]["A"]["1,1"] = [[1, 0], [0, 1]]
    with pytest.raises(DocumentError,
                       match=r"block \(1,1\) has shape \(2, 2\), expected \(1, 1\)") as info:
        parse_problem(json.dumps(doc))
    assert info.value.where == "objectives[0]"


# ---------------------------------------------------------------------------
# strategy documents
# ---------------------------------------------------------------------------

def _chain(problem):
    eq = team_optimum_quadratic(problem)
    return eq, synthesize_cascade(problem, desired=eq.point)


def test_strategies_round_trip_through_json(tri):
    eq, chain = _chain(tri)
    text = json.dumps(strategies_to_document(chain))
    back = parse_strategies(text, tri, eq.point)
    assert [s.level for s in back] == [1, 2]
    rng = np.random.default_rng(3)
    for orig, again in zip(chain, back):
        for _ in range(10):
            lower = [rng.uniform(-4, 4, 1) for _ in orig.coeffs]
            assert orig(lower) == pytest.approx(again(lower), abs=1e-12)
    report = verify_full(tri, back, desired=eq.point)
    assert report.verified


def test_strategy_document_shape(tri):
    _, chain = _chain(tri)
    doc = strategies_to_document(chain)
    assert [e["level"] for e in doc["strategies"]] == [1, 2]
    top = doc["strategies"][0]
    assert top["offset"] == [12.0]
    assert top["coeffs"] == [[[-1.0]], [[-3.0]]]


def test_hand_edited_strategy_keeps_its_realization_error(tri):
    eq, _ = _chain(tri)
    text = json.dumps({"strategies": [
        {"level": 1, "offset": [11.0], "coeffs": [[[-1.0]], [[-2.0]]]}]})
    (s,) = parse_strategies(text, tri, eq.point)
    # anchored at its own value over the desired tail, 2 away from d1
    assert s.own_anchor == pytest.approx([4.0])
    assert float(np.linalg.norm(s(eq.point.tail(2)) - eq.point.block(1))) == pytest.approx(2.0)


@pytest.mark.parametrize("doc,needle", [
    ({"strategies": []}, "non-empty"),
    ({}, "missing key"),
    ({"strategies": ["x"]}, "must be an object"),
    ({"strategies": [{"level": 3, "offset": [0.0], "coeffs": [[[0.0]]]}]},
     "announcing level"),
    ({"strategies": [{"level": 1, "offset": [0.0], "coeffs": [[[0.0]]]}]},
     "one matrix per lower level"),
    ({"strategies": [{"level": 1, "offset": [0.0],
                      "coeffs": [[[0.0, 1.0]], [[0.0]]]}]}, "shape"),
    ({"strategies": [{"level": 1, "offset": [float("inf")],
                      "coeffs": [[[0.0]], [[0.0]]]}]}, "Infinity"),
])
def test_malformed_strategy_documents_are_refused(tri, doc, needle):
    eq = team_optimum_quadratic(tri)
    with pytest.raises(DocumentError) as info:
        parse_strategies(json.dumps(doc), tri, eq.point)
    assert needle in str(info.value)
