import json
import os
import pathlib
import subprocess
import sys

import pytest

import revstack
from revstack import cli
from revstack.cli import main

from conftest import problem_text, wide_leader_data

DATA = pathlib.Path(__file__).parent / "data"

TRI_PROBLEM = """\
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

GOOD_STRATEGIES = {"strategies": [
    {"level": 1, "offset": [12.0], "coeffs": [[[-1.0]], [[-3.0]]]},
    {"level": 2, "offset": [4.0], "coeffs": [[[-1.0]]]},
]}

CORRUPTED_STRATEGIES = {"strategies": [
    {"level": 1, "offset": [11.0], "coeffs": [[[-1.0]], [[-2.0]]]},
    {"level": 2, "offset": [4.0], "coeffs": [[[-1.0]]]},
]}

# follower box u2 in [-1, 3], u3 in [1, 5] plus two bands on u1
FEASIBLE_CONSTRAINTS = {
    "A": [[[1], [-1], [0], [0], [0], [0]],
          [[0], [0], [1], [-1], [0], [0]],
          [[0], [0], [0], [0], [1], [-1]]],
    "b": [18, 28, 3, 1, 5, -1],
}


@pytest.fixture()
def tri_doc(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(TRI_PROBLEM)
    return str(path)


@pytest.fixture()
def wide_doc(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(problem_text(*wide_leader_data()))
    return str(path)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _constrained_doc(tmp_path, ceiling):
    doc = json.loads(TRI_PROBLEM)
    doc["constraints"] = json.loads(json.dumps(FEASIBLE_CONSTRAINTS))
    doc["constraints"]["b"][0] = ceiling
    return _write(tmp_path, "constrained.json", doc)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_text_output(tri_doc, capsys):
    assert main(["solve", tri_doc]) == 0
    out = capsys.readouterr().out
    assert "u1 = 12 - u2 - 3*u3" in out
    assert "u2 = 4 - u3" in out
    assert "verification: VERIFIED" in out
    assert "level 1: 2" in out


def test_solve_json_output(tri_doc, capsys):
    assert main(["solve", tri_doc, "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "solve"
    assert doc["equilibrium"]["point"] == [[2.0], [1.0], [3.0]]
    assert doc["equilibrium"]["value"] == pytest.approx(0.0, abs=1e-12)
    assert doc["strategies"][0]["offset"] == [12.0]
    assert doc["verification"]["verified"] is True


def test_solve_json_is_byte_stable(tri_doc, capsys):
    assert main(["solve", tri_doc, "--output", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", tri_doc, "--output", "json"]) == 0
    assert capsys.readouterr().out == first


def _approx_tree(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        assert a.keys() == b.keys()
        for k in a:
            _approx_tree(a[k], b[k])
    elif isinstance(a, list) and isinstance(b, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _approx_tree(x, y)
    elif isinstance(a, bool) or isinstance(b, bool):
        assert a == b
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        assert a == pytest.approx(b, rel=1e-6, abs=1e-9)
    else:
        assert a == b


def test_solve_json_matches_the_checked_in_report(tri_doc, capsys):
    assert main(["solve", tri_doc, "--output", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / "solve_tri.json").read_text())
    _approx_tree(got, want)


def test_one_process_answers_each_command_as_a_fresh_process(tri_doc, tmp_path, capsys,
                                                             monkeypatch):
    # main parses with one parser built at import; a usage error must leave
    # it as it was for the commands after it
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
    strategies = _write(tmp_path, "good.json", GOOD_STRATEGIES)
    runs = [(["solve", tri_doc, "--bogus"], 4),
            (["solve", tri_doc, "--output", "json"], 0),
            (["solve", tri_doc], 0),
            (["verify", tri_doc, "--strategies", strategies], 0)]
    for argv, code in runs:
        assert main(argv) == code
        out, err = capsys.readouterr()
        proc = _run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        if argv[-1] == "json":
            assert json.loads(out) == json.loads((DATA / "solve_tri.json").read_text())
    # the command is looked up when main runs, so a replaced one is the one run
    calls = []
    monkeypatch.setattr(cli, "cmd_solve", lambda args: calls.append(args.problem) or 0)
    assert main(["solve", tri_doc]) == 0
    assert calls == [tri_doc]


def test_constraint_rows_under_a_formula_leader_cost_are_refused(tmp_path, capsys):
    doc = json.loads(TRI_PROBLEM)
    doc["constraints"] = FEASIBLE_CONSTRAINTS
    doc["objectives"][0] = {"type": "expr", "formula": "(u1 - 2)^2 + (u2 - 1)^2 + (u3 - 3)^2"}
    assert main(["solve", _write(tmp_path, "formula_rows.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: level 1's cost is a formula")
    assert "constraint rows" in err and "team_optimum" not in err


@pytest.mark.parametrize("argv", [["solve"], ["family"], ["feasible", "--samples", "2"]],
                         ids=["solve", "family", "feasible-samples"])
def test_solve_reports_existence_failures(tmp_path, capsys, argv):
    # second objective blind to the top block: no supporting construction
    doc = json.loads(TRI_PROBLEM)
    doc["objectives"][1]["A"].pop("1,1")
    doc["objectives"][1]["l"][0] = [0]
    if argv[0] == "feasible":
        doc["constraints"] = FEASIBLE_CONSTRAINTS
    path = _write(tmp_path, "blind.json", doc)
    assert main([argv[0], path, *argv[1:]]) == 2
    assert capsys.readouterr().err == (
        "error: stage 1 (announcing level 1): the announcing player cannot influence "
        "this objective at the anchor: its gradient block has norm 0 (tolerance 1e-08); "
        "sublevel set not certified strictly convex at the anchor; support can only be "
        "probed, not guaranteed\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_accepts_good_strategies(tri_doc, tmp_path, capsys):
    spath = _write(tmp_path, "good.json", GOOD_STRATEGIES)
    assert main(["verify", tri_doc, "--strategies", spath]) == 0
    assert "verification: VERIFIED" in capsys.readouterr().out


def test_verify_rejects_corrupted_strategies(tri_doc, tmp_path, capsys):
    spath = _write(tmp_path, "bad.json", CORRUPTED_STRATEGIES)
    assert main(["verify", tri_doc, "--strategies", spath,
                 "--output", "json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    rep = doc["verification"]
    assert rep["verified"] is False
    assert rep["reasons"]
    assert rep["strategy_checks"][0]["realization_residual"] == pytest.approx(2.0)


def test_one_node_grid_flags_a_drift_of_two_spacings(tri_doc, tmp_path, capsys):
    # one node per axis, at the anchor; the spacing is the refinement's first
    # step, 1.0.  The good chain's responses are the anchor: nothing moves
    spath = _write(tmp_path, "good.json", GOOD_STRATEGIES)
    assert main(["verify", tri_doc, "--strategies", spath, "--grid-points", "1",
                 "--output", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["verification"]["response_checks"]
    assert [(c["refinement_drift"], c["low_confidence"]) for c in checks] == [(0.0, False)] * 2
    # a leader offset of 30 instead of 12 moves both responses more than two
    # spacings away, and the refinement's walk there is low confidence
    rules = json.loads(json.dumps(GOOD_STRATEGIES))
    rules["strategies"][0]["offset"] = [30.0]
    spath = _write(tmp_path, "far.json", rules)
    assert main(["verify", tri_doc, "--strategies", spath, "--grid-points", "1",
                 "--output", "json"]) == 3
    checks = json.loads(capsys.readouterr().out)["verification"]["response_checks"]
    assert [2.0 < c["refinement_drift"] < 40.0 for c in checks] == [True, True]
    assert all(c["low_confidence"] and not c["passed"] for c in checks)


def test_verify_requires_the_strategies_flag(tri_doc, capsys):
    assert main(["verify", tri_doc]) == 4


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------

def test_family_single_point_notice(tri_doc, capsys):
    assert main(["family", tri_doc]) == 0
    out = capsys.readouterr().out
    assert "family is a single point (top level is scalar)" in out
    assert "u1 = 12 - u2 - 3*u3" in out


def test_family_lists_free_parameters(wide_doc, capsys):
    assert main(["family", wide_doc]) == 0
    out = capsys.readouterr().out
    assert "free parameters: T2 of shape 1x1, T3 of shape 1x1" in out


def test_family_checks_a_supplied_member(wide_doc, capsys):
    assert main(["family", wide_doc, "--params", "[[0.25]];[[-0.5]]",
                 "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    (check,) = doc["member_checks"]
    assert check["passed"] is True
    assert check["family_residual"] <= 1e-9
    assert check["response_distance"] <= 1e-4


def test_family_checks_random_members(wide_doc, capsys):
    assert main(["family", wide_doc, "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 3


@pytest.mark.parametrize("command, check", [("family", "_check_member"),
                                            ("feasible", "feasibility_check")])
def test_sampled_members_are_checked_as_they_are_drawn(tmp_path, wide_doc, monkeypatch,
                                                       command, check):
    events = []

    def logged(name, call):
        def run(*args, **kwargs):
            events.append(name)
            return call(*args, **kwargs)
        return run

    monkeypatch.setattr(cli, "instantiate", logged("build", cli.instantiate))
    monkeypatch.setattr(cli, check, logged("check", getattr(cli, check)))
    path = wide_doc if command == "family" else _constrained_doc(tmp_path, ceiling=18)
    assert main([command, path, "--samples", "2"]) == 0
    # family builds its rank-one member for the text first
    assert events[-4:] == ["build", "check", "build", "check"]


def test_family_json_matches_the_checked_in_report(wide_doc, capsys):
    assert main(["family", wide_doc, "--params", "[[0.25]];[[-0.5]]", "--samples", "2",
                 "--output", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / "family_wide.json").read_text())
    _approx_tree(got, want)


def test_family_member_checks_leave_judging_a_response_to_verify():
    # the CLI runs no oracle itself and keeps no tolerance of its own
    assert not {"oracle_best_response", "response_passes"} & set(vars(cli))
    tols = [name for name in vars(cli) if name.endswith("_TOL")]
    assert all(getattr(cli, name) is getattr(revstack.verify, name) for name in tols)


def test_family_refuses_non_finite_parameters(wide_doc, capsys):
    assert main(["family", wide_doc, "--params", "[[NaN]];[[0.5]]"]) == 4
    err = capsys.readouterr().err
    assert "--params" in err and "NaN" in err


def test_family_takes_empty_parameters_for_a_single_point(tri_doc, capsys):
    # the scalar top level's parameters are 0x1 matrices, written []
    assert main(["family", tri_doc, "--params", "[];[]", "--samples", "0"]) == 0
    out = capsys.readouterr().out
    assert "member 0:" in out and out.count("[ok]") == 1


def test_family_rejects_bad_parameter_entries(wide_doc, capsys):
    for params, needle in (("[[0.25]]", "--params wants 2"),
                           ('[["a"]];[[0.5]]', "bad --params entry"),
                           ("{};[[0.5]]", "bad --params entry"),
                           ("[];[[0.5]]", "parameter matrix has shape (1, 0), expected (1, 1)")):
        assert main(["family", wide_doc, "--params", params]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


# ---------------------------------------------------------------------------
# feasible
# ---------------------------------------------------------------------------

def test_feasible_box_system_passes(tmp_path, capsys):
    path = _constrained_doc(tmp_path, ceiling=18)
    assert main(["feasible", path]) == 0
    out = capsys.readouterr().out
    assert "all feasible: yes" in out
    assert out.count("feasible") >= 2  # one line per cascade strategy


def test_feasible_tight_ceiling_fails(tmp_path, capsys):
    path = _constrained_doc(tmp_path, ceiling=6)
    assert main(["feasible", path, "--output", "json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_feasible"] is False
    top = doc["checks"][0]
    assert top["feasible"] is False
    assert top["worst_row"] == 0
    assert top["worst_margin"] == pytest.approx(4.0)


def test_feasible_without_rows_is_a_precondition_failure(tri_doc, capsys):
    assert main(["feasible", tri_doc]) == 2
    assert "nothing to check" in capsys.readouterr().err


def test_feasible_unbounded_region_names_the_document_remedy(tmp_path, capsys):
    # the README game: one row bounds u1 only, so u2 and u3 are free
    doc = json.loads(TRI_PROBLEM)
    doc["constraints"] = {"A": [[[1]], [[0]], [[0]]], "b": [18]}
    assert main(["feasible", _write(tmp_path, "readme.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "explicit bounds" in err
    assert '"constraints"' in err


def test_feasible_supplied_strategies(tmp_path, capsys):
    path = _constrained_doc(tmp_path, ceiling=18)
    spath = _write(tmp_path, "good.json", GOOD_STRATEGIES)
    assert main(["feasible", path, "--strategies", spath]) == 0


@pytest.mark.parametrize("option", ["--tol", "--grid-radius", "--grid-points"])
def test_feasible_takes_no_oracle_options(tmp_path, capsys, option):
    # feasible runs no best-response oracle
    path = _constrained_doc(tmp_path, ceiling=18)
    assert main(["feasible", path, option, "1"]) == 4
    assert "unrecognized arguments: %s 1" % option in capsys.readouterr().err
    assert main(["feasible", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--samples" in out and option not in out


# ---------------------------------------------------------------------------
# bad input handling
# ---------------------------------------------------------------------------

def test_unknown_flag_is_bad_input(tri_doc, capsys):
    assert main(["solve", tri_doc, "--frobnicate"]) == 4
    assert "error" in capsys.readouterr().err
    # the former no-op thread count is gone as well
    assert main(["solve", tri_doc, "--threads", "4"]) == 4


@pytest.mark.parametrize("command, option, value", [
    ("solve", "--grid-points", "0"),
    ("solve", "--grid-points", "-1"),
    ("solve", "--grid-radius", "nan"),
    ("solve", "--grid-radius", "inf"),
    ("solve", "--grid-radius", "-5"),
    ("solve", "--tol", "nan"),
    ("solve", "--tol", "-1"),
    ("family", "--samples", "-1"),
    ("feasible", "--samples", "-1"),
    ("solve", "--seed", "-100"),
    ("family", "--seed", "-1"),
])
def test_bad_grid_tolerance_and_sample_options_are_bad_input(
        tri_doc, capsys, command, option, value):
    assert main([command, tri_doc, option, value]) == 4
    err = capsys.readouterr().err
    assert option.split("-")[-1] in err
    assert "Traceback" not in err


def test_huge_exponent_chain_is_bad_input(tmp_path, capsys):
    doc = json.loads(TRI_PROBLEM)
    doc["objectives"][2]["formula"] = "u1^999^999999"
    assert main(["solve", _write(tmp_path, "tower.json", doc)]) == 4
    assert "unreasonably large" in capsys.readouterr().err


def test_oversized_oracle_grid_is_refused(tri_doc, capsys):
    assert main(["solve", tri_doc, "--grid-points", "100000000"]) == 2
    assert "--grid-points" in capsys.readouterr().err


def test_oracle_grid_past_the_double_range_is_refused(tri_doc, wide_doc, capsys):
    # 1e308 and 9e307 overflow the axes themselves; at 6e307 the axes are
    # finite, but the leader's rule u1 = 12 - u2 - 3*u3 overflows on them
    for argv in (["solve", tri_doc, "--grid-radius", "1e308"],
                 ["solve", tri_doc, "--grid-radius", "9e307"],
                 ["solve", tri_doc, "--grid-radius", "6e307"],
                 ["family", wide_doc, "--samples", "1", "--grid-radius", "1e308"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: level 2: the oracle grid leaves the double range")
        assert err.count("\n") == 1 and "--grid-radius" in err


def test_a_window_too_coarse_for_the_tolerance_is_refused(tri_doc, wide_doc, tmp_path,
                                                          capsys):
    # the refinement's finest step is the spacing halved 59 times: 8.7e-4 at
    # radius 1e16 and 8.67 at 1e20, both above --tol 1e-4, where the correct
    # chain and member used to be reported as failed
    for radius in ("1e16", "1e20"):
        for argv in (["solve", tri_doc], ["family", wide_doc, "--samples", "1"]):
            assert main(argv + ["--grid-radius", radius]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: level 2: the oracle's finest step ")
            assert err.count("\n") == 1 and "--grid-radius" in err
    # at 1e12 the finest step, 8.7e-8, resolves the tolerance
    for argv in (["solve", tri_doc], ["family", wide_doc, "--samples", "1"]):
        assert main(argv + ["--grid-radius", "1e12"]) == 0
    # on the default window a miss is the chain's for any tolerance, 0 included
    capsys.readouterr()
    assert main(["solve", tri_doc, "--tol", "0"]) == 0
    spath = _write(tmp_path, "bad.json", CORRUPTED_STRATEGIES)
    assert main(["verify", tri_doc, "--strategies", spath, "--tol", "0"]) == 3
    assert capsys.readouterr().err == ""


def test_overflowing_follower_gradient_is_refused(tmp_path, capsys):
    doc = json.loads(TRI_PROBLEM)
    doc["objectives"][2]["formula"] = "u1^2 + (u2 - 2)^2 + u3^1000000"
    assert main(["solve", _write(tmp_path, "overflow.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "not finite" in err
    assert "cannot influence" not in err


def test_steep_follower_coordinate_does_not_hide_the_leader(tmp_path, capsys):
    # the u3 terms are ~1e148 at the anchor; the leader's block is 2*u1 - 2 = 2.
    # The rank-one rule is announced and then fails verification (exit 3);
    # the default window's u3 = 13 would overflow the cost, hence radius 1
    doc = json.loads(TRI_PROBLEM)
    doc["objectives"][1] = {
        "type": "expr", "formula": "(u1-1)^2 + (u2-1)^2 + (u3-3)^2 + u3^310 - u3^305"}
    path = _write(tmp_path, "steep.json", doc)
    assert main(["solve", path, "--grid-radius", "1"]) == 3
    captured = capsys.readouterr()
    assert "cannot influence" not in captured.err
    assert "announced strategies" in captured.out


def _run_cli(*args):
    """``python -m revstack.cli`` in a separate process, so that a numpy
    warning would print to its stderr."""
    src = str(pathlib.Path(revstack.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "revstack.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_nan_oracle_cost_is_the_only_line_on_stderr(tmp_path):
    # at the default window u3 reaches 10.5, where u3^310 and u3^305 both
    # overflow and inf - inf is NaN
    doc = json.loads(TRI_PROBLEM)
    doc["objectives"][1] = {
        "type": "expr", "formula": "(u1-1)^2 + (u2-1)^2 + (u3-3)^2 + u3^310 - u3^305"}
    proc = _run_cli("solve", _write(tmp_path, "nan.json", doc))
    assert proc.returncode == 2
    assert proc.stderr == "error: level 2: the oracle found a NaN cost at [-9.0, 10.5]\n"


def test_overflowing_stage_reduction_names_the_stage(tmp_path):
    # the u3 entry of the follower gradient is ~1e193 and finite, so stage 1
    # announces a rule; substituting it squares that gain past the double range
    doc = json.loads(TRI_PROBLEM)
    doc["objectives"][1] = {
        "type": "expr", "formula": "(u1-1)^2 + (u2-1)^2 + (u3-3)^2 + u3^400 - u3^395"}
    proc = _run_cli("solve", _write(tmp_path, "steep.json", doc))
    assert proc.returncode == 2
    assert proc.stderr == ("error: stage 2 (announcing level 2): "
                           "polynomial coefficient is not finite\n")


def test_verifier_names_the_stage_whose_reduction_overflows(tri_doc, tmp_path):
    # a level-1 offset of 1e200 squares past the double range in stage 2's
    # cost; the realization residual and sampled costs overflow on the way
    rules = json.loads(json.dumps(GOOD_STRATEGIES))
    rules["strategies"][0]["offset"] = [1e200]
    proc = _run_cli("verify", tri_doc, "--strategies",
                    _write(tmp_path, "rules.json", rules))
    assert proc.returncode == 2
    assert proc.stderr == ("error: stage 2 (announcing level 2): "
                           "quadratic coefficient is not finite\n")


def test_verifier_names_the_stage_whose_follower_gradient_is_not_finite(tmp_path):
    # u3^1000000 overflows at the anchor u3 = 3; solve names the stage too
    doc = json.loads(TRI_PROBLEM)
    doc["objectives"][2]["formula"] = "u1^2 + (u2 - 2)^2 + u3^1000000"
    path = _write(tmp_path, "overflow.json", doc)
    message = ("error: stage 2 (announcing level 2): "
               "the follower's gradient is not finite at the anchor\n")
    proc = _run_cli("verify", path, "--strategies",
                    _write(tmp_path, "rules.json", GOOD_STRATEGIES))
    assert (proc.returncode, proc.stderr) == (2, message)
    proc = _run_cli("solve", path)
    assert (proc.returncode, proc.stderr) == (2, message)


def test_overflowing_follower_derivative_names_the_stage(tmp_path):
    # the formula loads, but its derivative 3e308*u3^2, built for stage 1's
    # existence check, overflows
    doc = json.loads(TRI_PROBLEM)
    doc["objectives"][1] = {"type": "expr", "formula": "(u1-1)^2 + u2^2 + 1e308*u3^3"}
    path = _write(tmp_path, "steep.json", doc)
    message = "error: stage 1 (announcing level 1): polynomial coefficient is not finite\n"
    proc = _run_cli("solve", path)
    assert (proc.returncode, proc.stderr) == (2, message)
    proc = _run_cli("verify", path, "--strategies",
                    _write(tmp_path, "rules.json", GOOD_STRATEGIES))
    assert (proc.returncode, proc.stderr) == (2, message)
    proc = _run_cli("family", path)
    assert (proc.returncode, proc.stderr) == (2, message)


def test_a_cost_whose_terms_cancel_reduces_to_zero(tmp_path):
    # level 3's cost names u1 but has no monomial left; substituting level 1
    # into it gives the zero polynomial, which stage 2's leader cannot steer
    doc = json.loads(TRI_PROBLEM)
    for lev, formula in enumerate(["(u1-2)^2 + (u2-1)^2 + (u3-3)^2",
                                   "(u1-1)^2 + u2^2 + u3^2", "u1 - u1 + u2 - u2"]):
        doc["objectives"][lev] = {"type": "expr", "formula": formula}
    proc = _run_cli("solve", _write(tmp_path, "zero.json", doc))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: stage 2 (announcing level 2): the announcing "
                                  "player cannot influence this objective at the anchor")
    assert proc.stderr.count("\n") == 1


def test_saddle_point_of_the_leader_cost_is_not_the_team_optimum(tmp_path):
    # descent starts at the origin, where the gradient vanishes but the
    # leader Hessian is diag(-4, 2); the minima are (+-1, 0)
    doc = {"levels": 2, "dims": [1, 1], "objectives": [
        {"type": "expr", "formula": "(u1^2 - 1)^2 + u2^2"},
        {"type": "expr", "formula": "(u1 - 1)^2 + (u2 - 1)^2"}]}
    proc = _run_cli("solve", _write(tmp_path, "saddle.json", doc))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: descent stopped at [0.0, 0.0], a stationary point "
                           "that is not a minimum: the leader Hessian has a negative "
                           "eigenvalue there\n")


def test_a_descent_that_leaves_the_double_range_says_so(tmp_path):
    # u1^301 makes the leader cost unbounded below; the descent follows it
    # until the gradient overflows, which is no failure to converge
    doc = {"levels": 2, "dims": [1, 1], "objectives": [
        {"type": "expr", "formula": "(u1_1 + 1)^2 + u2_1^2 + u1_1^301"},
        {"type": "expr", "formula": "(u1_1 - 1)^2 + (u2_1 - 1)^2"}]}
    proc = _run_cli("solve", _write(tmp_path, "unbounded.json", doc))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: descent left the double range: the leader "
                                  "cost's gradient norm is inf at [")
    assert proc.stderr.count("\n") == 1


# the README game in the box |u1| <= 100, |u2| <= 5, |u3| <= 5 plus the row
# 1e308*u1 + 1e308*u2 <= 1e308, at the edge of the double range
HUGE_ROW_CONSTRAINTS = {
    "A": [[[1], [-1], [0], [0], [0], [0], [1e308]],
          [[0], [0], [1], [-1], [0], [0], [1e308]],
          [[0], [0], [0], [0], [1], [-1], [0]]],
    "b": [100, 100, 5, 5, 5, 5, 1e308],
}


@pytest.mark.parametrize("argv, message", [
    (["feasible"], "level 1: a constraint row with the strategy substituted is not finite"),
    (["feasible", "--samples", "2"],
     "level 1: a constraint row with the strategy substituted is not finite"),
], ids=["feasible", "feasible-samples"])
def test_constraint_rows_near_the_double_range_are_refused(tmp_path, argv, message):
    # substituting a rule into the huge row overflows; no numpy warning
    # reaches stderr on the way
    doc = json.loads(TRI_PROBLEM)
    doc["constraints"] = HUGE_ROW_CONSTRAINTS
    path = _write(tmp_path, "huge.json", doc)
    proc = _run_cli(argv[0], path, *argv[1:])
    assert (proc.returncode, proc.stderr) == (2, "error: %s\n" % message)


def test_huge_constraint_rows_do_not_stop_the_cascade(tmp_path):
    # stage games carry no constraint rows, so no stage overflows on the huge
    # row and no numpy warning reaches stderr; the point is not pinned, as
    # the constrained team optimum of this game is not the true one
    doc = json.loads(TRI_PROBLEM)
    doc["constraints"] = HUGE_ROW_CONSTRAINTS
    proc = _run_cli("solve", _write(tmp_path, "huge.json", doc))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_huge_constraint_rows_leave_family_checks_quiet(tmp_path):
    doc = json.loads(TRI_PROBLEM)
    doc["constraints"] = HUGE_ROW_CONSTRAINTS
    proc = _run_cli("family", _write(tmp_path, "huge.json", doc), "--samples", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith(
        "  u1 = -10 + u2 + 3*u3\nfamily is a single point (top level is scalar)\n"
        "member 0: realization 0, family residual 0, response distance 0 [ok]\n")


# README game rows whose magnitudes overflow the simplex tableau once it
# pivots on 1e-160 against 1e+300
TABLEAU_OVERFLOW_CONSTRAINTS = {
    "A": [[[1e-160], [-1e+300], [2]], [[1e+300], [0], [1e+300]], [[0], [1e+154], [0.5]]],
    "b": [-2, -1e-300, 1e-12],
}
# README game rows whose team optimum makes the rank-one gains overflow
GAIN_OVERFLOW_CONSTRAINTS = {
    "A": [[[-1e-300], [1e-160]], [[-2], [1]], [[-5], [0]]],
    "b": [-1e+300, 0],
}
TABLEAU_OVERFLOW = ("the simplex overflowed the double range: the constraint rows' "
                    "magnitudes are too far apart")
GAIN_OVERFLOW = "stage 1 (announcing level 1): the rank-one deviation gains are not finite"


@pytest.mark.parametrize("constraints, argv, code, message", [
    (TABLEAU_OVERFLOW_CONSTRAINTS, ["feasible"], 2, TABLEAU_OVERFLOW),
    (TABLEAU_OVERFLOW_CONSTRAINTS, ["feasible", "--samples", "2"], 2, TABLEAU_OVERFLOW),
    (TABLEAU_OVERFLOW_CONSTRAINTS, ["solve"], 0, None),
    (GAIN_OVERFLOW_CONSTRAINTS, ["solve"], 2, GAIN_OVERFLOW),
    (GAIN_OVERFLOW_CONSTRAINTS, ["feasible"], 2, GAIN_OVERFLOW),
    (GAIN_OVERFLOW_CONSTRAINTS, ["family", "--samples", "1"], 2, GAIN_OVERFLOW),
], ids=["tableau-feasible", "tableau-feasible-samples", "tableau-solve",
        "gains-solve", "gains-feasible", "gains-family"])
def test_overflowing_magnitudes_end_in_one_error_line(tmp_path, capsys, constraints,
                                                      argv, code, message):
    # in process, where the suite turns any numpy warning into a failure
    doc = json.loads(TRI_PROBLEM)
    doc["constraints"] = constraints
    path = _write(tmp_path, "overflow.json", doc)
    assert main([argv[0], path, *argv[1:]]) == code
    err = capsys.readouterr().err
    assert err == ("" if message is None else "error: %s\n" % message)


def test_feasible_json_matches_the_checked_in_report(capsys):
    # a box-plus-cut game of the constrained-feasible benchmark's (2,1,1,1)
    # class; the report was generated before phase one was shared
    assert main(["feasible", str(DATA / "feasible_box_problem.json"), "--samples", "3",
                 "--output", "json"]) == 3
    assert capsys.readouterr().out == (DATA / "feasible_box.json").read_text()


def test_a_game_whose_rank_one_rule_blinds_stage_two_verifies(capsys):
    # the constrained-feasible benchmark's game 724 of seed 3 (class
    # c(2,1,1,1)k13), as bench/gen.py's constrained_game wrote it: under the
    # rank-one top rule stage 2's gradient block has norm 1.26e-06, below
    # its tolerance 3.2e-06, so the cascade announces the look-ahead member
    assert main(["solve", str(DATA / "lookahead_c2111k13.json")]) == 0
    out = capsys.readouterr().out
    assert "verification: VERIFIED\n" in out


def test_too_many_constraint_rows_are_refused(tmp_path):
    doc = json.loads(TRI_PROBLEM)
    doc["constraints"] = {"A": [[[1]] * 21, [[0]] * 21, [[0]] * 21],
                          "b": [100 + i for i in range(21)]}
    proc = _run_cli("solve", _write(tmp_path, "rows.json", doc))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: 21 constraint rows exceed the cap of 20: the search enumerates "
        "every active set of up to 3 rows, one per decision variable; drop "
        "redundant rows\n")


NAN_SAMPLE_GAME = {"levels": 2, "dims": [1, 1], "objectives": [
    {"type": "expr", "formula": "(u1-2)^2 + (u2-1)^2"},
    {"type": "expr", "formula": "(u1-1)^2 + (u2-1)^2 + u2^400 - u2^399"}]}


def test_nan_sampled_cost_is_refused_by_name(tmp_path):
    # the graph samples reach u2 = 6, where u2^400 and u2^399 both overflow
    proc = _run_cli("solve", _write(tmp_path, "nan.json", NAN_SAMPLE_GAME),
                    "--grid-radius", "1")
    assert proc.returncode == 2
    assert proc.stderr == ("error: level 1: the sublevel check found a NaN cost at "
                           "[5.944089979869153]\n")


def test_infinite_sampled_costs_verify_quietly(tmp_path):
    # with u2^395 the overflowing samples are +inf, above the anchor value
    doc = json.loads(json.dumps(NAN_SAMPLE_GAME))
    doc["objectives"][1]["formula"] = "(u1-1)^2 + (u2-1)^2 + u2^400 - u2^395"
    proc = _run_cli("solve", _write(tmp_path, "inf.json", doc), "--grid-radius", "1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "  u1 = 4.5 - 2.5*u2\nverification: VERIFIED\n" in proc.stdout


def test_nonconvex_follower_fails_rank_one_but_a_family_member_verifies(capsys):
    # J2 = u1_1 + (|u1|^2 - u2^2)/2 curves downward along the rank-one graph
    # u1 = 0; the member T = -1.1 tilts the graph to where it curves upward
    path = str(DATA / "nonconvex_21.json")
    assert main(["solve", path]) == 3
    out = capsys.readouterr().out
    assert "reason: level 1: 1999 sampled graph points dip below the anchor value" in out
    assert "reason: level 2: oracle argmin is 40 away from the desired blocks" in out
    assert main(["family", path, "--params", "[[-1.1]]"]) == 0
    assert ("member 0: realization 0, family residual 0, response distance 0 [ok]"
            in capsys.readouterr().out)
    assert main(["family", path, "--params", "[[0.5]]"]) == 3


@pytest.mark.parametrize("formula", [
    "(u1 - 2)^1000000", "(u1 + u2 + u3)^1000", "(u1 + 1e200)^2",
    # oversized and malformed: the power is expanded as it is read, so the
    # expansion is refused before the parser reaches the dangling '+'
    "(u1 + u2 + u3)^1000 +"])
def test_refused_expansion_is_bad_input(tmp_path, capsys, formula):
    doc = json.loads(TRI_PROBLEM)
    doc["objectives"][2]["formula"] = formula
    assert main(["solve", _write(tmp_path, "big.json", doc)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: objectives[2].formula: ") and err.count("\n") == 1


def test_non_finite_coefficient_is_bad_input(tmp_path, capsys):
    doc = json.loads(TRI_PROBLEM)
    doc["objectives"][0]["l"][0] = [float("nan")]
    assert main(["solve", _write(tmp_path, "nan.json", doc)]) == 4
    assert "NaN" in capsys.readouterr().err


def test_missing_file_is_bad_input(capsys):
    assert main(["solve", "/nonexistent/problem.json"]) == 4
    assert "cannot read input" in capsys.readouterr().err


def test_json_syntax_error_is_bad_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"levels": 3,,}')
    assert main(["solve", str(path)]) == 4
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_subcommand_is_bad_input(capsys):
    assert main([]) == 4
