"""Tests of the benchmark itself: generator, tracer, metric declarations.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace

import pytest

import gen
import metrics
import run
import tracer
import workloads
from conftest import BENCH, ROOT

import revstack
import revstack.cli  # noqa: F401

FAILURES = (revstack.RevstackError, workloads.CliFailure)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _texts(name, seed, batches=2):
    it = workloads.games(workloads.WORKLOADS[name], seed)
    return [g.text for _ in range(batches) for g in next(it)]


def _first_cycle(name, seed=3):
    w = workloads.WORKLOADS[name]
    batch = next(workloads.games(w, seed))
    if w.suite:
        batch = batch[:len(w.cycle)]
    return w, run.with_files(batch) if w.files else batch


@pytest.fixture(autouse=True)
def _work_dir():
    os.makedirs(os.path.join(run.WORK, "docs"), exist_ok=True)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_byte_identical_for_a_seed(name):
    assert _texts(name, 5) == _texts(name, 5)


def test_generator_does_not_depend_on_the_process():
    code = ("import sys; sys.path[:0] = [%r, %r]; import hashlib, workloads; "
            "it = workloads.games(workloads.WORKLOADS['verify-mixed'], 5); "
            "print(hashlib.sha256(''.join(g.text for g in next(it)).encode()).hexdigest())"
            % (os.path.join(ROOT, "src"), BENCH))
    env = dict(os.environ, PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.strip()
    here = hashlib.sha256("".join(_texts("verify-mixed", 5, 1)).encode()).hexdigest()
    assert out == here


def test_seeds_give_different_inputs():
    assert _texts("verify-mixed", 1) != _texts("verify-mixed", 2)
    assert _texts("constrained-feasible", 1) != _texts("constrained-feasible", 2)
    # the expression suite is fixed; the seed only reorders it
    assert _texts("expr-synth", 1, 1) != _texts("expr-synth", 2, 1)
    assert sorted(_texts("expr-synth", 1, 1)) == sorted(_texts("expr-synth", 2, 1))


def test_expression_documents_match_their_quadratic_twin():
    rng = gen.game_rng(0, "test", 0)
    widths = (2, 1, 2)
    objs = gen.convex_objectives(rng, widths)
    text = gen.formula_text(*objs[1], widths)
    dims = revstack.Dims.of(*widths)
    expr = revstack.ExprObjective(revstack.parse_formula(text, dims))
    quad = revstack.QuadraticObjective.build(dims, objs[1][0], l=objs[1][1])
    p = revstack.DecisionPoint.from_concat(widths, [0.3, -1.2, 0.7, 2.0, -0.4])
    assert revstack.evaluate(expr, p) == pytest.approx(revstack.evaluate(quad, p), rel=1e-12)


def test_constrained_games_contain_their_centre():
    for batch_game in next(workloads.games(workloads.WORKLOADS["constrained-feasible"], 4)):
        assert (batch_game.A @ batch_game.center < batch_game.b).all()


def test_cycles_keep_their_class_composition():
    w = workloads.WORKLOADS["verify-mixed"]
    it = workloads.games(w, 9)
    for _ in range(3):
        kinds = sorted(g.kind for g in next(it))
        assert kinds == sorted(gen._label("q", c) for c in w.cycle)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_binds_every_module_holding_a_function():
    originals = [vars(sys.modules[m])[a] for m, a, _ in tracer.TARGETS]
    reduce_problem = revstack.synthesis.reduce_problem
    t = tracer.Tracer()
    t.install()
    try:
        bound = set(t.bindings())
        for mod in ("revstack", "revstack.equilibrium", "revstack.synthesis",
                    "revstack.geometry", "revstack.verify", "revstack.calculus"):
            assert mod + ".gradient" in bound
        for mod in ("revstack", "revstack.synthesis", "revstack.verify"):
            assert mod + ".reduce_problem" in bound
        assert revstack.verify.reduce_problem is revstack.synthesis.reduce_problem
        assert revstack.verify.reduce_problem.__wrapped__ is reduce_problem
    finally:
        t.uninstall()
    for (m, a, _), original in zip(tracer.TARGETS, originals):
        assert vars(sys.modules[m])[a] is original
    assert not hasattr(revstack.gradient, "__wrapped__")


def test_self_time_subtracts_children():
    spans = [tracer.Span("a", 0, 100, -1, 0), tracer.Span("b", 10, 40, 0, 0),
             tracer.Span("c", 50, 60, 0, 0), tracer.Span("d", 52, 55, 2, 0)]
    assert tracer.self_times(spans) == [60, 30, 7, 3]
    assert tracer.inside(spans, 3, "a") and not tracer.inside(spans, 1, "c")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name):
    w, games = _first_cycle(name)
    plain = run.replay(w.op, revstack, games, FAILURES)
    t = tracer.Tracer()
    t.install()
    try:
        traced = run.replay(w.op, revstack, games, FAILURES, t)
    finally:
        t.uninstall()
    assert t.spans
    assert [r.error for r in plain] == [r.error for r in traced]
    assert run.check_outputs(w, plain) == run.check_outputs(w, traced)
    assert run.check_outputs(w, plain)[1] is None


def test_a_count_that_does_not_repeat_is_caught(monkeypatch):
    """An oracle whose evaluation count drifts between calls fails the run."""
    original = revstack.verify.oracle_best_response
    calls = []

    def drifting(*args, **kwargs):
        calls.append(1)
        res = original(*args, **kwargs)
        return revstack.OracleResult(res.argmin, res.value, res.grid_argmin,
                                     res.refinement_drift, res.evaluations + len(calls))

    for mod in ("revstack", "revstack.verify"):
        monkeypatch.setattr(sys.modules[mod], "oracle_best_response", drifting)
    w = workloads.WORKLOADS["verify-mixed"]
    args = Namespace(seed=3, seconds=0.0)
    problem = run.traced(w, revstack, args, FAILURES)["problem"]
    assert problem.startswith("counts did not repeat") and "refine_evals" in problem


def test_repeat_mismatches_reports_each_difference():
    first = {0: {"constrained.simplex_maximize.calls": 10}, 1: {"x.calls": 2}}
    second = {0: {"constrained.simplex_maximize.calls": 11}, 1: {"x.calls": 2}}
    assert metrics.repeat_mismatches(first, first) == []
    assert metrics.repeat_mismatches(first, second) == [
        "op 0: constrained.simplex_maximize.calls was 10, then 11"]


def test_an_unverified_chain_fails_the_run(monkeypatch):
    """`revstack solve` exits 3 on an unverified chain; its report is still checked."""
    original = revstack.cli.verify_full

    def failing(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(report, verified=False, verdict="failed",
                                   reasons=["perturbed"])

    monkeypatch.setattr(revstack.cli, "verify_full", failing)
    w, games = _first_cycle("verify-mixed")
    records = run.replay(w.op, revstack, games[:1], FAILURES)
    assert records[0].error == ""
    assert "chain did not verify: perturbed" in run.check_outputs(w, records)[1]


def test_a_failed_operation_fails_a_workload_built_to_succeed():
    w, games = _first_cycle("constrained-feasible")
    record = run.Record(games[0], 1, "ConvergenceError", None)
    assert "failed with ConvergenceError" in run.check_outputs(w, [record])[1]
    w, games = _first_cycle("expr-synth")
    assert run.check_outputs(w, [run.Record(games[0], 1, "ConvergenceError", None)])[1] is None


def test_wrong_output_is_caught():
    w, games = _first_cycle("verify-mixed")
    records = run.replay(w.op, revstack, games[:1], FAILURES)
    bad = [run.Record(gen.Game(g.kind, g.widths, g.text, g.H1, -g.l1), r.ns, r.error, r.output)
           for g, r in zip(games, records)]
    assert "direct solve" in run.check_outputs(w, bad)[1]


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------

def test_declarations_match_benchmark_json():
    declared = _declared()
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]


def _bench(tmp, *argv):
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=tmp,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_printed_metric_is_declared(trace, section):
    proc = _bench(ROOT, "--workload", "constrained-feasible", "--seed", "2",
                  "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = [line.split()[0] for line in proc.stdout.splitlines()[:-1]
               if len(line.split()) == 3 and line.split()[0] in declared]
    assert sorted(printed) == sorted(declared)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--workload", "verify-mixed", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
