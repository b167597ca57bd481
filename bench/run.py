"""revstack benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics with
no wrapper installed.  With ``--trace 1`` it runs the same operations once
untraced and twice under the outside-in tracer, asserts that outputs and
counts repeat, and reports the per-layer metrics.  Outputs are checked after
the timed loop; a wrong output makes the run fail with exit code 1.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  Spans of the traced run go to ``.bench_work/``.
"""

from __future__ import annotations

import os
import sys

# numpy links a multithreaded BLAS; one thread keeps the load on one core.
# These must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import gen
from metrics import PER_LAYER, exact_counts, layer_metrics, repeat_mismatches
from tracer import Tracer, write_spans
from workloads import WORKLOADS, CliFailure, check_report, games, solve_argv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# The report the program's own tests expect for the README game.
EXPECTED_README = os.path.join(ROOT, "tests", "data", "solve_tri.json")
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
# What the ``revstack`` console script runs.
CLI_ENTRY = "import sys; from revstack.cli import main; sys.exit(main(sys.argv[1:]))"

MIN_OPS = 100           # the p90 needs at least ten samples beyond it
SETUP_REPEATS = 31      # cold interpreter starts per run; setup_s is their median
CLI_REPEATS = 5         # README-game processes per traced run
SETUP_PROBE = ("import time; t0 = time.perf_counter(); import numpy; "
               "t1 = time.perf_counter(); import revstack; t2 = time.perf_counter(); "
               "print((t1 - t0) * 1e3, (t2 - t1) * 1e3)")


@dataclass
class Record:
    game: Any
    ns: int
    error: str          # failure class name, "" on success
    output: Any


class ColdStarts:
    """Fresh interpreters running ``import revstack``; setup_s is their median.

    The speed of a shared machine drifts over seconds, so ``due`` takes one
    cold start each time its share of the timed loop has passed, between
    operations and outside their timing.  ``medians`` takes what is missing.
    """

    def __init__(self, repeats: int, seconds: float):
        self.repeats = repeats
        self.interval = seconds / repeats
        self.next = time.perf_counter()
        self.samples: List[Tuple[float, float, float]] = []

    def take(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=CLI_ENV,
                              capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        numpy_ms, revstack_ms = proc.stdout.split()
        self.samples.append((wall, float(numpy_ms), float(revstack_ms)))

    def due(self) -> None:
        if len(self.samples) < self.repeats and time.perf_counter() >= self.next:
            self.take()
            self.next += self.interval

    def medians(self) -> Dict[str, float]:
        while len(self.samples) < self.repeats:
            self.take()
        walls, numpy_ms, revstack_ms = zip(*self.samples)
        return {"setup_s": statistics.median(walls),
                "setup.numpy_import_ms": statistics.median(numpy_ms),
                "setup.revstack_import_ms": statistics.median(revstack_ms)}


def measure_cli_process(repeats: int) -> Tuple[float, Optional[str]]:
    """Median wall time of ``revstack solve --output json`` on the README game.

    Each process's report must equal the checked-in one.
    """
    game = with_files([gen.readme_game()])[0]
    with open(EXPECTED_README, encoding="utf-8") as fh:
        expected = json.load(fh)
    walls, problem = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY] + solve_argv(game.path),
                              env=CLI_ENV, capture_output=True, text=True, timeout=120)
        walls.append((time.perf_counter() - t0) * 1e3)
        if proc.returncode != 0:
            problem = "revstack solve on the README game exited %d" % proc.returncode
        elif json.loads(proc.stdout) != expected:
            problem = "README game report differs from the checked-in report"
        else:
            problem = check_report(game, expected)
        if problem:
            break
    return statistics.median(walls), problem


def environment(seed: int) -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        blas_text = "unknown"
    return ("env: python %s, numpy %s, blas %s, nproc %d, affinity %d cpus, "
            "OPENBLAS_NUM_THREADS=%s, seed %d"
            % (platform.python_version(), numpy.__version__, blas_text,
               os.cpu_count() or 0, len(os.sched_getaffinity(0)),
               os.environ["OPENBLAS_NUM_THREADS"], seed))


def with_files(batch: List[Any]) -> List[Any]:
    """Write each document under the work directory; the CLI reads files."""
    out = []
    for game in batch:
        path = os.path.join(WORK, "docs", hashlib.sha1(game.text.encode()).hexdigest() + ".json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(game.text)
        out.append(replace(game, path=path))
    return out


def run_op(op, rs, game, failures) -> Record:
    t0 = time.perf_counter_ns()
    try:
        out, error = op(rs, game), ""
    except failures as exc:
        out = None
        error = "exit-%d" % exc.code if isinstance(exc, CliFailure) else type(exc).__name__
    return Record(game, time.perf_counter_ns() - t0, error, out)


def closed_loop(w, rs, seed: int, seconds: float, min_ops: int, failures,
                between: Callable[[], None] = lambda: None) -> List[Record]:
    """Run whole cycles until ``seconds`` have passed and ``min_ops`` ops ran.

    ``between`` runs after each operation, outside its timing.
    """
    records: List[Record] = []
    start = time.perf_counter()
    for batch in games(w, seed):
        if w.files:
            batch = with_files(batch)
        for game in batch:
            records.append(run_op(w.op, rs, game, failures))
            between()
        if time.perf_counter() - start >= seconds and len(records) >= min_ops:
            return records


def replay(op, rs, games_: List[Any], failures, tracer=None) -> List[Record]:
    out = []
    for i, game in enumerate(games_):
        if tracer is not None:
            tracer.op = i
        out.append(run_op(op, rs, game, failures))
    return out


def check_outputs(w, records: List[Record]) -> Tuple[List[Any], Optional[str]]:
    """Digest and check every output; also returns the first problem found."""
    digests, problem = [], None
    for r in records:
        if r.error:
            if not w.may_fail and problem is None:
                problem = "%s on %s: failed with %s" % (w.name, r.game.kind, r.error)
            digests.append(None)
            continue
        d = w.digest(r.output)
        message = w.check(r.game, d)
        if message and problem is None:
            problem = "%s on %s: %s" % (w.name, r.game.kind, message)
        digests.append(d)
    return digests, problem


def tally(records: List[Record]) -> Counter:
    return Counter(r.error for r in records if r.error)


def end_to_end(w, rs, args, failures) -> Dict[str, Any]:
    cold = ColdStarts(SETUP_REPEATS, args.seconds)
    records = closed_loop(w, rs, args.seed, args.seconds, MIN_OPS, failures, cold.due)
    setup = cold.medians()
    _, problem = check_outputs(w, records)
    problem = problem or measure_cli_process(1)[1]
    lat = [r.ns / 1e6 for r in records]
    ok = sum(1 for r in records if not r.error)
    wall_s = sum(r.ns for r in records) / 1e9
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    metrics = {
        "ok_ops_per_s": (ok / wall_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup["setup_s"], "s"),
    }
    failed = len(records) - ok
    classes = Counter(r.game.kind for r in records)
    print("ops: %d attempted, %d ok, %d failed %s; loop wall %.3f s"
          % (len(records), ok, failed, dict(tally(records)), wall_s))
    print("failed_frac: %.4f (%d/%d)" % (failed / len(records), failed, len(records)))
    print("latency samples: %d, beyond p90: %d" % (len(lat), sum(1 for x in lat if x > p90)))
    print("classes: %s" % dict(sorted(classes.items())))
    print("setup_s: median of %d cold starts of `import revstack`, spread over the loop"
          % SETUP_REPEATS)
    return {"problem": problem, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def traced(w, rs, args, failures) -> Dict[str, Any]:
    """Per-layer metrics: one untraced and two traced passes over the same ops."""
    setup = ColdStarts(3, 0.0).medians()
    # The first loop warms caches and picks the games; the untraced replay is
    # the base of trace.overhead_frac.
    first = closed_loop(w, rs, args.seed, args.seconds / 4.0, len(w.cycle), failures)
    games_ = [r.game for r in first]
    base = replay(w.op, rs, games_, failures)
    tracer = Tracer()
    tracer.install()
    try:
        second = replay(w.op, rs, games_, failures, tracer)
        spans = list(tracer.spans)
        tracer.spans.clear()
        third = replay(w.op, rs, games_, failures, tracer)
        spans_again = list(tracer.spans)
        bound = tracer.bindings()
    finally:
        tracer.uninstall()
    runs = [first, base, second, third]
    checked = [check_outputs(w, rs_) for rs_ in runs]
    problem = next((p for _, p in checked if p), None)
    digests = [d for d, _ in checked]
    errors = [[r.error for r in rs_] for rs_ in runs]
    if problem is None and (any(d != digests[0] for d in digests)
                            or any(e != errors[0] for e in errors)):
        problem = "traced and untraced runs gave different outputs"
    mismatches = repeat_mismatches(exact_counts(spans), exact_counts(spans_again))
    if problem is None and mismatches:
        problem = "counts did not repeat: " + "; ".join(mismatches[:5])

    n = len(games_)
    base_ns = sum(r.ns for r in base)
    traced_ns = sum(r.ns for r in second)
    values = layer_metrics(spans, n, traced_ns)
    values["setup.numpy_import_ms"] = setup["setup.numpy_import_ms"]
    values["setup.revstack_import_ms"] = setup["setup.revstack_import_ms"]
    values["cli.process_ms"], readme_problem = measure_cli_process(CLI_REPEATS)
    problem = problem or readme_problem
    values["trace.overhead_frac"] = traced_ns / base_ns - 1.0

    spans_path = os.path.join(WORK, "spans-%s.jsonl" % w.name)
    write_spans(spans, spans_path)
    print("traced %d ops twice: %d spans per pass, %d bindings wrapped, "
          "counts repeat: %s; spans in %s"
          % (n, len(spans), len(bound), "no" if mismatches else "yes", spans_path))
    return {"problem": problem,
            "attempted": sum(len(rs_) for rs_ in runs),
            "failed": sum(sum(tally(rs_).values()) for rs_ in runs),
            "metrics": {m.name: (values[m.name], m.unit) for m in PER_LAYER}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "revstack", "__init__.py")):
        print("error: no revstack source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (have %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    os.makedirs(os.path.join(WORK, "docs"), exist_ok=True)

    import revstack as rs
    import revstack.cli  # noqa: F401  (the tracer wraps cli.main)
    failures = (rs.RevstackError, CliFailure)
    print("workload %s, seed %d, %.0f s, trace %d" % (w.name, args.seed, args.seconds, args.trace))
    print(environment(args.seed))
    result = (traced if args.trace else end_to_end)(w, rs, args, failures)
    for name, (value, unit) in result["metrics"].items():
        print("%-45s %14.6g %s" % (name, value, unit))
    if result["problem"]:
        print("WRONG OUTPUT: %s" % result["problem"], file=sys.stderr)
    print(json.dumps({
        "correct": result["problem"] is None,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 1 if result["problem"] else 0


if __name__ == "__main__":
    sys.exit(main())
