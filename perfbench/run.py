"""The repository's benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ifcl_verify --seed 1 \
        --seconds 10 --trace 0

Every pass over the workload's query list runs in a fresh interpreter
(``perfbench/worker.py``) with a single thread and one closed-loop client:
the next query starts when the previous one has answered. ``--trace 0``
runs at least three untraced passes, and more until ``--seconds`` of list
time is measured, and prints end-to-end metrics from the median time of
each query over the passes. ``--trace 1`` runs one untraced and one
traced pass and prints the per-layer metrics. The last line of standard
output is the result object; each pass's timings and solver-effort
counters are appended to ``perfbench/results/runs.jsonl``. See
``perfbench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ifcl_verify", "svm_eval", "synth_cegis", "ifcl_checked")

# Certification and the sanitizer are selected only through the
# environment, as a deployment would select them.
CHECKED_ENV = {"REPRO_CERTIFY": "1", "REPRO_ANALYZE": "1"}

# Medians over at least this many passes: a burst of machine noise
# slows one pass, not the median.
MIN_PASSES = 3

# Set-up is sampled in every pass plus this many set-up-only processes
# and reported as the median.
EXTRA_SETUPS = 2

# Whole-run deadline: the benchmark must exit within 180 s.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """A worker failed to produce a result."""


def _environment(workload: str, seed: int) -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_CERTIFY", "REPRO_ANALYZE", "REPRO_TRACE")}
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Same seed, same interpreter hashing: repeat runs of a seed start from
    # the same state, while different seeds still sample the run-to-run
    # variance of the id()-ordered search.
    env["PYTHONHASHSEED"] = str(seed % (1 << 32))
    if workload == "ifcl_checked":
        env.update(CHECKED_ENV)
    return env


def _worker(args, mode: str, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode]
    try:
        completed = subprocess.run(
            command, env=_environment(args.workload, args.seed),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as expired:
        raise BenchmarkError(f"{mode} worker passed the deadline") \
            from expired
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{mode} worker exited with code {completed.returncode}")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(passes: list, setups: list) -> dict:
    """Medians over passes, taken query by query.

    Each query's time to verdict is the median of its times in the
    passes (every pass runs the same list in the same order), so a burst
    of machine noise or an unlucky search in one pass does not move it.
    The list time is the sum of those medians.
    """
    per_query = [statistics.median(times) for times in zip(
        *([seconds for _, seconds, _ in run["queries"]] for run in passes))]
    return {
        "queries_per_s": _metric(len(per_query) / sum(per_query), "1/s"),
        "latency_geomean_s": _metric(statistics.geometric_mean(per_query),
                                     "s"),
        "peak_rss_mb": _metric(statistics.median(
            run["peak_rss_mb"] for run in passes), "MB"),
        "setup_s": _metric(statistics.median(
            setups + [run["setup_s"] for run in passes]), "s"),
    }


def _per_layer(traced: dict, untraced: dict) -> dict:
    self_s, counters = traced["self_s"], traced["counters"]
    hits, misses = counters["encode_hits"], counters["encode_misses"]
    sat_s = self_s["sat"]
    values = {
        "svm.self_s": (self_s["svm"], "s"),
        "svm.joins": (counters["joins"], "count"),
        "svm.unions": (counters["unions"], "count"),
        "svm.union_card_sum": (counters["union_card_sum"], "count"),
        "svm.max_union": (counters["max_union"], "count"),
        "terms.live": (traced["live_terms"], "count"),
        "terms.substitute_s": (self_s["substitute"], "s"),
        "encode.self_s": (self_s["encode"], "s"),
        "encode.hits": (hits, "count"),
        "encode.misses": (misses, "count"),
        "encode.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                             "ratio"),
        "cnf.clauses": (counters["cnf_clauses"], "count"),
        "cnf.vars": (counters["cnf_vars"], "count"),
        "sanitize.self_s": (self_s["sanitize"], "s"),
        "sanitize.rewrites": (counters["sanitize_rewrites"], "count"),
        "sat.self_s": (sat_s, "s"),
        "sat.checks": (counters["checks"], "count"),
        "sat.conflicts": (counters["conflicts"], "count"),
        "sat.decisions": (counters["decisions"], "count"),
        "sat.propagations": (counters["propagations"], "count"),
        "sat.learned": (counters["learned"], "count"),
        "sat.props_per_s": (counters["propagations"] / sat_s if sat_s else 0.0,
                            "1/s"),
        "sat.budget_trips": (counters["budget_trips"], "count"),
        "certify.self_s": (self_s["certify"], "s"),
        "certify.checks": (counters["certified_checks"], "count"),
        "query.self_s": (self_s["query"], "s"),
        "trace.overhead_ratio": (traced["wall_s"] / untraced["wall_s"],
                                 "ratio"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in
            values.items()}


def _print_layers(traced: dict) -> None:
    """The traced pass's self-time table, largest layer first."""
    self_s, wall = traced["self_s"], traced["wall_s"]
    print(f"perfbench: self time by layer (traced wall {wall:.3f}s, "
          f"layers sum {sum(self_s.values()):.3f}s)", file=sys.stderr)
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"perfbench:   {layer:<11}{seconds:9.3f}s {seconds / wall:7.1%}"
              f"  calls={traced['calls'][layer]}", file=sys.stderr)


def _log(args, runs: list) -> None:
    """Append each pass's timings and solver-effort counters to the log."""
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    with open(results / "runs.jsonl", "a") as log:
        for run in runs:
            log.write(json.dumps({"workload": args.workload,
                                  "seed": args.seed, **run}) + "\n")
    for run in runs:
        counters = run["counters"]
        print(f"perfbench: {args.workload} seed={args.seed} {run['mode']} "
              f"wall={run['wall_s']:.3f}s queries={run['attempted']} "
              f"conflicts={counters['conflicts']} "
              f"propagations={counters['propagations']} "
              f"cnf.clauses={counters['cnf_clauses']}", file=sys.stderr)
        for failure in run["failures"]:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run whole passes (at least %d) until this "
                             "much list time is measured" % MIN_PASSES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            measured = _worker(args, "measure", deadline)
            traced = _worker(args, "traced", deadline)
            metrics = _per_layer(traced, measured)
            runs = [measured, traced]
            _print_layers(traced)
        else:
            setups = [_worker(args, "setup", deadline)["setup_s"]
                      for _ in range(EXTRA_SETUPS)]
            runs = []
            while (len(runs) < MIN_PASSES
                   or sum(run["wall_s"] for run in runs) < args.seconds):
                runs.append(_worker(args, "measure", deadline))
            metrics = _end_to_end(runs, setups)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    _log(args, runs)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    correct = failed == 0 and not any(run["failures"] for run in runs)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
