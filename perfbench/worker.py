"""One benchmark process: set up, run a workload's query list, confirm it.

``run.py`` starts this script in a fresh interpreter for every sample, so
each list starts from the same allocation history. Modes:

- ``setup``: imports, input generation and one warm-up query, then exit;
  reports only ``setup_s``.
- ``measure``: one untraced pass over the list, the source of every
  end-to-end metric.
- ``traced``: the same list under :func:`layers.install`, for the
  per-layer metrics; its spans go to ``perfbench/results/`` once at the end.

The last line of standard output is one JSON object.
"""

import time

_STARTED = time.perf_counter()   # set-up time includes the imports below

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"

STAT_FIELDS = {
    "joins": "joins",
    "unions": "unions_created",
    "union_card_sum": "union_cardinality_sum",
    "checks": "solver_checks",
    "conflicts": "solver_conflicts",
    "decisions": "solver_decisions",
    "propagations": "solver_propagations",
    "learned": "solver_learned",
    "encode_hits": "encode_cache_hits",
    "encode_misses": "encode_cache_misses",
    "budget_trips": "budget_trips",
    "certified_checks": "certified_checks",
    "sanitize_rewrites": "sanitize_rewrites",
}


def _answer(query):
    try:
        return query.run()
    finally:
        # Collect the query's garbage inside its own timed interval: every
        # query pays for what it leaves behind and starts from the same
        # heap whatever ran before it, so neither its time nor the peak
        # RSS depends on the seeded query order.
        gc.collect()


def _run_query(query, clock):
    started = time.perf_counter()
    try:
        if clock is None:
            answer = _answer(query)
        else:
            with clock.span("query"):
                answer = _answer(query)
    except Exception:
        # A raised query is a failed operation, not a crashed benchmark.
        print(f"perfbench: {query.label} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        answer = None
    return query, answer, time.perf_counter() - started


def _confirm(records):
    """Check every answer outside the timed interval.

    Returns one failure reason (or None) per record.
    """
    reasons = [workloads.confirm(query, answer)
               for query, answer, _ in records]
    fig10 = [index for index, (query, _, _) in enumerate(records)
             if query.family == "fig10" and reasons[index] is None]
    if fig10:
        reason = workloads.confirm_fig10(
            [records[index][1].detail for index in fig10])
        for index in fig10:
            reasons[index] = reason and f"Figure 10 {reason}"
    return reasons


def _counters(answers, clock):
    totals = {name: 0 for name in STAT_FIELDS}
    max_union = 0
    for answer in answers:
        for name, attribute in STAT_FIELDS.items():
            totals[name] += getattr(answer.stats, attribute)
        max_union = max(max_union, answer.stats.max_union_cardinality)
    totals["max_union"] = max_union
    totals["cnf_clauses"] = clock.cnf_clauses
    totals["cnf_vars"] = clock.cnf_vars
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "traced"))
    args = parser.parse_args(argv)

    queries = workloads.build(args.workload, args.seed)
    warm = workloads.warmup(args.workload)
    warm_error = workloads.confirm(warm, _run_query(warm, None)[1])
    setup_s = time.perf_counter() - _STARTED
    result = {"mode": args.mode, "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0 if warm_error is None else 1

    traced = args.mode == "traced"
    clock = layers.LayerClock()
    with (layers.install if traced else layers.count_cnf)(clock):
        started = time.perf_counter()
        if traced:
            clock.enter("query")   # harness time between queries
        records = [_run_query(query, clock if traced else None)
                   for query in queries]
        if traced:
            clock.exit()
        wall = time.perf_counter() - started

    reasons = _confirm(records)
    answers = [answer for _, answer, _ in records if answer is not None]
    failures = [f"{query.label}: {reason}"
                for (query, _, _), reason in zip(records, reasons) if reason]
    if warm_error is not None:
        failures.append(f"warm-up {warm.label}: {warm_error}")
    result.update(
        wall_s=wall,
        attempted=len(records),
        failed=sum(1 for reason in reasons if reason),
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        counters=_counters(answers, clock),
        queries=[[query.label, seconds,
                  answer.stats.solver_conflicts if answer else None]
                 for query, answer, seconds in records],
    )
    if traced:
        result.update(self_s=clock.self_s, calls=clock.calls,
                      live_terms=clock.live_terms)
        RESULTS.mkdir(exist_ok=True)
        trace_file = RESULTS / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "spans": clock.spans()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
