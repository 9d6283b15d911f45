"""End-to-end tracing tests: the PR's acceptance criteria, automated.

A SYNTHCL benchmark run under ``REPRO_TRACE`` must produce a JSONL trace
that converts to a valid Chrome trace containing at least one query span,
one ``smt.check`` span with a result, one ``smt.encode`` event with its
cache disposition, and one ``vm.join`` event with a cardinality — and the
trace must satisfy the structural invariants (monotonic timestamps, LIFO
span nesting).
"""

import json

import pytest

from repro.obs import (
    MemorySink,
    check_trace_invariants,
    jsonl_to_chrome,
    load_jsonl_trace,
    reset_env_sink,
    tracing,
)
from repro.obs.events import BUS
from repro.queries import solve, verify
from repro.sym import fresh_int, ops
from repro.vm import assert_, current


def _factor_program():
    x = fresh_int("tx", width=8)
    y = fresh_int("ty", width=8)
    current().branch(ops.gt(x, 0), lambda: None, lambda: None)
    assert_(ops.num_eq(ops.mul(x, y), 15))
    assert_(ops.lt(1, x))
    assert_(ops.lt(1, y))


class TestEnvCapture:
    def test_synthcl_run_produces_valid_chrome_trace(self, tmp_path,
                                                     monkeypatch):
        from repro.sdsl.synthcl.bench import run_benchmark

        jsonl_path = tmp_path / "synthcl.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(jsonl_path))
        try:
            outcome = run_benchmark("FWT2s")
        finally:
            reset_env_sink()
        assert outcome.status == "sat"

        rows = load_jsonl_trace(jsonl_path)
        assert rows
        check_trace_invariants(rows)

        # ≥1 query span with a status.
        query_ends = [r for r in rows if r["name"] == "query.synthesize"
                      and r["ph"] == "E"]
        assert query_ends and query_ends[0]["args"]["status"] == "sat"
        # ≥1 check span with a result.
        check_ends = [r for r in rows if r["name"] == "smt.check"
                      and r["ph"] == "E"]
        assert check_ends
        assert all(c["args"]["result"] in ("sat", "unsat", "unknown")
                   for c in check_ends)
        # ≥1 encode span with its cache disposition.
        encode_ends = [r for r in rows if r["name"] == "smt.encode"
                       and r["ph"] == "E"]
        assert encode_ends
        for encode in encode_ends:
            assert {"hits", "misses", "cached"} <= set(encode["args"])
        # ≥1 VM join with a cardinality.
        joins = [r for r in rows if r["name"] == "vm.join"]
        assert joins
        assert all(j["args"]["cardinality"] >= 2 for j in joins)
        # CEGIS iterations are labelled, and the last one converged.
        iteration_ends = [r for r in rows if r["name"] == "cegis.iteration"
                          and r["ph"] == "E"]
        assert iteration_ends
        assert iteration_ends[-1]["args"]["outcome"] == "converged"

        # The Chrome conversion loads as strict JSON with the required
        # fields on every event.
        chrome_path = tmp_path / "synthcl.json"
        count = jsonl_to_chrome(jsonl_path, chrome_path)
        assert count == len(rows)
        with open(chrome_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for event in payload["traceEvents"]:
            for key in ("ph", "ts", "pid", "tid"):
                assert key in event

    def test_hl_program_traced_via_env(self, tmp_path, monkeypatch):
        """The HL host language's query forms honor REPRO_TRACE too —
        zero-code-change capture is language-independent."""
        from repro.lang import run_program

        jsonl_path = tmp_path / "hl.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(jsonl_path))
        reset_env_sink()  # drop any writer captured with the old env
        try:
            results = run_program("""
              (define-symbolic x number?)
              (assert (> x 3))
              (define m (solve (assert (< x 6))))
              (evaluate x m)
            """, int_width=8)
        finally:
            reset_env_sink()
        assert results[-1] in (4, 5)

        rows = load_jsonl_trace(jsonl_path)
        check_trace_invariants(rows)
        names = {r["name"] for r in rows}
        assert "query.solve" in names and "smt.check" in names
        solve_ends = [r for r in rows if r["name"] == "query.solve"
                      and r["ph"] == "E"]
        assert solve_ends and solve_ends[-1]["args"]["status"] == "sat"

    def test_no_env_var_means_no_trace(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        reset_env_sink()
        outcome = solve(_factor_program)
        assert outcome.status == "sat"
        assert not BUS.enabled

    def test_env_writer_spans_multiple_queries(self, tmp_path, monkeypatch):
        """The env sink persists across queries: one file, both traces."""
        jsonl_path = tmp_path / "multi.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(jsonl_path))
        try:
            solve(_factor_program)
            solve(_factor_program)
        finally:
            reset_env_sink()
        rows = load_jsonl_trace(jsonl_path)
        check_trace_invariants(rows)
        solves = [r for r in rows if r["name"] == "query.solve"
                  and r["ph"] == "B"]
        assert len(solves) == 2


class TestTraceArgument:
    def test_path_argument_writes_jsonl(self, tmp_path):
        jsonl_path = tmp_path / "q.jsonl"
        with tracing(str(jsonl_path)):
            outcome = solve(_factor_program)
        assert outcome.status == "sat"
        rows = load_jsonl_trace(jsonl_path)
        check_trace_invariants(rows)
        assert rows[0]["name"] == "query.solve"
        assert rows[-1]["name"] == "query.solve"
        assert rows[-1]["args"]["status"] == "sat"
        assert not BUS.enabled  # sink detached afterwards

    def test_callable_argument_receives_events(self):
        sink = MemorySink()
        with tracing(sink):
            outcome = verify(_factor_program)
        assert outcome.status == "sat"  # a counterexample exists
        names = {e.name for e in sink.events}
        assert "query.verify" in names and "smt.check" in names
        assert not BUS.enabled

    def test_query_span_reports_error_status(self, tmp_path):
        jsonl_path = tmp_path / "err.jsonl"
        with pytest.raises(RuntimeError, match="boom"), \
                tracing(str(jsonl_path)):
            solve(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        rows = load_jsonl_trace(jsonl_path)
        check_trace_invariants(rows)  # spans still balanced
        assert rows[-1]["name"] == "query.solve"
        assert rows[-1]["args"]["status"] == "error"

    def test_driver_level_trace_covers_a_sweep(self, tmp_path):
        """A synthcl verification sweep lands in ONE trace file."""
        from repro.sdsl.synthcl.bench import run_benchmark

        jsonl_path = tmp_path / "sweep.jsonl"
        with tracing(str(jsonl_path)):
            outcome = run_benchmark("SF1v", bounds=[(1, 1), (1, 2)])
        assert outcome.status == "unsat"
        rows = load_jsonl_trace(jsonl_path)
        check_trace_invariants(rows)
        sweeps = [r for r in rows if r["name"] == "query.verify"
                  and r["ph"] == "B"]
        assert len(sweeps) == 2  # both bounds, not just the last


class TestStatsEquivalence:
    def test_untraced_query_searches_with_the_bus_off(self, monkeypatch):
        """With no sink, the SAT search runs with the bus disabled, so it
        builds no events (the bus's "disabled is free" promise)."""
        from repro.solver.sat import SatSolver

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        reset_env_sink()
        enabled = []
        search = SatSolver._solve

        def watched(self, *args, **kwargs):
            enabled.append(BUS.enabled)
            return search(self, *args, **kwargs)

        monkeypatch.setattr(SatSolver, "_solve", watched)
        outcome = verify(_factor_program)
        assert outcome.status == "sat"
        assert enabled and not any(enabled)

    def test_stats_identical_with_and_without_tracing(self):
        """Tracing must observe, not perturb: the rebased stats pipeline
        yields the same numbers whether or not a sink is attached."""
        baseline = solve(_factor_program)
        sink = MemorySink()
        with tracing(sink):
            traced = solve(_factor_program)
        assert baseline.status == traced.status == "sat"
        assert baseline.stats.solver_checks == traced.stats.solver_checks
        assert baseline.stats.solver_conflicts == \
            traced.stats.solver_conflicts
        assert baseline.stats.joins == traced.stats.joins
        assert baseline.stats.unions_created == traced.stats.unions_created
        assert baseline.stats.encode_cache_misses == \
            traced.stats.encode_cache_misses

    def test_check_events_match_query_stats(self):
        """The smt.check end events sum to exactly the query's stats."""
        sink = MemorySink()
        with tracing(sink):
            outcome = solve(_factor_program)
        ends = [e for e in sink.events
                if e.name == "smt.check" and e.ph == "E"]
        assert sum(e.args["checks"] for e in ends) == \
            outcome.stats.solver_checks
        assert sum(e.args["conflicts"] for e in ends) == \
            outcome.stats.solver_conflicts
        assert sum(e.args["encode_misses"] for e in ends) == \
            outcome.stats.encode_cache_misses
