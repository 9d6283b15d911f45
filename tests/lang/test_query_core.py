"""The HL query forms decide through the shared query core: their solver
effort reaches the program's statistics and their spans carry the
outcome's status."""

import pytest

from repro.lang import LangError, run_program
from repro.lang.interp import run_program_with_stats
from repro.obs import MemorySink, tracing
from repro.obs.events import END

FACTOR_PROGRAM = """
(define-symbolic x number?)
(define-symbolic y number?)
(assert (< 1 x))
(assert (< 1 y))
(assert (< x 16))
(assert (< y 16))
(define m (solve (assert (= (* x y) 143))))
(define cex (verify (assert (not (= (* x y) 195)))))
(list (evaluate (* x y) m) (evaluate (* x y) cex))
"""


class TestStatsPath:
    def test_solve_and_verify_charge_the_program_stats(self):
        results, stats = run_program_with_stats(FACTOR_PROGRAM, int_width=10)
        assert results[-1] == (143, 195)
        assert stats.solver_checks == 2
        assert stats.solver_conflicts > 0
        assert stats.encode_cache_misses > 0
        assert stats.solver_seconds > 0.0

    def test_debug_charges_every_core_probe(self):
        _, stats = run_program_with_stats("""
            (define-symbolic unused number?)
            (debug [number?] (assert (= (+ 2 2) 5)))
        """, int_width=8)
        # The initial check plus at least one minimization probe.
        assert stats.solver_checks >= 2


class TestQuerySpans:
    @pytest.mark.parametrize("program, span, value, status", [
        # The body fails on every path: no hole values can help.
        ("(define-symbolic i number?) (synthesize [i] (assert #f))",
         "query.synthesize", False, "unsat"),
        # A definite failure: every interpretation is a counterexample.
        ("(verify (assert #f))", "query.verify", True, "sat"),
    ])
    def test_definite_failure_ends_with_the_outcome_status(
            self, program, span, value, status):
        sink = MemorySink()
        with tracing(sink):
            results = run_program(program, int_width=8)
        assert (results[-1] is not False) is value
        ends = [event.args["status"] for event in sink.events
                if event.name == span and event.ph == END]
        assert ends == [status]


class TestDebugErrors:
    @pytest.mark.parametrize("expr, reason", [
        ("(assert (= 1 1))", "no assertion failure"),
        ("(assert #f)", "independent of any relaxable expression"),
    ])
    def test_debug_without_a_core_raises(self, expr, reason):
        with pytest.raises(LangError, match=reason):
            run_program(f"(debug [number?] {expr})", int_width=8)
