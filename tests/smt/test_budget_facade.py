"""SmtSolver resource governance: UNKNOWN paths, reports, stats."""

from repro.smt import bitblast
from repro.smt import terms as T
from repro.smt.solver import SmtResult, SmtSolver
from repro.solver.budget import (
    Budget,
    CancellationToken,
    REASON_CANCELLED,
    REASON_CONFLICTS,
)

WIDTH = 8


def factoring(feasible: bool = False):
    """Factor 143 = 11 * 13 with 1 < x, y < 16 (no 8-bit wraparound).

    The feasible variant is SAT (x=11, y=13 up to symmetry); capping x
    below 11 makes it UNSAT. Either way the SAT solver needs genuine
    conflicts — propagation alone cannot decide multiplication — which is
    the deterministic lever the conflict-budget tests rely on.
    """
    x = T.bv_var("fx", WIDTH)
    y = T.bv_var("fy", WIDTH)
    return [T.mk_eq(T.mk_mul(x, y), T.bv_const(143, WIDTH)),
            T.mk_ult(T.bv_const(1, WIDTH), x),
            T.mk_ult(T.bv_const(1, WIDTH), y),
            T.mk_ult(y, T.bv_const(16, WIDTH)),
            T.mk_ult(x, T.bv_const(16 if feasible else 11, WIDTH))]


class TestSearchTrips:
    def test_conflict_budget_yields_unknown_with_report(self):
        solver = SmtSolver(budget=Budget(conflicts=0))
        solver.add_assertions(factoring())
        assert solver.check() is SmtResult.UNKNOWN
        report = solver.last_report
        assert report is not None
        assert report.reason == REASON_CONFLICTS
        assert report.phase == "search"
        assert report.conflicts >= 1
        assert report.limits == {"conflicts": 0}

    def test_unbudgeted_answer_unchanged(self):
        solver = SmtSolver()
        solver.add_assertions(factoring())
        assert solver.check() is SmtResult.UNSAT
        feasible = SmtSolver()
        feasible.add_assertions(factoring(feasible=True))
        assert feasible.check() is SmtResult.SAT

    def test_check_stats_record_trip_and_time(self):
        solver = SmtSolver(budget=Budget(conflicts=0))
        solver.add_assertions(factoring())
        solver.check()
        assert solver.last_check.tripped == 1
        assert solver.last_check.seconds > 0
        assert solver.cumulative.tripped == 1

    def test_untripped_check_has_zero_trips(self):
        solver = SmtSolver()
        solver.add_assertion(T.bool_var("ok"))
        solver.check()
        assert solver.last_check.tripped == 0
        assert solver.last_report is None

    def test_budget_swappable_between_checks(self):
        solver = SmtSolver(budget=Budget(conflicts=0))
        solver.add_assertions(factoring())
        assert solver.check() is SmtResult.UNKNOWN
        solver.set_budget(None)
        assert solver.check() is SmtResult.UNSAT
        assert solver.last_report is None

    def test_conflict_budget_reports_its_limit(self):
        solver = SmtSolver(budget=Budget(conflicts=0))
        solver.add_assertions(factoring(feasible=True))
        assert solver.check() is SmtResult.UNKNOWN
        report = solver.last_report
        assert report is not None
        assert report.phase == "search"
        assert report.limits == {"conflicts": 0}


class TestEncodeTrips:
    def test_encode_trip_poisons_the_solver(self, monkeypatch):
        monkeypatch.setattr(bitblast, "_ENCODE_CHECK_INTERVAL", 1)
        token = CancellationToken()
        token.cancel()
        solver = SmtSolver(budget=Budget(token=token))
        for term in factoring():
            solver.add_assertion(term)  # must not raise
        assert solver.check() is SmtResult.UNKNOWN
        report = solver.last_report
        assert report is not None
        assert report.phase == "encode"
        assert report.reason == REASON_CANCELLED
        # The formula is only partially encoded: every later check must
        # stay UNKNOWN even after the budget is lifted.
        solver.set_budget(None)
        assert solver.check() is SmtResult.UNKNOWN
        assert solver.last_report is report

    def test_encode_checkpoint_interval_batches_checks(self, monkeypatch):
        monkeypatch.setattr(bitblast, "_ENCODE_CHECK_INTERVAL", 10_000)
        token = CancellationToken()
        token.cancel()
        solver = SmtSolver(budget=Budget(token=token))
        # Far fewer cache misses than the interval: no checkpoint fires
        # during encoding, so the trip surfaces in the search phase.
        solver.add_assertion(T.bool_var("tiny"))
        assert solver.check() is SmtResult.UNKNOWN
        assert solver.last_report.phase == "search"


class TestAnytimeMinimize:
    def _unsat_assumptions(self, solver):
        a = T.bool_var("ma")
        b = T.bool_var("mb")
        c = T.bool_var("mc")
        solver.add_assertion(T.mk_or(T.mk_not(a), T.mk_not(b)))
        return [a, b, c]

    def test_minimize_stops_on_trip_and_keeps_core(self):
        solver = SmtSolver()
        assumptions = self._unsat_assumptions(solver)
        assert solver.check(assumptions) is SmtResult.UNSAT
        core_before = solver.unsat_core()
        assert core_before
        token = CancellationToken()
        token.cancel()
        solver.set_budget(Budget(token=token))
        minimized = solver.minimize_core()
        # Anytime contract: the trip aborts probing, the smallest core
        # proven so far comes back unchanged, and the report says why.
        assert minimized == core_before
        assert solver.last_report is not None
        assert solver.last_report.reason == REASON_CANCELLED

    def test_minimize_unbudgeted_is_minimal(self):
        solver = SmtSolver()
        assumptions = self._unsat_assumptions(solver)
        assert solver.check(assumptions) is SmtResult.UNSAT
        minimized = solver.minimize_core()
        assert len(minimized) == 2
        assert solver.check(minimized) is SmtResult.UNSAT
