"""Tests for incremental solving: assumption checks on one persistent
solver, encode-cache reuse, per-check statistics, and unsat-core edge
cases."""

import pytest

from repro.smt import terms as T
from repro.smt.solver import SmtResult, SmtSolver


def bv(value, width=4):
    return T.bv_const(value, width)


class TestAssumptionChecks:
    def test_assumption_binds_one_check(self):
        """A constraint passed as an assumption holds for its check only."""
        x = T.bv_var("inc_x", 4)
        solver = SmtSolver()
        solver.add_assertion(T.mk_ult(bv(5), x))
        assert solver.check([T.mk_ult(x, bv(3))]) is SmtResult.UNSAT
        assert solver.check() is SmtResult.SAT
        assert solver.model([x])[x] > 5

    def test_core_holds_only_assumptions(self):
        """The unsat core names the failed assumptions, never assertions."""
        x = T.bv_var("inc_c", 4)
        low = T.mk_ult(bv(5), x)
        high = T.mk_ult(x, bv(3))
        solver = SmtSolver()
        solver.add_assertion(low)
        assert solver.check([high]) is SmtResult.UNSAT
        assert solver.unsat_core() == [high]
        assert low not in solver.unsat_core()
        assert solver.check() is SmtResult.SAT

    def test_learned_clauses_persist_across_checks(self):
        """Conflict clauses learned under an assumption outlive its check."""
        solver = SmtSolver()
        x = T.bv_var("inc_l", 8)
        y = T.bv_var("inc_m", 8)
        solver.add_assertion(T.mk_eq(T.mk_mul(x, y), T.bv_const(143, 8)))
        # Bounded factors make the equation non-modular and the search
        # conflict.
        bounds = [T.mk_ult(bv(1, 8), x), T.mk_ult(bv(1, 8), y),
                  T.mk_ult(x, bv(16, 8)), T.mk_ult(y, bv(16, 8))]
        assert solver.check(bounds) is SmtResult.SAT
        learned = list(solver.sat._learnts)
        assert learned
        assert solver.check() is SmtResult.SAT
        assert all(clause in solver.sat._learnts for clause in learned)


class TestEncodeCache:
    def test_repeated_assumption_reencodes_nothing(self):
        """The second check under the same assumption term is all hits."""
        x = T.bv_var("inc_e", 8)
        y = T.bv_var("inc_f", 8)
        equation = T.mk_eq(T.mk_mul(x, y), T.bv_const(77, 8))
        solver = SmtSolver()
        assert solver.check([equation]) is SmtResult.SAT
        misses_after_first = solver.blaster.cache_misses
        assert solver.check() is SmtResult.SAT
        assert solver.check([equation]) is SmtResult.SAT
        assert solver.blaster.cache_misses == misses_after_first
        assert solver.last_check.encode_misses == 0

    def test_check_stats_report_cache_counters(self):
        x = T.bv_var("inc_g", 8)
        solver = SmtSolver()
        solver.add_assertion(T.mk_ult(bv(0, 8), x))
        assert solver.check() is SmtResult.SAT
        assert solver.last_check.checks == 1
        assert solver.last_check.encode_misses > 0
        # Re-checking does no new encoding work.
        assert solver.check() is SmtResult.SAT
        assert solver.last_check.encode_misses == 0
        assert solver.cumulative.checks == 2

    def test_variables_accessor(self):
        p = T.bool_var("inc_vp")
        x = T.bv_var("inc_vx", 4)
        solver = SmtSolver()
        solver.add_assertion(p)
        solver.add_assertion(T.mk_ult(bv(0), x))
        assert set(solver.blaster.variables()) == {p, x}
        assert solver.check() is SmtResult.SAT
        model = solver.model()  # no explicit list: uses variables()
        assert model[p] is True
        assert model[x] > 0


class TestCoreEdgeCases:
    def test_false_assertion_yields_empty_core(self):
        """Regression: a constant-false assertion must not blame assumptions."""
        p = T.bool_var("inc_ra")
        solver = SmtSolver()
        solver.add_assertion(T.FALSE)
        assert solver.check([p, T.TRUE]) is SmtResult.UNSAT
        assert solver.unsat_core() == []

    def test_true_assumptions_never_appear_in_core(self):
        p = T.bool_var("inc_rb")
        solver = SmtSolver()
        solver.add_assertion(T.mk_not(p))
        assert solver.check([T.TRUE, p, T.TRUE]) is SmtResult.UNSAT
        assert solver.unsat_core() == [p]

    def test_false_assumption_is_its_own_core(self):
        solver = SmtSolver()
        assert solver.check([T.FALSE]) is SmtResult.UNSAT
        assert solver.unsat_core() == [T.FALSE]
        assert solver.minimize_core() == [T.FALSE]

    def test_minimize_empty_core_is_empty(self):
        p = T.bool_var("inc_rc")
        solver = SmtSolver()
        solver.add_assertion(T.FALSE)
        assert solver.check([p]) is SmtResult.UNSAT
        assert solver.minimize_core() == []


class TestMinimizeCore:
    def _interval_solver(self):
        x = T.bv_var("inc_mx", 4)
        low = T.mk_ult(bv(5), x)     # x > 5
        high = T.mk_ult(x, bv(3))    # x < 3
        odd = T.mk_eq(T.mk_bvand(x, bv(1)), bv(1))
        return SmtSolver(), x, low, high, odd

    def test_minimize_is_idempotent(self):
        solver, _, low, high, odd = self._interval_solver()
        assert solver.check([low, high, odd]) is SmtResult.UNSAT
        once = solver.minimize_core()
        twice = solver.minimize_core(once)
        assert set(once) == set(twice) == {low, high}

    def test_minimize_restores_result_and_model(self):
        solver, x, low, high, odd = self._interval_solver()
        assert solver.check([low, high, odd]) is SmtResult.UNSAT
        stale_core = solver.unsat_core()
        # A later SAT check: its model must survive minimization.
        assert solver.check([low, odd]) is SmtResult.SAT
        value_before = solver.model([x])[x]
        solver.minimize_core(stale_core)
        assert solver.model([x])[x] == value_before

    def test_minimize_restores_unsat_state(self):
        solver, _, low, high, odd = self._interval_solver()
        assert solver.check([low, high, odd]) is SmtResult.UNSAT
        core_before = set(solver.unsat_core())
        solver.minimize_core()
        assert set(solver.unsat_core()) == core_before
        with pytest.raises(RuntimeError):
            solver.model()
