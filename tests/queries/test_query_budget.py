"""Every query's UNKNOWN path, forced deterministically with tiny budgets.

Conflict budgets are exact (the solver is deterministic and charging is
in-band), so ``Budget(conflicts=0)`` reliably trips at the first conflict.
The workhorse formula is factoring 143 = 11 * 13 within bounds — deciding
multiplication takes the SAT core through genuine conflicts, unlike the
propagation-only formulas most other tests use.
"""

import pytest

from repro.sym import fresh_bool, fresh_int, ops
from repro.vm import assert_, builtins as B
from repro.queries import (
    Budget,
    CancellationToken,
    debug,
    solve,
    synthesize,
    verify,
)

TARGET = 143  # = 11 * 13, the only factoring within the bounds below


def assert_factoring(x, y, x_cap=16):
    assert_(ops.num_eq(ops.mul(x, y), TARGET))
    assert_(ops.gt(x, 1))
    assert_(ops.gt(y, 1))
    assert_(ops.lt(x, x_cap))
    assert_(ops.lt(y, 16))


def feasible_factoring(holder=None):
    x, y = fresh_int("qx"), fresh_int("qy")
    if holder is not None:
        holder["xy"] = (x, y)
    assert_factoring(x, y)


def impossible_factoring():
    # x < 11 excludes the only factor pair: UNSAT, but proving it needs
    # conflicts.
    assert_factoring(fresh_int("nx"), fresh_int("ny"), x_cap=11)


class TestSolveUnknown:
    def test_conflict_budget_trips(self):
        outcome = solve(feasible_factoring, budget=Budget(conflicts=0))
        assert outcome.status == "unknown"
        assert outcome.report is not None
        assert outcome.report.reason == "conflicts"
        assert outcome.report.phase == "search"
        assert outcome.report.conflicts >= 1
        assert "budget exhausted" in outcome.message
        assert outcome.stats.budget_trips == 1

    def test_unbudgeted_answer_unchanged(self):
        holder = {}
        outcome = solve(lambda: feasible_factoring(holder))
        assert outcome.status == "sat"
        x, y = holder["xy"]
        assert outcome.model.evaluate(x) * outcome.model.evaluate(y) \
            == TARGET
        assert outcome.report is None
        assert outcome.stats.budget_trips == 0

    def test_cancellation_token(self):
        token = CancellationToken()
        token.cancel()
        outcome = solve(feasible_factoring, budget=Budget(token=token))
        assert outcome.status == "unknown"
        assert outcome.report.reason == "cancelled"


class TestVerifyUnknown:
    def _setup_and_thunk(self):
        holder = {}

        def setup():
            x, y = fresh_int("vx"), fresh_int("vy")
            holder["xy"] = (x, y)
            assert_(ops.gt(x, 1))
            assert_(ops.gt(y, 1))
            assert_(ops.lt(x, 16))
            assert_(ops.lt(y, 16))

        def thunk():
            x, y = holder["xy"]
            assert_(ops.not_(ops.num_eq(ops.mul(x, y), TARGET)))

        return setup, thunk

    def test_conflict_budget_trips(self):
        setup, thunk = self._setup_and_thunk()
        outcome = verify(thunk, setup=setup, budget=Budget(conflicts=0))
        assert outcome.status == "unknown"
        assert outcome.report is not None
        assert outcome.report.reason == "conflicts"
        assert outcome.stats.budget_trips == 1

    def test_unbudgeted_finds_counterexample(self):
        setup, thunk = self._setup_and_thunk()
        outcome = verify(thunk, setup=setup)
        assert outcome.status == "sat"  # 11 * 13 is the counterexample


class TestDebugUnknown:
    def test_conflict_budget_trips_initial_check(self):
        outcome = debug(impossible_factoring, budget=Budget(conflicts=0))
        assert outcome.status == "unknown"
        assert outcome.report is not None
        assert outcome.report.reason == "conflicts"
        assert "budget exhausted" in outcome.message

    def test_unbudgeted_answer_unchanged(self):
        def program():
            from repro.queries import relax
            x = relax(5, "five")
            y = relax(3, "three")
            assert_(B.equal(ops.add(x, y), 9))

        outcome = debug(program)
        assert outcome.status == "sat"
        assert set(outcome.core) == {"five", "three"}
        assert outcome.report is None


class TestSynthesizeUnknown:
    def test_guess_phase_trips(self):
        h1, h2 = fresh_int("gh1"), fresh_int("gh2")
        outcome = synthesize(
            [], lambda: assert_factoring(h1, h2),
            budget=Budget(conflicts=0))
        assert outcome.status == "unknown"
        assert outcome.report is not None
        assert "guess phase" in outcome.message
        assert outcome.model is None  # tripped before any candidate

    def test_guess_phase_unbudgeted_synthesizes(self):
        h1, h2 = fresh_int("uh1"), fresh_int("uh2")
        outcome = synthesize([], lambda: assert_factoring(h1, h2))
        assert outcome.status == "sat"
        values = {outcome.model.evaluate(h1), outcome.model.evaluate(h2)}
        assert values == {11, 13}

    def _check_hard_thunk(self):
        """Guessing is trivial, refuting the candidate needs conflicts."""
        x, y, h = fresh_int("cx"), fresh_int("cy"), fresh_int("ch")

        def thunk():
            infeasible = ops.and_(
                ops.num_eq(ops.mul(x, y), TARGET),
                ops.and_(ops.gt(x, 1),
                         ops.and_(ops.gt(y, 1),
                                  ops.and_(ops.lt(x, 11), ops.lt(y, 16)))))
            assert_(ops.or_(ops.num_eq(h, 5), ops.not_(infeasible)))

        return (x, y), h, thunk

    def test_check_phase_trips_with_best_candidate(self):
        inputs, h, thunk = self._check_hard_thunk()
        outcome = synthesize(list(inputs), thunk, budget=Budget(conflicts=0))
        assert outcome.status == "unknown"
        assert outcome.report is not None
        assert "check phase" in outcome.message
        assert "best candidate" in outcome.message
        # The anytime candidate: it satisfied every example seen so far.
        assert outcome.model is not None
        assert outcome.model.evaluate(h) == 0

    def test_check_phase_unbudgeted_converges(self):
        inputs, h, thunk = self._check_hard_thunk()
        outcome = synthesize(list(inputs), thunk)
        assert outcome.status == "sat"

    def test_per_iteration_budget_trips(self):
        h1, h2 = fresh_int("ph1"), fresh_int("ph2")
        outcome = synthesize(
            [], lambda: assert_factoring(h1, h2),
            iteration_budget={"conflicts": 0})
        assert outcome.status == "unknown"
        assert outcome.report is not None

    def test_per_iteration_budget_trips_in_check_phase(self):
        """Each check solver is built with the iteration's child budget."""
        inputs, h, thunk = self._check_hard_thunk()
        outcome = synthesize(list(inputs), thunk,
                             iteration_budget={"conflicts": 0})
        assert outcome.status == "unknown"
        assert "check phase" in outcome.message
        assert outcome.report.limits == {"conflicts": 0}
        assert outcome.model is not None
        assert outcome.model.evaluate(h) == 0

    def test_generous_per_iteration_budget_converges(self):
        x, c = fresh_int("lx"), fresh_int("lc")
        outcome = synthesize(
            [x], lambda: assert_(B.equal(x * c, x + x)),
            budget=Budget(conflicts=1_000_000),
            iteration_budget={"conflicts": 100_000})
        assert outcome.status == "sat"
        assert outcome.model.evaluate(c) == 2

    def test_iteration_budget_chains_into_total(self):
        """A tiny total budget trips even with generous per-iteration caps."""
        h1, h2 = fresh_int("th1"), fresh_int("th2")
        outcome = synthesize(
            [], lambda: assert_factoring(h1, h2),
            budget=Budget(conflicts=0),
            iteration_budget={"conflicts": 1_000_000})
        assert outcome.status == "unknown"
        assert outcome.report.limits.get("parent") == {"conflicts": 0}
