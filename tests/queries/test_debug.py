"""Tests for the debug query (minimal-core fault localization)."""

import pytest

from repro.sym import ops
from repro.vm import assert_, builtins as B
from repro.queries import debug, relax
from repro.queries.debug import DebugSession
from repro.smt.solver import SmtSolver


class TestRelax:
    def test_identity_outside_a_session(self):
        assert relax(5, "x") == 5
        assert relax(True, "y") is True

    def test_relaxed_value_becomes_symbolic(self):
        from repro.sym.values import SymBool, SymInt
        with DebugSession(lambda v: True) as session:
            assert isinstance(relax(5, "five"), SymInt)
            assert isinstance(relax(True, "flag"), SymBool)
            assert len(session.relaxations) == 2

    def test_predicate_filters_values(self):
        from repro.sym.values import SymInt
        def ints_only(value):
            return not isinstance(value, bool) and isinstance(value, int)
        with DebugSession(ints_only) as session:
            assert relax(True, "flag") is True      # filtered out
            assert isinstance(relax(5, "five"), SymInt)
            assert [label for label, _ in session.relaxations] == ["five"]

    def test_non_primitives_pass_through(self):
        with DebugSession(lambda v: True):
            assert relax((1, 2), "lst") == (1, 2)


class TestDebug:
    def test_single_faulty_constant(self):
        def program():
            x = relax(5, "the-five")
            assert_(B.equal(x, 6))

        outcome = debug(program)
        assert outcome.status == "sat"
        assert outcome.core == ["the-five"]

    def test_core_of_jointly_wrong_sum(self):
        """5 + 3 != 9: repairing either constant fixes it, so the minimal
        core contains both (like the paper's cond/true core)."""
        def program():
            x = relax(5, "five")
            y = relax(3, "three")
            assert_(B.equal(ops.add(x, y), 9))

        outcome = debug(program)
        assert outcome.status == "sat"
        assert set(outcome.core) == {"five", "three"}

    def test_irrelevant_expressions_are_outside_core(self):
        def program():
            x = relax(5, "culprit")
            _ = relax(7, "innocent")  # not involved in the failing assert
            assert_(B.equal(x, 6))

        outcome = debug(program)
        assert outcome.core == ["culprit"]

    def test_non_failing_program_has_no_core(self):
        def program():
            x = relax(5, "ok")
            assert_(B.equal(x, 5))

        outcome = debug(program)
        assert outcome.status == "unsat"
        assert "no assertion failure" in outcome.message

    def test_failure_without_relaxable_expressions(self):
        outcome = debug(lambda: assert_(False))
        assert outcome.status == "unknown"

    def test_core_minimality(self):
        """An over-constrained chain: the core must be a *minimal* subset.

        The failing assertion is b+c == 99, but a+b == 3 ties a and b
        together, so the two minimal cores are {b, c} and {a, c}: every
        core contains c plus exactly one of a/b.
        """
        def program():
            a = relax(1, "a")
            b = relax(2, "b")
            c = relax(3, "c")
            assert_(B.equal(ops.add(a, b), 3))   # holds as written
            assert_(B.equal(ops.add(b, c), 99))  # fails

        outcome = debug(program)
        assert outcome.status == "sat"
        assert "c" in outcome.core
        assert len(outcome.core) == 2
        assert set(outcome.core) in ({"b", "c"}, {"a", "c"})

    @pytest.mark.parametrize("certify", ["0", "1"])
    def test_stats_count_every_check(self, monkeypatch, certify):
        """solver_checks counts the first check and every minimize_core
        probe; under REPRO_CERTIFY=1 each of them is certified."""
        monkeypatch.setenv("REPRO_CERTIFY", certify)
        calls = []
        check = SmtSolver.check

        def counted_check(self, *args, **kwargs):
            calls.append(None)
            return check(self, *args, **kwargs)

        monkeypatch.setattr(SmtSolver, "check", counted_check)

        def program():
            a = relax(1, "a")
            b = relax(2, "b")
            c = relax(3, "c")
            assert_(B.equal(ops.add(a, b), 3))
            assert_(B.equal(ops.add(b, c), 99))

        outcome = debug(program)
        assert outcome.status == "sat"
        assert len(calls) > 1          # minimization probed
        assert outcome.stats.solver_checks == len(calls)
        certified = len(calls) if certify == "1" else 0
        assert outcome.stats.certified_checks == certified
