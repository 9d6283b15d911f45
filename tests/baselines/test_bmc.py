"""Tests for the BMC-style merging baseline and the three-way ablation."""

import pytest

from repro.baselines import run_with_logical_merging
from repro.queries import solve, verify
from repro.sym import fresh_int, ops
from repro.sym.merge import merge_strategy
from repro.sym.values import Union
from repro.vm import assert_, builtins as B
from repro.vm.context import current


def rev_pos(xs):
    ps = ()
    for x in xs:
        ps = current().branch(ops.gt(x, 0),
                              lambda x=x, ps=ps: B.cons(x, ps),
                              lambda ps=ps: ps)
    return ps


class TestLogicalMerging:
    def test_lists_no_longer_merge_structurally(self):
        def program():
            xs = tuple(fresh_int("bm") for _ in range(3))
            return rev_pos(xs)
        vm, value, failed = run_with_logical_merging(program)
        assert not failed
        assert isinstance(value, Union)
        # Type-driven merging yields n+1 = 4 members (one per length);
        # logical merging keeps one member per *path*, up to 2^n = 8
        # (paths reaching the same list object still collapse).
        assert len(value) > 4

    def test_union_growth_vs_type_driven(self):
        """The paper's core claim, as an executable comparison."""
        from repro.vm.context import VM

        def program():
            xs = tuple(fresh_int("gw") for _ in range(4))
            return rev_pos(xs)

        with VM() as vm_typed:
            vm_typed.stats.start()
            typed_value = program()
            vm_typed.stats.stop()
        vm_logical, logical_value, _ = run_with_logical_merging(program)
        assert len(logical_value) > len(typed_value)
        assert vm_logical.stats.union_cardinality_sum > \
            vm_typed.stats.union_cardinality_sum

    def test_primitives_still_merge_logically(self):
        """BMC merges primitives with ite, like the SVM."""
        from repro.sym.values import SymInt
        def program():
            x = fresh_int("pl")
            return current().branch(ops.gt(x, 0), lambda: 1, lambda: 2)
        _, value, _ = run_with_logical_merging(program)
        assert isinstance(value, SymInt)


class TestBmcQueries:
    """The BMC-style queries are the ordinary queries under logical
    merging."""

    def test_bmc_solve_agrees_with_svm(self):
        def program():
            xs = (fresh_int("bs"), fresh_int("bs"))
            assert_(B.equal(B.length(rev_pos(xs)), 2))

        svm = solve(program)
        with merge_strategy("logical"):
            bmc = solve(program)
        assert bmc.status == svm.status == "sat"

    def test_bmc_solve_unsat(self):
        def program():
            xs = (fresh_int("bu"),)
            assert_(B.equal(B.length(rev_pos(xs)), 9))
        with merge_strategy("logical"):
            outcome = solve(program)
        assert outcome.status == "unsat"

    def test_bmc_verify_finds_counterexample(self):
        def program():
            xs = (fresh_int("bv"), fresh_int("bv"))
            assert_(B.equal(B.length(rev_pos(xs)), 2))
        with merge_strategy("logical"):
            outcome = verify(program)
        assert outcome.status == "sat"

    def test_bmc_verify_valid_property(self):
        def program():
            xs = (fresh_int("bw"), fresh_int("bw"))
            assert_(ops.le(B.length(rev_pos(xs)), 2))
        with merge_strategy("logical"):
            outcome = verify(program)
        assert outcome.status == "unsat"

    def test_bmc_verify_with_setup(self):
        holder = {}

        def setup():
            x = fresh_int("bp")
            holder["x"] = x
            assert_(ops.ge(x, 5))

        def program():
            assert_(ops.ge(holder["x"], 5))

        with merge_strategy("logical"):
            outcome = verify(program, setup=setup)
        assert outcome.status == "unsat"

    def test_definite_failure(self):
        from repro.vm.errors import AssertionFailure
        def program():
            raise AssertionFailure("nope")
        with merge_strategy("logical"):
            assert solve(program).status == "unsat"
            assert verify(program).status == "sat"

    def test_failing_setup_is_unsat_as_under_the_svm(self):
        """Infeasible preconditions leave nothing to violate, under
        either merge strategy."""
        from repro.vm.errors import AssertionFailure

        def setup():
            raise AssertionFailure("no input satisfies the precondition")

        def program():
            assert_(ops.ge(fresh_int("bf"), 5))

        svm = verify(program, setup=setup)
        with merge_strategy("logical"):
            bmc = verify(program, setup=setup)
        assert bmc.status == svm.status == "unsat"
        assert bmc.message == svm.message == "preconditions are unsatisfiable"

    def test_queries_merge_logically(self):
        """The strategy reaches the query's own VM: the same solve query
        builds larger unions under logical merging."""
        def program():
            xs = tuple(fresh_int("bl") for _ in range(4))
            assert_(ops.le(B.length(rev_pos(xs)), 4))

        typed = solve(program)
        with merge_strategy("logical"):
            logical = solve(program)
        assert logical.status == typed.status == "sat"
        assert logical.stats.union_cardinality_sum > \
            typed.stats.union_cardinality_sum
