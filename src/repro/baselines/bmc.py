"""BMC-style merging baseline (§3.3).

Bounded model checkers merge states at every join, but the merged values
become opaque symbolic values: "once two concrete values from different
branches are logically merged ... all operations that consume that value
must also be translated to symbolic values and constraints". This baseline
models that loss inside our own evaluator: evaluation proceeds exactly like
the SVM, except the merge strategy is switched to "logical" — primitives
still merge into ``ite`` terms, but lists and records never merge
structurally, so every join adds a union entry per distinct non-primitive
value (one per incoming path). Union cardinalities then grow with the
number of *paths*, not with the number of value shapes — the blow-up that
type-driven merging (Fig. 9) eliminates.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

from repro.smt import terms as T
from repro.smt.solver import SmtResult, SmtSolver
from repro.sym.merge import merge_strategy
from repro.vm.context import VM
from repro.vm.errors import AssertionFailure


def run_with_logical_merging(thunk: Callable[[], object]) -> Tuple[VM, object, bool]:
    """Evaluate `thunk` under a fresh VM with the "logical" merge strategy.

    Returns ``(vm, value, failed)``; the VM carries the assertion store and
    the union statistics to compare against a type-driven run.
    """
    with merge_strategy("logical"), VM() as vm:
        vm.stats.start()
        failed = False
        value = None
        try:
            value = thunk()
        except AssertionFailure:
            failed = True
        finally:
            vm.stats.stop()
        return vm, value, failed


def bmc_solve(thunk: Callable[[], object]):
    """The solve query under BMC-style merging. Returns (status, vm)."""
    vm, _, failed = run_with_logical_merging(thunk)
    if failed:
        return "unsat", vm
    solver = SmtSolver()
    for assertion in vm.assertions:
        solver.add_assertion(assertion)
    started = time.perf_counter()
    result = solver.check()
    vm.stats.solver_seconds += time.perf_counter() - started
    if result is SmtResult.SAT:
        return "sat", vm
    if result is SmtResult.UNKNOWN:
        return "unknown", vm
    return "unsat", vm


def bmc_verify(thunk: Callable[[], object],
               setup: Optional[Callable[[], object]] = None):
    """The verify query under BMC-style merging. Returns (status, vm)."""
    with merge_strategy("logical"), VM() as vm:
        vm.stats.start()
        failed = False
        mark = 0
        try:
            if setup is not None:
                setup()
            mark = len(vm.assertions)
            thunk()
        except AssertionFailure:
            failed = True
        finally:
            vm.stats.stop()
        if failed:
            return "sat", vm
        assumptions = vm.assertions[:mark]
        targets = vm.assertions[mark:]
        if not targets:
            return "unsat", vm
        solver = SmtSolver()
        for assumption in assumptions:
            solver.add_assertion(assumption)
        solver.add_assertion(T.mk_or(*[T.mk_not(t) for t in targets]))
        started = time.perf_counter()
        result = solver.check()
        vm.stats.solver_seconds += time.perf_counter() - started
        if result is SmtResult.SAT:
            return "sat", vm
        if result is SmtResult.UNKNOWN:
            return "unknown", vm
        return "unsat", vm
