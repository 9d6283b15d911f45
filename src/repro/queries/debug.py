"""The debug query: minimal-unsatisfiable-core fault localization (§2.2).

The paper's ``(debug [predicate] expr)`` asks: which expressions of the
given dynamic type are *collectively responsible* for an assertion failure?
The encoding (following Bug-Assist [20] and the paper): every evaluated
expression whose value satisfies the predicate is made *relaxable* — its
value v is replaced by ``ite(sel, v, fresh)`` for a fresh selector ``sel``
and an unconstrained fresh constant. Keeping a selector true means "this
expression behaves as written". The failing assertions plus all selectors
are unsatisfiable; a minimal unsat core over the selectors names a minimal
set of expressions that cannot all be kept — the paper's minimal core, any
member of which can be altered to repair the program.

Instrumentation happens through :func:`relax`, which the HL interpreter
calls on every evaluated expression (carrying the source form as the
label); Python-embedded SDSL code can call it explicitly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.obs import tracing
from repro.smt import terms as T
from repro.smt.solver import SmtResult, SmtSolver
from repro.solver.budget import Budget
from repro.sym.values import (
    SymInt,
    bool_term,
    default_int_width,
    is_boolean_value,
    is_integer_value,
    wrap_bool,
    wrap_int,
)
from repro.vm.context import VM
from repro.vm.errors import AssertionFailure
from repro.queries.outcome import QueryOutcome
from repro.queries.queries import _charged, _check, _query_span, _unknown

_sessions: List["DebugSession"] = []


class DebugSession:
    """Collects relaxation selectors during an instrumented evaluation."""

    def __init__(self, predicate: Callable[[object], bool]):
        self.predicate = predicate
        self.relaxations: List[Tuple[object, T.Term]] = []  # (label, selector)

    def __enter__(self):
        _sessions.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _sessions.pop()
        assert popped is self

    def make_relaxed(self, value, label):
        index = len(self.relaxations)
        selector = T.bool_var(f"sel!{index}")
        self.relaxations.append((label, selector))
        if is_boolean_value(value):
            fresh = T.bool_var(f"angel!{index}")
            return wrap_bool(T.mk_ite(selector, bool_term(value), fresh))
        width = value.width if isinstance(value, SymInt) else default_int_width()
        fresh = T.bv_var(f"angel!{index}", width)
        original = value.term if isinstance(value, SymInt) \
            else T.bv_const(value, width)
        return wrap_int(T.mk_ite(selector, original, fresh))


def relax(value, label):
    """Make `value` relaxable in the active debug session, if any.

    Outside a debug session — or when the value does not satisfy the
    session's predicate, or is not a primitive — the value is returned
    unchanged, so instrumentation points cost nothing in normal runs.
    """
    if not _sessions:
        return value
    session = _sessions[-1]
    if not (is_boolean_value(value) or is_integer_value(value)):
        return value
    if not session.predicate(value):
        return value
    return session.make_relaxed(value, label)


def debug(thunk: Callable[[], object],
          predicate: Optional[Callable[[object], bool]] = None,
          budget: Optional[Budget] = None) -> QueryOutcome:
    """Localize the failure of `thunk` to a minimal core of expressions.

    Returns a ``sat`` outcome whose ``core`` lists the labels of a minimal
    set of relaxed expressions responsible for the failure; ``unsat`` means
    the thunk does not actually fail (nothing to debug).

    `budget` bounds the whole query. Core minimization is *anytime*: if
    the budget trips mid-minimization, the outcome is still ``sat`` with
    the smallest core proven so far, plus the trip's ``report`` and a
    message noting the core may not be minimal. Only an exhaustion during
    the *initial* check yields ``unknown``. Under ``REPRO_CERTIFY=1`` the
    minimized core is also re-proved unsat on a fresh solver before it is
    reported.
    """
    with tracing(), _query_span("query.debug") as span:
        span.outcome = outcome = _debug(thunk, predicate, budget)
        return outcome


def _debug(thunk, predicate, budget) -> QueryOutcome:
    if predicate is None:
        predicate = lambda value: True  # relax every primitive
    with VM() as vm, DebugSession(predicate) as session:
        vm.stats.start()
        try:
            thunk()
            definite_failure = False
        except AssertionFailure:
            definite_failure = True
        finally:
            vm.stats.stop()
        if definite_failure:
            return QueryOutcome(
                "unknown", stats=vm.stats,
                message="failure is independent of any relaxable expression")
        solver = SmtSolver(budget=budget)
        for assertion in vm.assertions:
            solver.add_assertion(assertion)
        selectors = [selector for _, selector in session.relaxations]
        label_of = {selector: label for label, selector in session.relaxations}
        result = _check(solver, vm, selectors)
        if result is SmtResult.SAT:
            return QueryOutcome("unsat", stats=vm.stats,
                                message="no assertion failure to debug")
        if result is SmtResult.UNKNOWN:
            return _unknown(vm, solver)
        # Deletion minimization runs many checks on the same persistent
        # solver, all charged to the query. minimize_core is anytime: on
        # budget exhaustion it returns the smallest core established so
        # far and leaves the trip report in solver.last_report.
        with _charged(solver, vm):
            core = solver.minimize_core()
        labels = [label_of[selector] for selector in core
                  if selector in label_of]
        outcome = QueryOutcome("sat", core=labels, stats=vm.stats)
        if solver.last_report is not None:
            outcome.report = solver.last_report
            outcome.message = ("core minimization stopped early "
                               f"({solver.last_report.reason}); "
                               "core is unsat but may not be minimal")
        return outcome
