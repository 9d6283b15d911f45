"""The solver-aided queries: solve, verify, and synthesize (§2.2, rule SQ1).

Each query evaluates a Python thunk under a fresh :class:`repro.vm.context.VM`.
The thunk builds symbolic values, branches through ``vm.branch``/lifted
builtins, and calls ``vm.assert_``; evaluation leaves behind the assertion
store α, and the query then asks the solver:

- ``solve``   — ∃ inputs. ⋀α          (angelic execution)
- ``verify``  — ∃ inputs. ⋁_{a∈α} ¬a   (find a counterexample)
- ``synthesize`` — ∃ holes. ∀ inputs. ⋀α, decided by CEGIS with
  formula-level substitution of counterexamples (no re-execution needed).

Queries return a :class:`~repro.queries.outcome.QueryOutcome` carrying the
model (or counterexample), the evaluation statistics (Table 4's columns),
and solver timing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterable, List, Optional, Sequence

from repro.obs import tracing
from repro.obs.events import BUS
from repro.smt import terms as T
from repro.smt.solver import SmtResult, SmtSolver
from repro.solver.budget import Budget
from repro.sym.values import SymBool, SymInt
from repro.vm.context import VM
from repro.vm.errors import AssertionFailure
from repro.queries.outcome import Model, QueryOutcome


def _run(thunk: Callable[[], object], vm: VM):
    """Evaluate the thunk under `vm`, returning (definitely_failed, value)."""
    vm.stats.start()
    try:
        value = thunk()
        return False, value
    except AssertionFailure:
        return True, None
    finally:
        vm.stats.stop()


def _check(solver: SmtSolver, vm: VM,
           assumptions: Sequence[T.Term] = ()) -> SmtResult:
    # The query's EvalStats listens on the event bus for the duration of
    # the check: SmtSolver.check publishes one `smt.check` span whose end
    # event carries the CheckStats delta, and that single emission path
    # feeds the stats here, the profiler, and any subscribed trace sinks
    # alike. try/finally: a check that raises mid-solve (cancellation
    # delivered as an exception, KeyboardInterrupt, encoder errors) must
    # still record its partial effort — SmtSolver.check emits the end
    # event from its own finally block, so the delta is never stale.
    started = time.perf_counter()
    unsubscribe = BUS.subscribe(vm.stats.check_listener)
    try:
        return solver.check(assumptions)
    finally:
        unsubscribe()
        vm.stats.solver_seconds += time.perf_counter() - started


@contextmanager
def _query_span(name: str):
    """A query-level span; set `outcome` on the yielded carrier to label
    the end event with the query's status."""
    traced = BUS.enabled
    carrier = _OutcomeCarrier()
    if traced:
        BUS.begin(name, "query")
    try:
        yield carrier
    finally:
        if traced:
            outcome = carrier.outcome
            BUS.end(name, "query",
                    status=outcome.status if outcome is not None else "error")


class _OutcomeCarrier:
    __slots__ = ("outcome",)

    def __init__(self):
        self.outcome: Optional[QueryOutcome] = None


def _unknown(vm: VM, solver: SmtSolver, message: str = "") -> QueryOutcome:
    """An UNKNOWN outcome carrying the solver's resource report."""
    report = solver.last_report
    if not message and report is not None:
        message = f"budget exhausted: {report.reason} ({report.phase} phase)"
    return QueryOutcome("unknown", stats=vm.stats, message=message,
                        report=report)


def solve(thunk: Callable[[], object],
          max_conflicts: Optional[int] = None,
          budget: Optional[Budget] = None,
          trace=None,
          certify: Optional[bool] = None,
          analyze: Optional[bool] = None) -> QueryOutcome:
    """Find an interpretation under which the thunk's assertions all hold.

    `budget` bounds the whole query (encoding and solving); on exhaustion
    the outcome is ``unknown`` with a populated ``report``.

    `trace` attaches an observability sink for the query's duration: a
    path writes JSONL trace events there, a callable is subscribed to the
    event bus directly, and ``None`` defers to the ``REPRO_TRACE``
    environment variable (no-op when unset).

    `certify` turns on trust-but-verify mode for the query's solver: a
    DRUP proof is logged and every answer is independently re-checked
    (see :mod:`repro.solver.certify`). ``None`` defers to the
    ``REPRO_CERTIFY`` environment variable.

    `analyze` turns on the pre-solver static-analysis sanitizer
    (:mod:`repro.analysis`): each asserted formula is rewritten through
    abstract interpretation before bit-blasting. ``None`` defers to the
    ``REPRO_ANALYZE`` environment variable.
    """
    with tracing(trace), _query_span("query.solve") as span:
        span.outcome = outcome = _solve(thunk, max_conflicts, budget,
                                        certify, analyze)
        return outcome


def _solve(thunk, max_conflicts, budget, certify, analyze) -> QueryOutcome:
    with VM() as vm:
        failed, _ = _run(thunk, vm)
        if failed:
            return QueryOutcome("unsat", stats=vm.stats,
                                message="execution fails on every path")
        solver = SmtSolver(max_conflicts=max_conflicts, budget=budget,
                           certify=certify, analyze=analyze)
        for assertion in vm.assertions:
            solver.add_assertion(assertion)
        result = _check(solver, vm)
        if result is SmtResult.SAT:
            return QueryOutcome("sat", model=Model(solver.model()),
                                stats=vm.stats)
        if result is SmtResult.UNKNOWN:
            return _unknown(vm, solver)
        return QueryOutcome("unsat", stats=vm.stats)


def verify(thunk: Callable[[], object],
           setup: Optional[Callable[[], object]] = None,
           max_conflicts: Optional[int] = None,
           budget: Optional[Budget] = None,
           trace=None,
           certify: Optional[bool] = None,
           analyze: Optional[bool] = None) -> QueryOutcome:
    """Find a counterexample: an interpretation violating some assertion.

    Assertions made by `setup` (and, in Rosette, any assertions made before
    the ``verify`` call) are *assumptions* — preconditions the inputs must
    satisfy; assertions made by `thunk` are the verification targets. A
    `sat` outcome means the property FAILS (the model is the
    counterexample); `unsat` means the assertions hold for every input —
    the paper's "no counterexample found". `trace`, `certify`, and
    `analyze` are as in :func:`solve`.
    """
    with tracing(trace), _query_span("query.verify") as span:
        span.outcome = outcome = _verify(thunk, setup, max_conflicts,
                                         budget, certify, analyze)
        return outcome


def _verify(thunk, setup, max_conflicts, budget, certify,
            analyze) -> QueryOutcome:
    with VM() as vm:
        if setup is not None:
            setup_failed, _ = _run(setup, vm)
            if setup_failed:
                return QueryOutcome("unsat", stats=vm.stats,
                                    message="preconditions are unsatisfiable")
        assumptions = list(vm.assertions)
        mark = len(assumptions)
        failed, _ = _run(thunk, vm)
        if failed:
            # Execution fails unconditionally: every input is a witness.
            return QueryOutcome("sat", model=Model(_empty_model()),
                                stats=vm.stats,
                                message="definite assertion failure")
        targets = vm.assertions[mark:]
        if not targets:
            return QueryOutcome("unsat", stats=vm.stats,
                                message="no assertions reachable")
        solver = SmtSolver(max_conflicts=max_conflicts, budget=budget,
                           certify=certify, analyze=analyze)
        for assumption in assumptions:
            solver.add_assertion(assumption)
        solver.add_assertion(T.mk_or(*[T.mk_not(a) for a in targets]))
        result = _check(solver, vm)
        if result is SmtResult.SAT:
            return QueryOutcome("sat", model=Model(solver.model()),
                                stats=vm.stats)
        if result is SmtResult.UNKNOWN:
            return _unknown(vm, solver)
        return QueryOutcome("unsat", stats=vm.stats)


def _empty_model():
    from repro.smt.solver import Model as SmtModel
    return SmtModel({})


def _input_terms(inputs: Iterable) -> List[T.Term]:
    terms = []
    for value in inputs:
        if isinstance(value, (SymBool, SymInt)):
            terms.append(value.term)
        elif isinstance(value, T.Term):
            terms.append(value)
        else:
            raise TypeError(
                f"synthesis inputs must be symbolic constants: {value!r}")
    return terms


def cegis(goal: T.Term, input_terms: Sequence[T.Term], vm: VM,
          max_iterations: int = 64,
          max_conflicts: Optional[int] = None,
          budget: Optional[Budget] = None,
          iteration_budget: Optional[dict] = None,
          certify: Optional[bool] = None,
          analyze: Optional[bool] = None) -> QueryOutcome:
    """Counterexample-guided inductive synthesis of ∃holes ∀inputs. goal.

    Counterexamples are *substituted* into the goal formula — the term
    layer re-simplifies bottom-up, so each example formula is typically
    much smaller than the symbolic goal and no program re-execution is
    needed.

    Both sides of the loop solve *incrementally* on persistent solvers:

    - The guess solver accumulates one assertion per counterexample; each
      new example is bit-blasted once and the SAT solver's learned clauses
      about the hole variables carry over to every later guess.
    - The check solver tests each candidate inside a ``push``/``pop``
      scope, so candidate constraints retract without discarding the
      shared Tseitin gates or clauses learned while refuting earlier
      candidates. Terms shared between iterations (the interned term DAG
      guarantees structural sharing) hit the encode cache instead of
      being re-blasted.

    Resource governance: `budget` caps the *whole* CEGIS run (both
    solvers charge the same budget), while `iteration_budget` — a dict of
    :class:`Budget` keyword arguments like ``{"conflicts": 10_000}`` — is
    re-minted as a child budget each iteration, so one pathological guess
    or check cannot consume the entire allowance. CEGIS is an *anytime*
    query: on exhaustion it returns ``unknown`` carrying the last
    candidate that satisfied all examples so far as a best-effort model.
    """
    # Ordered, so examples and holes follow the caller's order.
    inputs = dict.fromkeys(input_terms)
    hole_terms = [var for var in T.term_vars(goal) if var not in inputs]
    examples: List[dict] = [{var: _default_value(var) for var in inputs}]
    guess_solver = SmtSolver(max_conflicts=max_conflicts, budget=budget,
                             certify=certify, analyze=analyze)
    check_solver = SmtSolver(max_conflicts=max_conflicts, budget=budget,
                             certify=certify, analyze=analyze)

    def _exhausted(solver: SmtSolver, phase: str) -> QueryOutcome:
        outcome = _unknown(vm, solver)
        outcome.message = (
            f"cegis stopped in the {phase} phase of iteration {iterations}"
            + (f": {outcome.message}" if outcome.message else ""))
        if best_candidate is not None:
            outcome.model = Model(best_candidate)
            outcome.message += (
                f"; best candidate satisfies {best_examples} example(s)")
        return outcome

    best_candidate = None
    best_examples = 0
    examples_asserted = 0
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        traced = BUS.enabled
        if traced:
            BUS.begin("cegis.iteration", "query",
                      iteration=iterations, examples=len(examples))
        iteration_outcome = "unknown"
        try:
            if iteration_budget is not None:
                scoped = Budget(parent=budget, **iteration_budget)
                guess_solver.set_budget(scoped)
                check_solver.set_budget(scoped)
            # Guess: find hole values consistent with all examples so far.
            # Only examples discovered since the last guess need encoding.
            while examples_asserted < len(examples):
                example = examples[examples_asserted]
                examples_asserted += 1
                bound = T.substitute(goal, {
                    var: _const_for(var, value)
                    for var, value in example.items()})
                guess_solver.add_assertion(bound)
            guess_result = _check(guess_solver, vm)
            if guess_result is SmtResult.UNKNOWN:
                return _exhausted(guess_solver, "guess")
            if guess_result is not SmtResult.SAT:
                iteration_outcome = "no-candidate"
                return QueryOutcome(
                    "unsat", stats=vm.stats,
                    message=f"no candidate after {len(examples)} example(s)")
            candidate = guess_solver.model(hole_terms)
            best_candidate = candidate
            best_examples = len(examples)

            # Check: does the candidate work for every input? The candidate
            # binding lives in a scope so the next iteration can retract it.
            checked = T.substitute(goal, {
                var: _const_for(var, candidate[var]) for var in hole_terms})
            check_solver.push()
            try:
                check_solver.add_assertion(T.mk_not(checked))
                check_result = _check(check_solver, vm)
                if check_result is SmtResult.SAT:
                    counterexample = check_solver.model(list(inputs))
            finally:
                check_solver.pop()
            if check_result is SmtResult.UNKNOWN:
                return _exhausted(check_solver, "check")
            if check_result is not SmtResult.SAT:
                iteration_outcome = "converged"
                outcome = QueryOutcome("sat", model=Model(candidate),
                                       stats=vm.stats)
                outcome.message = \
                    f"cegis converged in {iterations} iteration(s)"
                return outcome
            iteration_outcome = "counterexample"
            examples.append({var: counterexample[var] for var in inputs})
        finally:
            if traced:
                BUS.end("cegis.iteration", "query", outcome=iteration_outcome)
    outcome = QueryOutcome(
        "unknown", stats=vm.stats,
        message=f"cegis hit the {max_iterations}-iteration cap")
    if best_candidate is not None:
        outcome.model = Model(best_candidate)
    return outcome


def synthesize(inputs: Sequence, thunk: Callable[[], object],
               setup: Optional[Callable[[], object]] = None,
               max_iterations: int = 64,
               max_conflicts: Optional[int] = None,
               budget: Optional[Budget] = None,
               iteration_budget: Optional[dict] = None,
               trace=None,
               certify: Optional[bool] = None,
               analyze: Optional[bool] = None) -> QueryOutcome:
    """CEGIS synthesis: make the assertions hold for *all* `inputs`.

    `inputs` are the universally quantified symbolic constants (the paper's
    ``(synthesize [input] expr)`` form); every other symbolic constant in
    the assertions is an existentially quantified hole. Assertions made by
    `setup` are input preconditions: the goal is ∀inputs. pre ⇒ post.
    See :func:`cegis` for the `budget`/`iteration_budget` semantics and
    :func:`solve` for `trace`, `certify`, and `analyze`.
    """
    with tracing(trace), _query_span("query.synthesize") as span:
        span.outcome = outcome = _synthesize(
            inputs, thunk, setup, max_iterations, max_conflicts, budget,
            iteration_budget, certify, analyze)
        return outcome


def _synthesize(inputs, thunk, setup, max_iterations, max_conflicts,
                budget, iteration_budget, certify, analyze) -> QueryOutcome:
    with VM() as vm:
        if setup is not None:
            setup_failed, _ = _run(setup, vm)
            if setup_failed:
                return QueryOutcome("unsat", stats=vm.stats,
                                    message="preconditions are unsatisfiable")
        assumptions = list(vm.assertions)
        mark = len(assumptions)
        failed, _ = _run(thunk, vm)
        if failed:
            return QueryOutcome("unsat", stats=vm.stats,
                                message="execution fails on every path")
        targets = vm.assertions[mark:]
        pre = T.mk_and(*assumptions) if assumptions else T.TRUE
        post = T.mk_and(*targets) if targets else T.TRUE
        goal = T.mk_implies(pre, post)
        return cegis(goal, _input_terms(inputs), vm,
                     max_iterations=max_iterations,
                     max_conflicts=max_conflicts,
                     budget=budget,
                     iteration_budget=iteration_budget,
                     certify=certify,
                     analyze=analyze)


def _default_value(var: T.Term):
    return False if var.sort is T.BOOL else 0


def _const_for(var: T.Term, value) -> T.Term:
    if var.sort is T.BOOL:
        return T.TRUE if value else T.FALSE
    return T.bv_const(int(value), var.width)
