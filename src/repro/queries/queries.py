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

Each query is two steps. The host step evaluates the program and splits
the store into assumptions and targets; the decision step (``_decide_*``)
builds the formula, asks the solver, charges its effort to ``vm.stats``
and returns the outcome. The HL special forms (:mod:`repro.lang.interp`)
and the BMC baseline (``merge_strategy("logical")`` around these very
functions) share the decision steps, so every host answers and accounts
alike.

The only solver configuration a query takes as an argument is its
resource limits: ``budget`` (and CEGIS's per-iteration caps). The
deployment switches are environment variables read where they act:
``REPRO_CERTIFY`` and ``REPRO_ANALYZE`` by
:class:`~repro.smt.solver.SmtSolver`, ``REPRO_TRACE`` by
:func:`repro.obs.tracing`. To trace one call, wrap it in
``with tracing(sink):``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterable, List, Optional, Sequence

from repro.obs import tracing
from repro.obs.events import BUS
from repro.smt import terms as T
from repro.smt.solver import Model as SmtModel, SmtResult, SmtSolver
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


@contextmanager
def _charged(solver: SmtSolver, vm: VM):
    """Charge the solver work of the ``with`` block to ``vm.stats``.

    The block's wall time goes to ``solver_seconds`` and the growth of
    ``solver.cumulative`` to the effort counters, so every check the block
    makes counts, the probes of ``minimize_core`` included. A check that
    raises mid-solve still counts: ``SmtSolver.check`` records its delta
    in its own ``finally`` block.
    """
    before = solver.cumulative.copy()
    started = time.perf_counter()
    try:
        yield
    finally:
        vm.stats.solver_seconds += time.perf_counter() - started
        vm.stats.record_check(solver.cumulative - before)


def _check(solver: SmtSolver, vm: VM,
           assumptions: Sequence[T.Term] = ()) -> SmtResult:
    with _charged(solver, vm):
        return solver.check(assumptions)


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


def _decided(vm: VM, assertions: Sequence[T.Term],
             budget: Optional[Budget]) -> QueryOutcome:
    """Decide the conjunction of `assertions` on a fresh solver, charging
    `vm.stats`; a model is the answer."""
    solver = SmtSolver(budget=budget)
    for assertion in assertions:
        solver.add_assertion(assertion)
    result = _check(solver, vm)
    if result is SmtResult.SAT:
        return QueryOutcome("sat", model=Model(solver.model()),
                            stats=vm.stats)
    if result is SmtResult.UNKNOWN:
        return _unknown(vm, solver)
    return QueryOutcome("unsat", stats=vm.stats)


def _decide_solve(vm: VM, failed: bool, assertions: Sequence[T.Term],
                  budget: Optional[Budget] = None) -> QueryOutcome:
    """The decision step of ``solve``: a model of all `assertions`.

    `failed` says the evaluation that produced them failed definitely.
    """
    if failed:
        return QueryOutcome("unsat", stats=vm.stats,
                            message="execution fails on every path")
    return _decided(vm, assertions, budget)


def _decide_verify(vm: VM, failed: bool, assumptions: Sequence[T.Term],
                   targets: Sequence[T.Term],
                   budget: Optional[Budget] = None) -> QueryOutcome:
    """The decision step of ``verify``: an interpretation satisfying the
    `assumptions` and violating some of the `targets`."""
    if failed:
        # Execution fails unconditionally: every input is a witness.
        return QueryOutcome("sat", model=Model(SmtModel({})),
                            stats=vm.stats,
                            message="definite assertion failure")
    if not targets:
        return QueryOutcome("unsat", stats=vm.stats,
                            message="no assertions reachable")
    violated = T.mk_or(*[T.mk_not(a) for a in targets])
    return _decided(vm, [*assumptions, violated], budget)


def _decide_synthesize(vm: VM, failed: bool, assumptions: Sequence[T.Term],
                       targets: Sequence[T.Term],
                       input_terms: Sequence[T.Term],
                       max_iterations: int = 64,
                       budget: Optional[Budget] = None,
                       iteration_budget: Optional[dict] = None
                       ) -> QueryOutcome:
    """The decision step of ``synthesize``: CEGIS on
    ∃holes ∀inputs. ⋀assumptions ⇒ ⋀targets."""
    if failed:
        return QueryOutcome("unsat", stats=vm.stats,
                            message="execution fails on every path")
    pre = T.mk_and(*assumptions) if assumptions else T.TRUE
    post = T.mk_and(*targets) if targets else T.TRUE
    return cegis(T.mk_implies(pre, post), input_terms, vm,
                 max_iterations=max_iterations, budget=budget,
                 iteration_budget=iteration_budget)


def _run_setup(setup: Optional[Callable[[], object]], vm: VM) -> bool:
    """Evaluate an optional precondition thunk; True if it fails."""
    return setup is not None and _run(setup, vm)[0]


def solve(thunk: Callable[[], object],
          budget: Optional[Budget] = None) -> QueryOutcome:
    """Find an interpretation under which the thunk's assertions all hold.

    `budget` bounds the whole query (encoding and solving); on exhaustion
    the outcome is ``unknown`` with a populated ``report``.
    """
    with tracing(), _query_span("query.solve") as span, VM() as vm:
        failed, _ = _run(thunk, vm)
        span.outcome = outcome = _decide_solve(vm, failed, vm.assertions,
                                               budget)
        return outcome


def verify(thunk: Callable[[], object],
           setup: Optional[Callable[[], object]] = None,
           budget: Optional[Budget] = None) -> QueryOutcome:
    """Find a counterexample: an interpretation violating some assertion.

    Assertions made by `setup` (and, in Rosette, any assertions made before
    the ``verify`` call) are *assumptions* — preconditions the inputs must
    satisfy; assertions made by `thunk` are the verification targets. A
    `sat` outcome means the property FAILS (the model is the
    counterexample); `unsat` means the assertions hold for every input —
    the paper's "no counterexample found". `budget` is as in :func:`solve`.
    """
    with tracing(), _query_span("query.verify") as span, VM() as vm:
        if _run_setup(setup, vm):
            outcome = QueryOutcome("unsat", stats=vm.stats,
                                   message="preconditions are unsatisfiable")
        else:
            mark = len(vm.assertions)
            failed, _ = _run(thunk, vm)
            outcome = _decide_verify(vm, failed, vm.assertions[:mark],
                                     vm.assertions[mark:], budget)
        span.outcome = outcome
        return outcome


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
          budget: Optional[Budget] = None,
          iteration_budget: Optional[dict] = None) -> QueryOutcome:
    """Counterexample-guided inductive synthesis of ∃holes ∀inputs. goal.

    Counterexamples are *substituted* into the goal formula — the term
    layer re-simplifies bottom-up, so each example formula is typically
    much smaller than the symbolic goal and no program re-execution is
    needed.

    The guess solver is persistent and incremental: it accumulates one
    assertion per counterexample, each new example is bit-blasted once,
    and the SAT solver's learned clauses about the hole variables carry
    over to every later guess. Each candidate is checked on a fresh
    one-shot solver that asserts only the negated, candidate-substituted
    goal. Substitution folds the candidate into the program, so this
    formula shares little with earlier candidates' formulas; a persistent
    check solver would keep every refuted candidate's gates live in the
    search for no encode-cache reuse.

    Resource governance: `budget` caps the *whole* CEGIS run (the guess
    solver and every check solver charge it), while `iteration_budget` —
    a dict of :class:`Budget` keyword arguments like
    ``{"conflicts": 10_000}`` — is re-minted as a child budget each
    iteration and given to that iteration's guess and check, so one
    pathological guess or check cannot consume the entire allowance.
    CEGIS is an *anytime* query: on exhaustion it returns ``unknown``
    carrying the last candidate that satisfied all examples so far as a
    best-effort model.
    """
    # Ordered, so examples and holes follow the caller's order.
    inputs = dict.fromkeys(input_terms)
    hole_terms = [var for var in T.term_vars(goal) if var not in inputs]
    examples: List[dict] = [{var: _default_value(var) for var in inputs}]
    guess_solver = SmtSolver(budget=budget)

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
            scoped = budget
            if iteration_budget is not None:
                scoped = Budget(parent=budget, **iteration_budget)
                guess_solver.set_budget(scoped)
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

            # Check: does the candidate work for every input?
            checked = T.substitute(goal, {
                var: _const_for(var, candidate[var]) for var in hole_terms})
            check_solver = SmtSolver(budget=scoped)
            check_solver.add_assertion(T.mk_not(checked))
            check_result = _check(check_solver, vm)
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
            counterexample = check_solver.model(list(inputs))
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
               budget: Optional[Budget] = None,
               iteration_budget: Optional[dict] = None) -> QueryOutcome:
    """CEGIS synthesis: make the assertions hold for *all* `inputs`.

    `inputs` are the universally quantified symbolic constants (the paper's
    ``(synthesize [input] expr)`` form); every other symbolic constant in
    the assertions is an existentially quantified hole. Assertions made by
    `setup` are input preconditions: the goal is ∀inputs. pre ⇒ post.
    See :func:`cegis` for the `budget`/`iteration_budget` semantics.
    """
    with tracing(), _query_span("query.synthesize") as span, VM() as vm:
        if _run_setup(setup, vm):
            outcome = QueryOutcome("unsat", stats=vm.stats,
                                   message="preconditions are unsatisfiable")
        else:
            mark = len(vm.assertions)
            failed, _ = _run(thunk, vm)
            outcome = _decide_synthesize(
                vm, failed, vm.assertions[:mark], vm.assertions[mark:],
                _input_terms(inputs), max_iterations, budget,
                iteration_budget)
        span.outcome = outcome
        return outcome


def _default_value(var: T.Term):
    return False if var.sort is T.BOOL else 0


def _const_for(var: T.Term, value) -> T.Term:
    if var.sort is T.BOOL:
        return T.TRUE if value else T.FALSE
    return T.bv_const(int(value), var.width)
