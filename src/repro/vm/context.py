"""The symbolic virtual machine's evaluation context.

A :class:`VM` carries the paper's program state ⟨σ, π, α⟩ (Fig. 8):

- π, the **path condition** — a boolean term recording the branch decisions
  taken to reach the current point;
- α, the **assertion store** — boolean terms collected by ``assert`` (rule
  AS2) and by the dynamic type guards of lifted operations (rule CO1);
- σ is the host heap itself: mutable locations are :class:`~repro.sym.values.Box`
  and :class:`~repro.vm.mutable.Vector` objects, and the VM tracks writes to
  them in a log so that both branches of a conditional can run against the
  same heap and have their effects merged afterwards (rule IF1).

The central operation is :meth:`VM.guarded`, the n-way guarded evaluator.
``branch`` (two-way ``if``), union-procedure application (rule AP2) and
symbolic reflection (``for_all``) are all thin wrappers over it.

A module-level *current VM* makes the context implicit for SDSL code, like
Rosette's ambient assertion store; queries install a fresh VM for the
duration of the evaluation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import BUS
from repro.smt import terms as T
from repro.sym import ops
from repro.sym.merge import merge_many
from repro.sym.values import bool_term
from repro.vm.errors import AssertionFailure
from repro.vm.stats import EvalStats

_vm_stack: List["VM"] = []


def current() -> "VM":
    """The innermost active VM; a fresh ambient one if none is active."""
    if not _vm_stack:
        _vm_stack.append(VM())
    return _vm_stack[-1]


class VM:
    """One symbolic evaluation: path condition, assertions, write log."""

    def __init__(self):
        self.path: T.Term = T.TRUE
        self.assertions: List[T.Term] = []
        self.stats = EvalStats()
        # Write log: maps a location key to (container, key, saved value).
        # A stack of frames; each guarded alternative pushes a frame.
        self._log_frames: List[Dict[Tuple[int, object],
                                    Tuple[object, object, object]]] = []

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------

    def __enter__(self) -> "VM":
        _vm_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _vm_stack.pop()
        assert popped is self, "mismatched VM context nesting"

    # ------------------------------------------------------------------
    # Assertions (rules AS1/AS2)
    # ------------------------------------------------------------------

    def assert_(self, value, message: str = "assertion failed") -> None:
        """Assert a value on the current path.

        A concretely false assertion on a definite path (π = true) raises
        :class:`AssertionFailure`; otherwise ``π ⇒ value`` joins the
        assertion store.
        """
        truth = ops.truthy(value)
        term = bool_term(truth) if not isinstance(truth, bool) else \
            (T.TRUE if truth else T.FALSE)
        guarded = T.mk_implies(self.path, term)
        if guarded is T.FALSE:
            raise AssertionFailure(message)
        if guarded is not T.TRUE:
            self.assertions.append(guarded)

    def assert_term(self, term: T.Term, message: str = "assertion failed") -> None:
        """Assert a raw boolean term (used by lifted builtins, rule CO1)."""
        guarded = T.mk_implies(self.path, term)
        if guarded is T.FALSE:
            raise AssertionFailure(message)
        if guarded is not T.TRUE:
            self.assertions.append(guarded)

    # ------------------------------------------------------------------
    # Mutation log
    # ------------------------------------------------------------------

    def log_write(self, container, key, old_value) -> None:
        """Record the first write to a location within the current frame."""
        if not self._log_frames:
            return
        frame = self._log_frames[-1]
        loc = (id(container), key)
        if loc not in frame:
            frame[loc] = (container, key, old_value)

    def _push_frame(self) -> None:
        self._log_frames.append({})

    def _pop_frame(self) -> Dict[Tuple[int, object],
                                 Tuple[object, object, object]]:
        return self._log_frames.pop()

    @staticmethod
    def _read_loc(container, key):
        return container._sym_read(key)

    @staticmethod
    def _write_loc(container, key, value):
        container._sym_write_raw(key, value)

    # ------------------------------------------------------------------
    # Guarded evaluation (rules IF1 / AP2 and symbolic reflection)
    # ------------------------------------------------------------------

    def guarded(self, alternatives: Sequence[Tuple[object, Callable[[], object]]],
                assert_coverage: bool = False,
                failure_message: str = "all guarded paths failed",
                count_join: bool = True):
        """Evaluate guarded thunks against the same state and merge.

        `alternatives` is a sequence of ``(guard, thunk)`` pairs with
        pairwise-disjoint guards. Each feasible thunk runs with the path
        condition extended by its guard; heap writes are rolled back in
        between and merged at the end (the state merge of rule IF1). A
        thunk that raises :class:`AssertionFailure` contributes the
        constraint that its path is infeasible instead of a value.

        With ``assert_coverage`` the disjunction of the guards is asserted
        on the current path (the `bu` constraint of rule CO1).
        """
        saved_path = self.path
        # (guard, thunk, path condition of the alternative)
        feasible: List[Tuple[T.Term, Callable[[], object], T.Term]] = []
        for guard_value, thunk in alternatives:
            guard = guard_value if isinstance(guard_value, T.Term) \
                else bool_term(guard_value)
            extended = T.mk_and(saved_path, guard)
            if extended is not T.FALSE:
                feasible.append((guard, thunk, extended))
        if assert_coverage and feasible:
            self.assert_term(T.mk_or(*(g for g, _, _ in feasible)),
                             failure_message)
        if not feasible:
            raise AssertionFailure(failure_message)
        if len(feasible) == 1:
            _, thunk, self.path = feasible[0]
            try:
                return thunk()
            finally:
                self.path = saved_path
        # A genuine control-flow join.
        if count_join:
            self.stats.joins += 1
            if BUS.enabled:
                BUS.instant("vm.join", "vm", cardinality=len(feasible))
        results: List[Tuple[T.Term, object]] = []
        write_sets: List[Tuple[T.Term, Dict[Tuple[int, object], object]]] = []
        pre_values: Dict[Tuple[int, object], Tuple[object, object, object]] = {}
        for guard, thunk, extended in feasible:
            self.path = extended
            self._push_frame()
            failed = False
            try:
                value = thunk()
            except AssertionFailure:
                failed = True
                value = None
            finally:
                frame = self._pop_frame()
                # Capture post-state and roll back to the pre-state.
                writes: Dict[Tuple[int, object], object] = {}
                for loc, (container, key, old) in frame.items():
                    writes[loc] = self._read_loc(container, key)
                    self._write_loc(container, key, old)
                    if loc not in pre_values:
                        pre_values[loc] = (container, key, old)
                    # Propagate the save point to the enclosing frame.
                    self.log_write(container, key, old)
                self.path = saved_path
            if failed:
                self.assert_term(T.mk_not(guard), "infeasible path")
            else:
                results.append((guard, value))
                write_sets.append((guard, writes))
        if not results:
            raise AssertionFailure(failure_message)
        # Merge heap effects location by location.
        if pre_values and BUS.enabled:
            BUS.instant("vm.merge", "vm", locations=len(pre_values))
        for loc, (container, key, pre) in pre_values.items():
            entries: List[Tuple[T.Term, object]] = []
            covered = []
            for guard, writes in write_sets:
                if loc in writes:
                    entries.append((guard, writes[loc]))
                    covered.append(guard)
            uncovered = T.mk_not(T.mk_or(*covered))
            if uncovered is not T.FALSE:
                entries.append((uncovered, pre))
            self._write_loc(container, key, merge_many(entries))
        return merge_many(results)

    def branch(self, cond, then: Callable[[], object],
               alt: Optional[Callable[[], object]] = None):
        """The lifted ``if`` (rule IF1). `then`/`alt` are thunks."""
        truth = ops.truthy(cond)
        if isinstance(truth, bool):  # concrete condition: no join
            if truth:
                return then()
            return alt() if alt is not None else None
        guard = bool_term(truth)
        alternatives = [(guard, then)]
        alternatives.append((T.mk_not(guard),
                             alt if alt is not None else (lambda: None)))
        return self.guarded(alternatives)


# ---------------------------------------------------------------------------
# Module-level conveniences bound to the current VM
# ---------------------------------------------------------------------------

def assert_(value, message: str = "assertion failed") -> None:
    current().assert_(value, message)


def branch(cond, then: Callable[[], object],
           alt: Optional[Callable[[], object]] = None):
    return current().branch(cond, then, alt)
