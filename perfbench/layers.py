"""Per-layer timing from outside the program: wrappers on public entry points.

:class:`LayerClock` keeps a stack of open spans and charges every instant
of a traced list to the layer on top of the stack, so a layer's *self
time* is its spans' duration minus their children's, and the self times
of all layers add up to the list's wall time by construction.

:func:`install` wraps, for the duration of a ``with`` block, the public
entry points of each layer (entry point -> layer):

- ``EvalStats.start``/``stop`` -> ``svm``: the window that
  ``EvalStats.svm_seconds`` measures, i.e. VM evaluation;
- ``repro.smt.terms.substitute`` -> ``substitute``: CEGIS folding;
- ``SmtSolver.add_assertion`` -> ``encode``: bit-blasting;
- ``repro.smt.solver.sanitize_assertion`` -> ``sanitize``: the analysis
  pass that ``REPRO_ANALYZE`` turns on;
- ``SatSolver.solve`` -> ``sat``: CDCL search;
- ``SmtSolver.check`` -> ``certify`` when the solver certifies (its self
  time is proof and model checking), else ``query`` (bookkeeping);
- the benchmark's own span around each query -> ``query``: the driver
  call minus all of the above.

Spans are kept in memory and returned by :meth:`LayerClock.spans` for the
caller to write out once, after the list.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

from repro.smt import solver as smt_solver
from repro.smt import terms as T
from repro.smt.solver import SmtSolver
from repro.solver.sat import SatSolver
from repro.vm.stats import EvalStats

LAYERS = ("query", "svm", "substitute", "encode", "sanitize", "sat",
          "certify")


class LayerClock:
    """Self time per layer over a stack of nested spans."""

    def __init__(self):
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.cnf_clauses = 0
        self.cnf_vars = 0
        self.live_terms = 0
        self._stack: List[Tuple[str, int]] = []   # (layer, span index)
        self._spans: List[list] = []              # [layer, start, end, parent]
        self._last = 0.0

    def enter(self, layer: str) -> None:
        now = time.perf_counter()
        if self._stack:
            self.self_s[self._stack[-1][0]] += now - self._last
        parent = self._stack[-1][1] if self._stack else -1
        self._stack.append((layer, len(self._spans)))
        self._spans.append([layer, now, None, parent])
        self.calls[layer] += 1
        self._last = now

    def exit(self) -> None:
        now = time.perf_counter()
        layer, index = self._stack.pop()
        self.self_s[layer] += now - self._last
        self._spans[index][2] = now
        self._last = now

    @contextmanager
    def span(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def spans(self) -> List[dict]:
        origin = self._spans[0][1] if self._spans else 0.0
        return [{"layer": layer, "start_s": start - origin,
                 "end_s": end - origin, "parent": parent}
                for layer, start, end, parent in self._spans]


def _timed(clock: LayerClock, layer: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        clock.enter(layer)
        try:
            return function(*args, **kwargs)
        finally:
            clock.exit()
    return wrapper


def _cnf_size(solver: SmtSolver) -> Tuple[int, int]:
    # SatSolver exposes no public variable count; `_num_vars` is what
    # new_var() hands out.
    sat = solver.sat
    return sat.num_clauses, getattr(sat, "_num_vars", 0)


@contextmanager
def install(clock: LayerClock):
    """Wrap every layer's entry points so `clock` sees their spans."""
    originals = [
        (EvalStats, "start", EvalStats.start),
        (EvalStats, "stop", EvalStats.stop),
        (T, "substitute", T.substitute),
        (SmtSolver, "add_assertion", SmtSolver.add_assertion),
        (smt_solver, "sanitize_assertion", smt_solver.sanitize_assertion),
        (SatSolver, "solve", SatSolver.solve),
        (SmtSolver, "check", SmtSolver.check),
    ]
    start, stop, check = EvalStats.start, EvalStats.stop, SmtSolver.check

    @functools.wraps(start)
    def svm_start(self):
        clock.enter("svm")
        start(self)

    @functools.wraps(stop)
    def svm_stop(self):
        try:
            stop(self)
            clock.live_terms = max(clock.live_terms, T.num_interned_terms())
        finally:
            clock.exit()

    @functools.wraps(check)
    def timed_check(self, *args, **kwargs):
        clauses, variables = _cnf_size(self)
        clock.cnf_clauses += clauses
        clock.cnf_vars += variables
        clock.enter("certify" if getattr(self, "certify", False) else "query")
        try:
            return check(self, *args, **kwargs)
        finally:
            clock.exit()

    EvalStats.start = svm_start
    EvalStats.stop = svm_stop
    T.substitute = _timed(clock, "substitute", T.substitute)
    SmtSolver.add_assertion = _timed(clock, "encode", SmtSolver.add_assertion)
    smt_solver.sanitize_assertion = _timed(
        clock, "sanitize", smt_solver.sanitize_assertion)
    SatSolver.solve = _timed(clock, "sat", SatSolver.solve)
    SmtSolver.check = timed_check
    try:
        yield clock
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


@contextmanager
def count_cnf(clock: LayerClock):
    """Only the CNF-size counter of :func:`install`, for untraced runs:
    one attribute read per solver check, no timing."""
    check = SmtSolver.check

    @functools.wraps(check)
    def counted_check(self, *args, **kwargs):
        clauses, variables = _cnf_size(self)
        clock.cnf_clauses += clauses
        clock.cnf_vars += variables
        return check(self, *args, **kwargs)

    SmtSolver.check = counted_check
    try:
        yield clock
    finally:
        SmtSolver.check = check
