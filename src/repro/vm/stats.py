"""Evaluation statistics: the measurements behind Table 4 and Figure 10.

The paper instruments the SVM to report, per benchmark, the number of
control-flow joins, the number of symbolic unions created, the sum of their
cardinalities, the maximum cardinality, and evaluation/solving times. This
module holds those counters; union counts are sourced from the counter
embedded in :mod:`repro.sym.values` so that unions created outside an active
VM are also visible.

Queries additionally charge their solvers' effort here (see
:meth:`EvalStats.record_check`): SAT conflicts/decisions/propagations,
clauses learned, and bit-blasting encode-cache hits/misses. These are the
measurements that make incremental-solving wins visible — an iterative
query that reuses its solver shows encode-cache hits instead of repeated
misses, and falling per-check conflict counts as learned clauses accumulate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from repro.sym.values import UNION_COUNTERS

#: The EvalStats counter each CheckStats field (repro.smt.solver) adds to.
#: A check's own ``seconds`` has none: queries time the whole solver call,
#: certification included, into ``solver_seconds``.
_FROM_CHECK = {
    "checks": "solver_checks",
    "conflicts": "solver_conflicts",
    "decisions": "solver_decisions",
    "propagations": "solver_propagations",
    "learned": "solver_learned",
    "encode_hits": "encode_cache_hits",
    "encode_misses": "encode_cache_misses",
    "seconds": None,
    "tripped": "budget_trips",
    "certified": "certified_checks",
    "sanitize_rewrites": "sanitize_rewrites",
}


@dataclass
class EvalStats:
    """Counters gathered during one symbolic evaluation."""

    joins: int = 0
    unions_created: int = 0
    union_cardinality_sum: int = 0
    max_union_cardinality: int = 0
    svm_seconds: float = 0.0
    solver_seconds: float = 0.0
    # Solver-effort counters, accumulated from CheckStats deltas by
    # record_check.
    solver_checks: int = 0
    solver_conflicts: int = 0
    solver_decisions: int = 0
    solver_propagations: int = 0
    solver_learned: int = 0
    encode_cache_hits: int = 0
    encode_cache_misses: int = 0
    budget_trips: int = 0
    certified_checks: int = 0
    sanitize_rewrites: int = 0
    _union_base: tuple = field(default=(0, 0), repr=False)
    _max_base: int = field(default=0, repr=False)
    _start: float = field(default=0.0, repr=False)

    def start(self) -> None:
        self._union_base = (UNION_COUNTERS.created,
                            UNION_COUNTERS.cardinality_sum)
        # The global max is windowed: save the surrounding evaluation's
        # peak and zero the counter so this window measures only its own
        # unions. stop() restores the combined peak, so nested/interleaved
        # evaluations (a query run from inside another evaluation) do not
        # clobber the outer window's `max` column.
        self._max_base = UNION_COUNTERS.max_cardinality
        UNION_COUNTERS.max_cardinality = 0
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.svm_seconds += time.perf_counter() - self._start
        base_created, base_sum = self._union_base
        self.unions_created += UNION_COUNTERS.created - base_created
        self.union_cardinality_sum += \
            UNION_COUNTERS.cardinality_sum - base_sum
        observed = UNION_COUNTERS.max_cardinality
        self.max_union_cardinality = max(self.max_union_cardinality, observed)
        UNION_COUNTERS.max_cardinality = max(self._max_base, observed)

    def record_check(self, delta) -> None:
        """Add a :class:`repro.smt.solver.CheckStats` delta to the counters.

        The delta's fields are read through :func:`dataclasses.fields`, so
        this module stays below the SMT layer in the import graph, and a
        CheckStats field missing from ``_FROM_CHECK`` fails loudly here.
        """
        for item in fields(delta):
            target = _FROM_CHECK[item.name]
            if target is not None:
                setattr(self, target,
                        getattr(self, target) + getattr(delta, item.name))

    def add(self, other: "EvalStats") -> None:
        """Fold another evaluation's counters into these ones.

        Every counter is summed except the union peak, which is a max.
        """
        for item in fields(self):
            name = item.name
            if name.startswith("_"):
                continue   # the open window's bookkeeping, not a counter
            mine, theirs = getattr(self, name), getattr(other, name)
            setattr(self, name, max(mine, theirs)
                    if name == "max_union_cardinality" else mine + theirs)

    def row(self) -> dict:
        """A Table 4-shaped row."""
        return {
            "joins": self.joins,
            "count": self.unions_created,
            "sum": self.union_cardinality_sum,
            "max": self.max_union_cardinality,
            "svm_sec": self.svm_seconds,
            "solver_sec": self.solver_seconds,
        }

    def solver_row(self) -> dict:
        """Per-query solver-effort summary (incremental-solving telemetry)."""
        return {
            "checks": self.solver_checks,
            "conflicts": self.solver_conflicts,
            "decisions": self.solver_decisions,
            "propagations": self.solver_propagations,
            "learned": self.solver_learned,
            "encode_hits": self.encode_cache_hits,
            "encode_misses": self.encode_cache_misses,
            "budget_trips": self.budget_trips,
            "certified_checks": self.certified_checks,
            "sanitize_rewrites": self.sanitize_rewrites,
        }
