"""Resource governance for the solving stack: budgets and cancellation.

SAT runtime is notoriously unpredictable, and a query that hangs on an
adversarial formula hangs the whole process. This module provides the
cooperative *resource governor* threaded through every solving layer:

- :class:`Budget` bundles the limits one query is allowed to spend — a
  wall-clock deadline, a conflict cap, a propagation cap, and a
  learned-clause ceiling (the memory proxy of a CDCL solver) — plus an
  optional :class:`CancellationToken` for external cancellation.
- The :class:`~repro.solver.sat.SatSolver` charges the budget inside its
  conflict/decision loops; the :class:`~repro.smt.bitblast.BitBlaster`
  checks it while encoding (a big multiplier can be expensive before the
  first conflict ever happens). Both give up *cooperatively*: the SAT
  search returns ``UNKNOWN``, the encoder raises :class:`BudgetExhausted`.
- When a limit trips, :class:`ResourceReport` says which limit it was and
  what was spent, so an ``UNKNOWN`` answer is observable rather than a
  shrug. Reports surface on :attr:`repro.smt.solver.SmtSolver.last_report`
  and :attr:`repro.queries.outcome.QueryOutcome.report`.

Budgets *chain*: ``Budget(conflicts=100, parent=total)`` charges both
itself and ``total`` and trips when either is exceeded. This is how CEGIS
enforces a per-iteration budget inside a whole-query budget.

All charging is in-band and deterministic except the deadline, so tests
pin UNKNOWN paths with conflict caps and production callers use ``ms``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Reasons a budget can trip (ResourceReport.reason).
REASON_CANCELLED = "cancelled"
REASON_DEADLINE = "deadline"
REASON_CONFLICTS = "conflicts"
REASON_PROPAGATIONS = "propagations"
REASON_LEARNED = "learned"


class CancellationToken:
    """A cooperative cancellation flag shared with the issuing caller.

    The owner calls :meth:`cancel` (e.g. from a signal handler or another
    thread — setting a bool is atomic under the GIL); every budget holding
    the token then trips with reason ``"cancelled"`` at its next
    checkpoint.
    """

    __slots__ = ("_cancelled",)

    def __init__(self):
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "live"
        return f"CancellationToken({state})"


@dataclass
class ResourceReport:
    """What a tripped budget was doing when it gave up.

    ``reason`` is one of the ``REASON_*`` constants; ``phase`` says which
    layer noticed (``"encode"`` for bit-blasting, ``"search"`` for the SAT
    loop). The spend counters are the budget's cumulative consumption — for
    a chained budget, the *child's* numbers (the limit that tripped).
    """

    reason: str
    phase: str
    elapsed_seconds: float
    conflicts: int
    propagations: int
    learned: int
    limits: Dict[str, object] = field(default_factory=dict)

    def row(self) -> dict:
        """A flat machine-readable rendering (benchmark JSON rows)."""
        return {
            "reason": self.reason,
            "phase": self.phase,
            "elapsed_seconds": self.elapsed_seconds,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "learned": self.learned,
            "limits": dict(self.limits),
        }


class BudgetExhausted(Exception):
    """Raised by encoding-side checkpoints when their budget trips.

    The SAT search never raises this — it returns ``SatResult.UNKNOWN`` so
    partially-learned state survives. Encoding has no partial result worth
    keeping, so it unwinds with the report attached.
    """

    def __init__(self, report: ResourceReport):
        super().__init__(f"budget exhausted: {report.reason} "
                         f"({report.phase} phase)")
        self.report = report


class Budget:
    """A chargeable bundle of resource limits for one query (or check).

    Any subset of the limits may be set; an all-``None`` budget never
    trips on spend but still honours its token and parent. The clock
    starts at the first :meth:`start` call (re-entrant: later calls are
    no-ops), so a budget created up front only starts paying for wall
    time once solving begins.

    ``parent`` chains budgets: charges cascade upward, and
    :meth:`exceeded` consults the whole chain. Use :meth:`child` for a
    scoped sub-budget (CEGIS iterations, per-check caps inside a query
    deadline).
    """

    __slots__ = ("limit_ms", "limit_conflicts", "limit_propagations",
                 "limit_learned", "token", "parent",
                 "spent_conflicts", "spent_propagations", "spent_learned",
                 "_t0", "_deadline")

    def __init__(self, ms: Optional[float] = None,
                 conflicts: Optional[int] = None,
                 propagations: Optional[int] = None,
                 learned: Optional[int] = None,
                 token: Optional[CancellationToken] = None,
                 parent: Optional["Budget"] = None):
        self.limit_ms = ms
        self.limit_conflicts = conflicts
        self.limit_propagations = propagations
        self.limit_learned = learned
        self.token = token
        self.parent = parent
        self.spent_conflicts = 0
        self.spent_propagations = 0
        self.spent_learned = 0
        self._t0: Optional[float] = None
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def child(self, ms: Optional[float] = None,
              conflicts: Optional[int] = None,
              propagations: Optional[int] = None,
              learned: Optional[int] = None) -> "Budget":
        """A fresh sub-budget charging into this one (shares the token)."""
        return Budget(ms=ms, conflicts=conflicts, propagations=propagations,
                      learned=learned, token=self.token, parent=self)

    # ------------------------------------------------------------------
    # Lifecycle and charging
    # ------------------------------------------------------------------

    def start(self) -> "Budget":
        """Start the wall clock (idempotent); chains to the parent."""
        if self._t0 is None:
            self._t0 = time.perf_counter()
            if self.limit_ms is not None:
                self._deadline = self._t0 + self.limit_ms / 1000.0
        if self.parent is not None:
            self.parent.start()
        return self

    def elapsed_seconds(self) -> float:
        if self._t0 is None:
            return 0.0
        return time.perf_counter() - self._t0

    def charge_conflict(self) -> None:
        budget: Optional[Budget] = self
        while budget is not None:
            budget.spent_conflicts += 1
            budget = budget.parent

    def charge_propagations(self, count: int) -> None:
        budget: Optional[Budget] = self
        while budget is not None:
            budget.spent_propagations += count
            budget = budget.parent

    def charge_learned(self) -> None:
        budget: Optional[Budget] = self
        while budget is not None:
            budget.spent_learned += 1
            budget = budget.parent

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def exceeded(self) -> Optional[str]:
        """The reason this budget (or an ancestor) is out, else None.

        Spend caps allow exactly their value: ``Budget(conflicts=N)``
        admits N conflicts and trips on the (N+1)-th, so ``conflicts=0``
        trips at the first conflict — the deterministic lever the
        UNKNOWN-path tests use.
        """
        budget: Optional[Budget] = self
        while budget is not None:
            token = budget.token
            if token is not None and token.cancelled:
                return REASON_CANCELLED
            if budget.limit_conflicts is not None and \
                    budget.spent_conflicts > budget.limit_conflicts:
                return REASON_CONFLICTS
            if budget.limit_propagations is not None and \
                    budget.spent_propagations > budget.limit_propagations:
                return REASON_PROPAGATIONS
            if budget.limit_learned is not None and \
                    budget.spent_learned > budget.limit_learned:
                return REASON_LEARNED
            if budget._deadline is not None and \
                    time.perf_counter() > budget._deadline:
                return REASON_DEADLINE
            budget = budget.parent
        return None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def limits(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        if self.limit_ms is not None:
            out["ms"] = self.limit_ms
        if self.limit_conflicts is not None:
            out["conflicts"] = self.limit_conflicts
        if self.limit_propagations is not None:
            out["propagations"] = self.limit_propagations
        if self.limit_learned is not None:
            out["learned"] = self.limit_learned
        if self.parent is not None:
            out["parent"] = self.parent.limits()
        return out

    def report(self, reason: str, phase: str) -> ResourceReport:
        """A :class:`ResourceReport` for the given trip reason."""
        return ResourceReport(
            reason=reason, phase=phase,
            elapsed_seconds=self.elapsed_seconds(),
            conflicts=self.spent_conflicts,
            propagations=self.spent_propagations,
            learned=self.spent_learned,
            limits=self.limits())

    def __repr__(self) -> str:
        parts = [f"{key}={value}" for key, value in self.limits().items()
                 if key != "parent"]
        spent = (f"spent: {self.spent_conflicts}c/"
                 f"{self.spent_propagations}p/{self.spent_learned}l")
        chained = ", chained" if self.parent is not None else ""
        return f"Budget({', '.join(parts)}; {spent}{chained})"
