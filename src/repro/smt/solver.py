"""SMT solver facade: check-sat, models, and minimized unsat cores.

This is the component the SVM's queries talk to in place of Z3. A
:class:`SmtSolver` owns a single *persistent* SAT instance; assertions are
boolean terms and are permanent, and `check` may additionally be given
*assumption* terms that hold for that check only. The solver is
**incremental**:

- Assertions added between checks and assumptions that change from check
  to check reuse the SAT solver's learned clauses, variable activities and
  watch lists. A query that needs to retract a constraint either passes it
  as an assumption or uses a fresh solver (CEGIS checks each candidate on
  a one-shot solver).
- Bit-blasting is memoized in the underlying :class:`BitBlaster`: because
  terms are interned (:mod:`repro.smt.terms`), a term encoded by one check
  is a dictionary hit for every later check.
- Every `check` records a :class:`CheckStats` delta (conflicts, decisions,
  propagations, learned clauses, encode-cache hits/misses) in
  :attr:`SmtSolver.last_check` and accumulates it in
  :attr:`SmtSolver.cumulative`.

When the result is UNSAT under assumptions, :meth:`unsat_core` reports
which assumptions were used, and :meth:`minimize_core` shrinks that set to
a minimal one by deletion — this implements the paper's
minimal-unsatisfiable-core `debug` query (§2.2). Deletion candidates are
ordered by how rarely they appeared in previously reported cores
(Cache-a-lot-style core reuse), and the pre-call result/model are restored
afterwards so a model obtained before minimization stays retrievable.
"""

from __future__ import annotations

import enum
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence

import time

from repro.analysis.sanitize import SanitizeStats, sanitize_assertion
from repro.obs.events import BUS
from repro.smt import terms as T
from repro.smt.bitblast import BitBlaster
from repro.solver.budget import Budget, BudgetExhausted, ResourceReport
from repro.solver.certify import (
    CertificationError,
    ProofLog,
    check_model,
    check_proof,
    recheck_unsat,
)
from repro.solver.sat import SatResult, SatSolver


def _certify_default() -> bool:
    """`certify=None` resolves against the REPRO_CERTIFY environment knob."""
    return os.environ.get("REPRO_CERTIFY", "") not in ("", "0")


def _analyze_default() -> bool:
    """`analyze=None` resolves against the REPRO_ANALYZE environment knob."""
    return os.environ.get("REPRO_ANALYZE", "") not in ("", "0")


class SmtResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class CheckStats:
    """Solver-effort counters, either for one `check` or accumulated.

    ``encode_*`` counts cover the encoding work done since the previous
    check (assertions are bit-blasted as they are added, so the cost of
    encoding a formula is attributed to the first check that uses it).
    """

    checks: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned: int = 0
    encode_hits: int = 0
    encode_misses: int = 0
    # Budget consumption: wall-clock spent inside `check` and how many of
    # the covered checks tripped a resource limit (returned UNKNOWN).
    seconds: float = 0.0
    tripped: int = 0
    # How many of the covered checks had their answer independently
    # certified (model check, proof check, or a trivially-false fast path).
    certified: int = 0
    # Sanitizer rewrites applied to assertions covered by this check (the
    # pre-pass runs at add_assertion time, so like the encode counters it
    # is attributed to the first check that uses the formula).
    sanitize_rewrites: int = 0

    def copy(self) -> "CheckStats":
        return replace(self)

    def __sub__(self, other: "CheckStats") -> "CheckStats":
        return CheckStats(*[getattr(self, name) - getattr(other, name)
                            for name in _CHECK_FIELDS])

    def __iadd__(self, other: "CheckStats") -> "CheckStats":
        for name in _CHECK_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


_CHECK_FIELDS = tuple(f.name for f in fields(CheckStats))


class Model:
    """A satisfying interpretation of the symbolic constants.

    Maps variable *terms* to Python values (bool for booleans, unsigned int
    for bitvectors). Variables absent from the encoding default to
    ``False`` / ``0``.
    """

    def __init__(self, bindings: Dict[T.Term, object]):
        self._bindings = dict(bindings)

    def __getitem__(self, var_term: T.Term):
        if var_term in self._bindings:
            return self._bindings[var_term]
        if var_term.sort is T.BOOL:
            return False
        return 0

    def __contains__(self, var_term: T.Term) -> bool:
        return var_term in self._bindings

    def bindings(self) -> Dict[T.Term, object]:
        return dict(self._bindings)

    def evaluate(self, term: T.Term):
        """Evaluate an arbitrary term under this model."""
        return T.evaluate(term, self._bindings)

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{var.payload}={value}" for var, value in
            sorted(self._bindings.items(), key=lambda kv: str(kv[0].payload)))
        return f"Model({entries})"


class SmtSolver:
    """Incremental satisfiability checks for boolean/bitvector formulas."""

    def __init__(self, budget: Optional[Budget] = None,
                 certify: Optional[bool] = None,
                 analyze: Optional[bool] = None):
        self.sat = SatSolver()
        # Trust-but-verify mode: with `certify` (or REPRO_CERTIFY=1), the
        # SAT layer logs a DRUP proof and every answer is independently
        # re-checked — SAT models clause-by-clause and term-by-term, UNSAT
        # answers by reverse unit propagation over the proof. The proof
        # must be enabled *before* the bit-blaster exists: its constructor
        # already emits the constant-true unit clause, which the checker
        # needs among the inputs.
        self.certify = _certify_default() if certify is None else bool(certify)
        self.proof: Optional[ProofLog] = (
            self.sat.enable_proof() if self.certify else None)
        self.last_cert: Optional[str] = None
        # Pre-solver static analysis: with `analyze` (or REPRO_ANALYZE=1),
        # every asserted formula runs through the abstract-interpretation
        # sanitizer and the *rewritten* term is what gets bit-blasted. The
        # original terms stay in `assertions()`, so SAT-answer
        # certification re-evaluates the pre-rewrite formulas — an unsound
        # rewrite surfaces as a CertificationError, not a wrong answer.
        self.analyze = _analyze_default() if analyze is None else bool(analyze)
        self.sanitize_stats = SanitizeStats()
        self.blaster = BitBlaster(self.sat)
        self._assertions: List[T.Term] = []
        self._asserted_false = False
        self._last_core: List[T.Term] = []
        self._last_result: Optional[SmtResult] = None
        self._last_assumption_terms: List[T.Term] = []
        self._declared: Dict[T.Term, None] = {}
        # Statistics. The mark advances at the end of every check, so
        # encoding done while asserting between checks is attributed to
        # the next check that uses it.
        self.last_check: CheckStats = CheckStats()
        self.cumulative: CheckStats = CheckStats()
        self._mark: CheckStats = self._stats_mark()
        self._core_counts: Dict[T.Term, int] = {}
        # Resource governance. `last_report` describes the most recent
        # UNKNOWN (why the solver gave up, what it spent); an encode-phase
        # trip poisons the instance — the formula is only partially
        # encoded, so every later check answers UNKNOWN.
        self.budget: Optional[Budget] = None
        self.last_report: Optional[ResourceReport] = None
        self._encode_report: Optional[ResourceReport] = None
        self.set_budget(budget)

    def set_budget(self, budget: Optional[Budget]) -> None:
        """Install (or clear) the budget charged by encoding and search.

        Swappable between checks — CEGIS points its persistent guess
        solver at a fresh per-iteration child budget each round.
        """
        self.budget = budget
        self.sat.budget = budget
        self.blaster.budget = budget

    # ------------------------------------------------------------------
    # Assertions
    # ------------------------------------------------------------------

    def add_assertion(self, term: T.Term) -> None:
        """Assert a boolean term permanently."""
        if term.sort is not T.BOOL:
            raise TypeError(f"assertions must be boolean: {term!r}")
        encoded = self._sanitized(term)
        # A *syntactically* false assertion keeps the zero-work fast path
        # unconditionally. A sanitizer-proved false does too, except in
        # certify mode, where the constant is encoded instead so the UNSAT
        # answer is backed by a checkable DRUP proof rather than the
        # analysis' word.
        self._assertions.append(term)
        self._asserted_false = (self._asserted_false or term is T.FALSE
                                or (encoded is T.FALSE and not self.certify))
        self._encode(encoded)

    def _sanitized(self, term: T.Term) -> T.Term:
        """The term to encode: the sanitizer's rewrite when analysis is on."""
        if not self.analyze or term.is_const:
            return term
        return sanitize_assertion(term, certify=self.certify,
                                  stats=self.sanitize_stats)

    def _encode(self, term: T.Term) -> None:
        """Bit-blast one assertion, downgrading encode-budget trips.

        A trip mid-encoding leaves the SAT instance with a *partial*
        formula, so instead of letting :class:`BudgetExhausted` escape the
        solver records the report and poisons itself: every subsequent
        :meth:`check` returns UNKNOWN carrying that report. Callers keep
        the exception-free `check` contract either way.
        """
        if self._encode_report is not None:
            return  # already poisoned; do not waste more encode work
        try:
            self.blaster.assert_term(term)
        except BudgetExhausted as exhausted:
            self._encode_report = exhausted.report

    def add_assertions(self, terms: Iterable[T.Term]) -> None:
        for term in terms:
            self.add_assertion(term)

    def assertions(self) -> List[T.Term]:
        """All assertions, in the order they were made."""
        return list(self._assertions)

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def _stats_mark(self) -> CheckStats:
        sat, blaster = self.sat, self.blaster
        return CheckStats(0, sat.num_conflicts, sat.num_decisions,
                          sat.num_propagations, sat.num_learned,
                          blaster.cache_hits, blaster.cache_misses,
                          sanitize_rewrites=self.sanitize_stats.rewrites)

    def _record_check(self, seconds: float = 0.0,
                      tripped: bool = False,
                      certified: bool = False) -> CheckStats:
        now = self._stats_mark()
        delta = now - self._mark
        delta.checks = 1
        delta.seconds = seconds
        delta.tripped = 1 if tripped else 0
        delta.certified = 1 if certified else 0
        self._mark = now
        self.last_check = delta
        self.cumulative += delta
        return delta

    def _finish(self, result: SmtResult,
                core: Sequence[T.Term] = ()) -> SmtResult:
        self._last_result = result
        self._last_core = list(core)
        for term in self._last_core:
            self._core_counts[term] = self._core_counts.get(term, 0) + 1
        return result

    def check(self, assumptions: Sequence[T.Term] = ()) -> SmtResult:
        """Decide satisfiability of the active assertions plus assumptions.

        On UNSAT, :meth:`unsat_core` names the *assumptions* involved in
        the conflict. Assertions never appear in the core;
        in particular, when the assertions alone are unsatisfiable the core
        is empty — no subset of the assumptions is to blame.

        On UNKNOWN — a tripped :class:`~repro.solver.budget.Budget` or a
        cancelled token — :attr:`last_report` carries the
        :class:`ResourceReport` naming the limit and the spend. The
        :class:`CheckStats` delta is recorded in a ``finally`` block, so
        accounting survives a check that raises mid-solve (cancellation via
        exception, interrupts, encoder bugs).
        """
        self._last_core = []
        self._last_result = None   # a check that raises reports "error"
        self._last_assumption_terms = [t for t in assumptions
                                       if t is not T.TRUE]
        self.last_report = None
        self.last_cert = None
        started = time.perf_counter()
        tripped = False
        # `traced` is latched at entry so the begin/end pair stays balanced
        # even if a sink subscribes or detaches mid-check.
        traced = BUS.enabled
        if traced:
            BUS.begin("smt.check", "smt", assumptions=len(assumptions))
        try:
            # A budget trip during encoding means the SAT instance holds
            # only part of the formula: UNKNOWN is the only sound answer.
            if self._encode_report is not None:
                tripped = True
                self.last_report = self._encode_report
                return self._finish(SmtResult.UNKNOWN)
            # Fast path: a constant-false assertion makes the problem UNSAT
            # regardless of the assumptions, so the core of assumptions is [].
            if self._asserted_false:
                # Nothing to certify: UNSAT is syntactically immediate.
                if self.certify:
                    self.last_cert = "trivial"
                return self._finish(SmtResult.UNSAT)
            lits = []
            lit_to_term: Dict[int, T.Term] = {}
            try:
                for term in assumptions:
                    if term is T.TRUE:
                        continue
                    if term is T.FALSE:
                        if self.certify:
                            self.last_cert = "trivial"
                        return self._finish(SmtResult.UNSAT, [term])
                    lit = self.blaster.lit_of(term)
                    lits.append(lit)
                    lit_to_term[lit] = term
            except BudgetExhausted as exhausted:
                # Assumption terms are encoded on first use; a trip here is
                # an encode-phase trip like any other.
                tripped = True
                self._encode_report = exhausted.report
                self.last_report = exhausted.report
                return self._finish(SmtResult.UNKNOWN)
            result = self.sat.solve(lits)
            if result is SatResult.SAT:
                if self.certify:
                    self._certify_sat(lits)
                return self._finish(SmtResult.SAT)
            if result is SatResult.UNKNOWN:
                # Only a budget stops the search short of an answer.
                tripped = True
                self.last_report = self.budget.report(
                    self.sat.interrupt_reason, phase="search")
                return self._finish(SmtResult.UNKNOWN)
            core_lits = self.sat.unsat_core()
            if self.certify:
                self._certify_unsat(core_lits)
            return self._finish(SmtResult.UNSAT,
                                [lit_to_term[lit] for lit in core_lits])
        finally:
            delta = self._record_check(time.perf_counter() - started, tripped,
                                       certified=self.last_cert is not None)
            if traced:
                result = self._last_result
                BUS.end("smt.check", "smt",
                        result=result.value if result is not None else "error",
                        **asdict(delta))

    # ------------------------------------------------------------------
    # Certification (trust-but-verify)
    # ------------------------------------------------------------------

    def _certify_sat(self, assumption_lits: Sequence[int]) -> None:
        """Certify a SAT answer at both the CNF and the term level.

        The CNF check re-evaluates every input clause of the proof log
        under the SAT model; the term-level check re-evaluates the original
        (pre-bit-blast) assertions and assumption terms under the extracted
        variable bindings. Both must pass — the second catches encoder bugs
        the first cannot see, because a mis-encoded CNF is still genuinely
        satisfied by its own model.
        """
        traced = BUS.enabled
        if traced:
            BUS.begin("cert.model", "cert")
        ok = False
        try:
            check_model(self.proof, self.sat.model(), assumption_lits)
            bindings = {var: self.blaster.model_value(var)
                        for var in self.blaster.variables()}
            self._certify_terms(bindings)
            self.last_cert = "model"
            ok = True
        finally:
            if traced:
                BUS.end("cert.model", "cert", ok=ok)

    def _certify_terms(self, bindings: Dict[T.Term, object]) -> None:
        """Re-evaluate active assertions + last assumptions under bindings."""
        targets = self.assertions() + self._last_assumption_terms
        for term in targets:
            if T.evaluate(term, bindings) is not True:
                raise CertificationError(
                    "model", f"assertion evaluates false under the model: "
                             f"{T.to_sexpr(term, max_depth=4)}")

    def _certify_unsat(self, core_lits: Sequence[int]) -> None:
        """Certify an UNSAT answer by replaying the DRUP proof.

        Every learned clause must pass reverse unit propagation, and
        propagating the failed assumptions over the accumulated clause
        database must yield a conflict.
        """
        traced = BUS.enabled
        if traced:
            BUS.begin("cert.proof", "cert", steps=len(self.proof.steps))
        ok = False
        try:
            check_proof(self.proof, core=core_lits)
            self.last_cert = "proof"
            ok = True
        finally:
            if traced:
                BUS.end("cert.proof", "cert", ok=ok,
                        core=len(core_lits))

    def certify_model(self, bindings: Optional[Dict[T.Term, object]] = None
                      ) -> None:
        """Re-evaluate the active assertions under a model's bindings.

        With no argument, certifies the model of the last SAT answer
        (useful after an uncertified check); with explicit bindings,
        certifies those instead — the fault-injection harness uses this to
        prove that corrupted models are rejected. Raises
        :class:`CertificationError` on any assertion that does not
        evaluate to true.
        """
        if bindings is None:
            bindings = self.model().bindings()
        self._certify_terms(dict(bindings))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def declare(self, *variables: T.Term) -> None:
        """Register variables that must appear in every model.

        A variable that never reaches a CNF clause (asserted nowhere, or
        only under simplified-away subterms) has no SAT counterpart, so a
        bare :meth:`model` would omit it. Declared variables always get a
        defined value (``False`` / ``0`` when unconstrained).
        """
        for var in variables:
            if not var.is_var:
                raise TypeError(f"declare() expects variable terms: {var!r}")
            self._declared[var] = None

    def model(self, variables: Iterable[T.Term] = ()) -> Model:
        """Extract the satisfying assignment for the given variables.

        With no explicit variable list, the model covers every variable
        that reached the bit-blaster, every :meth:`declare`-d variable, and
        every variable of the active assertions — so a variable the
        encoder simplified away (or that was never constrained at all)
        still gets a defined value instead of being silently absent.
        """
        if self._last_result is not SmtResult.SAT:
            raise RuntimeError("model() requires a previous SAT result")
        bindings: Dict[T.Term, object] = {}
        targets = list(variables)
        if not targets:
            seen: Dict[T.Term, None] = {}
            for var in self.blaster.variables():
                seen.setdefault(var, None)
            for var in self._declared:
                seen.setdefault(var, None)
            for term in self.assertions():
                for var in T.term_vars(term):
                    seen.setdefault(var, None)
            targets = list(seen)
        for var in targets:
            bindings[var] = self.blaster.model_value(var)
        return Model(bindings)

    def unsat_core(self) -> List[T.Term]:
        """Assumption terms involved in the last UNSAT answer."""
        return list(self._last_core)

    def minimize_core(self, core: Optional[Sequence[T.Term]] = None) -> List[T.Term]:
        """Deletion-minimize an unsat core of assumptions.

        The result is *minimal*: dropping any single element makes the
        remaining assumptions satisfiable together with the assertions.
        Candidates that appeared rarely in previously reported cores are
        tried for deletion first — across the repeated `check` calls of an
        iterative query, the refutation usually keeps hinging on the same
        few assumptions, so the rarely-blamed ones are the likely-redundant
        ones (the core-reuse heuristic of Cache-a-lot).

        The solver's result/model state is restored afterwards: a model
        obtained from a SAT check before minimization is still retrievable.

        Minimization is *anytime* under a budget: each deletion probe is a
        `check`, and when one answers UNKNOWN (budget tripped mid-probe)
        the loop stops and returns the smallest core established so far —
        still a correct unsat core, just not necessarily minimal.
        :attr:`last_report` says why minimization stopped early.

        In certify mode the minimized core is re-proved before it is
        returned: a *fresh* one-shot solver receives the proof log's input
        clauses, solves under the returned core, and its own UNSAT proof is
        RUP-checked. A minimizer bug that over-shrinks the core raises
        :class:`CertificationError` instead of reporting a non-core.
        """
        current = list(self._last_core if core is None else core)
        saved_result = self._last_result
        saved_core = list(self._last_core)
        saved_model = self.sat.model_snapshot()
        current.sort(key=lambda t: self._core_counts.get(t, 0))
        i = 0
        while i < len(current):
            trial = current[:i] + current[i + 1:]
            result = self.check(trial)
            if result is SmtResult.UNKNOWN:
                break
            if result is SmtResult.UNSAT:
                # The i-th element is redundant; the new core is `trial`'s.
                refined = set(self._last_core)
                current = [t for t in trial if t in refined] or trial
            else:
                i += 1
        self._last_result = saved_result
        self._last_core = saved_core
        self.sat.restore_model(saved_model)
        if self.certify:
            self._certify_core(current)
        return current

    def _certify_core(self, core: Sequence[T.Term]) -> None:
        """Postcondition of :meth:`minimize_core`: re-prove the core unsat."""
        lits = [self.blaster.lit_of(term) for term in core]
        traced = BUS.enabled
        if traced:
            BUS.begin("cert.core", "cert", size=len(core))
        ok = False
        try:
            recheck_unsat(self.proof.input_clauses(), lits)
            ok = True
        finally:
            if traced:
                BUS.end("cert.core", "cert", ok=ok)
