"""A CDCL SAT solver.

The implementation follows the MiniSat architecture: two-watched-literal
propagation, first-UIP clause learning with recursive clause minimization,
VSIDS variable activities with phase saving, Luby restarts, and activity-based
learned-clause deletion. Solving under *assumptions* is supported, and when
the instance is unsatisfiable under assumptions the solver reports the subset
of assumptions used in the final conflict (an unsat core).

Variables are integers ``1..n`` externally (DIMACS convention) and literals
are signed ints. Internally literals are encoded as ``2*v`` (positive) and
``2*v + 1`` (negative) over zero-based variables, so negation is ``lit ^ 1``.

With :meth:`SatSolver.enable_proof` the solver additionally emits a DRUP
proof (original, learned, and deleted clauses) into a
:class:`~repro.solver.certify.ProofLog`, which the independent checker in
:mod:`repro.solver.certify` replays to certify UNSAT answers and against
which SAT models are evaluated clause-by-clause. Logging off costs one
attribute check per conflict; logging on costs one tuple per step.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence

from repro.obs.events import BUS
from repro.solver.budget import Budget
from repro.solver.certify import ProofLog

# Cadence of `sat.conflicts` milestone events while tracing: one instant
# every _CONFLICT_MILESTONE conflicts (power of two — the check is a mask).
_CONFLICT_MILESTONE = 1024


class SatResult(enum.Enum):
    """Outcome of a :meth:`SatSolver.solve` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class _Clause:
    """A disjunction of internal literals; the first two are watched."""

    __slots__ = ("lits", "learnt", "activity")

    def __init__(self, lits: List[int], learnt: bool):
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    Follows the MiniSat formulation: find the finite subsequence containing
    index i and the position within it.
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


# Value of an unassigned literal in `_values` (true is 1, false is 0).
_UNASSIGNED = -1


class SatSolver:
    """Conflict-driven clause-learning SAT solver.

    Typical use::

        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        assert solver.solve() is SatResult.SAT
        assert solver.model_value(b) is True
    """

    def __init__(self):
        self._num_vars = 0
        # Per-literal state (internal encoding): a literal and its negation
        # are always set and cleared together.
        self._values: List[int] = []       # 1 true / 0 false / _UNASSIGNED
        self._watches: List[List[_Clause]] = []
        # Per-variable state.
        self._level: List[int] = []        # decision level of assignment
        self._reason: List[Optional[_Clause]] = []   # stale if unassigned
        self._activity: List[float] = []
        self._polarity: List[int] = []     # saved phase: sign bit, 1 false
        self._seen: List[int] = []         # scratch for conflict analysis
        self._min_clear: List[int] = []    # vars marked by minimization
        # Trail.
        self._trail: List[int] = []        # internal literals, in order
        self._trail_lim: List[int] = []    # trail index at each decision level
        self._qhead = 0
        # Clause database.
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        # Heuristics.
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._order: List[int] = []        # lazy max-activity queue (heap)
        self._order_pos: List[int] = []    # heap index per var, -1 if absent
        # Results.
        self._ok = True                    # False once a toplevel conflict
        self._model: Optional[List[int]] = None
        self._conflict_core: List[int] = []
        # Statistics.
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_learned = 0
        # Resource governance: when set, the search charges this budget
        # and returns UNKNOWN as soon as it trips; `interrupt_reason`
        # then names the limit (see repro.solver.budget).
        self.budget: Optional[Budget] = None
        self.interrupt_reason: Optional[str] = None
        # Certification: when a ProofLog is installed every original,
        # learned, and deleted clause is recorded so UNSAT answers can be
        # replayed by the independent RUP checker (repro.solver.certify).
        self.proof: Optional[ProofLog] = None

    def enable_proof(self, proof: Optional[ProofLog] = None) -> ProofLog:
        """Start DRUP proof logging; returns the (possibly given) log.

        Must be called before any clause is added: a proof that is missing
        input clauses would make the checker reject valid answers.
        """
        if self._clauses or self._learnts or self._trail or not self._ok:
            raise RuntimeError(
                "enable_proof() must be called on a solver with no clauses")
        self.proof = proof if proof is not None else ProofLog()
        return self.proof

    @property
    def num_clauses(self) -> int:
        """Stored problem clauses (excludes learnts and absorbed units)."""
        return len(self._clauses)

    @property
    def num_learnt_clauses(self) -> int:
        return len(self._learnts)

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its external (1-based) index."""
        var = self._num_vars
        self._num_vars = var + 1
        self._values += (_UNASSIGNED, _UNASSIGNED)
        self._watches += ([], [])
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._polarity.append(1)
        self._seen.append(0)
        # Activity 0 never rises above its parent: the var is a heap leaf.
        self._order_pos.append(len(self._order))
        self._order.append(var)
        return var + 1

    def _ensure_vars(self, count: int) -> None:
        while self._num_vars < count:
            self.new_var()

    @staticmethod
    def _to_internal(ext_lit: int) -> int:
        if ext_lit > 0:
            return (ext_lit - 1) << 1
        return ((-ext_lit - 1) << 1) | 1

    @staticmethod
    def _to_external(int_lit: int) -> int:
        var = (int_lit >> 1) + 1
        return -var if int_lit & 1 else var

    def add_clause(self, ext_lits: Sequence[int]) -> bool:
        """Add a clause of external literals.

        Returns False if the solver is already in a toplevel-conflict state
        or the clause is trivially unsatisfiable at level 0.
        """
        if self.proof is not None:
            self.proof.input(ext_lits)
        if not self._ok:
            return False
        # `_to_internal`, inlined: this runs once per Tseitin clause.
        lits = sorted([lit + lit - 2 if lit > 0 else -1 - lit - lit
                       for lit in ext_lits])
        if lits and lits[-1] >> 1 >= self._num_vars:
            self._ensure_vars((lits[-1] >> 1) + 1)
        # One scan of the sorted clause: a duplicate or a complement sits
        # right after the literal it repeats (`2v` sorts before `2v + 1`).
        values = self._values
        level = self._level
        out: List[int] = []
        previous = -1
        for lit in lits:
            if lit == previous:
                continue         # duplicate
            if lit ^ 1 == previous:
                return True      # tautology: x | ~x
            previous = lit
            value = values[lit]
            if value == _UNASSIGNED or level[lit >> 1]:
                out.append(lit)
            elif value == 1:
                return True      # already satisfied at toplevel
            # else: already falsified at toplevel, so drop it
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            if self._decision_level() != 0:
                raise RuntimeError("unit clauses must be added at level 0")
            if not self._enqueue(out[0], None):
                self._ok = False
                return False
            self._ok = self._propagate() is None
            return self._ok
        # `_attach`, inlined: this runs once per stored problem clause.
        clause = _Clause(out, False)
        self._clauses.append(clause)
        watches = self._watches
        watches[out[0] ^ 1].append(clause)
        watches[out[1] ^ 1].append(clause)
        return True

    # ------------------------------------------------------------------
    # Core machinery
    # ------------------------------------------------------------------

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _attach(self, clause: _Clause) -> None:
        self._watches[clause.lits[0] ^ 1].append(clause)
        self._watches[clause.lits[1] ^ 1].append(clause)

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        values = self._values
        value = values[lit]
        if value != _UNASSIGNED:
            return value == 1
        values[lit] = 1
        values[lit ^ 1] = 0
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or None.

        This is the solver's hot loop. ``watches[lit]`` holds the clauses
        watching ``lit ^ 1``, that is the clauses to visit once ``lit`` is
        true; a watched clause keeps its two watched literals in
        ``lits[0]`` and ``lits[1]``. Each visit reads one entry of the
        per-literal ``_values``. A clause whose other watch is true stays
        as it is. Otherwise the false literal moves to ``lits[1]`` and is
        replaced by a non-false literal from ``lits[2:]`` if there is one,
        which moves the clause to that literal's list; if not, ``lits[0]``
        is implied (or the clause conflicts). Each watch list is compacted
        in place, and a conflict keeps the list's unvisited tail.
        """
        watches = self._watches
        values = self._values
        levels = self._level
        reasons = self._reason
        trail = self._trail
        decision_level = len(self._trail_lim)
        qhead = start = self._qhead
        conflict = None
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = lit ^ 1
            watchlist = watches[lit]
            kept = moved = 0
            for clause in watchlist:
                lits = clause.lits
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    value = values[first]
                    if value == 1:   # satisfied: leave the clause alone
                        watchlist[kept] = clause
                        kept += 1
                        continue
                    lits[0] = first
                    lits[1] = false_lit
                else:
                    value = values[first]
                    if value == 1:
                        watchlist[kept] = clause
                        kept += 1
                        continue
                # Look for a new literal to watch (a while loop: a range
                # costs more than the one or two steps it usually takes).
                size = len(lits)
                k = 2
                while k < size:
                    other = lits[k]
                    if values[other] != 0:
                        lits[1] = other
                        lits[k] = false_lit
                        watches[other ^ 1].append(clause)
                        moved += 1
                        break
                    k += 1
                else:
                    # Clause is unit or conflicting under lits[0].
                    watchlist[kept] = clause
                    kept += 1
                    if value == 0:
                        conflict = clause
                        break
                    # Inlined _enqueue of an unassigned literal.
                    values[first] = 1
                    values[first ^ 1] = 0
                    var = first >> 1
                    levels[var] = decision_level
                    reasons[var] = clause
                    trail.append(first)
            if conflict is not None:
                # Close the gap of moved watches; keep the unvisited tail.
                del watchlist[kept:kept + moved]
                break
            del watchlist[kept:]
        processed = qhead - start
        self._qhead = len(trail)
        self.num_propagations += processed
        if self.budget is not None and processed:
            self.budget.charge_propagations(processed)
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, confl: _Clause) -> tuple[List[int], int]:
        """First-UIP analysis; returns (learnt clause, backtrack level)."""
        seen = self._seen
        levels = self._level
        reasons = self._reason
        trail = self._trail
        activity = self._activity
        order_pos = self._order_pos
        heap_up = self._heap_up
        var_inc = self._var_inc
        decision_level = len(self._trail_lim)
        learnt: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        lit = -1
        index = len(trail) - 1
        clause: Optional[_Clause] = confl
        while True:
            assert clause is not None
            if clause.learnt:
                self._bump_clause(clause)
            # A reason clause stores the literal it implied first.
            for q in (clause.lits if lit == -1 else clause.lits[1:]):
                var = q >> 1
                if seen[var]:
                    continue
                level = levels[var]
                if level > 0:
                    seen[var] = 1
                    # Inlined VSIDS bump.
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        self._rescale_var_activity()
                        var_inc = self._var_inc
                    pos = order_pos[var]
                    if pos >= 0:
                        heap_up(pos)
                    if level == decision_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Select the next trail literal to expand.
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit >> 1
            clause = reasons[var]
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
        learnt[0] = lit ^ 1

        # Clause minimization: drop literals implied by the rest.
        abstract_levels = 0
        for q in learnt[1:]:
            abstract_levels |= 1 << (levels[q >> 1] & 31)
        minimized = [learnt[0]]
        for q in learnt[1:]:
            if reasons[q >> 1] is None or \
                    not self._lit_redundant(q, abstract_levels):
                minimized.append(q)
        min_clear = self._min_clear
        for var in min_clear:
            seen[var] = 0
        min_clear.clear()
        for q in learnt:
            seen[q >> 1] = 0
        learnt = minimized

        # Compute backtrack level: second-highest level in the clause.
        if len(learnt) == 1:
            bt_level = 0
        else:
            max_i = 1
            max_level = levels[learnt[1] >> 1]
            for k in range(2, len(learnt)):
                level = levels[learnt[k] >> 1]
                if level > max_level:
                    max_i = k
                    max_level = level
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = max_level
        return learnt, bt_level

    def _lit_redundant(self, lit: int, abstract_levels: int) -> bool:
        """True if `lit` is implied by other literals in the learnt clause."""
        seen = self._seen
        levels = self._level
        reasons = self._reason
        min_clear = self._min_clear
        stack = [lit]
        top = len(min_clear)
        while stack:
            reason = reasons[stack.pop() >> 1]
            assert reason is not None
            for q in reason.lits[1:]:
                var = q >> 1
                if seen[var]:
                    continue
                level = levels[var]
                if level == 0:
                    continue
                if reasons[var] is None or \
                        not ((1 << (level & 31)) & abstract_levels):
                    for cleared in min_clear[top:]:
                        seen[cleared] = 0
                    del min_clear[top:]
                    return False
                seen[var] = 1
                min_clear.append(var)
                stack.append(q)
        # Marks set here persist so later redundancy checks can reuse them;
        # the caller clears everything recorded in _min_clear afterwards.
        return True

    def _analyze_final(self, lit: int) -> List[int]:
        """Compute the assumptions responsible for the failing assumption `lit`.

        Called when assumption `lit` is found already falsified: walks the
        implication graph of ``~lit`` back to assumption decisions. Returns
        the unsat core as external literals, phrased as the assumptions were
        given (including `lit` itself).
        """
        core = [self._to_external(lit)]
        if self._decision_level() == 0:
            return core
        seen = self._seen
        seen[lit >> 1] = 1
        for index in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            trail_lit = self._trail[index]
            var = trail_lit >> 1
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason is None:
                # A decision in the assumption prefix: part of the core.
                if trail_lit != lit:
                    core.append(self._to_external(trail_lit))
            else:
                for q in reason.lits[1:]:
                    if self._level[q >> 1] > 0:
                        seen[q >> 1] = 1
            seen[var] = 0
        seen[lit >> 1] = 0
        return core

    # ------------------------------------------------------------------
    # Activity heap
    # ------------------------------------------------------------------

    def _rescale_var_activity(self) -> None:
        activity = self._activity
        for i in range(self._num_vars):
            activity[i] *= 1e-100
        self._var_inc *= 1e-100

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for learnt in self._learnts:
                learnt.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _heap_up(self, pos: int) -> None:
        order, order_pos, activity = self._order, self._order_pos, self._activity
        var = order[pos]
        act = activity[var]
        while pos > 0:
            parent = (pos - 1) >> 1
            pvar = order[parent]
            if activity[pvar] >= act:
                break
            order[pos] = pvar
            order_pos[pvar] = pos
            pos = parent
        order[pos] = var
        order_pos[var] = pos

    def _heap_pop(self) -> Optional[int]:
        """Pop the most active unassigned var (assigned ones are dropped)."""
        order, order_pos = self._order, self._order_pos
        activity, values = self._activity, self._values
        while order:
            top = order[0]
            last = order.pop()
            order_pos[top] = -1
            size = len(order)
            if size:
                # Sift `last` down from the root.
                act = activity[last]
                pos = 0
                child = 1
                while child < size:
                    cvar = order[child]
                    cact = activity[cvar]
                    right = child + 1
                    if right < size:
                        rvar = order[right]
                        ract = activity[rvar]
                        if ract > cact:
                            child, cvar, cact = right, rvar, ract
                    if cact <= act:
                        break
                    order[pos] = cvar
                    order_pos[cvar] = pos
                    pos = child
                    child = 2 * pos + 1
                order[pos] = last
                order_pos[last] = pos
            if values[top << 1] == _UNASSIGNED:
                return top
        return None

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _cancel_until(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        bound = trail_lim[level]
        values, polarity = self._values, self._polarity
        order, order_pos = self._order, self._order_pos
        # `_reason` is read only for assigned vars, so it is left stale.
        for lit in reversed(trail[bound:]):
            var = lit >> 1
            polarity[var] = lit & 1
            values[lit] = values[lit ^ 1] = _UNASSIGNED
            if order_pos[var] < 0:
                order_pos[var] = len(order)
                order.append(var)
                self._heap_up(len(order) - 1)
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = len(trail)

    def _reduce_db(self) -> None:
        """Drop the less active half of the learned clauses."""
        self._learnts.sort(key=lambda c: c.activity)
        keep_from = len(self._learnts) // 2
        reasons = self._reason
        locked = set()
        for lit in self._trail:
            reason = reasons[lit >> 1]
            if reason is not None and reason.learnt:
                locked.add(id(reason))
        kept: List[_Clause] = []
        for i, clause in enumerate(self._learnts):
            if i >= keep_from or id(clause) in locked or len(clause.lits) == 2:
                kept.append(clause)
            else:
                self._detach(clause)
                if self.proof is not None:
                    self.proof.delete(
                        [self._to_external(lit) for lit in clause.lits])
        self._learnts = kept

    def _detach(self, clause: _Clause) -> None:
        for watch_lit in (clause.lits[0] ^ 1, clause.lits[1] ^ 1):
            watchlist = self._watches[watch_lit]
            for i, other in enumerate(watchlist):
                if other is clause:
                    watchlist[i] = watchlist[-1]
                    watchlist.pop()
                    break

    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Solve under the given external assumption literals.

        Returns UNKNOWN — never hangs — when :attr:`budget` trips;
        :attr:`interrupt_reason` records which budget limit was responsible.
        """
        bus = BUS
        if not bus.enabled:
            return self._solve(assumptions)
        bus.begin("sat.solve", "sat", assumptions=len(assumptions))
        conflicts_before = self.num_conflicts
        result = None
        try:
            result = self._solve(assumptions)
            return result
        finally:
            bus.end("sat.solve", "sat",
                    result=result.value if result is not None else "error",
                    conflicts=self.num_conflicts - conflicts_before,
                    reason=self.interrupt_reason)

    def _solve(self, assumptions: Sequence[int]) -> SatResult:
        self._model = None
        self._conflict_core = []
        self.interrupt_reason = None
        if not self._ok:
            return SatResult.UNSAT
        if self.budget is not None:
            self.budget.start()
            reason = self.budget.exceeded()
            if reason is not None:
                self.interrupt_reason = reason
                if BUS.enabled:
                    BUS.instant("sat.budget_trip", "sat", reason=reason,
                                phase="search")
                return SatResult.UNKNOWN
        self._ensure_vars(max((abs(lit) for lit in assumptions), default=0))
        internal_assumptions = [self._to_internal(lit) for lit in assumptions]

        max_learnts = max(1000, len(self._clauses) // 3)
        restart_index = 0
        conflicts_at_start = self.num_conflicts

        while True:
            restart_index += 1
            restart_limit = 100 * _luby(restart_index)
            if restart_index > 1 and BUS.enabled:
                BUS.instant("sat.restart", "sat",
                            restarts=restart_index - 1,
                            conflicts=self.num_conflicts - conflicts_at_start,
                            limit=restart_limit)
            status = self._search(internal_assumptions, restart_limit,
                                  max_learnts)
            if status is not None:
                self._cancel_until(0)
                return status
            max_learnts = int(max_learnts * 1.1)
            self._cancel_until(0)

    def _search(self, assumptions: List[int], restart_limit: int,
                max_learnts: int) -> Optional[SatResult]:
        budget = self.budget
        conflicts = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.num_conflicts += 1
                conflicts += 1
                if BUS.enabled and \
                        self.num_conflicts % _CONFLICT_MILESTONE == 0:
                    BUS.instant("sat.conflicts", "sat",
                                conflicts=self.num_conflicts,
                                learned=self.num_learned)
                if self._decision_level() == 0:
                    self._ok = False
                    return SatResult.UNSAT
                if budget is not None:
                    # Charge before analysis so a tripped budget skips the
                    # (possibly large) learning work for this conflict.
                    budget.charge_conflict()
                    reason = budget.exceeded()
                    if reason is not None:
                        self.interrupt_reason = reason
                        if BUS.enabled:
                            BUS.instant("sat.budget_trip", "sat",
                                        reason=reason, phase="search")
                        return SatResult.UNKNOWN
                learnt, bt_level = self._analyze(confl)
                self.num_learned += 1
                if self.proof is not None:
                    self.proof.learn(
                        [self._to_external(lit) for lit in learnt])
                if budget is not None:
                    budget.charge_learned()
                # Never backtrack past still-valid assumption decisions:
                # re-deciding them is handled below, so plain backjump works.
                self._cancel_until(bt_level)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self._ok = False
                        return SatResult.UNSAT
                else:
                    clause = _Clause(learnt, learnt=True)
                    self._learnts.append(clause)
                    self._attach(clause)
                    self._bump_clause(clause)
                    self._enqueue(learnt[0], clause)
                self._var_inc *= self._var_decay
                self._cla_inc *= self._cla_decay
                continue

            if conflicts >= restart_limit:
                return None  # restart
            if budget is not None:
                # Decision-loop checkpoint: catches deadline expiry and
                # cancellation on propagation-heavy runs with few conflicts.
                reason = budget.exceeded()
                if reason is not None:
                    self.interrupt_reason = reason
                    if BUS.enabled:
                        BUS.instant("sat.budget_trip", "sat",
                                    reason=reason, phase="search")
                    return SatResult.UNKNOWN
            if len(self._learnts) >= max_learnts + len(self._trail):
                self._reduce_db()

            # Decide: assumptions first, then VSIDS.
            level = self._decision_level()
            if level < len(assumptions):
                lit = assumptions[level]
                value = self._values[lit]
                if value == 1:
                    # Already implied: open an empty decision level for it.
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == 0:
                    self._conflict_core = self._analyze_final(lit)
                    return SatResult.UNSAT
                self.num_decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
                continue

            var = self._heap_pop()
            if var is None:
                self._model = self._values[0::2]
                return SatResult.SAT
            self.num_decisions += 1
            lit = (var << 1) | self._polarity[var]
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def model_value(self, ext_var: int) -> Optional[bool]:
        """Truth value of a variable in the last satisfying assignment."""
        if self._model is None:
            return None
        value = self._model[ext_var - 1]
        if value == _UNASSIGNED:
            return None
        return bool(value)

    def model(self) -> Dict[int, bool]:
        """The last satisfying assignment as a dict.

        ``solve`` returns SAT only once every variable is assigned, so each
        variable of that call has a value (an unassigned one would map to
        False); variables created after it are absent.
        """
        return {
            var + 1: (value == 1)
            for var, value in enumerate(self._model or [])
        }

    def model_snapshot(self) -> Optional[List[int]]:
        """An opaque handle to the current satisfying assignment (or None).

        ``solve`` replaces — never mutates — the stored model, so the handle
        stays valid across later calls and can be given back to
        :meth:`restore_model` to make earlier model values retrievable again.
        """
        return self._model

    def restore_model(self, snapshot: Optional[List[int]]) -> None:
        """Reinstate a satisfying assignment saved by :meth:`model_snapshot`."""
        self._model = snapshot

    def unsat_core(self) -> List[int]:
        """Assumption literals involved in the last final conflict.

        Meaningful only after :meth:`solve` returned UNSAT under non-empty
        assumptions; empty if the problem is unsatisfiable regardless of
        assumptions.
        """
        return list(self._conflict_core)
