"""Trust-but-verify: DRUP proofs and independent result certification.

The CDCL solver and the bit-blaster above it are written from scratch, so
every answer the reproduction produces ultimately rests on unreviewed
search code. This module makes those answers *certifiable*:

- :class:`ProofLog` is a DRUP-style proof trace. The solver records every
  original clause (``i``), every learned clause (``a``), and every
  deleted learned clause (``d``) as it runs; the log is an in-memory list
  of steps and serializes to JSONL or standard DRUP text.
- :func:`check_proof` is an independent *reverse unit propagation* (RUP)
  checker: it replays the proof against its own two-watched-literal
  propagator — sharing no code with the solver's search — verifying that
  each learned clause is RUP with respect to the clause database at the
  time it was learned, and that the claimed conclusion (the empty clause,
  or a conflict under a claimed unsat core of assumptions) follows.
- :func:`check_model` is an independent CNF evaluator: a claimed SAT
  model must satisfy every original clause, clause by clause, plus every
  assumption literal.
- :func:`recheck_unsat` re-proves a claimed unsat core from scratch: a
  fresh one-shot solver gets the original clauses and the core as
  assumptions, must answer UNSAT, and its own proof is checked too.

All certifiers raise :class:`CertificationError` on rejection — a failed
certification means a solver or encoder bug (or an injected fault; see
:mod:`repro.solver.chaos`), never a property of the user's formula.

This module deliberately imports nothing from the solving stack at import
time, so the SAT core can depend on :class:`ProofLog` without a cycle.

Checker soundness notes:

- Deleted clauses that are the *reason* for a root-level assignment are
  kept (the drat-trim rule): removing them could retract a derived unit
  and unsoundly accept later steps.
- Tautological clauses are logged but never indexed — they are satisfied
  under every assignment, so they can neither aid propagation nor be
  falsified by a model.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Proof step kinds.
STEP_INPUT = "i"
STEP_LEARN = "a"
STEP_DELETE = "d"

_UNASSIGNED = -1


class CertificationError(Exception):
    """An independent checker rejected a solver answer.

    Carries which certifier fired (``kind``: ``"proof"``, ``"model"``,
    ``"core"``) and a human-readable reason. Reaching this exception on a
    genuine run means the solving stack produced a wrong or unsupported
    answer; it is also the signal the chaos harness asserts on.
    """

    def __init__(self, kind: str, reason: str):
        super().__init__(f"certification failed [{kind}]: {reason}")
        self.kind = kind
        self.reason = reason


class ProofLog:
    """An in-memory DRUP proof: input, learned, and deleted clauses.

    Steps are ``(kind, lits)`` tuples with external DIMACS-style literals.
    Appending is the only hot-path operation — the solver logs a learned
    clause with one tuple allocation — so the log stays cheap enough to
    leave on for whole query sweeps.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: Optional[List[Tuple[str, Tuple[int, ...]]]] = None):
        self.steps: List[Tuple[str, Tuple[int, ...]]] = \
            list(steps) if steps is not None else []

    # -- recording -----------------------------------------------------

    def input(self, lits: Iterable[int]) -> None:
        self.steps.append((STEP_INPUT, tuple(lits)))

    def learn(self, lits: Iterable[int]) -> None:
        self.steps.append((STEP_LEARN, tuple(lits)))

    def delete(self, lits: Iterable[int]) -> None:
        self.steps.append((STEP_DELETE, tuple(lits)))

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def input_clauses(self) -> List[Tuple[int, ...]]:
        """The original formula: every ``i`` step, in order."""
        return [lits for kind, lits in self.steps if kind == STEP_INPUT]

    def counts(self) -> Dict[str, int]:
        out = {STEP_INPUT: 0, STEP_LEARN: 0, STEP_DELETE: 0}
        for kind, _ in self.steps:
            out[kind] += 1
        return out

    # -- serialization -------------------------------------------------

    def to_jsonl(self, path) -> None:
        """One ``{"op": kind, "lits": [...]}`` object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for kind, lits in self.steps:
                handle.write(json.dumps({"op": kind, "lits": list(lits)}))
                handle.write("\n")

    @classmethod
    def from_jsonl(cls, path) -> "ProofLog":
        steps: List[Tuple[str, Tuple[int, ...]]] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                steps.append((row["op"], tuple(row["lits"])))
        return cls(steps)

    def to_drup(self) -> str:
        """Standard DRUP text: learned and deleted clauses only
        (original clauses live in the DIMACS file, not the proof)."""
        lines = []
        for kind, lits in self.steps:
            if kind == STEP_LEARN:
                lines.append(" ".join(map(str, lits)) + " 0")
            elif kind == STEP_DELETE:
                lines.append("d " + " ".join(map(str, lits)) + " 0")
        return "\n".join(lines) + ("\n" if lines else "")


def _code(lit: int) -> int:
    """The checker's internal code of a DIMACS literal: ``2v`` for ``v``,
    ``2v + 1`` for ``-v``, so ``code ^ 1`` is the negation."""
    return lit << 1 if lit > 0 else (-lit << 1) | 1


class RupChecker:
    """Reverse-unit-propagation proof replay, independent of the solver.

    Maintains its own clause database, watch lists, and a persistent
    *root* assignment (the fixpoint of unit propagation over the clauses
    added so far). :meth:`check_rup` and :meth:`check_conflict` make
    temporary assumptions on top of the root state and undo them.

    The interface speaks DIMACS literals; inside, a literal is its
    :func:`_code`. A clause is a list of codes whose first two entries are
    watched, ``_watches`` is a list indexed by code, and ``_value[code]``
    is 1 (true), 0 (false) or ``_UNASSIGNED``; a variable's two codes are
    set and cleared together, so propagation reads one list entry per
    literal.

    The implementation intentionally shares nothing with
    :class:`repro.solver.sat.SatSolver` beyond the two-watched-literal
    idea — no conflict analysis, no heuristics, no backjumping — so a bug
    in the search cannot hide in its own certifier.
    """

    def __init__(self):
        self._value: List[int] = [_UNASSIGNED, _UNASSIGNED]
        # watches[c] = clauses currently watching code c (their [0] or
        # [1] is c); examined when c becomes false.
        self._watches: List[List[List[int]]] = [[], []]
        self._trail: List[int] = []               # codes, assignment order
        self._by_key: Dict[Tuple[int, ...], List[List[int]]] = {}
        self._root_reasons: set = set()           # id() of root-reason clauses
        self._at_root = False                     # recording root reasons?
        #: True once the empty clause is derivable at root level.
        self.contradiction = False

    # -- assignment plumbing -------------------------------------------

    def _ensure_var(self, var: int) -> None:
        grow = 2 * (var + 1) - len(self._value)
        if grow > 0:
            self._value.extend([_UNASSIGNED] * grow)
            self._watches.extend([] for _ in range(grow))

    @staticmethod
    def _key(lits: Iterable[int]) -> Tuple[int, ...]:
        return tuple(sorted(set(lits)))

    # -- clause database -----------------------------------------------

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a clause and propagate any unit consequence at root.

        Root assignments are permanent (the checker never retracts them;
        temporary assumptions are layered on top and undone), so a clause
        satisfied or unit at root needs no movable watches.
        """
        unique = self._key(lits)
        variables = set(map(abs, unique))
        self._ensure_var(max(variables, default=0))
        if len(variables) < len(unique):
            return  # tautology: inert under every assignment
        clause = [_code(lit) for lit in unique]
        self._by_key.setdefault(unique, []).append(clause)
        value = self._value
        nonfalse = []
        for code in clause:
            state = value[code]
            if state == 1:
                return  # permanently satisfied at root
            if state == _UNASSIGNED:
                nonfalse.append(code)
        if not nonfalse:
            self.contradiction = True
            return
        if len(nonfalse) == 1:
            # Unit at root: extend the permanent assignment.
            start = len(self._trail)
            self._assign(nonfalse[0])
            self._root_reasons.add(id(clause))
            self._at_root = True
            try:
                if self._propagate_from(start) is not None:
                    self.contradiction = True
            finally:
                self._at_root = False
            return
        # Two non-false literals exist: put them first and watch them.
        watched = nonfalse[:2]
        if clause[:2] != watched:
            clause[:] = watched + [code for code in clause
                                   if code not in watched]
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    def delete_clause(self, lits: Sequence[int]) -> None:
        """Remove one copy of a clause (drat-trim reason-guard applied)."""
        key = self._key(lits)
        bucket = self._by_key.get(key)
        if not bucket:
            return  # unknown deletion target: ignore (tautology or dup)
        clause = bucket[-1]
        if id(clause) in self._root_reasons:
            return  # the clause forced a root literal: keep it sound
        bucket.pop()
        if not bucket:
            del self._by_key[key]
        for watched in clause[:2]:
            watchlist = self._watches[watched]
            for index, other in enumerate(watchlist):
                if other is clause:
                    del watchlist[index]
                    break

    # -- propagation ---------------------------------------------------

    def _assign(self, code: int) -> None:
        self._value[code] = 1
        self._value[code ^ 1] = 0
        self._trail.append(code)

    def _propagate_from(self, start: int) -> Optional[List[int]]:
        """Unit propagation over trail literals from index `start` on;
        returns the first falsified clause, or None at fixpoint.

        Each watch list is compacted in place: clauses that keep their
        watch slide down over those that moved to another literal, and on
        a conflict the unvisited tail is kept behind them.
        """
        trail = self._trail
        watches = self._watches
        value = self._value
        at_root = self._at_root
        qhead = start
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchlist = watches[false_lit]
            if not watchlist:
                continue
            j = 0
            for i, clause in enumerate(watchlist):
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                if value[first] == 1:
                    watchlist[j] = clause  # satisfied via the other watch
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] != 0:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches[lit].append(clause)
                        break
                else:
                    watchlist[j] = clause
                    j += 1
                    if value[first] == 0:
                        del watchlist[j:i + 1]
                        return clause      # all literals false: conflict
                    value[first] = 1       # unit
                    value[first ^ 1] = 0
                    trail.append(first)
                    if at_root:
                        self._root_reasons.add(id(clause))
            del watchlist[j:]
        return None

    # -- checks --------------------------------------------------------

    def _assume_and_propagate(self, lits: Sequence[int]) -> bool:
        """Push `lits` on top of the root state; True iff a conflict arises.

        Always undoes back to the root assignment before returning.
        """
        if self.contradiction:
            return True
        start = len(self._trail)
        try:
            for lit in lits:
                self._ensure_var(abs(lit))
                code = _code(lit)
                value = self._value[code]
                if value == 0:
                    return True
                if value == _UNASSIGNED:
                    self._assign(code)
            return self._propagate_from(start) is not None
        finally:
            value = self._value
            for code in self._trail[start:]:
                value[code] = value[code ^ 1] = _UNASSIGNED
            del self._trail[start:]

    def check_rup(self, lits: Sequence[int]) -> bool:
        """Is the clause a reverse-unit-propagation consequence?"""
        return self._assume_and_propagate([-lit for lit in self._key(lits)])

    def check_conflict(self, assumptions: Sequence[int] = ()) -> bool:
        """Does asserting `assumptions` yield a conflict by propagation?"""
        return self._assume_and_propagate(list(assumptions))


def check_proof(proof: ProofLog, core: Sequence[int] = ()) -> Dict[str, int]:
    """Validate an UNSAT answer against its DRUP proof.

    Replays `proof`: every learned clause must be RUP w.r.t. the clause
    database at its point in the trace (inputs plus surviving learned
    clauses), and the conclusion — a conflict under the claimed `core` of
    assumption literals, or the empty clause when `core` is empty — must
    follow by unit propagation from the final database.

    Returns replay statistics; raises :class:`CertificationError` on the
    first invalid step.
    """
    checker = RupChecker()
    checked = 0
    for index, (kind, lits) in enumerate(proof.steps):
        if kind == STEP_INPUT:
            checker.add_clause(lits)
        elif kind == STEP_LEARN:
            if not checker.contradiction and not checker.check_rup(lits):
                raise CertificationError(
                    "proof",
                    f"step {index}: learned clause {list(lits)} is not a "
                    "reverse-unit-propagation consequence")
            checker.add_clause(lits)
            checked += 1
        elif kind == STEP_DELETE:
            checker.delete_clause(lits)
        else:
            raise CertificationError("proof",
                                     f"step {index}: unknown kind {kind!r}")
    if not checker.check_conflict(core):
        claim = (f"assumption core {list(core)}" if core
                 else "the empty clause")
        raise CertificationError(
            "proof", f"conclusion unsupported: propagation under {claim} "
            "does not conflict")
    return {"steps": len(proof.steps), "rup_checked": checked,
            "core": len(core)}


def check_model(proof: ProofLog, model: Dict[int, bool],
                assumptions: Sequence[int] = ()) -> Dict[str, int]:
    """Validate a SAT answer: the model must satisfy every input clause.

    `model` maps external variables to booleans (missing variables count
    as False, matching :meth:`repro.solver.sat.SatSolver.model`); every
    `assumptions` literal must additionally hold. This is a pure CNF
    evaluation — no solver state is consulted.
    """
    def _true(lit: int) -> bool:
        value = model.get(abs(lit), False)
        return value if lit > 0 else not value

    for lit in assumptions:
        if not _true(lit):
            raise CertificationError(
                "model", f"assumption literal {lit} is false in the model")
    clauses = 0
    # Hot loop: certify-on overhead is dominated by this scan (every
    # input clause, every check), so the literal test is inlined rather
    # than routed through `_true`.
    get = model.get
    for kind, lits in proof.steps:
        if kind != STEP_INPUT:
            continue
        clauses += 1
        for lit in lits:
            if get(lit, False) if lit > 0 else not get(-lit, False):
                break
        else:
            raise CertificationError(
                "model", f"input clause {list(lits)} is falsified")
    return {"clauses": clauses, "assumptions": len(assumptions)}


def recheck_unsat(clauses: Iterable[Sequence[int]],
                  assumptions: Sequence[int] = ()) -> Dict[str, int]:
    """Re-prove unsatisfiability from scratch with a fresh one-shot solver.

    Used to certify *cores* (failed-assumption sets and
    ``minimize_core`` outputs): the original `clauses` plus the core
    `assumptions` are handed to a brand-new :class:`SatSolver` with proof
    logging on; it must answer UNSAT, and its proof is then independently
    checked. A SAT answer means the claimed core is not actually a core.
    """
    from repro.solver.sat import SatResult, SatSolver  # local: avoid cycle

    solver = SatSolver()
    proof = solver.enable_proof()
    for clause in clauses:
        solver.add_clause(list(clause))
    result = solver.solve(list(assumptions))
    if result is SatResult.SAT:
        raise CertificationError(
            "core", f"claimed core {list(assumptions)} is satisfiable "
            "with the original clauses")
    if result is not SatResult.UNSAT:
        raise CertificationError(
            "core", f"re-proving the core returned {result.value!r}")
    stats = check_proof(proof, core=list(assumptions))
    stats["conflicts"] = solver.num_conflicts
    return stats
