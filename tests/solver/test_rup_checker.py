"""Directed tests of the RUP checker's watch lists.

The checker keeps each clause on the watch lists of its first two
literals and compacts a list in place while propagating. These tests pin
the cases where compaction can lose a clause: a conflict part-way through
a list, a guarded deletion of a root reason, and whole proof replays.
"""

import random
from collections import Counter

import pytest

from repro.solver.certify import STEP_DELETE, STEP_INPUT, STEP_LEARN, \
    RupChecker, _code
from repro.solver.sat import SatResult, SatSolver


def _clause(checker, lits):
    """The checker's (only) stored copy of the clause `lits`."""
    copies = checker._by_key[tuple(sorted(lits))]
    assert len(copies) == 1
    return copies[0]


def assert_watch_invariants(checker):
    """Each live clause with no literal true at root sits on exactly two
    watch lists, those of its first two literals (short of a root
    contradiction); no dead clause is watched."""
    counts = Counter(id(clause) for watchlist in checker._watches
                     for clause in watchlist)
    live = [clause for copies in checker._by_key.values()
            for clause in copies]
    assert set(counts) <= {id(clause) for clause in live}
    value = checker._value
    for clause in live:
        if checker.contradiction or any(value[code] == 1 for code in clause):
            assert counts[id(clause)] in (0, 2)
        else:
            assert counts[id(clause)] == 2, clause
        if counts[id(clause)]:
            for code in clause[:2]:
                assert any(other is clause
                           for other in checker._watches[code])


def test_conflict_mid_watch_list_keeps_the_unvisited_tail():
    checker = RupChecker()
    # All three clauses watch -1, in this order: assuming 1 implies 2 from
    # the first, conflicts on the second, and leaves [-1, 4] unvisited.
    for clause in ([-1, 2], [-1, -2], [-1, 4], [-4, 7], [-4, -7]):
        checker.add_clause(clause)
    tail = _clause(checker, [-1, 4])
    assert checker.check_conflict([1])
    assert any(clause is tail for clause in checker._watches[_code(-1)])
    assert_watch_invariants(checker)
    # Without the first two clauses, 1 conflicts only through [-1, 4]:
    # 4, then 7 and -7. A dropped tail would leave -1 with no watchers.
    checker.delete_clause([-1, 2])
    checker.delete_clause([-1, -2])
    assert checker.check_conflict([1])
    assert not checker.check_conflict([-1])


def test_root_reason_clause_survives_its_deletion_step():
    checker = RupChecker()
    checker.add_clause([-1, 2])          # watched on -1 and 2
    checker.add_clause([1])              # root unit; [-1, 2] forces 2
    reason = _clause(checker, [-1, 2])
    checker.delete_clause([-1, 2])       # drat-trim guard: kept
    assert _clause(checker, [-1, 2]) is reason
    assert sum(clause is reason for watchlist in checker._watches
               for clause in watchlist) == 2
    assert checker.check_conflict([-2])
    assert_watch_invariants(checker)


def test_unguarded_deletion_unwatches_the_clause():
    checker = RupChecker()
    checker.add_clause([1, 2, 3])
    checker.add_clause([1, 2, 3])
    first, second = checker._by_key[(1, 2, 3)]
    checker.delete_clause([3, 2, 1])     # removes the newest copy
    [kept] = checker._by_key[(1, 2, 3)]
    assert kept is first
    assert not any(clause is second for watchlist in checker._watches
                   for clause in watchlist)
    assert_watch_invariants(checker)


def _random_proof(rng, num_vars, num_clauses):
    solver = SatSolver()
    proof = solver.enable_proof()
    for _ in range(num_vars):
        solver.new_var()
    for _ in range(num_clauses):
        solver.add_clause([rng.randint(1, num_vars) * rng.choice((1, -1))
                           for _ in range(3)])
    result = solver.solve()
    return proof, result


@pytest.mark.parametrize("seed", range(12))
def test_replay_keeps_every_clause_watched_twice(seed):
    rng = random.Random(seed)
    proof, result = _random_proof(rng, 40, 172)
    assert result in (SatResult.SAT, SatResult.UNSAT)
    checker = RupChecker()
    learned = []
    for kind, lits in proof.steps:
        if kind == STEP_INPUT:
            checker.add_clause(lits)
        elif kind == STEP_LEARN:
            assert checker.contradiction or checker.check_rup(lits)
            checker.add_clause(lits)
            learned.append(lits)
        elif kind == STEP_DELETE:
            checker.delete_clause(lits)
        assert_watch_invariants(checker)
    # Deleting learned clauses afterwards keeps the lists exact too.
    for lits in learned[::2]:
        checker.delete_clause(lits)
        assert_watch_invariants(checker)
    assert checker.check_conflict([]) is (result is SatResult.UNSAT)
