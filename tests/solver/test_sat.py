"""Unit and property tests for the CDCL SAT solver."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.solver.budget import Budget
from repro.solver.sat import SatResult, SatSolver, _luby


def brute_force_sat(num_vars, clauses):
    """Reference decision procedure by exhaustive enumeration."""
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any((bits[abs(l) - 1] if l > 0 else not bits[abs(l) - 1])
                   for l in clause) for clause in clauses):
            return True
    return False


class TestBasics:
    def test_empty_problem_is_sat(self):
        assert SatSolver().solve() is SatResult.SAT

    def test_single_unit_clause(self):
        solver = SatSolver()
        x = solver.new_var()
        solver.add_clause([x])
        assert solver.solve() is SatResult.SAT
        assert solver.model_value(x) is True

    def test_contradicting_units(self):
        solver = SatSolver()
        x = solver.new_var()
        solver.add_clause([x])
        assert not solver.add_clause([-x])
        assert solver.solve() is SatResult.UNSAT

    def test_binary_implication_chain(self):
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(10)]
        for a, b in zip(variables, variables[1:]):
            solver.add_clause([-a, b])
        solver.add_clause([variables[0]])
        assert solver.solve() is SatResult.SAT
        assert all(solver.model_value(v) for v in variables)

    def test_tautology_is_dropped(self):
        solver = SatSolver()
        x = solver.new_var()
        assert solver.add_clause([x, -x])
        assert solver.solve() is SatResult.SAT

    def test_duplicate_literals_collapse(self):
        solver = SatSolver()
        x = solver.new_var()
        solver.add_clause([x, x, x])
        assert solver.solve() is SatResult.SAT
        assert solver.model_value(x) is True

    def test_pigeonhole_3_into_2_unsat(self):
        # Three pigeons, two holes: classic small UNSAT instance.
        solver = SatSolver()
        var = {(p, h): solver.new_var() for p in range(3) for h in range(2)}
        for p in range(3):
            solver.add_clause([var[(p, 0)], var[(p, 1)]])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    solver.add_clause([-var[(p1, h)], -var[(p2, h)]])
        assert solver.solve() is SatResult.UNSAT

    def test_model_satisfies_all_clauses(self):
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(6)]
        clauses = [[1, -2, 3], [-1, 4], [2, -5, 6], [-4, -6], [5, 1]]
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is SatResult.SAT
        model = solver.model()
        for clause in clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause)

    def test_solver_reusable_after_unsat_assumptions(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([-a, -b])
        assert solver.solve([a, b]) is SatResult.UNSAT
        assert solver.solve([a]) is SatResult.SAT
        assert solver.solve() is SatResult.SAT

    def test_conflict_budget_gives_unknown(self):
        solver = SatSolver()
        # A hard-enough pigeonhole so that 1 conflict is not sufficient.
        var = {(p, h): solver.new_var() for p in range(5) for h in range(4)}
        for p in range(5):
            solver.add_clause([var[(p, h)] for h in range(4)])
        for h in range(4):
            for p1 in range(5):
                for p2 in range(p1 + 1, 5):
                    solver.add_clause([-var[(p1, h)], -var[(p2, h)]])
        solver.budget = Budget(conflicts=0)   # trips at the first conflict
        assert solver.solve() in (SatResult.UNKNOWN, SatResult.UNSAT)


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = SatSolver()
        x = solver.new_var()
        assert solver.solve([-x]) is SatResult.SAT
        assert solver.model_value(x) is False

    def test_core_is_subset_of_assumptions(self):
        solver = SatSolver()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([-a, -b])
        assert solver.solve([a, b, c]) is SatResult.UNSAT
        core = solver.unsat_core()
        assert set(core) <= {a, b, c}
        assert set(core) >= {a} or set(core) >= {b}

    def test_conflicting_assumptions(self):
        solver = SatSolver()
        x = solver.new_var()
        assert solver.solve([x, -x]) is SatResult.UNSAT
        assert set(solver.unsat_core()) == {x, -x}

    def test_core_through_propagation_chain(self):
        solver = SatSolver()
        a, b, c, d = (solver.new_var() for _ in range(4))
        solver.add_clause([-a, b])
        solver.add_clause([-b, c])
        solver.add_clause([-c, -d])
        assert solver.solve([a, d]) is SatResult.UNSAT
        assert set(solver.unsat_core()) == {a, d}

    def test_toplevel_unsat_has_empty_core(self):
        solver = SatSolver()
        x = solver.new_var()
        solver.add_clause([x])
        solver.add_clause([-x])
        assert solver.solve([x]) is SatResult.UNSAT
        assert solver.unsat_core() == []


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == \
            [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


@st.composite
def cnf_instances(draw):
    num_vars = draw(st.integers(min_value=1, max_value=7))
    num_clauses = draw(st.integers(min_value=1, max_value=20))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = [draw(st.integers(min_value=1, max_value=num_vars)) *
                  draw(st.sampled_from([1, -1])) for _ in range(width)]
        clauses.append(clause)
    return num_vars, clauses


class TestAgainstBruteForce:
    @given(cnf_instances())
    @settings(max_examples=200, deadline=None)
    def test_decision_matches_brute_force(self, instance):
        num_vars, clauses = instance
        solver = SatSolver()
        for _ in range(num_vars):
            solver.new_var()
        ok = True
        for clause in clauses:
            if not solver.add_clause(clause):
                ok = False
                break
        result = solver.solve() if ok else SatResult.UNSAT
        assert (result is SatResult.SAT) == brute_force_sat(num_vars, clauses)
        if result is SatResult.SAT:
            model = solver.model()
            for clause in clauses:
                assert any(model.get(abs(l), True) == (l > 0) for l in clause)

    @given(cnf_instances(), st.lists(st.integers(min_value=1, max_value=7),
                                     min_size=0, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_unsat_core_is_really_unsat(self, instance, assumption_vars):
        num_vars, clauses = instance
        assumptions = sorted({v for v in assumption_vars if v <= num_vars})
        solver = SatSolver()
        for _ in range(num_vars):
            solver.new_var()
        ok = all(solver.add_clause(clause) for clause in clauses)
        if not ok:
            return
        if solver.solve(assumptions) is SatResult.UNSAT and \
                brute_force_sat(num_vars, clauses):
            core = solver.unsat_core()
            assert set(core) <= set(assumptions)
            with_core = clauses + [[lit] for lit in core]
            assert not brute_force_sat(num_vars, with_core)


internal = SatSolver._to_internal


def assert_invariants(solver):
    """The solver's redundant data structures agree (checked at level 0)."""
    watched = {}
    for watch_lit, watchlist in enumerate(solver._watches):
        for clause in watchlist:
            watched.setdefault(id(clause), []).append(watch_lit)
    for clause in solver._clauses + solver._learnts:
        assert len(clause.lits) >= 2
        # Exactly once in each of its two watch lists, and in no other.
        assert sorted(watched.pop(id(clause))) == \
            sorted([clause.lits[0] ^ 1, clause.lits[1] ^ 1])
    assert not watched
    order, order_pos = solver._order, solver._order_pos
    assert len(order_pos) == solver._num_vars
    assert [order_pos[var] for var in order] == list(range(len(order)))
    assert sum(pos >= 0 for pos in order_pos) == len(order)
    activity = solver._activity
    for pos in range(1, len(order)):
        assert activity[order[(pos - 1) >> 1]] >= activity[order[pos]]
    values = [-1] * (2 * solver._num_vars)
    for lit in solver._trail:
        values[lit], values[lit ^ 1] = 1, 0
    assert solver._values == values
    for var in range(solver._num_vars):
        if values[2 * var] == -1:
            assert order_pos[var] >= 0   # every unassigned var is decidable
    assert solver._qhead == len(solver._trail)


class TestInvariants:
    @given(cnf_instances(),
           st.lists(st.lists(st.integers(min_value=-7, max_value=7)
                             .filter(bool), max_size=4),
                    min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_structures_agree_after_every_solve(self, instance,
                                                assumption_sets):
        num_vars, clauses = instance
        solver = SatSolver()
        for _ in range(num_vars):
            solver.new_var()
        # Half the clauses go in before the first solve, half after it, so
        # ingest also runs against level-0 assignments and learnt clauses.
        half = len(clauses) // 2
        for clause in clauses[:half]:
            solver.add_clause(clause)
        assert_invariants(solver)
        for index, assumptions in enumerate(assumption_sets):
            assumptions = [lit for lit in assumptions if abs(lit) <= num_vars]
            result = solver.solve(assumptions)
            assert_invariants(solver)
            if result is SatResult.SAT:
                model = solver.model()
                for clause in clauses[:half] if index == 0 else clauses:
                    assert any(model[abs(l)] == (l > 0) for l in clause)
                for lit in assumptions:
                    assert model[abs(lit)] == (lit > 0)
            if index == 0:
                for clause in clauses[half:]:
                    solver.add_clause(clause)
                assert_invariants(solver)

    def test_conflict_keeps_the_unvisited_watches(self):
        solver = SatSolver()
        a, b, c, d = (solver.new_var() for _ in range(4))
        # All three clauses watch -a, in this order: making a true implies
        # b, then conflicts on the second clause before visiting the third.
        for clause in ([-a, b], [-a, -b], [-a, c, d]):
            solver.add_clause(clause)
        assert solver.solve([a]) is SatResult.UNSAT
        assert solver.unsat_core() == [a]
        assert_invariants(solver)


class TestClauseIngest:
    """``add_clause`` scans the sorted clause once: it drops duplicates and
    literals false at level 0, and stores nothing for a tautology or a
    clause satisfied at level 0."""

    def setup_solver(self):
        solver = SatSolver()
        proof = solver.enable_proof()
        x, a, b = (solver.new_var() for _ in range(3))
        solver.add_clause([x])    # x is true at level 0
        return solver, proof, x, a, b

    def ingest(self, clause_of):
        """Add ``clause_of(x, a, b)``; returns what the solver kept."""
        solver, proof, x, a, b = self.setup_solver()
        clause = clause_of(x, a, b)
        ok = solver.add_clause(clause)
        assert proof.input_clauses()[-1] == tuple(clause)  # logged as given
        assert_invariants(solver)
        stored = [list(c.lits) for c in solver._clauses]
        return ok, stored, list(solver._trail), solver._ok, (x, a, b)

    def test_distinct_unassigned_literals_are_stored_sorted(self):
        ok, stored, trail, solver_ok, (x, a, b) = \
            self.ingest(lambda x, a, b: [b, -a])
        assert (ok, solver_ok) == (True, True)
        assert stored == [sorted([internal(b), internal(-a)])]
        assert trail == [internal(x)]

    def test_literal_false_at_level_0_is_dropped(self):
        ok, stored, trail, solver_ok, (x, a, b) = \
            self.ingest(lambda x, a, b: [-x, b, a])
        assert (ok, solver_ok) == (True, True)
        assert stored == [[internal(a), internal(b)]]
        assert trail == [internal(x)]

    def test_clause_satisfied_at_level_0_is_not_stored(self):
        ok, stored, trail, solver_ok, (x, a, b) = \
            self.ingest(lambda x, a, b: [a, x])
        assert (ok, solver_ok, stored, trail) == \
            (True, True, [], [internal(x)])

    def test_duplicate_literal_collapses(self):
        ok, stored, trail, solver_ok, (x, a, b) = \
            self.ingest(lambda x, a, b: [b, a, b])
        assert (ok, solver_ok) == (True, True)
        assert stored == [[internal(a), internal(b)]]
        assert trail == [internal(x)]

    def test_tautology_is_not_stored(self):
        ok, stored, trail, solver_ok, (x, a, b) = \
            self.ingest(lambda x, a, b: [a, b, -a])
        assert (ok, solver_ok, stored, trail) == \
            (True, True, [], [internal(x)])

    def test_duplicate_of_a_dropped_literal_is_dropped(self):
        ok, stored, trail, solver_ok, (x, a, b) = \
            self.ingest(lambda x, a, b: [-x, b, -x, a])
        assert (ok, solver_ok) == (True, True)
        assert stored == [[internal(a), internal(b)]]
        assert trail == [internal(x)]

    def test_tautology_after_a_duplicate_is_not_stored(self):
        ok, stored, trail, solver_ok, (x, a, b) = \
            self.ingest(lambda x, a, b: [b, -a, a, a])
        assert (ok, solver_ok, stored, trail) == \
            (True, True, [], [internal(x)])

    def test_tautology_over_a_level_0_variable_is_not_stored(self):
        ok, stored, trail, solver_ok, (x, a, b) = \
            self.ingest(lambda x, a, b: [-x, a, x])
        assert (ok, solver_ok, stored, trail) == \
            (True, True, [], [internal(x)])

    def test_unit_is_assigned_and_propagated(self):
        solver, proof, x, a, b = self.setup_solver()
        assert solver.add_clause([-a, b])
        assert solver.add_clause([a])
        assert solver._trail == [internal(x), internal(a), internal(b)]
        assert solver._ok
        assert proof.input_clauses() == [(x,), (-a, b), (a,)]
        assert_invariants(solver)

    def test_false_unit_is_a_toplevel_conflict(self):
        ok, stored, trail, solver_ok, (x, a, b) = \
            self.ingest(lambda x, a, b: [-x])
        assert (ok, solver_ok, stored, trail) == \
            (False, False, [], [internal(x)])
