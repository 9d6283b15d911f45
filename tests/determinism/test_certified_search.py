"""Certification watches the search without steering it.

With ``REPRO_CERTIFY=1`` every clause is also written to a DRUP proof log
and every answer is checked, but the SAT solver must attach the same
clauses and take the same search: an IFCL verification query and a
SynthCL CEGIS query from ``probe.py`` store the same number of clauses
and make the same conflicts, decisions and propagations with
certification on as with it off.
"""

import pytest

import probe
from probe import QUERIES, run_query
from repro.smt.solver import SmtSolver

CASES = [query for query in QUERIES if query[0] in ("CR1@2", "SF3s(1, 2)")]


@pytest.mark.parametrize("label, kind, name, bound", CASES,
                         ids=[case[0] for case in CASES])
def test_certified_search_is_the_plain_search(monkeypatch, label, kind,
                                              name, bound):
    monkeypatch.delenv("REPRO_ANALYZE", raising=False)
    monkeypatch.delenv("REPRO_CERTIFY", raising=False)
    # Sum the stored clauses over the checks, as perfbench's cnf.clauses.
    monkeypatch.setattr(SmtSolver, "check",
                        probe._counting_check(SmtSolver.check))
    clauses = probe._CLAUSES
    clauses[0] = 0
    plain = run_query(kind, name, bound).stats
    plain_clauses, clauses[0] = clauses[0], 0
    monkeypatch.setenv("REPRO_CERTIFY", "1")
    certified = run_query(kind, name, bound).stats
    assert clauses[0] == plain_clauses > 0
    assert plain.certified_checks == 0
    assert certified.certified_checks == certified.solver_checks > 0
    effort = ("solver_checks", "solver_conflicts", "solver_decisions",
              "solver_propagations", "solver_learned")
    assert [getattr(certified, field) for field in effort] == \
        [getattr(plain, field) for field in effort]
