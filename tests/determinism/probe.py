"""Solver-effort counters of a few small paper queries, as JSON.

Run as a script, in a fresh interpreter::

    PYTHONPATH=src python tests/determinism/probe.py [--reverse] [--write]

It runs each query of :data:`QUERIES` once (in reverse with
``--reverse``), collects its garbage, and prints one JSON object mapping
the query's label to its counters: SAT conflicts and propagations, the
CNF clause count summed over its solver checks (perfbench's
``cnf.clauses``), control-flow joins and the union-cardinality sum.
``--write`` stores the result as the golden file that
``test_golden_counters.py`` compares against.
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

from repro.queries import verify
from repro.sdsl.ifcl import BUGGY_MACHINES, CORRECT_MACHINES, eeni_thunks
from repro.sdsl.synthcl import run_benchmark
from repro.smt.solver import SmtSolver
from repro.sym import set_default_int_width

GOLDEN = Path(__file__).with_name("golden_counters.json")

# Integer widths of the paper benchmarks: IFCL 5-bit, SynthCL 8-bit.
IFCL_WIDTH = 5
SYNTHCL_WIDTH = 8

# (label, kind, name, bound): EENI verification of IFCL machines and
# CEGIS completion of SynthCL sketches.
QUERIES = (
    ("CR1@2", "eeni", "CR1", 2),
    ("B2@3", "eeni", "B2", 3),
    ("basic@2", "eeni", "basic", 2),
    ("J1@2", "eeni", "J1", 2),
    ("FWT2s2", "cegis", "FWT2s", 2),
    ("SF3s(1, 2)", "cegis", "SF3s", (1, 2)),
)

_CLAUSES = [0]


def _counting_check(check):
    def counted(self, *args, **kwargs):
        _CLAUSES[0] += self.sat.num_clauses
        return check(self, *args, **kwargs)
    return counted


def run_query(kind: str, name: str, bound):
    if kind == "eeni":
        set_default_int_width(IFCL_WIDTH)
        machine = {**BUGGY_MACHINES, **CORRECT_MACHINES}[name]
        setup, check, _ = eeni_thunks(machine, bound)
        return verify(check, setup=setup)
    set_default_int_width(SYNTHCL_WIDTH)
    return run_benchmark(name, bounds=[bound])


def probe(reverse: bool = False) -> dict:
    SmtSolver.check = _counting_check(SmtSolver.check)
    counters = {}
    for label, kind, name, bound in (QUERIES[::-1] if reverse else QUERIES):
        _CLAUSES[0] = 0
        outcome = run_query(kind, name, bound)
        stats = outcome.stats
        counters[label] = {
            "status": outcome.status,
            "conflicts": stats.solver_conflicts,
            "propagations": stats.solver_propagations,
            "cnf_clauses": _CLAUSES[0],
            "joins": stats.joins,
            "union_card_sum": stats.union_cardinality_sum,
        }
        del outcome, stats
        gc.collect()
    return {label: counters[label] for label, *_ in QUERIES}


def main(argv) -> None:
    counters = probe(reverse="--reverse" in argv)
    text = json.dumps(counters, indent=1, sort_keys=True)
    if "--write" in argv:
        GOLDEN.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main(sys.argv[1:])
