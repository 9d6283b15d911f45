"""Baseline symbolic-encoding strategies (§3 of the paper).

Two comparison points for the SVM's type-driven merging:

- :mod:`repro.baselines.symex` — classic **symbolic execution** (§3.2):
  path-by-path exploration with no state merging. Concrete evaluation is
  maximal, but the number of explored paths — and solver calls — grows
  exponentially with the number of symbolic branches.
- :mod:`repro.baselines.bmc` — **BMC-style merging** (§3.3): states merge
  at every join, but only primitives merge logically; every non-primitive
  merge manufactures a new union entry, modelling how bounded model
  checking turns concrete values symbolic after a few merges and loses
  concrete-evaluation opportunities.

Both baselines run the *same* Python-embedded programs as the SVM, so the
ablation benchmarks (`benchmarks/bench_ablation.py`) compare the three
strategies on identical workloads.
"""

from repro.baselines.symex import PathResult, SymbolicExecutor
from repro.baselines.bmc import run_with_logical_merging

__all__ = [
    "PathResult", "SymbolicExecutor",
    "run_with_logical_merging",
]
