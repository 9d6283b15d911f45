"""Record the SAT solver calls of one perfbench pass; replay them under two
``sat.py`` files, interleaved in one process.

A perfbench run times whole passes in fresh interpreters, so a SAT-layer
A/B comparison there also measures how the host's speed drifts between
runs. This tool removes the rest of the stack and the drift: it records
every :class:`~repro.solver.sat.SatSolver` call of one pass
(``new_var``, ``add_clause``, ``enable_proof`` and ``solve`` with its
assumptions and budget chain), then replays each recorded solver under a
baseline and a candidate ``sat.py``, alternating which goes first. Both
replays must give the same answers, models, unsat cores and counters
(conflicts, decisions, propagations, learned clauses) as each other and as
the recording. It prints each version's ingest time (everything outside
``solve``) and search time. It is a development tool, not a gate.

A ``solve`` is recorded with every budget of its chain (the solver's
budget and its parents): the conflict, propagation and learned caps and
what each budget had spent when the call began. Replay rebuilds that
chain with the same spend before each ``solve``, so a budget that the
recorded pass shared across solves (a query budget, the CEGIS guess and
check solvers) trips at the same point. Deadlines and cancellation are
not recorded, as they depend on the host's speed: a recording in which
one of them tripped does not replay, and replay reports the divergence.

Usage (from the repository root; the baseline here is the last commit's
``sat.py`` and the candidate the working tree's)::

    git show HEAD:src/repro/solver/sat.py > /tmp/sat_base.py
    PYTHONPATH=src python benchmarks/sat_replay.py record \\
        --workload synth_cegis --seed 1
    PYTHONPATH=src python benchmarks/sat_replay.py replay \\
        benchmarks/sat_traces/synth_cegis-1.pickle \\
        --baseline /tmp/sat_base.py --rounds 3

``record`` runs the workload's query list from ``perfbench/workloads.py``
(with ``perfbench/run.py``'s environment for ``ifcl_checked``) against
the code in ``src``. ``--candidate`` defaults to ``src``'s ``sat.py``.
Both versions must keep the ``SatSolver`` API used above. Traces are
pickles, so replay only traces you recorded yourself.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import pickle
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACES = ROOT / "benchmarks" / "sat_traces"

# Operation codes of a recorded solver's call list.
NEW_VAR, ADD_CLAUSE, ENABLE_PROOF, SOLVE = range(4)


def _record_calls(sat_module):
    """Patch `sat_module.SatSolver` to log its outermost public calls.

    Returns the list of per-solver call lists, filled as solvers run.
    """
    cls = sat_module.SatSolver
    solvers = []
    depth = [0]    # calls made by the solver itself are not recorded

    def wrap(method, log, before=lambda self: None):
        def recorded(self, *args):
            outer = depth[0] == 0
            state = before(self) if outer else None
            depth[0] += 1
            try:
                result = method(self, *args)
            finally:
                depth[0] -= 1
            if outer:
                log(self, args, result, state)
            return result
        return recorded

    def log_solve(self, args, result, chain):
        self._calls.append((SOLVE, tuple(args[0]) if args else (), chain,
                            _outcome(self, result)))

    original_init = cls.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._calls = []
        solvers.append(self._calls)

    cls.__init__ = init
    cls.new_var = wrap(cls.new_var,
                       lambda self, args, result, state:
                       self._calls.append((NEW_VAR,)))
    cls.add_clause = wrap(cls.add_clause,
                          lambda self, args, result, state:
                          self._calls.append((ADD_CLAUSE, tuple(args[0]))))
    cls.enable_proof = wrap(cls.enable_proof,
                            lambda self, args, result, state:
                            self._calls.append((ENABLE_PROOF,)))
    cls.solve = wrap(cls.solve, log_solve,
                     lambda self: _budget_chain(self.budget))
    return solvers


def _budget_chain(budget):
    """The spend caps and spend so far of `budget` and each of its parents.

    None when the solver has no budget. Deadlines and tokens are left out:
    they would make the replay depend on the host's speed.
    """
    if budget is None:
        return None
    chain = []
    while budget is not None:
        chain.append((budget.limit_conflicts, budget.limit_propagations,
                      budget.limit_learned, budget.spent_conflicts,
                      budget.spent_propagations, budget.spent_learned))
        budget = budget.parent
    return tuple(chain)


def _rebuild_budget(module, chain):
    """A fresh budget chain with the recorded caps and spend."""
    if chain is None:
        return None
    budget = None
    for (conflicts, propagations, learned, spent_conflicts,
         spent_propagations, spent_learned) in reversed(chain):
        budget = module.Budget(conflicts=conflicts,
                               propagations=propagations, learned=learned,
                               parent=budget)
        budget.spent_conflicts = spent_conflicts
        budget.spent_propagations = spent_propagations
        budget.spent_learned = spent_learned
    return budget


def _outcome(solver, result):
    """What a replay of one ``solve`` must reproduce."""
    model = solver.model_snapshot()
    # Int hashing is not randomised, so the model's hash is stable across
    # processes and keeps the trace small.
    return (result.value, solver.num_conflicts, solver.num_decisions,
            solver.num_propagations, solver.num_learned,
            None if model is None else hash(tuple(model)),
            tuple(solver.unsat_core()))


def record(workload: str, seed: int, out: Path) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench_run
    import workloads

    if workload == "ifcl_checked":
        os.environ.update(perfbench_run.CHECKED_ENV)
    from repro.solver import sat

    solvers = _record_calls(sat)
    queries = workloads.build(workload, seed)
    for query in queries:
        query.run()
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "wb") as handle:
        pickle.dump({"workload": workload, "seed": seed,
                     "solvers": [calls for calls in solvers if calls]},
                    handle, protocol=pickle.HIGHEST_PROTOCOL)
    calls = sum(len(calls) for calls in solvers)
    print(f"sat_replay: recorded {len(queries)} queries, {len(solvers)} "
          f"solvers, {calls} calls -> {out}")


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _replay(module, calls):
    """Run one solver's calls; returns (ingest_s, search_s, outcomes)."""
    gc.collect()
    solver = module.SatSolver()
    ingest = search = 0.0
    outcomes = []
    started = time.perf_counter()
    for call in calls:
        code = call[0]
        if code == ADD_CLAUSE:
            solver.add_clause(call[1])
        elif code == NEW_VAR:
            solver.new_var()
        elif code == SOLVE:
            _, assumptions, chain, _ = call
            solver.budget = _rebuild_budget(module, chain)
            before = time.perf_counter()
            ingest += before - started
            result = solver.solve(assumptions)
            started = time.perf_counter()
            search += started - before
            outcomes.append(_outcome(solver, result))
        else:
            solver.enable_proof()
    ingest += time.perf_counter() - started
    return ingest, search, outcomes


def replay(trace: Path, baseline: Path, candidate: Path, rounds: int) -> None:
    with open(trace, "rb") as handle:
        recorded = pickle.load(handle)
    versions = {"baseline": _load(baseline, "sat_replay_baseline"),
                "candidate": _load(candidate, "sat_replay_candidate")}
    totals = {name: [0.0, 0.0] for name in versions}
    for round_index in range(rounds):
        for index, calls in enumerate(recorded["solvers"]):
            expected = [call[3] for call in calls if call[0] == SOLVE]
            names = list(versions)
            if (round_index + index) % 2:
                names.reverse()
            for name in names:
                ingest, search, outcomes = _replay(versions[name], calls)
                if outcomes != expected:
                    raise SystemExit(
                        f"sat_replay: {name} diverged from the recording "
                        f"on solver {index}")
                totals[name][0] += ingest
                totals[name][1] += search
    print(f"sat_replay: {recorded['workload']} seed={recorded['seed']} "
          f"solvers={len(recorded['solvers'])} rounds={rounds}; answers and "
          f"counters identical")
    for name, (ingest, search) in totals.items():
        print(f"  {name:<10} ingest {ingest / rounds:8.3f}s  search "
              f"{search / rounds:8.3f}s  total "
              f"{(ingest + search) / rounds:8.3f}s")
    base, cand = (sum(totals[name]) for name in ("baseline", "candidate"))
    print(f"  candidate/baseline total time: {cand / base:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="record one perfbench pass")
    rec.add_argument("--workload", required=True)
    rec.add_argument("--seed", type=int, default=1)
    rec.add_argument("--out", type=Path,
                     help="default: benchmarks/sat_traces/WORKLOAD-SEED.pickle")
    rep = commands.add_parser("replay", help="A/B two sat.py files")
    rep.add_argument("trace", type=Path)
    rep.add_argument("--baseline", type=Path, required=True)
    rep.add_argument("--candidate", type=Path,
                     default=ROOT / "src" / "repro" / "solver" / "sat.py")
    rep.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.workload, args.seed, args.out or
               TRACES / f"{args.workload}-{args.seed}.pickle")
    else:
        replay(args.trace, args.baseline, args.candidate, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
