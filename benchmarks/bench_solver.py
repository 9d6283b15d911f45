"""Microbenchmarks for the solver substrate itself.

Not a paper artifact — but the paper's Z3 column implicitly benchmarks its
backend, and ours is home-grown, so its scaling behaviour is worth pinning:

- unit-propagation throughput on long implication chains;
- CDCL on small pigeonhole instances (the classic resolution-hard family);
- bit-blasting + solving a multiplier equation (the heaviest circuit the
  SDSLs generate);
- incremental solving: query sequences checked under assumptions against
  a shared circuit vs. fresh one-shot solvers, and a CEGIS synthesis
  loop — both print encode-cache and per-check solver statistics, the
  counters that prove iterative queries re-encode nothing they have
  already seen;
- the same incremental sweep under a wall-clock :class:`Budget`
  (``--budget-ms``), the resource-governance smoke row.

Besides the human-readable prints, every row lands in
``BENCH_solver.json`` (schema documented in EXPERIMENTS.md; location
overridable via ``REPRO_BENCH_JSON``) so CI can archive machine-readable
numbers.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.obs.events import BUS
from repro.obs.metrics import BusMetrics
from repro.smt import terms as T
from repro.smt.solver import SmtResult, SmtSolver
from repro.solver.budget import Budget
from repro.solver.sat import SatResult, SatSolver

_ROWS = []
_ACTIVE_METRICS = []


def _record_row(name, seconds, **fields):
    row = {"name": name, "seconds": seconds}
    row.update(fields)
    # Each row carries the observability snapshot of its test: encode-cache
    # hit rate, conflicts/check, budget trips, restart counts, and the
    # check-time histograms (schema documented in EXPERIMENTS.md).
    if _ACTIVE_METRICS:
        row["metrics"] = _ACTIVE_METRICS[-1].snapshot()
    _ROWS.append(row)
    return row


@pytest.fixture(autouse=True)
def _bench_metrics():
    """Aggregate bus events into a fresh metrics registry per test."""
    metrics = BusMetrics()
    unsubscribe = BUS.subscribe(metrics)
    _ACTIVE_METRICS.append(metrics)
    try:
        yield metrics
    finally:
        _ACTIVE_METRICS.pop()
        unsubscribe()


def _solver_fields(solver: SmtSolver) -> dict:
    return {
        "conflicts": solver.cumulative.conflicts,
        "decisions": solver.cumulative.decisions,
        "propagations": solver.cumulative.propagations,
        "learned": solver.cumulative.learned,
        "encode_hits": solver.blaster.cache_hits,
        "encode_misses": solver.blaster.cache_misses,
        "budget_trips": solver.cumulative.tripped,
    }


@pytest.fixture(scope="module", autouse=True)
def _bench_json_writer():
    """Write all recorded rows to BENCH_solver.json after the module runs."""
    _ROWS.clear()
    yield
    target = os.environ.get("REPRO_BENCH_JSON")
    path = Path(target) if target else \
        Path(__file__).resolve().parent.parent / "BENCH_solver.json"
    payload = {
        "schema": "bench_solver/v1",
        "generated_unix": time.time(),
        "rows": _ROWS,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {len(_ROWS)} row(s) to {path}")


def test_propagation_chain(benchmark):
    """A 20k-variable implication chain solved by pure propagation."""
    def run():
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(20_000)]
        for a, b in zip(variables, variables[1:]):
            solver.add_clause([-a, b])
        solver.add_clause([variables[0]])
        started = time.perf_counter()
        assert solver.solve() is SatResult.SAT
        _record_row("propagation_chain", time.perf_counter() - started,
                    propagations=solver.num_propagations)
        return solver.num_propagations

    propagations = benchmark.pedantic(run, rounds=1, iterations=1)
    assert propagations >= 19_999


@pytest.mark.parametrize("holes", [5, 6])
def test_pigeonhole(benchmark, holes):
    """PHP(n+1, n): UNSAT, exponential for resolution — a CDCL stress test."""
    pigeons = holes + 1

    def run():
        solver = SatSolver()
        var = {(p, h): solver.new_var()
               for p in range(pigeons) for h in range(holes)}
        for p in range(pigeons):
            solver.add_clause([var[(p, h)] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var[(p1, h)], -var[(p2, h)]])
        started = time.perf_counter()
        result = solver.solve()
        _record_row(f"pigeonhole_{pigeons}_{holes}",
                    time.perf_counter() - started,
                    conflicts=solver.num_conflicts,
                    learned=solver.num_learned)
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result is SatResult.UNSAT


def test_multiplier_inversion(benchmark):
    """Factor 143 = 11 × 13 with an 8-bit multiplier circuit."""
    def run():
        started = time.perf_counter()
        x = T.bv_var("factor_x", 8)
        y = T.bv_var("factor_y", 8)
        solver = SmtSolver()
        solver.add_assertion(T.mk_eq(T.mk_mul(x, y), T.bv_const(143, 8)))
        solver.add_assertion(T.mk_ult(T.bv_const(1, 8), x))
        solver.add_assertion(T.mk_ult(T.bv_const(1, 8), y))
        # Keep the product below 2^8 so the equation is non-modular.
        solver.add_assertion(T.mk_ult(x, T.bv_const(16, 8)))
        solver.add_assertion(T.mk_ult(y, T.bv_const(16, 8)))
        assert solver.check() is SmtResult.SAT
        model = solver.model([x, y])
        _record_row("multiplier_inversion", time.perf_counter() - started,
                    **_solver_fields(solver))
        return model[x] * model[y]

    product = benchmark.pedantic(run, rounds=1, iterations=1)
    assert product == 143


WIDTH = 12
FACTOR_TARGETS = [7 * n for n in range(2, 40)]


def _factoring_query(solver, x, y, product, target):
    """One factoring query, checked under assumptions: is `target` a
    nontrivial product?"""
    return solver.check([T.mk_eq(product, T.bv_const(target, WIDTH)),
                         T.mk_ult(T.bv_const(1, WIDTH), x),
                         T.mk_ult(T.bv_const(1, WIDTH), y)])


def test_incremental_factoring(benchmark):
    """38 factoring queries as assumption checks on one persistent
    multiplier.

    The multiplier circuit is bit-blasted once; each query only encodes
    its (tiny) equality against the target constant, and clauses learned
    while solving earlier targets keep pruning later ones. The one-shot
    variant of the same queries (fresh solver each time, the seed
    behaviour) re-encodes the multiplier 38×.
    """
    def run():
        started = time.perf_counter()
        x = T.bv_var("inc_bench_x", WIDTH)
        y = T.bv_var("inc_bench_y", WIDTH)
        solver = SmtSolver()
        product = T.mk_mul(x, y)
        sats = 0
        for target in FACTOR_TARGETS:
            if _factoring_query(solver, x, y, product, target) is SmtResult.SAT:
                sats += 1
        # Asking an already-seen target again must re-encode *nothing*.
        misses_before_repeat = solver.blaster.cache_misses
        assert _factoring_query(
            solver, x, y, product, FACTOR_TARGETS[0]) is SmtResult.SAT
        assert solver.blaster.cache_misses == misses_before_repeat
        print(f"\nincremental factoring: {sats}/{len(FACTOR_TARGETS)} sat, "
              f"encode_hits={solver.blaster.cache_hits} "
              f"encode_misses={solver.blaster.cache_misses} "
              f"conflicts={solver.cumulative.conflicts} "
              f"learned={solver.cumulative.learned}")
        _record_row("incremental_factoring", time.perf_counter() - started,
                    queries=len(FACTOR_TARGETS), sat=sats,
                    **_solver_fields(solver))
        return sats, solver.blaster.cache_hits

    sats, hits = benchmark.pedantic(run, rounds=1, iterations=1)
    assert sats == len(FACTOR_TARGETS)
    assert hits > 0


def test_oneshot_factoring_baseline(benchmark):
    """The same 38 queries with a fresh solver each — the pre-incremental
    cost model, kept as the comparison row for the benchmark table."""
    def run():
        started = time.perf_counter()
        x = T.bv_var("one_bench_x", WIDTH)
        y = T.bv_var("one_bench_y", WIDTH)
        sats = 0
        conflicts = 0
        encode_misses = 0
        for target in FACTOR_TARGETS:
            solver = SmtSolver()
            solver.add_assertion(
                T.mk_eq(T.mk_mul(x, y), T.bv_const(target, WIDTH)))
            solver.add_assertion(T.mk_ult(T.bv_const(1, WIDTH), x))
            solver.add_assertion(T.mk_ult(T.bv_const(1, WIDTH), y))
            if solver.check() is SmtResult.SAT:
                sats += 1
            conflicts += solver.cumulative.conflicts
            encode_misses += solver.blaster.cache_misses
        _record_row("oneshot_factoring_baseline",
                    time.perf_counter() - started,
                    queries=len(FACTOR_TARGETS), sat=sats,
                    conflicts=conflicts, encode_misses=encode_misses)
        return sats

    sats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert sats == len(FACTOR_TARGETS)


def test_budgeted_incremental_factoring(benchmark, budget_ms):
    """The incremental sweep under a wall-clock budget (``--budget-ms``).

    With the default (generous) budget every query completes; with a tight
    one the sweep degrades gracefully — once the shared budget trips, the
    remaining queries answer UNKNOWN immediately instead of hanging. The
    JSON row records the budget and its spend either way, which is the
    CI smoke check for the resource governor.
    """
    def run():
        started = time.perf_counter()
        budget = Budget(ms=budget_ms)
        x = T.bv_var("bud_bench_x", WIDTH)
        y = T.bv_var("bud_bench_y", WIDTH)
        solver = SmtSolver(budget=budget)
        product = T.mk_mul(x, y)
        sats = unknowns = 0
        for target in FACTOR_TARGETS:
            result = _factoring_query(solver, x, y, product, target)
            if result is SmtResult.SAT:
                sats += 1
            elif result is SmtResult.UNKNOWN:
                unknowns += 1
        report = solver.last_report
        print(f"\nbudgeted factoring ({budget_ms}ms): "
              f"{sats} sat, {unknowns} unknown"
              + (f", tripped: {report.reason}" if report else ""))
        _record_row("budgeted_incremental_factoring",
                    time.perf_counter() - started,
                    queries=len(FACTOR_TARGETS), sat=sats, unknown=unknowns,
                    budget_ms=budget_ms,
                    budget_spent_conflicts=budget.spent_conflicts,
                    budget_spent_propagations=budget.spent_propagations,
                    budget_elapsed_seconds=budget.elapsed_seconds(),
                    tripped_reason=report.reason if report else None,
                    **_solver_fields(solver))
        return sats, unknowns

    sats, unknowns = benchmark.pedantic(run, rounds=1, iterations=1)
    # Every query is answered — some possibly by an honest UNKNOWN.
    assert sats + unknowns == len(FACTOR_TARGETS)


def test_certified_factoring_overhead(benchmark, certify_enabled):
    """The factoring sweep with trust-but-verify on (``--certify``).

    Runs the incremental sweep twice — plain, then with ``certify=True``
    (DRUP proof logging, every SAT answer's model re-checked clause by
    clause and re-evaluated at the term level, plus one UNSAT check under
    contradictory assumptions whose proof is replayed) — and records the
    overhead ratio. The design target is ≤1.3× with certification on; the
    assertion bound is looser because shared CI runners are noisy, but the
    measured ratio is in the JSON row for trend tracking.
    """
    def _sweep(certify, prefix):
        started = time.perf_counter()
        x = T.bv_var(f"{prefix}_x", WIDTH)
        y = T.bv_var(f"{prefix}_y", WIDTH)
        solver = SmtSolver(certify=certify)
        product = T.mk_mul(x, y)
        sats = 0
        for target in FACTOR_TARGETS:
            if _factoring_query(solver, x, y, product, target) is SmtResult.SAT:
                sats += 1
        # One contradictory check so the proof path is measured too.
        assert solver.check([T.mk_eq(x, T.bv_const(2, WIDTH)),
                             T.mk_eq(x, T.bv_const(3, WIDTH))]) \
            is SmtResult.UNSAT
        return time.perf_counter() - started, sats, solver

    def run():
        plain_seconds, plain_sats, _ = _sweep(False, "cert_bench_plain")
        cert_seconds, cert_sats, solver = _sweep(True, "cert_bench_on")
        assert plain_sats == cert_sats == len(FACTOR_TARGETS)
        assert solver.cumulative.certified == len(FACTOR_TARGETS) + 1
        ratio = cert_seconds / plain_seconds if plain_seconds else float("inf")
        print(f"\ncertified factoring: plain {plain_seconds:.3f}s, "
              f"certified {cert_seconds:.3f}s, ratio {ratio:.2f}, "
              f"proof steps {proof_counts(solver)}")
        _record_row("certified_factoring_overhead", cert_seconds,
                    plain_seconds=plain_seconds,
                    overhead_ratio=ratio,
                    queries=len(FACTOR_TARGETS) + 1,
                    certified_checks=solver.cumulative.certified,
                    proof_steps=proof_counts(solver),
                    **_solver_fields(solver))
        return ratio

    def proof_counts(solver):
        return dict(solver.proof.counts()) if solver.proof else {}

    ratio = benchmark.pedantic(run, rounds=1, iterations=1)
    # Generous bound for noisy shared runners; the 1.3× design target is
    # tracked via the recorded ratio, not asserted here.
    assert ratio < 3.0


def test_sanitized_factoring(benchmark, sanitize_enabled):
    """The factoring sweep through the formula sanitizer (``--sanitize``).

    Two families, each solved with the abstract-interpretation pre-pass
    off and on:

    - *guarded*: every assertion arrives wrapped in statically-true
      range guards (``(x & m) * (y & m) <= m*m``-shaped conjuncts, the
      bounds-check residue sketch-generated formulas carry). The
      interval domain proves each guard, so its masked-multiplier
      circuit never reaches the bit-blaster and the CNF shrinks — the
      row asserts ≥5% fewer clauses.
    - *plain*: the unguarded sweep, where sanitizing must be a no-op —
      the row asserts the clause count regresses by at most 2%.
    """
    def _guards(x, y, width):
        # (x & m) * (y & m) <= m*m is an interval tautology, but its
        # multiplier is real CNF work if it survives to the blaster.
        return [T.mk_ule(T.mk_mul(T.mk_bvand(x, T.bv_const(mask, width)),
                                  T.mk_bvand(y, T.bv_const(mask, width))),
                         T.bv_const(mask * mask, width))
                for mask in (0x3F, 0x1F)]

    def _sweep(analyze, guarded, prefix):
        started = time.perf_counter()
        x = T.bv_var(f"{prefix}_x", WIDTH)
        y = T.bv_var(f"{prefix}_y", WIDTH)
        sats = clauses = rewrites = 0
        for target in FACTOR_TARGETS:
            solver = SmtSolver(analyze=analyze)
            payload = [
                T.mk_eq(T.mk_mul(x, y), T.bv_const(target, WIDTH)),
                T.mk_ult(T.bv_const(1, WIDTH), x),
                T.mk_ult(T.bv_const(1, WIDTH), y),
            ]
            for term in payload:
                if guarded:
                    for guard in _guards(x, y, WIDTH):
                        term = T.mk_and(guard, term)
                solver.add_assertion(term)
            if solver.check() is SmtResult.SAT:
                sats += 1
            clauses += solver.sat.num_clauses
            rewrites += solver.sanitize_stats.rewrites
        return time.perf_counter() - started, sats, clauses, rewrites

    def run():
        results = {}
        for family, guarded in (("guarded", True), ("plain", False)):
            for analyze in (False, True):
                key = f"{family}_{'on' if analyze else 'off'}"
                results[key] = _sweep(analyze, guarded,
                                      f"san_{key}")
        for key in ("guarded_off", "plain_off", "plain_on"):
            assert results[key][3] == 0  # rewrites only with analyze=True
        reduction = 1 - results["guarded_on"][2] / results["guarded_off"][2]
        plain_ratio = results["plain_on"][2] / results["plain_off"][2]
        print(f"\nsanitized factoring: guarded clauses "
              f"{results['guarded_off'][2]} -> {results['guarded_on'][2]} "
              f"({reduction:.1%} fewer, "
              f"{results['guarded_on'][3]} rewrites), "
              f"plain clause ratio {plain_ratio:.3f}")
        _record_row("sanitized_factoring", results["guarded_on"][0],
                    queries=len(FACTOR_TARGETS),
                    baseline_seconds=results["guarded_off"][0],
                    clauses_guarded_plain=results["guarded_off"][2],
                    clauses_guarded_sanitized=results["guarded_on"][2],
                    clause_reduction=reduction,
                    sanitize_rewrites=results["guarded_on"][3],
                    clauses_plain_family_off=results["plain_off"][2],
                    clauses_plain_family_on=results["plain_on"][2],
                    plain_clause_ratio=plain_ratio)
        for key, (_, sats, _, _) in results.items():
            assert sats == len(FACTOR_TARGETS), key
        return reduction, plain_ratio

    reduction, plain_ratio = benchmark.pedantic(run, rounds=1, iterations=1)
    # The acceptance bar: the sanitizer must actually shrink the guarded
    # family and must not bloat the family it cannot improve.
    assert reduction >= 0.05
    assert plain_ratio <= 1.02


def test_cegis_synthesis_loop(benchmark):
    """A multi-iteration CEGIS run: a persistent guess solver and a
    one-shot check solver per candidate.

    Synthesizes the hole constants of a masked-mux identity over 16-bit
    words; every counterexample pins down a few bits, so the loop runs
    ~14 guess/check rounds. Prints the per-query solver row — the
    encode-cache hits show shared subterms reusing earlier encodings
    instead of re-bit-blasting them.
    """
    from repro.queries import synthesize
    from repro.sym import fresh_int, ops
    from repro.vm import assert_, builtins as B

    def run():
        started = time.perf_counter()
        x = fresh_int("cegis_x", width=16)
        h1 = fresh_int("cegis_h1", width=16)
        h2 = fresh_int("cegis_h2", width=16)
        outcome = synthesize([x], lambda: assert_(B.equal(
            ops.bitor(ops.bitand(x, h1), ops.bitand(ops.bitnot(x), h2)),
            ops.bitor(ops.bitand(x, 0xBEEF),
                      ops.bitand(ops.bitnot(x), 0x1234)))))
        assert outcome.status == "sat"
        assert outcome.model.evaluate(h1) & 0xFFFF == 0xBEEF
        print(f"\ncegis synthesis: {outcome.message}")
        print(f"solver row: {outcome.stats.solver_row()}")
        row = dict(outcome.stats.solver_row())
        row["svm_seconds"] = outcome.stats.svm_seconds
        row["solver_seconds"] = outcome.stats.solver_seconds
        _record_row("cegis_synthesis_loop", time.perf_counter() - started,
                    **row)
        return outcome.stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.solver_checks > 2
    assert stats.encode_cache_hits > 0
