"""The benchmark's workloads: fixed, seeded lists of paper queries.

A workload is a list of :class:`Query` objects built by :func:`build` from
a seed. The seed sets the query order, the SynthCL sketch-size draw and
the WebSynth page seed; the program under test only ever sees the
generated inputs. Every query carries its expected answer, and
:func:`confirm` checks an answer independently of the timed call (concrete
attack replay, concrete XPath evaluation, the Figure 10 fit), so the
confirmation never falls inside a timed interval.

Why each workload and family is here, and the layer shares measured at
the seed commit, are recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.queries import Budget, verify
from repro.sdsl.ifcl import (
    BUGGY_MACHINES,
    CORRECT_MACHINES,
    decode_attack,
    eeni_thunks,
    replay_attack,
)
from repro.sdsl.synthcl import run_benchmark
from repro.sdsl.websynth import (
    SITE_SPECS,
    concrete_matches,
    generate_site,
    synthesize_xpath,
)
from repro.sym import set_default_int_width
from repro.vm.context import VM
from repro.vm.stats import EvalStats

WORKLOADS = ("ifcl_verify", "svm_eval", "synth_cegis", "ifcl_checked")

# Integer widths of the paper benchmarks (benchmarks/bench_*.py use the
# same): IFCL machines run 5-bit words, SynthCL 8-bit, WebSynth 16-bit.
IFCL_WIDTH = 5
SYNTHCL_WIDTH = 8
WEBSYNTH_WIDTH = 16

# Per-query conflict cap. The heaviest query at the seed commit needs
# about 1,200 conflicts; the cap only turns a runaway search into an
# `unknown` (a failed operation) instead of a hung run.
QUERY_CONFLICTS = 200_000

MACHINES = {**BUGGY_MACHINES, **CORRECT_MACHINES}

# Table 3 frontier (EXPERIMENTS.md): at bounds 2 and 3 only B2 and B4 have
# an attack, both at bound 3; every other machine is secure.
INSECURE = {("B2", 3), ("B4", 3)}

# Bound 3 of every machine would take 10-21 s per pass; the list keeps
# all thirteen machines at bound 2 and the basic family at bound 3 (B1-B4
# and the correct basic machine, both attacks included) plus J1, so one
# pass takes 3-8 s and SAT search still dominates.
VERIFY_BOUND3 = ("B1", "B2", "B3", "B4", "basic", "J1")
# Certification and the sanitizer cost ~2.5x, so ifcl_checked keeps only
# the two bound-3 attacks (certified models) and B1 (a certified proof).
CHECKED_BOUND3 = ("B1", "B2", "B4")

FIG10_BOUNDS = range(1, 8)
SYNTHCL_VERIFY_ROWS = ("SF1v", "SF2v", "SF3v", "SF4v", "SF5v", "SF6v",
                       "SF7v", "MM1v", "FWT1v")

# Completable sketch sizes, with the number of copies in the list. A
# tuple of two sizes is a transposed pair of about equal cost; the seed
# draws one of the pair for each copy. CEGIS search effort per sketch
# varies by 30-50% between processes (FWT1s at k=4 took 163-2330
# conflicts), so the list is 25 small and mid-sized instances (0.05-1 s)
# whose luck averages out, rather than a few large ones (SF3s at 2x3,
# SF7s at 3x3) that would each swing a whole pass.
SKETCH_SIZES: Tuple[Tuple[str, tuple, int], ...] = (
    ("MM2s", ((2, 3, 2),), 2),
    ("MM2s", ((2, 2, 3),), 2),
    ("FWT1s", (3,), 4),
    ("FWT2s", (2,), 2),
    ("FWT2s", (3,), 4),
    ("SF3s", ((1, 2), (2, 1)), 4),
    ("SF3s", ((1, 3), (3, 1)), 4),
    ("SF3s", ((2, 2),), 3),
)


@dataclass
class Answer:
    """What one timed query returned."""

    verdict: str
    stats: EvalStats
    detail: object = None        # decoded attack, XPath, or Fig. 10 point


@dataclass
class Query:
    """One list entry: a timed call plus the answer it must give."""

    family: str
    label: str
    expected: str
    run: Callable[[], Answer]
    context: object = None       # what confirm() needs besides the answer


def _budget() -> Budget:
    return Budget(conflicts=QUERY_CONFLICTS)


def _eeni(machine: str, bound: int) -> Query:
    semantics = MACHINES[machine]

    def run() -> Answer:
        set_default_int_width(IFCL_WIDTH)
        setup, check, program = eeni_thunks(semantics, bound)
        outcome = verify(check, setup=setup, budget=_budget())
        verdict = {"sat": "insecure", "unsat": "secure"}.get(
            outcome.status, outcome.status)
        attack = (decode_attack(program, outcome.model)
                  if outcome.status == "sat" else None)
        return Answer(verdict, outcome.stats, attack)

    expected = "insecure" if (machine, bound) in INSECURE else "secure"
    return Query("eeni", f"{machine}@{bound}", expected, run, semantics)


def _fig10(bound: int) -> Query:
    """Figure 10's body: SVM evaluation of B1v only, no solver call."""
    def run() -> Answer:
        set_default_int_width(IFCL_WIDTH)
        setup, check, _ = eeni_thunks(BUGGY_MACHINES["B1"], bound)
        with VM() as vm:
            vm.stats.start()
            try:
                setup()
                check()
            finally:
                vm.stats.stop()
        stats = vm.stats
        return Answer("evaluated", stats,
                      (bound, stats.joins, stats.union_cardinality_sum))

    return Query("fig10", f"B1-eval@{bound}", "evaluated", run)


def _websynth(spec, page_seed: int) -> Query:
    root, truth, examples = generate_site(spec, scale=1.0, seed=page_seed)

    def run() -> Answer:
        set_default_int_width(WEBSYNTH_WIDTH)
        result = synthesize_xpath(root, examples, budget=_budget())
        return Answer(result.status, result.stats, result.xpath)

    return Query("websynth", spec.name, "sat", run, (root, truth, examples))


def _synthcl(name: str, bounds=None) -> Query:
    expected = "sat" if name.endswith("s") else "unsat"

    def run() -> Answer:
        set_default_int_width(SYNTHCL_WIDTH)
        outcome = run_benchmark(name, bounds=bounds, budget=_budget())
        return Answer(outcome.status, outcome.stats)

    label = name if bounds is None else f"{name}{bounds[0]}"
    return Query("synthcl", label, expected, run)


def _ifcl_list(bound3: Sequence[str]) -> List[Query]:
    return ([_eeni(machine, 2) for machine in MACHINES]
            + [_eeni(machine, 3) for machine in bound3])


def build(workload: str, seed: int) -> List[Query]:
    """The workload's query list for `seed` (same seed, same list)."""
    rng = random.Random(seed)
    if workload == "ifcl_verify":
        queries = _ifcl_list(VERIFY_BOUND3)
    elif workload == "ifcl_checked":
        queries = _ifcl_list(CHECKED_BOUND3)
    elif workload == "svm_eval":
        queries = [_fig10(bound) for bound in FIG10_BOUNDS]
        queries += [_websynth(spec, rng.randrange(1 << 30))
                    for spec in SITE_SPECS]
        queries += [_synthcl(name) for name in SYNTHCL_VERIFY_ROWS]
    elif workload == "synth_cegis":
        queries = [_synthcl(name, [rng.choice(sizes)])
                   for name, sizes, copies in SKETCH_SIZES
                   for _ in range(copies)]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    rng.shuffle(queries)
    return queries


def warmup(workload: str) -> Query:
    """A small query of the workload's kind, run once before timing."""
    if workload == "synth_cegis":
        return _synthcl("FWT1s", [1])
    return _eeni("basic", 1)


# ---------------------------------------------------------------------------
# The verdict oracle
# ---------------------------------------------------------------------------

def confirm(query: Query, answer: Optional[Answer]) -> Optional[str]:
    """Why `answer` is wrong, or None when it is confirmed correct.

    A missing answer (the call raised), an ``unknown`` or any verdict other
    than the expected one is wrong. Beyond the verdict: every attack must
    replay concretely, every XPath must be the generator's ground truth
    and select every example, and SynthCL refinements must verify with
    zero unions.
    """
    if answer is None:
        return "raised"
    if answer.verdict != query.expected:
        return f"verdict {answer.verdict!r}, expected {query.expected!r}"
    if query.family == "eeni" and answer.verdict == "insecure":
        try:
            replay = replay_attack(query.context, answer.detail)
        except ValueError as error:
            return f"attack is ill-formed: {error}"
        if not replay.distinguishable:
            return "attack does not replay concretely"
    elif query.family == "websynth":
        root, truth, examples = query.context
        if tuple(answer.detail or ()) != tuple(truth):
            return f"XPath {answer.detail} is not the ground truth {truth}"
        selected = set(concrete_matches(root, answer.detail))
        if not set(examples) <= selected:
            return "XPath does not select every example"
    elif query.family == "synthcl" and query.expected == "unsat":
        if answer.stats.unions_created:
            return f"{answer.stats.unions_created} unions in a refinement"
    return None


def confirm_fig10(points: Sequence[Tuple[int, int, int]]) -> Optional[str]:
    """Figure 10's claims over the sweep: monotone, quadratic (R² > 0.99)."""
    points = sorted(points)
    if [bound for bound, _, _ in points] != list(FIG10_BOUNDS):
        return "incomplete sweep"
    sums = [total for _, _, total in points]
    if any(a >= b for a, b in zip(sums, sums[1:])):
        return f"union-cardinality sums are not monotone: {sums}"
    r_squared = quadratic_r_squared([joins for _, joins, _ in points], sums)
    if not r_squared > 0.99:
        return f"quadratic fit R^2 = {r_squared:.4f} <= 0.99"
    return None


def quadratic_r_squared(xs: Sequence[float], ys: Sequence[float]) -> float:
    """R² of the least-squares fit y = a x² + b x + c."""
    scale = max(abs(x) for x in xs) or 1.0
    xs = [x / scale for x in xs]          # keeps the normal equations tame
    rows = [[x * x, x, 1.0] for x in xs]
    normal = [[sum(r[i] * r[j] for r in rows) for j in range(3)]
              for i in range(3)]
    rhs = [sum(r[i] * y for r, y in zip(rows, ys)) for i in range(3)]
    coeffs = _solve3(normal, rhs)
    fitted = [sum(c * v for c, v in zip(coeffs, r)) for r in rows]
    mean = sum(ys) / len(ys)
    ss_res = sum((y - f) ** 2 for y, f in zip(ys, fitted))
    ss_tot = sum((y - mean) ** 2 for y in ys)
    return 1.0 - ss_res / ss_tot if ss_tot else 0.0


def _solve3(matrix: List[List[float]], rhs: List[float]) -> List[float]:
    """Gaussian elimination with partial pivoting for a 3x3 system."""
    a = [row[:] + [value] for row, value in zip(matrix, rhs)]
    for col in range(3):
        pivot = max(range(col, 3), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        for row in range(col + 1, 3):
            factor = a[row][col] / a[col][col]
            for k in range(col, 4):
                a[row][k] -= factor * a[col][k]
    out = [0.0, 0.0, 0.0]
    for row in (2, 1, 0):
        out[row] = (a[row][3] - sum(a[row][k] * out[k]
                                    for k in range(row + 1, 3))) / a[row][row]
    return out
