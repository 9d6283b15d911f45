"""Figure 5/6: the revPos example across all three encoding strategies.

The paper introduces its design space with revPos (Fig. 5a): symbolic
execution explores O(2^n) paths (Fig. 5b), bounded model checking merges
everything into opaque formulas (Fig. 5c), and the SVM's type-driven
merging produces the compact union DAG of Fig. 6 — n+1 merged lists after
filtering an n-element symbolic list.

This benchmark measures all three on the same program and prints the
comparison series: paths explored (symex) vs. union cardinalities
(SVM/BMC-style), plus the solve-query outcome of each.
"""

import pytest

from repro.baselines import SymbolicExecutor, run_with_logical_merging
from repro.queries import solve
from repro.sym import fresh_int, ops, set_default_int_width
from repro.sym.values import Union
from repro.vm import assert_, builtins as B
from repro.vm.context import VM, current

SIZES = (2, 4, 6)


def rev_pos(xs):
    ps = ()
    for x in xs:
        ps = current().branch(ops.gt(x, 0),
                              lambda x=x, ps=ps: B.cons(x, ps),
                              lambda ps=ps: ps)
    return ps


def make_program(size):
    def program():
        xs = tuple(fresh_int("x") for _ in range(size))
        ps = rev_pos(xs)
        assert_(B.equal(B.length(ps), len(xs)))
        return ps
    return program


def test_fig5_svm_vs_baselines(benchmark):
    set_default_int_width(8)

    def compare():
        rows = []
        for size in SIZES:
            program = make_program(size)
            # SVM (type-driven merging).
            outcome = solve(program)
            svm_members = outcome.stats.max_union_cardinality
            # Classic symbolic execution: enumerate the full tree (a
            # debugging/synthesis query needs *all* paths, §3.2).
            executor = SymbolicExecutor()
            paths = sum(1 for _ in executor.explore(program))
            # BMC-style merging: final union cardinality.
            vm, _, _ = run_with_logical_merging(program)
            rows.append((size, svm_members, paths,
                         vm.stats.max_union_cardinality, outcome.status))
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    print("\nFigure 5/6 comparison (n = input length):")
    print("  n   SVM max-union   symex paths   BMC-style max-union")
    for size, svm_m, paths, bmc_m, status in rows:
        print(f"  {size:<3} {svm_m:<15} {paths:<13} {bmc_m}")
        # Fig. 6's claim: the SVM union stays linear (n+1 lists)…
        assert svm_m <= size + 1
        # …while path enumeration is exponential.
        assert paths >= 2 ** (size - 1)
        # BMC-style merging loses the structural collapse.
        assert bmc_m >= svm_m
        assert status == "sat"


def test_fig6_union_structure(benchmark):
    """The exact Fig. 6 state: ps merges into lists of length 0..n."""
    set_default_int_width(8)

    def shape():
        with VM():
            xs = tuple(fresh_int("x") for _ in range(2))
            return rev_pos(xs)

    ps = benchmark.pedantic(shape, rounds=1, iterations=1)
    assert isinstance(ps, Union)
    lengths = sorted(len(v) for v in ps.values())
    print("\nFigure 6 union of ps:", lengths, "=> {[b2,(x1,x0)] [b5,(i0)] [b6,()]}")
    assert lengths == [0, 1, 2]
