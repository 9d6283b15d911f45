"""BMC-style merging baseline (§3.3).

Bounded model checkers merge states at every join, but the merged values
become opaque symbolic values: "once two concrete values from different
branches are logically merged ... all operations that consume that value
must also be translated to symbolic values and constraints". This baseline
models that loss inside our own evaluator: evaluation proceeds exactly like
the SVM, except the merge strategy is switched to "logical" — primitives
still merge into ``ite`` terms, but lists and records never merge
structurally, so every join adds a union entry per distinct non-primitive
value (one per incoming path). Union cardinalities then grow with the
number of *paths*, not with the number of value shapes — the blow-up that
type-driven merging (Fig. 9) eliminates.

The queries need no baseline-specific code: ``solve``/``verify`` under
``with merge_strategy("logical"):`` are the BMC-style queries, deciding
through the same solver step as the SVM's.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.queries.queries import _run
from repro.sym.merge import merge_strategy
from repro.vm.context import VM


def run_with_logical_merging(thunk: Callable[[], object]) -> Tuple[VM, object, bool]:
    """Evaluate `thunk` under a fresh VM with the "logical" merge strategy.

    Returns ``(vm, value, failed)``; the VM carries the assertion store and
    the union statistics to compare against a type-driven run.
    """
    with merge_strategy("logical"), VM() as vm:
        failed, value = _run(thunk, vm)
        return vm, value, failed
