"""Bounded EENI verification for IFCL machines.

End-to-end non-interference (EENI): two runs of the same machine on
*indistinguishable* inputs that both halt must end in indistinguishable
observable states. Following Hritcu et al., secrets enter through Push
immediates labeled high: the two runs execute the same instruction
sequence, but immediates labeled ⊤ may differ between the runs; the
observable state is the data memory, where low-labeled cells must agree.

The verifier (the paper's Table 3 workload) makes the whole instruction
sequence symbolic — each of the k instructions has a symbolic opcode, two
symbolic immediates (one per run) and a symbolic label — and asks the
``verify`` query for an instantiation where both runs halt within k steps
yet the final memories are distinguishable. For a correct machine the
query is UNSAT up to the bound; for each buggy variant it yields a
counterexample attack program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.queries import Budget, ResourceReport, verify
from repro.sym import fresh_bool, fresh_int, ops
from repro.sym.values import SymBool, SymInt
from repro.vm import assert_
from repro.vm.stats import EvalStats
from repro.sdsl.ifcl.machine import (
    MEM_SIZE,
    OPCODES,
    MachineState,
    Semantics,
)


class SymbolicProgram:
    """A length-k symbolic instruction sequence shared by two runs."""

    def __init__(self, semantics: Semantics, length: int):
        self.semantics = semantics
        self.length = length
        self.opcodes: List[SymInt] = []
        self.values_a: List[SymInt] = []
        self.values_b: List[SymInt] = []
        self.labels: List[SymBool] = []
        for index in range(length):
            self.opcodes.append(fresh_int(f"op{index}"))
            self.values_a.append(fresh_int(f"va{index}"))
            self.values_b.append(fresh_int(f"vb{index}"))
            self.labels.append(fresh_bool(f"lab{index}"))

    def assume_well_formed(self) -> None:
        """Opcode range + input indistinguishability (the preconditions)."""
        for index in range(self.length):
            in_range = False
            for code in self.semantics.opcodes:
                in_range = ops.or_(in_range,
                                   ops.num_eq(self.opcodes[index], code))
            assert_(in_range, f"opcode {index} out of the instruction set")
            # Low immediates must agree across the two runs.
            assert_(ops.implies(
                ops.not_(self.labels[index]),
                ops.num_eq(self.values_a[index], self.values_b[index])),
                f"instruction {index}: low immediates must agree")

    def instructions(self, run: str) -> Tuple[tuple, ...]:
        values = self.values_a if run == "a" else self.values_b
        return tuple(
            (self.opcodes[i], values[i], self.labels[i])
            for i in range(self.length))

    def decode(self, model) -> List[str]:
        """Render a counterexample program from a model."""
        out = []
        for i in range(self.length):
            opcode = model.evaluate(self.opcodes[i])
            mnemonic = OPCODES.get(opcode, f"op{opcode}")
            value_a = model.evaluate(self.values_a[i])
            value_b = model.evaluate(self.values_b[i])
            label = "H" if model.evaluate(self.labels[i]) else "L"
            out.append(f"{mnemonic} {value_a}|{value_b}@{label}")
        return out


def _iff(a, b):
    return ops.or_(ops.and_(a, b), ops.and_(ops.not_(a), ops.not_(b)))


def _indistinguishable_memories(mem_a, mem_b):
    """Low-equivalence of the two observable memories.

    Cells must carry equal labels, and low cells must hold equal values;
    high cells may differ (the attacker cannot observe them). Lifted over
    unions so it also runs under the BMC-style merge-strategy ablation.
    """
    from repro.vm import builtins as B

    def concrete(mem_a, mem_b):
        same = True
        for cell_a, cell_b in zip(mem_a, mem_b):
            value_a, label_a = cell_a
            value_b, label_b = cell_b
            labels_equal = _iff(label_a, label_b)
            low_values_equal = ops.implies(
                ops.not_(ops.or_(label_a, label_b)),
                ops.num_eq(value_a, value_b))
            same = ops.and_(same, ops.and_(labels_equal, low_values_equal))
        return same

    return B.union_apply(concrete, mem_a, mem_b)


@dataclass
class EENIResult:
    """Outcome of a bounded EENI check."""

    machine: str
    length: int
    status: str                    # "secure" | "insecure" | "unknown"
    counterexample: Optional[List[str]] = None
    stats: EvalStats = field(default_factory=EvalStats)
    report: Optional[ResourceReport] = None

    @property
    def is_secure(self) -> bool:
        return self.status == "secure"


def eeni_thunks(semantics: Semantics, length: int):
    """Build (setup, check) thunks for a bounded EENI verify query.

    Returns ``(setup, check, program)``; run them under a query (setup
    asserts the preconditions, check runs both machines and asserts EENI).
    """
    program = SymbolicProgram(semantics, length)

    def setup():
        program.assume_well_formed()

    def check():
        initial = tuple((0, False) for _ in range(MEM_SIZE))
        state_a = MachineState.initial(initial)
        state_b = MachineState.initial(initial)
        # length+1 steps: the extra step lets a run that executed all k
        # instructions take the "fell off the end" transition to halted.
        state_a = semantics.run(state_a, program.instructions("a"), length + 1)
        state_b = semantics.run(state_b, program.instructions("b"), length + 1)
        both_halt = ops.and_(ops.truthy(state_a.halted),
                             ops.truthy(state_b.halted))
        secure = ops.implies(
            both_halt, _indistinguishable_memories(state_a.mem, state_b.mem))
        assert_(secure, "end-to-end non-interference")

    return setup, check, program


def eeni_check(semantics: Semantics, length: int,
               budget: Optional[Budget] = None) -> EENIResult:
    """Run the bounded EENI verifier for one machine and bound.

    `budget` bounds the query; a trip yields ``unknown`` (neither secure
    nor insecure) with the :class:`~repro.queries.ResourceReport` attached.
    """
    setup, check, program = eeni_thunks(semantics, length)
    outcome = verify(check, setup=setup, budget=budget)
    if outcome.status == "sat":
        return EENIResult(machine=semantics.name, length=length,
                          status="insecure",
                          counterexample=program.decode(outcome.model),
                          stats=outcome.stats)
    if outcome.status == "unsat":
        return EENIResult(machine=semantics.name, length=length,
                          status="secure", stats=outcome.stats)
    return EENIResult(machine=semantics.name, length=length,
                      status="unknown", stats=outcome.stats,
                      report=outcome.report)
