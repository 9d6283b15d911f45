"""Concrete replay of synthesized attacks.

The EENI verifier returns a *symbolic* counterexample. Replay closes the
loop: it decodes the model into a concrete program pair, executes both
runs with the ordinary (concrete) machine semantics — no solver, no
symbolic values — and checks that the final memories really are
distinguishable. This is the strongest possible validation of the whole
pipeline: SVM encoding, bit-blasting, SAT solving, and model decoding all
have to be right for a replay to succeed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.vm.context import VM
from repro.sdsl.ifcl.machine import MEM_SIZE, OPCODES, MachineState, Semantics
from repro.sdsl.ifcl.verify import SymbolicProgram


@dataclass
class DecodedInstruction:
    """One instruction of a decoded attack: shared opcode/label, per-run
    immediates."""

    opcode: int
    value_a: int
    value_b: int
    high: bool

    def render(self) -> str:
        mnemonic = OPCODES.get(self.opcode, f"op{self.opcode}")
        label = "H" if self.high else "L"
        return f"{mnemonic} {self.value_a}|{self.value_b}@{label}"


def decode_attack(program: SymbolicProgram, model) -> List[DecodedInstruction]:
    """Decode a counterexample model into structured instructions."""
    out = []
    for i in range(program.length):
        out.append(DecodedInstruction(
            opcode=model.evaluate(program.opcodes[i]),
            value_a=model.evaluate(program.values_a[i]),
            value_b=model.evaluate(program.values_b[i]),
            high=bool(model.evaluate(program.labels[i]))))
    return out


@dataclass
class ReplayResult:
    """Concrete outcomes of the two runs of a decoded attack."""

    halted_a: bool
    halted_b: bool
    mem_a: Tuple
    mem_b: Tuple
    distinguishable: bool

    def render(self) -> str:
        return (f"run A: halted={self.halted_a} mem={self.mem_a}\n"
                f"run B: halted={self.halted_b} mem={self.mem_b}\n"
                f"distinguishable: {self.distinguishable}")


def _run_concrete(semantics: Semantics,
                  instructions: Sequence[Tuple[int, int, bool]]):
    state = MachineState.initial(tuple((0, False) for _ in range(MEM_SIZE)))
    with VM():
        final = semantics.run(state, tuple(instructions),
                              len(instructions) + 1)
    return final


def _memories_distinguishable(mem_a, mem_b) -> bool:
    for (value_a, label_a), (value_b, label_b) in zip(mem_a, mem_b):
        if bool(label_a) != bool(label_b):
            return True
        if not label_a and value_a != value_b:
            return True
    return False


def replay_attack(semantics: Semantics,
                  attack: Sequence[DecodedInstruction]) -> ReplayResult:
    """Execute both runs of an attack concretely.

    The attack must be well-formed (low immediates equal across runs);
    the result reports whether the concrete final memories violate
    low-equivalence — i.e. whether the synthesized attack really works.
    """
    for instruction in attack:
        if not instruction.high and \
                instruction.value_a != instruction.value_b:
            raise ValueError(
                f"ill-formed attack: low immediates differ in "
                f"{instruction.render()}")
    run_a = [(ins.opcode, ins.value_a, ins.high) for ins in attack]
    run_b = [(ins.opcode, ins.value_b, ins.high) for ins in attack]
    final_a = _run_concrete(semantics, run_a)
    final_b = _run_concrete(semantics, run_b)
    halted_a = bool(final_a.halted) and not bool(final_a.crashed)
    halted_b = bool(final_b.halted) and not bool(final_b.crashed)
    distinguishable = halted_a and halted_b and \
        _memories_distinguishable(final_a.mem, final_b.mem)
    return ReplayResult(halted_a=halted_a, halted_b=halted_b,
                        mem_a=tuple(final_a.mem), mem_b=tuple(final_b.mem),
                        distinguishable=distinguishable)


def check_attack(semantics: Semantics, length: int,
                 budget=None) -> Optional[ReplayResult]:
    """Find an attack with the verifier and validate it by concrete replay.

    Returns the replay result (with ``distinguishable=True`` if everything
    is consistent), or None when the machine is secure at this bound (or
    the `budget` ran out before the verifier could decide).
    """
    from repro.queries import verify
    from repro.sdsl.ifcl.verify import eeni_thunks

    setup, check, program = eeni_thunks(semantics, length)
    outcome = verify(check, setup=setup, budget=budget)
    if outcome.status != "sat":
        return None
    attack = decode_attack(program, outcome.model)
    return replay_attack(semantics, attack)
