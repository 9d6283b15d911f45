"""Bit-blasting: compiling boolean/bitvector terms to CNF.

Every boolean term maps to one SAT literal; every bitvector term maps to a
list of SAT literals, least-significant bit first. Gates are introduced with
Tseitin encodings and cached, so the DAG sharing of the term layer carries
over to the CNF. Arithmetic uses textbook circuits: ripple-carry adders,
shift-and-add multipliers, restoring dividers, and barrel shifters.

Division follows SMT-LIB semantics (``bvudiv x 0 = all-ones``,
``bvurem x 0 = x``, with ``bvsdiv``/``bvsrem``/``bvsmod`` derived from the
unsigned operators on magnitudes), matching the constant folders in
:mod:`repro.smt.terms`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.events import BUS
from repro.smt import terms as T
from repro.solver.budget import Budget, BudgetExhausted
from repro.solver.sat import SatSolver

# Cache misses between encode-side budget checkpoints. Encoding a term is
# orders of magnitude cheaper than solving it, so a coarse cadence keeps
# the checkpoint invisible on the profile while still bounding how long a
# giant circuit (a wide multiplier, a deep shifter tower) can stall a
# cancelled or deadline-expired query.
_ENCODE_CHECK_INTERVAL = 128


class BitBlaster:
    """Translates terms into clauses of a :class:`SatSolver`."""

    def __init__(self, sat: SatSolver):
        self.sat = sat
        self._true = sat.new_var()
        sat.add_clause([self._true])
        self._bool_memo: Dict[T.Term, int] = {}
        self._bv_memo: Dict[T.Term, List[int]] = {}
        self._gate_cache: Dict[Tuple, int] = {}
        self._bool_vars: Dict[T.Term, int] = {}
        self._bv_vars: Dict[T.Term, List[int]] = {}
        # Encode-cache statistics: a hit is a term whose encoding was
        # reused from the memo table, a miss is a term translated to fresh
        # gates. Terms are interned (repro.smt.terms), so across the
        # lifetime of this blaster every distinct term is a miss exactly
        # once — incremental queries re-encode nothing.
        self.cache_hits = 0
        self.cache_misses = 0
        # Resource governance: encoding checkpoints this budget every
        # _ENCODE_CHECK_INTERVAL cache misses and raises BudgetExhausted
        # when it trips (deadline/cancellation; spend caps are charged by
        # the SAT layer).
        self.budget: Optional[Budget] = None
        self._since_budget_check = 0

    def _budget_checkpoint(self) -> None:
        budget = self.budget
        if budget is None:
            return
        self._since_budget_check += 1
        if self._since_budget_check < _ENCODE_CHECK_INTERVAL:
            return
        self._since_budget_check = 0
        budget.start()
        reason = budget.exceeded()
        if reason is not None:
            if BUS.enabled:
                BUS.instant("sat.budget_trip", "sat", reason=reason,
                            phase="encode")
            raise BudgetExhausted(budget.report(reason, phase="encode"))

    # ------------------------------------------------------------------
    # Literal-level gates (with constant short-circuiting and caching)
    # ------------------------------------------------------------------

    @property
    def true_lit(self) -> int:
        return self._true

    @property
    def false_lit(self) -> int:
        return -self._true

    # The gate constructors compare literals with `self._true` inline:
    # they run about a million times in one perfbench synth_cegis pass.

    def _and2(self, a: int, b: int) -> int:
        true = self._true
        if a == -true or b == -true or a == -b:
            return -true
        if a == true:
            return b
        if b == true or a == b:
            return a
        key = ("and", a, b) if a < b else ("and", b, a)
        gate = self._gate_cache.get(key)
        if gate is None:
            sat = self.sat
            gate = sat.new_var()
            sat.add_clause([-gate, a])
            sat.add_clause([-gate, b])
            sat.add_clause([gate, -a, -b])
            self._gate_cache[key] = gate
        return gate

    def _or2(self, a: int, b: int) -> int:
        return -self._and2(-a, -b)

    def _xor2(self, a: int, b: int) -> int:
        true = self._true
        if a == -true:
            return b
        if b == -true:
            return a
        if a == true:
            return -b
        if b == true:
            return -a
        if a == b:
            return -true
        if a == -b:
            return true
        key = ("xor", a, b) if a < b else ("xor", b, a)
        gate = self._gate_cache.get(key)
        if gate is None:
            sat = self.sat
            gate = sat.new_var()
            sat.add_clause([-gate, a, b])
            sat.add_clause([-gate, -a, -b])
            sat.add_clause([gate, a, -b])
            sat.add_clause([gate, -a, b])
            self._gate_cache[key] = gate
        return gate

    def _iff2(self, a: int, b: int) -> int:
        return -self._xor2(a, b)

    def _mux(self, cond: int, then: int, alt: int) -> int:
        """ite over literals."""
        true = self._true
        if cond == true:
            return then
        if cond == -true:
            return alt
        if then == alt:
            return then
        if then == -alt:
            return self._xor2(cond, alt)
        if then == true:
            return self._or2(cond, alt)
        if then == -true:
            return self._and2(-cond, alt)
        if alt == true:
            return self._or2(-cond, then)
        if alt == -true:
            return self._and2(cond, then)
        key = ("mux", cond, then, alt)
        gate = self._gate_cache.get(key)
        if gate is None:
            sat = self.sat
            gate = sat.new_var()
            sat.add_clause([-gate, -cond, then])
            sat.add_clause([-gate, cond, alt])
            sat.add_clause([gate, -cond, -then])
            sat.add_clause([gate, cond, -alt])
            # Redundant but propagation-strengthening clauses.
            sat.add_clause([-gate, then, alt])
            sat.add_clause([gate, -then, -alt])
            self._gate_cache[key] = gate
        return gate

    def _and_many(self, lits: Sequence[int]) -> int:
        """n-ary conjunction as a single gate (stronger unit propagation
        than a chain of binary gates, and one aux var instead of n-1)."""
        true = self._true
        unique = []
        seen = set()
        for lit in lits:
            if lit == -true or -lit in seen:
                return -true
            if lit == true or lit in seen:
                continue
            seen.add(lit)
            unique.append(lit)
        if not unique:
            return true
        if len(unique) == 1:
            return unique[0]
        if len(unique) == 2:
            return self._and2(unique[0], unique[1])
        key = ("andN", tuple(sorted(unique)))
        gate = self._gate_cache.get(key)
        if gate is None:
            sat = self.sat
            gate = sat.new_var()
            for lit in unique:
                sat.add_clause([-gate, lit])
            sat.add_clause([gate] + [-lit for lit in unique])
            self._gate_cache[key] = gate
        return gate

    def _or_many(self, lits: Sequence[int]) -> int:
        return -self._and_many([-lit for lit in lits])

    # ------------------------------------------------------------------
    # Word-level circuits (bit lists are LSB-first)
    # ------------------------------------------------------------------

    def _const_bits(self, value: int, width: int) -> List[int]:
        return [self.true_lit if (value >> i) & 1 else self.false_lit
                for i in range(width)]

    def _full_adder(self, a: int, b: int, carry: int) -> Tuple[int, int]:
        axb = self._xor2(a, b)
        total = self._xor2(axb, carry)
        carry_out = self._or2(self._and2(a, b), self._and2(carry, axb))
        return total, carry_out

    def _add_bits(self, a: List[int], b: List[int],
                  carry: int) -> Tuple[List[int], int]:
        out = []
        for bit_a, bit_b in zip(a, b):
            total, carry = self._full_adder(bit_a, bit_b, carry)
            out.append(total)
        return out, carry

    def _neg_bits(self, a: List[int]) -> List[int]:
        flipped = [-bit for bit in a]
        out, _ = self._add_bits(
            flipped, self._const_bits(1, len(a)), self.false_lit)
        return out

    def _sub_bits(self, a: List[int], b: List[int]) -> List[int]:
        out, _ = self._add_bits(a, [-bit for bit in b], self.true_lit)
        return out

    def _mul_bits(self, a: List[int], b: List[int]) -> List[int]:
        width = len(a)
        acc = self._const_bits(0, width)
        for i in range(width):
            # Partial product: (a << i) masked by b[i].
            row = [self.false_lit] * i + \
                  [self._and2(bit, b[i]) for bit in a[:width - i]]
            acc, _ = self._add_bits(acc, row, self.false_lit)
        return acc

    def _ult_bits(self, a: List[int], b: List[int]) -> int:
        lt = self.false_lit
        for bit_a, bit_b in zip(a, b):  # LSB to MSB
            lt = self._mux(self._iff2(bit_a, bit_b), lt,
                           self._and2(-bit_a, bit_b))
        return lt

    def _slt_bits(self, a: List[int], b: List[int]) -> int:
        sign_a, sign_b = a[-1], b[-1]
        unsigned_lt = self._ult_bits(a[:-1], b[:-1])
        # Same signs: compare magnitudes bit-for-bit (two's complement order
        # within a sign class equals unsigned order of the low bits).
        same = self._mux(self._iff2(sign_a, sign_b), unsigned_lt, sign_a)
        return same

    def _eq_bits(self, a: List[int], b: List[int]) -> int:
        return self._and_many([self._iff2(x, y) for x, y in zip(a, b)])

    def _mux_bits(self, cond: int, then: List[int],
                  alt: List[int]) -> List[int]:
        return [self._mux(cond, t, e) for t, e in zip(then, alt)]

    def _is_zero(self, a: List[int]) -> int:
        return self._and_many([-bit for bit in a])

    def _shift_bits(self, a: List[int], amount: List[int],
                    kind: str) -> List[int]:
        """Barrel shifter; kind is 'shl', 'lshr' or 'ashr'."""
        width = len(a)
        fill = a[-1] if kind == "ashr" else self.false_lit
        out = list(a)
        for j, select in enumerate(amount):
            step = 1 << j
            if step >= width:
                # Shifting by >= width: everything becomes fill.
                out = [self._mux(select, fill, bit) for bit in out]
                continue
            if kind == "shl":
                shifted = [self.false_lit] * step + out[:width - step]
            else:
                shifted = out[step:] + [fill] * step
            out = self._mux_bits(select, shifted, out)
        return out

    def _udivrem_bits(self, a: List[int],
                      b: List[int]) -> Tuple[List[int], List[int]]:
        """Restoring division (ignores the divide-by-zero case; callers fix it)."""
        width = len(a)
        # Remainder register with one extra bit so `2r + a_i >= b` is exact.
        remainder = self._const_bits(0, width + 1)
        b_ext = b + [self.false_lit]
        quotient = [self.false_lit] * width
        for i in range(width - 1, -1, -1):
            shifted = [a[i]] + remainder[:width]
            ge = -self._ult_bits(shifted, b_ext)
            subtracted = self._sub_bits(shifted, b_ext)
            remainder = self._mux_bits(ge, subtracted, shifted)
            quotient[i] = ge
        return quotient, remainder[:width]

    def _abs_bits(self, a: List[int]) -> List[int]:
        return self._mux_bits(a[-1], self._neg_bits(a), a)

    # ------------------------------------------------------------------
    # Term translation
    # ------------------------------------------------------------------

    def lit_of(self, term: T.Term) -> int:
        """SAT literal equisatisfiable with a boolean term."""
        if term.sort is not T.BOOL:
            raise TypeError(f"expected a boolean term, got {term!r}")
        cached = self._bool_memo.get(term)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        self._budget_checkpoint()
        lit = self._translate_bool(term)
        self._bool_memo[term] = lit
        return lit

    def bits_of(self, term: T.Term) -> List[int]:
        """SAT literals (LSB first) for a bitvector term."""
        if term.sort is not T.BV:
            raise TypeError(f"expected a bitvector term, got {term!r}")
        cached = self._bv_memo.get(term)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        self._budget_checkpoint()
        bits = self._translate_bv(term)
        self._bv_memo[term] = bits
        return bits

    def _translate_bool(self, term: T.Term) -> int:
        op = term.op
        if op == T.OP_TRUE:
            return self.true_lit
        if op == T.OP_FALSE:
            return self.false_lit
        if op == T.OP_BOOL_VAR:
            var = self._bool_vars.get(term)
            if var is None:
                var = self.sat.new_var()
                self._bool_vars[term] = var
            return var
        if op == T.OP_NOT:
            return -self.lit_of(term.args[0])
        if op == T.OP_AND:
            return self._and_many([self.lit_of(arg) for arg in term.args])
        if op == T.OP_OR:
            return self._or_many([self.lit_of(arg) for arg in term.args])
        if op == T.OP_XOR:
            return self._xor2(self.lit_of(term.args[0]),
                              self.lit_of(term.args[1]))
        if op == T.OP_ITE:
            return self._mux(self.lit_of(term.args[0]),
                             self.lit_of(term.args[1]),
                             self.lit_of(term.args[2]))
        if op == T.OP_EQ:
            return self._eq_bits(self.bits_of(term.args[0]),
                                 self.bits_of(term.args[1]))
        if op == T.OP_ULT:
            return self._ult_bits(self.bits_of(term.args[0]),
                                  self.bits_of(term.args[1]))
        if op == T.OP_ULE:
            return -self._ult_bits(self.bits_of(term.args[1]),
                                   self.bits_of(term.args[0]))
        if op == T.OP_SLT:
            return self._slt_bits(self.bits_of(term.args[0]),
                                  self.bits_of(term.args[1]))
        if op == T.OP_SLE:
            return -self._slt_bits(self.bits_of(term.args[1]),
                                   self.bits_of(term.args[0]))
        raise ValueError(f"unknown boolean operator {op}")

    def _translate_bv(self, term: T.Term) -> List[int]:
        op = term.op
        if op == T.OP_BV_CONST:
            return self._const_bits(term.const_value(), term.width)
        if op == T.OP_BV_VAR:
            bits = self._bv_vars.get(term)
            if bits is None:
                bits = [self.sat.new_var() for _ in range(term.width)]
                self._bv_vars[term] = bits
            return bits
        if op == T.OP_ITE:
            return self._mux_bits(self.lit_of(term.args[0]),
                                  self.bits_of(term.args[1]),
                                  self.bits_of(term.args[2]))
        if op == T.OP_NEG:
            return self._neg_bits(self.bits_of(term.args[0]))
        if op == T.OP_BVNOT:
            return [-bit for bit in self.bits_of(term.args[0])]
        args = [self.bits_of(arg) for arg in term.args]
        if op == T.OP_ADD:
            # Linear normal form makes additions n-ary.
            out = args[0]
            for operand in args[1:]:
                out, _ = self._add_bits(out, operand, self.false_lit)
            return out
        if op == T.OP_SUB:
            return self._sub_bits(args[0], args[1])
        if op == T.OP_MUL:
            return self._mul_bits(args[0], args[1])
        if op == T.OP_BVAND:
            return [self._and2(x, y) for x, y in zip(args[0], args[1])]
        if op == T.OP_BVOR:
            return [self._or2(x, y) for x, y in zip(args[0], args[1])]
        if op == T.OP_BVXOR:
            return [self._xor2(x, y) for x, y in zip(args[0], args[1])]
        if op == T.OP_SHL:
            return self._shift_bits(args[0], args[1], "shl")
        if op == T.OP_LSHR:
            return self._shift_bits(args[0], args[1], "lshr")
        if op == T.OP_ASHR:
            return self._shift_bits(args[0], args[1], "ashr")
        if op in (T.OP_UDIV, T.OP_UREM):
            quotient, remainder = self._udivrem_bits(args[0], args[1])
            zero_divisor = self._is_zero(args[1])
            if op == T.OP_UDIV:
                ones = self._const_bits((1 << term.width) - 1, term.width)
                return self._mux_bits(zero_divisor, ones, quotient)
            return self._mux_bits(zero_divisor, args[0], remainder)
        if op in (T.OP_SDIV, T.OP_SREM, T.OP_SMOD):
            return self._signed_divrem(term, args[0], args[1])
        raise ValueError(f"unknown bitvector operator {op}")

    def _signed_divrem(self, term: T.Term, a: List[int],
                       b: List[int]) -> List[int]:
        width = term.width
        sign_a, sign_b = a[-1], b[-1]
        mag_a, mag_b = self._abs_bits(a), self._abs_bits(b)
        quotient, remainder = self._udivrem_bits(mag_a, mag_b)
        zero_divisor = self._is_zero(b)
        if term.op == T.OP_SDIV:
            negate = self._xor2(sign_a, sign_b)
            signed_q = self._mux_bits(negate, self._neg_bits(quotient),
                                      quotient)
            # bvsdiv x 0 = 1 if x < 0 else -1 (via bvudiv on magnitudes).
            ones = self._const_bits((1 << width) - 1, width)
            one = self._const_bits(1, width)
            div0 = self._mux_bits(sign_a, one, ones)
            return self._mux_bits(zero_divisor, div0, signed_q)
        if term.op == T.OP_SREM:
            signed_r = self._mux_bits(sign_a, self._neg_bits(remainder),
                                      remainder)
            return self._mux_bits(zero_divisor, a, signed_r)
        # bvsmod: sign follows the divisor.
        # Case analysis per SMT-LIB, with u = bvurem(|a|, |b|):
        #   (sa=0, sb=0) -> u            (sa=1, sb=0) -> t - u
        #   (sa=0, sb=1) -> u + t        (sa=1, sb=1) -> -u
        # and bvsmod _ 0 = a, bvsmod with u = 0 -> 0.
        rem_zero = self._is_zero(remainder)
        neg_rem = self._neg_bits(remainder)
        sub_b, _ = self._add_bits(neg_rem, b, self.false_lit)       # t - u
        add_b, _ = self._add_bits(remainder, b, self.false_lit)     # u + t
        with_sa = self._mux_bits(sign_b, neg_rem, sub_b)
        without_sa = self._mux_bits(sign_b, add_b, remainder)
        result = self._mux_bits(sign_a, with_sa, without_sa)
        result = self._mux_bits(rem_zero, self._const_bits(0, width), result)
        return self._mux_bits(zero_divisor, a, result)

    # ------------------------------------------------------------------
    # Assertions and models
    # ------------------------------------------------------------------

    def assert_term(self, term: T.Term) -> None:
        """Assert a boolean term at the top level, permanently.

        Top-level conjunctions split into separate assertions and
        disjunctions become plain clauses, so the solver sees the formula's
        clausal skeleton directly instead of a tower of equivalence gates.
        Tseitin gate definitions are globally valid definitions of
        auxiliary variables, so later assertions and assumptions share
        them through the encode cache.

        While tracing, each top-level assertion is an ``smt.encode`` span
        whose end event carries the encode-cache disposition: how many
        subterm lookups hit the memo tables, how many were translated to
        fresh gates, and whether the whole assertion was already cached
        (``cached`` — zero misses).
        """
        bus = BUS
        if not bus.enabled:
            return self._assert_term(term)
        hits_before = self.cache_hits
        misses_before = self.cache_misses
        bus.begin("smt.encode", "smt")
        try:
            return self._assert_term(term)
        finally:
            misses = self.cache_misses - misses_before
            bus.end("smt.encode", "smt",
                    hits=self.cache_hits - hits_before,
                    misses=misses, cached=misses == 0)

    def _assert_term(self, term: T.Term) -> None:
        if term.op == T.OP_AND:
            for arg in term.args:
                self._assert_term(arg)
            return
        if term.op == T.OP_OR:
            self.sat.add_clause([self.lit_of(arg) for arg in term.args])
            return
        if term.op == T.OP_NOT and term.args[0].op == T.OP_OR:
            for arg in term.args[0].args:
                self._assert_term(T.mk_not(arg))
            return
        self.sat.add_clause([self.lit_of(term)])

    def variables(self) -> List[T.Term]:
        """All variable terms that have reached the encoder, in first-seen
        order (booleans before bitvectors)."""
        return list(self._bool_vars) + list(self._bv_vars)

    def model_value(self, var_term: T.Term):
        """Value of a variable term in the last satisfying assignment."""
        if var_term.op == T.OP_BOOL_VAR:
            sat_var = self._bool_vars.get(var_term)
            if sat_var is None:
                return False
            return bool(self.sat.model_value(sat_var))
        if var_term.op == T.OP_BV_VAR:
            bits = self._bv_vars.get(var_term)
            if bits is None:
                return 0
            value = 0
            for i, bit in enumerate(bits):
                if self.sat.model_value(bit):
                    value |= 1 << i
            return value
        raise TypeError(f"not a variable term: {var_term!r}")
