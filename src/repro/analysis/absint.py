"""Abstract interpretation over the interned term DAG.

One memoized post-order pass per root: every node is visited exactly once
(the DAG is acyclic, so the "fixpoint" is a single bottom-up sweep), and
each operator's transfer function maps the arguments' abstractions to a
sound abstraction of the result — an :class:`~repro.analysis.domains.AbsVal`
(known bits × unsigned interval, reduced) for bitvector nodes, a
``BTRUE``/``BFALSE``/``BTOP`` point for boolean nodes.

Exactness fast path: when every argument abstracts to a singleton, the
node is evaluated *concretely* through :func:`repro.smt.terms.eval_op`,
the per-operator table ``terms.evaluate`` compiles from, so the analysis
is exact wherever the inputs are — including the signed division
family, where the abstract transfer alone would give up.

The equality transfer adds one relational trick the non-relational
domains cannot see: for ``a = b`` over bitvectors it builds ``a - b``
through :func:`repro.smt.terms.mk_sub`, whose linear normal form folds
syntactically-related operands (``x+2 = x+5`` → difference ``3`` →
``BFALSE``) even though both sides abstract to ⊤.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.smt import terms as T
from repro.analysis import domains as D
from repro.analysis.domains import (
    BFALSE,
    BTOP,
    BTRUE,
    AbsVal,
    KnownBits,
    b3_and,
    b3_join,
    b3_not,
    b3_or,
    b3_xor,
    bool3,
)

AbstractValue = Union[AbsVal, "D._Bool3"]


class AbstractError(Exception):
    """The analysis met a term it has no transfer function for."""


def _as_abstract(term: T.Term, value) -> AbstractValue:
    """Coerce an environment entry (AbsVal/Bool3/int/bool) for `term`."""
    if isinstance(value, AbsVal) or value in (BTRUE, BFALSE, BTOP):
        return value
    if term.sort is T.BOOL:
        return bool3(bool(value))
    return AbsVal.const(int(value), term.width)


def _concrete_args(args: Iterable[AbstractValue]):
    """Concrete argument values if every abstraction is a singleton."""
    out = []
    for value in args:
        if isinstance(value, AbsVal):
            if not value.is_const():
                return None
            out.append(value.value())
        elif value is BTRUE:
            out.append(True)
        elif value is BFALSE:
            out.append(False)
        else:
            return None
    return out


def _lift_concrete(node: T.Term, value) -> AbstractValue:
    if node.sort is T.BOOL:
        return bool3(bool(value))
    return AbsVal.const(int(value), node.width)


_CMP_OPS = frozenset((T.OP_EQ, T.OP_ULT, T.OP_ULE, T.OP_SLT, T.OP_SLE))


def _chaos_value(node: T.Term) -> AbstractValue:
    """A deliberately wrong singleton (fault-injection harness only)."""
    if node.sort is T.BOOL:
        return BFALSE
    return AbsVal.const(5, node.width)


def _transfer(node: T.Term,
              memo: Dict[T.Term, AbstractValue]) -> AbstractValue:
    op = node.op
    if op == T.OP_TRUE:
        return BTRUE
    if op == T.OP_FALSE:
        return BFALSE
    if op == T.OP_BV_CONST:
        return AbsVal.const(node.const_value(), node.width)
    if node.is_var:
        return BTOP if node.sort is T.BOOL else AbsVal.top(node.width)

    if D.CHAOS_WRONG_OP is not None and op == D.CHAOS_WRONG_OP:
        return _chaos_value(node)

    args = [memo[arg] for arg in node.args]

    # Exactness fast path: all-singleton arguments evaluate concretely
    # through the operator table `terms.evaluate` compiles from.
    concrete = _concrete_args(args)
    if concrete is not None:
        return _lift_concrete(node, T.eval_op(node, concrete))

    # Boolean connectives -------------------------------------------------
    if op == T.OP_NOT:
        return b3_not(args[0])
    if op == T.OP_AND:
        return b3_and(*args)
    if op == T.OP_OR:
        return b3_or(*args)
    if op == T.OP_XOR:
        return b3_xor(args[0], args[1])
    if op == T.OP_ITE:
        cond, then_val, else_val = args
        if cond is BTRUE:
            return then_val
        if cond is BFALSE:
            return else_val
        if node.sort is T.BOOL:
            return b3_join(then_val, else_val)
        return then_val.join(else_val)

    # Comparisons ---------------------------------------------------------
    if op in _CMP_OPS:
        return _compare(op, node, args)

    # Bitvector arithmetic / bitwise --------------------------------------
    a = args[0]
    if op == T.OP_ADD:
        result = a
        for b in args[1:]:
            result = AbsVal(result.bits.add(b.bits), result.rng.add(b.rng))
        return result.reduce()
    if op == T.OP_SUB:
        b = args[1]
        return AbsVal(a.bits.sub(b.bits), a.rng.sub(b.rng)).reduce()
    if op == T.OP_NEG:
        return AbsVal(a.bits.neg(), a.rng.neg()).reduce()
    if op == T.OP_MUL:
        b = args[1]
        return AbsVal(a.bits.mul(b.bits), a.rng.mul(b.rng)).reduce()
    if op == T.OP_UDIV:
        b = args[1]
        return AbsVal(KnownBits.top(node.width), a.rng.udiv(b.rng)).reduce()
    if op == T.OP_UREM:
        b = args[1]
        return AbsVal(KnownBits.top(node.width), a.rng.urem(b.rng)).reduce()
    if op in (T.OP_SDIV, T.OP_SREM, T.OP_SMOD):
        # Signed division is only exact on singletons (handled above).
        return AbsVal.top(node.width)
    if op == T.OP_BVAND:
        b = args[1]
        return AbsVal(a.bits.and_(b.bits), a.rng.bvand(b.rng)).reduce()
    if op == T.OP_BVOR:
        b = args[1]
        return AbsVal(a.bits.or_(b.bits), a.rng.bvor(b.rng)).reduce()
    if op == T.OP_BVXOR:
        b = args[1]
        return AbsVal(a.bits.xor_(b.bits), a.rng.bvxor(b.rng)).reduce()
    if op == T.OP_BVNOT:
        return AbsVal(a.bits.not_(), a.rng.bvnot()).reduce()
    if op in (T.OP_SHL, T.OP_LSHR, T.OP_ASHR):
        return _shift(op, node.width, a, args[1])

    raise AbstractError(f"no transfer function for operator {op!r}")


def _compare(op: str, node: T.Term, args) -> "D._Bool3":
    a, b = args
    if op == T.OP_EQ:
        if node.args[0].sort is T.BOOL:
            return b3_not(b3_xor(a, b))
        # Disjoint known bits or disjoint ranges decide inequality.
        if (a.bits.ones & b.bits.zeros) or (a.bits.zeros & b.bits.ones):
            return BFALSE
        if a.rng.hi < b.rng.lo or b.rng.hi < a.rng.lo:
            return BFALSE
        # Relational fallback: the linear normal form of a - b folds
        # syntactically related operands the domains abstract away.
        diff = T.mk_sub(node.args[0], node.args[1])
        if diff.is_const:
            return bool3(diff.const_value() == 0)
        return BTOP
    if op == T.OP_ULT:
        return a.rng.ult(b.rng)
    if op == T.OP_ULE:
        return a.rng.ule(b.rng)
    if op == T.OP_SLT:
        return a.rng.slt(b.rng)
    return a.rng.sle(b.rng)


def _shift(op: str, width: int, a: AbsVal, shift: AbsVal) -> AbsVal:
    if shift.is_const():
        amount = shift.value()
        if op == T.OP_SHL:
            bits = a.bits.shl_const(amount)
        elif op == T.OP_LSHR:
            bits = a.bits.lshr_const(amount)
        else:
            bits = a.bits.ashr_const(amount)
    elif op == T.OP_SHL:
        # A left shift by any amount preserves trailing zeros.
        bits = KnownBits((1 << a.bits.trailing_zeros()) - 1, 0, width)
    elif op == T.OP_LSHR or (op == T.OP_ASHR and
                             a.bits.trit(width - 1) == 0):
        # A right shift of a value with known leading zeros keeps them.
        lead = a.bits.leading_zeros()
        mask = (1 << width) - 1
        bits = KnownBits(mask & ~((1 << (width - lead)) - 1), 0, width)
    else:
        bits = KnownBits.top(width)
    if op == T.OP_SHL:
        rng = a.rng.shl(shift.rng)
    elif op == T.OP_LSHR:
        rng = a.rng.lshr(shift.rng)
    else:
        rng = a.rng.ashr(shift.rng)
    return AbsVal(bits, rng).reduce()


def analyze_term(term: T.Term,
                 env: Optional[Dict[T.Term, object]] = None,
                 ) -> Dict[T.Term, AbstractValue]:
    """Abstractly interpret the DAG under `term`.

    Returns the full memo table mapping every reachable node to its
    abstraction, so callers (the sanitizer, the lint rules) can inspect
    subterm facts without re-running the pass. `env` optionally seeds
    variables with abstract or concrete values.
    """
    memo: Dict[T.Term, AbstractValue] = {}
    if env:
        for var, value in env.items():
            memo[var] = _as_abstract(var, value)
    for node in T.postorder(term):
        if node not in memo:
            memo[node] = _transfer(node, memo)
    return memo


def value_of(term: T.Term,
             env: Optional[Dict[T.Term, object]] = None) -> AbstractValue:
    """The abstraction of `term` alone (convenience over analyze_term)."""
    return analyze_term(term, env)[term]


def bool3_of(term: T.Term,
             env: Optional[Dict[T.Term, object]] = None) -> "D._Bool3":
    """Three-valued verdict for a boolean term."""
    if term.sort is not T.BOOL:
        raise AbstractError(f"bool3_of needs a Bool term, got {term!r}")
    return value_of(term, env)
