"""Hash-consed term DAG for quantifier-free boolean/bitvector formulas.

Terms are immutable and globally interned, so structurally equal terms are
the *same object* and common subexpressions are shared — the paper's
"symbolic expressions are represented as DAGs that share common
subexpressions" (§4.3). All constructors simplify aggressively: applied to
concrete operands they constant-fold, which is what lets the SVM keep
concrete computation concrete.

Sorts
-----
- ``BOOL`` — the booleans.
- ``BV`` with a per-term ``width`` — fixed-width bitvectors, used to model
  the paper's finite-precision integers (footnote 2 of the paper). Values
  are stored unsigned, modulo ``2**width``; signed operators interpret them
  in two's complement.
"""

from __future__ import annotations

import gc
import itertools
import weakref
from _weakref import _remove_dead_weakref
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Sorts and operators
# ---------------------------------------------------------------------------

BOOL = "Bool"
BV = "BV"

# Boolean operators.
OP_TRUE = "true"
OP_FALSE = "false"
OP_BOOL_VAR = "bool-var"
OP_NOT = "not"
OP_AND = "and"
OP_OR = "or"
OP_XOR = "xor"
OP_ITE = "ite"            # boolean- or bitvector-sorted, by result
OP_EQ = "="
OP_ULT = "bvult"
OP_ULE = "bvule"
OP_SLT = "bvslt"
OP_SLE = "bvsle"

# Bitvector operators.
OP_BV_CONST = "bv-const"
OP_BV_VAR = "bv-var"
OP_ADD = "bvadd"
OP_SUB = "bvsub"
OP_MUL = "bvmul"
OP_UDIV = "bvudiv"
OP_UREM = "bvurem"
OP_SDIV = "bvsdiv"
OP_SREM = "bvsrem"
OP_SMOD = "bvsmod"
OP_NEG = "bvneg"
OP_BVAND = "bvand"
OP_BVOR = "bvor"
OP_BVXOR = "bvxor"
OP_BVNOT = "bvnot"
OP_SHL = "bvshl"
OP_LSHR = "bvlshr"
OP_ASHR = "bvashr"


class Term:
    """A node of the interned term DAG. Use the ``mk_*`` constructors.

    Every term carries a creation ``serial``: a child was always built
    before its parent, and the serial is the only thing the term layer
    orders or hashes terms by. Equality is the inherited object identity;
    interning guarantees structural equality iff ``is``.
    """

    __slots__ = ("op", "args", "payload", "sort", "width", "serial",
                 "__weakref__")

    def __init__(self, op: str, args: Tuple["Term", ...], payload, sort: str,
                 width: int):
        self.op = op
        self.args = args
        self.payload = payload      # constant value or variable name
        self.sort = sort
        self.width = width          # 0 for booleans
        self.serial = next(_SERIALS)

    def __hash__(self) -> int:
        return self.serial

    @property
    def is_const(self) -> bool:
        return self.op in (OP_TRUE, OP_FALSE, OP_BV_CONST)

    @property
    def is_var(self) -> bool:
        return self.op in (OP_BOOL_VAR, OP_BV_VAR)

    def const_value(self):
        """Python value of a constant term (bool or unsigned int)."""
        if self.op == OP_TRUE:
            return True
        if self.op == OP_FALSE:
            return False
        if self.op == OP_BV_CONST:
            return self.payload
        raise ValueError(f"not a constant: {self!r}")

    def __repr__(self) -> str:
        return to_sexpr(self, max_depth=4)


_SERIALS = itertools.count()

# Sort key of the canonical child order: creation serial.
_by_serial = attrgetter("serial")


# Weak interning: the table maps a structural key to a weak reference to
# the one live Term with that structure, so it never keeps a term alive.
# The key is ``(op, payload, width, *serials of the args)``: serials are
# never reused, and a live term keeps its args alive, so a key names one
# structure for as long as its entry exists, and hashing it never calls
# back into Python. When the last outside reference to a term dies, its
# reference's callback drops the entry; the term's args then lose a
# reference, so the DAG unravels top-down. Live terms are never evicted,
# so structural equality remains object identity across query
# boundaries, and dead terms cost nothing.
_TABLE: "Dict[Tuple, weakref.KeyedRef]" = {}


def _forget(ref: weakref.KeyedRef, _table=_TABLE,
            _remove=_remove_dead_weakref) -> None:
    # Bound through defaults so that it still works while module globals
    # are torn down at interpreter shutdown. The entry is only removed if
    # it still holds a dead reference: a structurally equal term interned
    # after this one died keeps its entry.
    _remove(_table, ref.key)


def _key(op: str, args: Tuple[Term, ...], payload, width: int) -> Tuple:
    return (op, payload, width, *map(_by_serial, args))


def _lookup(op: str, args: Tuple[Term, ...], payload,
            width: int) -> Optional[Term]:
    """The live interned term with this structure, without building it."""
    ref = _TABLE.get(_key(op, args, payload, width))
    return ref() if ref is not None else None


def _intern(op: str, args: Tuple[Term, ...], payload, sort: str,
            width: int) -> Term:
    key = _key(op, args, payload, width)
    ref = _TABLE.get(key)
    if ref is not None:
        term = ref()
        if term is not None:
            return term
    term = Term(op, args, payload, sort, width)
    _TABLE[key] = weakref.KeyedRef(term, _forget, key)
    return term


def reset_terms() -> None:
    """Reclaim interned terms that are no longer referenced.

    Dead terms leave the table on their own; this only runs a collection
    to break any lingering reference cycles. Live terms are never evicted,
    so a term built before the call and a structurally equal one built
    after it are the same object.
    """
    gc.collect()


def num_interned_terms() -> int:
    return len(_TABLE)


TRUE = _intern(OP_TRUE, (), None, BOOL, 0)
FALSE = _intern(OP_FALSE, (), None, BOOL, 0)


# ---------------------------------------------------------------------------
# Leaf constructors
# ---------------------------------------------------------------------------

def bool_const(value: bool) -> Term:
    return TRUE if value else FALSE


def bool_var(name: str) -> Term:
    return _intern(OP_BOOL_VAR, (), name, BOOL, 0)


def bv_const(value: int, width: int) -> Term:
    if width <= 0:
        raise ValueError("bitvector width must be positive")
    return _intern(OP_BV_CONST, (), value & ((1 << width) - 1), BV, width)


def bv_var(name: str, width: int) -> Term:
    if width <= 0:
        raise ValueError("bitvector width must be positive")
    return _intern(OP_BV_VAR, (), name, BV, width)


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned `width`-bit value in two's complement."""
    sign_bit = 1 << (width - 1)
    return value - (1 << width) if value & sign_bit else value


def _check_bool(*terms: Term) -> None:
    for term in terms:
        if term.sort is not BOOL:
            raise TypeError(f"expected Bool, got {term.sort}: {term!r}")


def _check_bv(*terms: Term) -> int:
    width = terms[0].width
    for term in terms:
        if term.sort is not BV:
            raise TypeError(f"expected BV, got {term.sort}: {term!r}")
        if term.width != width:
            raise TypeError(
                f"width mismatch: {width} vs {term.width} in {term!r}")
    return width


# ---------------------------------------------------------------------------
# Boolean constructors
# ---------------------------------------------------------------------------

def mk_not(a: Term) -> Term:
    _check_bool(a)
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if a.op == OP_NOT:
        return a.args[0]
    return _intern(OP_NOT, (a,), None, BOOL, 0)


def _nary_bool(op: str, terms: Tuple[Term, ...], unit: Term,
               zero: Term) -> Term:
    """Build a flattened, deduplicated n-ary and/or.

    Children are keyed by their *atom* (the child itself, or the operand
    of a ``not``) with a polarity, so a complementary pair is found
    without building ``not child``: a /\\ ~a = false, a \\/ ~a = true.
    """
    _check_bool(*terms)
    flat: List[Term] = []
    polarity: Dict[int, bool] = {}
    for term in terms:
        if term is zero:
            return zero
        if term is unit:
            continue
        children = term.args if term.op == op else (term,)
        for child in children:
            if child is zero:
                return zero
            if child is unit:
                continue
            if child.op == OP_NOT:
                atom, positive = child.args[0].serial, False
            else:
                atom, positive = child.serial, True
            seen = polarity.get(atom)
            if seen is None:
                polarity[atom] = positive
                flat.append(child)
            elif seen is not positive:
                return zero
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=_by_serial)
    return _intern(op, tuple(flat), None, BOOL, 0)


def mk_and(*terms: Term) -> Term:
    return _nary_bool(OP_AND, terms, TRUE, FALSE)


def mk_or(*terms: Term) -> Term:
    return _nary_bool(OP_OR, terms, FALSE, TRUE)


def mk_implies(a: Term, b: Term) -> Term:
    return mk_or(mk_not(a), b)


def mk_xor(a: Term, b: Term) -> Term:
    _check_bool(a, b)
    if a is FALSE:
        return b
    if b is FALSE:
        return a
    if a is TRUE:
        return mk_not(b)
    if b is TRUE:
        return mk_not(a)
    if a is b:
        return FALSE
    # Complementary operands, found without building `not a`.
    if (a.op == OP_NOT and a.args[0] is b) or \
            (b.op == OP_NOT and b.args[0] is a):
        return TRUE
    if a.serial > b.serial:
        a, b = b, a
    return _intern(OP_XOR, (a, b), None, BOOL, 0)


def mk_iff(a: Term, b: Term) -> Term:
    return mk_not(mk_xor(a, b))


def mk_eq(a: Term, b: Term) -> Term:
    if a.sort is BOOL and b.sort is BOOL:
        return mk_iff(a, b)
    width = _check_bv(a, b)
    if a is b:
        return TRUE
    if a.is_const and b.is_const:
        return bool_const(a.const_value() == b.const_value())
    if a.serial > b.serial:
        a, b = b, a
    del width
    return _intern(OP_EQ, (a, b), None, BOOL, 0)


def mk_ite(cond: Term, then: Term, alt: Term) -> Term:
    """If-then-else over booleans or same-width bitvectors (the φ of §4.1)."""
    _check_bool(cond)
    if cond is TRUE:
        return then
    if cond is FALSE:
        return alt
    if then is alt:
        return then
    if then.sort is BOOL:
        _check_bool(then, alt)
        if then is TRUE and alt is FALSE:
            return cond
        if then is FALSE and alt is TRUE:
            return mk_not(cond)
        if then is TRUE:
            return mk_or(cond, alt)
        if then is FALSE:
            return mk_and(mk_not(cond), alt)
        if alt is TRUE:
            return mk_or(mk_not(cond), then)
        if alt is FALSE:
            return mk_and(cond, then)
        return _intern(OP_ITE, (cond, then, alt), None, BOOL, 0)
    width = _check_bv(then, alt)
    if cond.op == OP_NOT:
        return mk_ite(cond.args[0], alt, then)
    # Collapse nested ite on the same condition.
    if then.op == OP_ITE and then.args[0] is cond:
        then = then.args[1]
    if alt.op == OP_ITE and alt.args[0] is cond:
        alt = alt.args[2]
    if then is alt:
        return then
    return _intern(OP_ITE, (cond, then, alt), None, BV, width)


def _mk_compare(op: str, a: Term, b: Term,
                fold: Callable[[int, int, int], bool]) -> Term:
    width = _check_bv(a, b)
    if a.is_const and b.is_const:
        return bool_const(fold(a.const_value(), b.const_value(), width))
    if a is b:
        return bool_const(fold(0, 0, width))
    return _intern(op, (a, b), None, BOOL, 0)


def mk_ult(a: Term, b: Term) -> Term:
    return _mk_compare(OP_ULT, a, b, lambda x, y, w: x < y)


def mk_ule(a: Term, b: Term) -> Term:
    return _mk_compare(OP_ULE, a, b, lambda x, y, w: x <= y)


def mk_slt(a: Term, b: Term) -> Term:
    return _mk_compare(
        OP_SLT, a, b, lambda x, y, w: to_signed(x, w) < to_signed(y, w))


def mk_sle(a: Term, b: Term) -> Term:
    return _mk_compare(
        OP_SLE, a, b, lambda x, y, w: to_signed(x, w) <= to_signed(y, w))


# ---------------------------------------------------------------------------
# Bitvector constructors
# ---------------------------------------------------------------------------

def _mk_bv_binop(op: str, a: Term, b: Term,
                 fold: Callable[[int, int, int], int],
                 commutative: bool = False) -> Term:
    width = _check_bv(a, b)
    if a.is_const and b.is_const:
        return bv_const(fold(a.const_value(), b.const_value(), width), width)
    if commutative and a.serial > b.serial:
        a, b = b, a
    return _intern(op, (a, b), None, BV, width)


# Additive terms are kept in a *linear normal form*: a canonical n-ary sum
# `c0 + c1*t1 + ... + cn*tn` over non-additive atoms, with the constant
# first and atoms in creation-serial order. Two expressions that are equal
# as linear combinations (e.g. `(a+b)+2c` and `2c+b+a`, or `x+x` and `2x`)
# therefore intern to the SAME term, and equalities between them fold to
# TRUE at construction time — the kind of algebraic normalization a
# production symbolic engine performs before involving the solver.

def _linear_parts(term: Term) -> Tuple[int, Dict[Term, int]]:
    """Decompose a canonical term into (constant, {atom: coefficient})."""
    if term.op == OP_BV_CONST:
        return term.const_value(), {}
    if term.op == OP_ADD:
        constant = 0
        atoms: Dict[Term, int] = {}
        for arg in term.args:
            if arg.op == OP_BV_CONST:
                constant = arg.const_value()
            elif arg.op == OP_MUL and arg.args[0].op == OP_BV_CONST:
                atoms[arg.args[1]] = arg.args[0].const_value()
            else:
                atoms[arg] = 1
        return constant, atoms
    if term.op == OP_MUL and term.args[0].op == OP_BV_CONST:
        return 0, {term.args[1]: term.args[0].const_value()}
    return 0, {term: 1}


def _scale_atom(atom: Term, coeff: int, width: int) -> Term:
    if coeff == 1:
        return atom
    return _intern(OP_MUL, (bv_const(coeff, width), atom), None, BV, width)


def _build_linear(constant: int, atoms: Dict[Term, int], width: int) -> Term:
    mask = (1 << width) - 1
    constant &= mask
    live = [(atom, coeff & mask) for atom, coeff in atoms.items()
            if coeff & mask]
    if not live:
        return bv_const(constant, width)
    if len(live) == 1 and constant == 0:
        atom, coeff = live[0]
        return _scale_atom(atom, coeff, width)
    parts: List[Term] = []
    if constant:
        parts.append(bv_const(constant, width))
    parts.extend(_scale_atom(atom, coeff, width)
                 for atom, coeff in sorted(live, key=lambda ac: ac[0].serial))
    return _intern(OP_ADD, tuple(parts), None, BV, width)


def _combine_linear(a: Term, b: Term, sign: int) -> Term:
    width = a.width
    const_a, atoms_a = _linear_parts(a)
    const_b, atoms_b = _linear_parts(b)
    atoms = dict(atoms_a)
    for atom, coeff in atoms_b.items():
        atoms[atom] = atoms.get(atom, 0) + sign * coeff
    return _build_linear(const_a + sign * const_b, atoms, width)


def mk_add(*terms: Term) -> Term:
    if not terms:
        raise TypeError("mk_add needs at least one operand")
    _check_bv(*terms)
    result = terms[0]
    for term in terms[1:]:
        result = _combine_linear(result, term, 1)
    return result


def mk_sub(a: Term, b: Term) -> Term:
    _check_bv(a, b)
    return _combine_linear(a, b, -1)


def mk_neg(a: Term) -> Term:
    _check_bv(a)
    constant, atoms = _linear_parts(a)
    return _build_linear(-constant, {t: -c for t, c in atoms.items()},
                         a.width)


def mk_mul(a: Term, b: Term) -> Term:
    width = _check_bv(a, b)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            value = x.const_value()
            if value == 0:
                return bv_const(0, width)
            if value == 1:
                return y
            # Distribute the constant over y's linear form.
            constant, atoms = _linear_parts(y)
            return _build_linear(constant * value,
                                 {t: c * value for t, c in atoms.items()},
                                 width)
    return _mk_bv_binop(OP_MUL, a, b, lambda x, y, w: x * y, commutative=True)


def _udiv_fold(x: int, y: int, w: int) -> int:
    # SMT-LIB semantics: division by zero yields all-ones.
    return (1 << w) - 1 if y == 0 else x // y


def _urem_fold(x: int, y: int, w: int) -> int:
    return x if y == 0 else x % y


def _sdiv_fold(x: int, y: int, w: int) -> int:
    sx, sy = to_signed(x, w), to_signed(y, w)
    if sy == 0:
        return 1 if sx < 0 else (1 << w) - 1
    quotient = abs(sx) // abs(sy)
    return quotient if (sx < 0) == (sy < 0) else -quotient


def _srem_fold(x: int, y: int, w: int) -> int:
    # Remainder takes the sign of the dividend (SMT-LIB bvsrem).
    sx, sy = to_signed(x, w), to_signed(y, w)
    if sy == 0:
        return x
    magnitude = abs(sx) % abs(sy)
    return magnitude if sx >= 0 else -magnitude


def _smod_fold(x: int, y: int, w: int) -> int:
    # Modulus takes the sign of the divisor (SMT-LIB bvsmod).
    sx, sy = to_signed(x, w), to_signed(y, w)
    if sy == 0:
        return x
    return sx - sy * (sx // sy) if sx % sy else 0


def mk_udiv(a: Term, b: Term) -> Term:
    return _mk_bv_binop(OP_UDIV, a, b, _udiv_fold)


def mk_urem(a: Term, b: Term) -> Term:
    return _mk_bv_binop(OP_UREM, a, b, _urem_fold)


def mk_sdiv(a: Term, b: Term) -> Term:
    return _mk_bv_binop(OP_SDIV, a, b, _sdiv_fold)


def mk_srem(a: Term, b: Term) -> Term:
    return _mk_bv_binop(OP_SREM, a, b, _srem_fold)


def mk_smod(a: Term, b: Term) -> Term:
    return _mk_bv_binop(OP_SMOD, a, b, _smod_fold)


def mk_bvnot(a: Term) -> Term:
    _check_bv(a)
    if a.is_const:
        return bv_const(~a.const_value(), a.width)
    if a.op == OP_BVNOT:
        return a.args[0]
    return _intern(OP_BVNOT, (a,), None, BV, a.width)


def mk_bvand(a: Term, b: Term) -> Term:
    width = _check_bv(a, b)
    ones = (1 << width) - 1
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.const_value() == 0:
                return bv_const(0, width)
            if x.const_value() == ones:
                return y
    if a is b:
        return a
    return _mk_bv_binop(OP_BVAND, a, b, lambda x, y, w: x & y, commutative=True)


def mk_bvor(a: Term, b: Term) -> Term:
    width = _check_bv(a, b)
    ones = (1 << width) - 1
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.const_value() == 0:
                return y
            if x.const_value() == ones:
                return bv_const(ones, width)
    if a is b:
        return a
    return _mk_bv_binop(OP_BVOR, a, b, lambda x, y, w: x | y, commutative=True)


def mk_bvxor(a: Term, b: Term) -> Term:
    width = _check_bv(a, b)
    if a is b:
        return bv_const(0, width)
    for x, y in ((a, b), (b, a)):
        if x.is_const and x.const_value() == 0:
            return y
    return _mk_bv_binop(OP_BVXOR, a, b, lambda x, y, w: x ^ y, commutative=True)


def _shift_fold(shift: Callable[[int, int, int], int]):
    def fold(x: int, y: int, w: int) -> int:
        return shift(x, y, w)
    return fold


def mk_shl(a: Term, b: Term) -> Term:
    if b.is_const and b.const_value() == 0:
        return a
    return _mk_bv_binop(
        OP_SHL, a, b,
        lambda x, y, w: x << y if y < w else 0)


def mk_lshr(a: Term, b: Term) -> Term:
    if b.is_const and b.const_value() == 0:
        return a
    return _mk_bv_binop(
        OP_LSHR, a, b,
        lambda x, y, w: x >> y if y < w else 0)


def mk_ashr(a: Term, b: Term) -> Term:
    if b.is_const and b.const_value() == 0:
        return a

    def fold(x: int, y: int, w: int) -> int:
        signed = to_signed(x, w)
        return signed >> min(y, w - 1)
    return _mk_bv_binop(OP_ASHR, a, b, fold)


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------

def postorder(term: Term):
    """Iterative post-order traversal yielding each node exactly once."""
    seen = set()
    stack: List[Tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            yield node
        else:
            stack.append((node, True))
            for arg in node.args:
                if id(arg) not in seen:
                    stack.append((arg, False))


def term_size(term: Term) -> int:
    """Number of distinct DAG nodes reachable from `term`."""
    return sum(1 for _ in postorder(term))


def term_vars(term: Term) -> List[Term]:
    """All variable leaves reachable from `term`, in post order."""
    return [node for node in postorder(term) if node.is_var]


_REBUILDERS: Dict[str, Callable] = {}


def _rebuilders() -> Dict[str, Callable]:
    if not _REBUILDERS:
        _REBUILDERS.update({
            OP_NOT: lambda t, args: mk_not(*args),
            OP_AND: lambda t, args: mk_and(*args),
            OP_OR: lambda t, args: mk_or(*args),
            OP_XOR: lambda t, args: mk_xor(*args),
            OP_EQ: lambda t, args: mk_eq(*args),
            OP_ITE: lambda t, args: mk_ite(*args),
            OP_ULT: lambda t, args: mk_ult(*args),
            OP_ULE: lambda t, args: mk_ule(*args),
            OP_SLT: lambda t, args: mk_slt(*args),
            OP_SLE: lambda t, args: mk_sle(*args),
            OP_ADD: lambda t, args: mk_add(*args),
            OP_SUB: lambda t, args: mk_sub(*args),
            OP_MUL: lambda t, args: mk_mul(*args),
            OP_UDIV: lambda t, args: mk_udiv(*args),
            OP_UREM: lambda t, args: mk_urem(*args),
            OP_SDIV: lambda t, args: mk_sdiv(*args),
            OP_SREM: lambda t, args: mk_srem(*args),
            OP_SMOD: lambda t, args: mk_smod(*args),
            OP_NEG: lambda t, args: mk_neg(*args),
            OP_BVAND: lambda t, args: mk_bvand(*args),
            OP_BVOR: lambda t, args: mk_bvor(*args),
            OP_BVXOR: lambda t, args: mk_bvxor(*args),
            OP_BVNOT: lambda t, args: mk_bvnot(*args),
            OP_SHL: lambda t, args: mk_shl(*args),
            OP_LSHR: lambda t, args: mk_lshr(*args),
            OP_ASHR: lambda t, args: mk_ashr(*args),
        })
    return _REBUILDERS


def substitute(term: Term, env: Dict[Term, Term]) -> Term:
    """Replace variables per `env`, re-simplifying bottom-up.

    This is the workhorse of the CEGIS synthesis loop: substituting a
    counterexample model into a formula constant-folds everything that
    depended only on the inputs.
    """
    rebuild = _rebuilders()
    memo: Dict[int, Term] = {}
    for node in postorder(term):
        if node in env:
            replacement = env[node]
            if replacement.sort != node.sort or replacement.width != node.width:
                raise TypeError(f"substitution changes sort of {node!r}")
            memo[id(node)] = replacement
        elif not node.args:
            memo[id(node)] = node
        else:
            new_args = tuple(memo[id(arg)] for arg in node.args)
            if all(new is old for new, old in zip(new_args, node.args)):
                memo[id(node)] = node
            else:
                memo[id(node)] = rebuild[node.op](node, new_args)
    return memo[id(term)]


def evaluate(term: Term, env: Dict[Term, object]):
    """Concretely evaluate `term` under a variable assignment.

    `env` maps variable terms to Python values (bool / unsigned int).
    Unassigned variables default to False / 0 — matching how SAT models
    treat don't-care variables.
    """
    memo: Dict[int, object] = {}
    for node in postorder(term):
        memo[id(node)] = _eval_node(node, env, memo)
    return memo[id(term)]


def _eval_node(node: Term, env, memo):
    op = node.op
    if node.is_var:
        if node in env:
            return env[node]
        return False if node.sort is BOOL else 0
    if node.is_const:
        return node.const_value()
    args = [memo[id(arg)] for arg in node.args]
    width = node.args[0].width if node.args else node.width
    mask = (1 << width) - 1 if width else 0
    if op == OP_NOT:
        return not args[0]
    if op == OP_AND:
        return all(args)
    if op == OP_OR:
        return any(args)
    if op == OP_XOR:
        return args[0] != args[1]
    if op == OP_EQ:
        return args[0] == args[1]
    if op == OP_ITE:
        return args[1] if args[0] else args[2]
    if op == OP_ULT:
        return args[0] < args[1]
    if op == OP_ULE:
        return args[0] <= args[1]
    if op == OP_SLT:
        return to_signed(args[0], width) < to_signed(args[1], width)
    if op == OP_SLE:
        return to_signed(args[0], width) <= to_signed(args[1], width)
    if op == OP_ADD:
        return sum(args) & mask
    if op == OP_SUB:
        return (args[0] - args[1]) & mask
    if op == OP_MUL:
        return (args[0] * args[1]) & mask
    if op == OP_UDIV:
        return _udiv_fold(args[0], args[1], width) & mask
    if op == OP_UREM:
        return _urem_fold(args[0], args[1], width) & mask
    if op == OP_SDIV:
        return _sdiv_fold(args[0], args[1], width) & mask
    if op == OP_SREM:
        return _srem_fold(args[0], args[1], width) & mask
    if op == OP_SMOD:
        return _smod_fold(args[0], args[1], width) & mask
    if op == OP_NEG:
        return (-args[0]) & mask
    if op == OP_BVAND:
        return args[0] & args[1]
    if op == OP_BVOR:
        return args[0] | args[1]
    if op == OP_BVXOR:
        return args[0] ^ args[1]
    if op == OP_BVNOT:
        return (~args[0]) & mask
    if op == OP_SHL:
        return (args[0] << args[1]) & mask if args[1] < width else 0
    if op == OP_LSHR:
        return args[0] >> args[1] if args[1] < width else 0
    if op == OP_ASHR:
        return (to_signed(args[0], width) >> min(args[1], width - 1)) & mask
    raise ValueError(f"cannot evaluate operator {op}")


def to_sexpr(term: Term, max_depth: Optional[int] = None) -> str:
    """Render a term as an SMT-LIB-flavoured s-expression."""
    def render(node: Term, depth: int) -> str:
        if node.op == OP_TRUE:
            return "true"
        if node.op == OP_FALSE:
            return "false"
        if node.op == OP_BV_CONST:
            return f"(_ bv{node.const_value()} {node.width})"
        if node.is_var:
            return str(node.payload)
        if max_depth is not None and depth >= max_depth:
            return "..."
        inner = " ".join(render(arg, depth + 1) for arg in node.args)
        return f"({node.op} {inner})"
    return render(term, 0)
