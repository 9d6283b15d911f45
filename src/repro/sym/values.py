"""Symbolic value wrappers and the symbolic union datatype.

``SymBool`` and ``SymInt`` are thin wrappers around boolean/bitvector terms
from :mod:`repro.smt.terms` with Python operator overloading, so solver-aided
code reads like ordinary Python. Construction is *normalizing*: wrapping a
constant term yields the corresponding Python ``bool``/``int`` instead, which
maintains the SVM invariant that anything concrete stays a plain host value.

``Union`` is the paper's symbolic union: an immutable set of guarded values
whose guards are pairwise disjoint by construction. Unions never nest and
never appear inside terms; they are taken apart by lifted operations (rule
CO1) and by symbolic reflection (§2.3).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Tuple

from repro.obs.events import BUS
from repro.smt import terms as T

_DEFAULT_INT_WIDTH = 32


def default_int_width() -> int:
    """Width, in bits, of newly created symbolic integers."""
    return _DEFAULT_INT_WIDTH


def set_default_int_width(width: int) -> None:
    """Set the width used for fresh symbolic integers and int literals."""
    global _DEFAULT_INT_WIDTH
    if width <= 0:
        raise ValueError("width must be positive")
    _DEFAULT_INT_WIDTH = width


class SymbolicError(RuntimeError):
    """Raised when a symbolic value is used where a concrete one is needed."""


def wrap_bool(term: T.Term):
    """Wrap a boolean term, folding constants to Python bools."""
    if term is T.TRUE:
        return True
    if term is T.FALSE:
        return False
    return SymBool(term)


def wrap_int(term: T.Term):
    """Wrap a bitvector term, folding constants to Python ints (signed)."""
    if term.op == T.OP_BV_CONST:
        return T.to_signed(term.const_value(), term.width)
    return SymInt(term)


def bool_term(value) -> T.Term:
    """The term denoting a concrete or symbolic boolean value."""
    if isinstance(value, SymBool):
        return value.term
    if isinstance(value, bool):
        return T.TRUE if value else T.FALSE
    raise TypeError(f"not a boolean value: {value!r}")


def int_term(value, width: int | None = None) -> T.Term:
    """The term denoting a concrete or symbolic integer value."""
    if isinstance(value, SymInt):
        return value.term
    if isinstance(value, bool):
        raise TypeError(f"not an integer value: {value!r}")
    if isinstance(value, int):
        return T.bv_const(value, width or _DEFAULT_INT_WIDTH)
    raise TypeError(f"not an integer value: {value!r}")


class SymBool:
    """A symbolic boolean: a non-constant boolean term."""

    __slots__ = ("term",)

    def __init__(self, term: T.Term):
        if term.sort is not T.BOOL:
            raise TypeError(f"expected a boolean term, got {term!r}")
        self.term = term

    # Logical connectives. Python's `and`/`or`/`not` cannot be overloaded,
    # so symbolic code uses `&`, `|`, `~`, `^` (or repro.sym.ops helpers).
    def __and__(self, other):
        return wrap_bool(T.mk_and(self.term, bool_term(other)))

    __rand__ = __and__

    def __or__(self, other):
        return wrap_bool(T.mk_or(self.term, bool_term(other)))

    __ror__ = __or__

    def __xor__(self, other):
        return wrap_bool(T.mk_xor(self.term, bool_term(other)))

    __rxor__ = __xor__

    def __invert__(self):
        return wrap_bool(T.mk_not(self.term))

    def implies(self, other):
        return wrap_bool(T.mk_implies(self.term, bool_term(other)))

    def __eq__(self, other):
        if isinstance(other, (bool, SymBool)):
            return wrap_bool(T.mk_iff(self.term, bool_term(other)))
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return ~result if isinstance(result, SymBool) else not result

    def __hash__(self):
        return hash(self.term)

    def __bool__(self):
        raise SymbolicError(
            "symbolic boolean has no concrete truth value; branch on it with "
            "the SVM (vm.branch) or use solver queries")

    def __repr__(self):
        return f"SymBool({T.to_sexpr(self.term, max_depth=6)})"


class SymInt:
    """A symbolic finite-precision integer: a non-constant bitvector term."""

    __slots__ = ("term",)

    def __init__(self, term: T.Term):
        if term.sort is not T.BV:
            raise TypeError(f"expected a bitvector term, got {term!r}")
        self.term = term

    @property
    def width(self) -> int:
        return self.term.width

    def _coerce(self, other) -> T.Term:
        return int_term(other, self.width)

    def _binop(self, other, mk):
        try:
            other_term = self._coerce(other)
        except TypeError:
            return NotImplemented
        return wrap_int(mk(self.term, other_term))

    def _rbinop(self, other, mk):
        try:
            other_term = self._coerce(other)
        except TypeError:
            return NotImplemented
        return wrap_int(mk(other_term, self.term))

    def __add__(self, other):
        return self._binop(other, T.mk_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, T.mk_sub)

    def __rsub__(self, other):
        return self._rbinop(other, T.mk_sub)

    def __mul__(self, other):
        return self._binop(other, T.mk_mul)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return self._binop(other, T.mk_sdiv)

    def __rfloordiv__(self, other):
        return self._rbinop(other, T.mk_sdiv)

    def __mod__(self, other):
        return self._binop(other, T.mk_srem)

    def __rmod__(self, other):
        return self._rbinop(other, T.mk_srem)

    def __neg__(self):
        return wrap_int(T.mk_neg(self.term))

    def __and__(self, other):
        return self._binop(other, T.mk_bvand)

    __rand__ = __and__

    def __or__(self, other):
        return self._binop(other, T.mk_bvor)

    __ror__ = __or__

    def __xor__(self, other):
        return self._binop(other, T.mk_bvxor)

    __rxor__ = __xor__

    def __invert__(self):
        return wrap_int(T.mk_bvnot(self.term))

    def __lshift__(self, other):
        return self._binop(other, T.mk_shl)

    def __rshift__(self, other):
        return self._binop(other, T.mk_ashr)

    def __lt__(self, other):
        return wrap_bool(T.mk_slt(self.term, self._coerce(other)))

    def __le__(self, other):
        return wrap_bool(T.mk_sle(self.term, self._coerce(other)))

    def __gt__(self, other):
        return wrap_bool(T.mk_slt(self._coerce(other), self.term))

    def __ge__(self, other):
        return wrap_bool(T.mk_sle(self._coerce(other), self.term))

    def __eq__(self, other):
        if isinstance(other, bool) or not isinstance(other, (int, SymInt)):
            return NotImplemented
        return wrap_bool(T.mk_eq(self.term, self._coerce(other)))

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return ~result if isinstance(result, SymBool) else not result

    def __hash__(self):
        return hash(self.term)

    def __bool__(self):
        raise SymbolicError(
            "symbolic integer has no concrete truth value; compare it and "
            "branch with the SVM")

    def __repr__(self):
        return f"SymInt({T.to_sexpr(self.term, max_depth=6)})"


# Counter for union construction, read by repro.vm.stats. Kept here so the
# sym layer has no dependency on the VM.
class UnionCounters:
    def __init__(self):
        self.created = 0
        self.cardinality_sum = 0
        self.max_cardinality = 0

    def reset(self):
        self.created = 0
        self.cardinality_sum = 0
        self.max_cardinality = 0

    def record(self, size: int) -> None:
        self.created += 1
        self.cardinality_sum += size
        if size > self.max_cardinality:
            self.max_cardinality = size
        # The single chokepoint for union construction: every Union that
        # exists passed through here, so this is where the bus learns of
        # them (the profiler attributes the event to a host call site).
        if BUS.enabled:
            BUS.instant("vm.union", "vm", cardinality=size)


UNION_COUNTERS = UnionCounters()


class Union:
    """A symbolic union: guarded concrete values with disjoint guards.

    Entries are ``(guard, value)`` pairs where `guard` is a boolean *term*
    and `value` is any non-union SVM value. At most one guard is true in any
    concrete interpretation (the merge function maintains disjointness by
    construction).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Tuple[T.Term, object]]):
        flat: List[Tuple[T.Term, object]] = []
        for guard, value in entries:
            if guard is T.FALSE:
                continue
            if isinstance(value, Union):
                for inner_guard, inner_value in value.entries:
                    combined = T.mk_and(guard, inner_guard)
                    if combined is not T.FALSE:
                        flat.append((combined, inner_value))
            else:
                flat.append((guard, value))
        self.entries = tuple(flat)
        UNION_COUNTERS.record(len(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def guards(self) -> Tuple[T.Term, ...]:
        return tuple(guard for guard, _ in self.entries)

    def values(self) -> Tuple[object, ...]:
        return tuple(value for _, value in self.entries)

    def map(self, fn: Callable[[object], object]) -> "Union":
        """Apply `fn` under each guard (the essence of rule CO1)."""
        return Union((guard, fn(value)) for guard, value in self.entries)

    def __repr__(self):
        parts = ", ".join(
            f"[{T.to_sexpr(guard, max_depth=3)} {value!r}]"
            for guard, value in self.entries)
        return f"Union({parts})"


class Box:
    """A mutable storage cell, merged by pointer identity (§4.3, ≈Ptr).

    Boxes model Scheme's `set!`-able variables and are the building block
    for mutable vectors. Two boxes merge only if they are the same box;
    their *contents* are merged by µ at every control-flow join.
    """

    __slots__ = ("value", "name")

    _counter = 0

    def __init__(self, value, name: str | None = None):
        self.value = value
        if name is None:
            Box._counter += 1
            name = f"box{Box._counter}"
        self.name = name

    # Raw location protocol used by the VM's write log (key is ignored:
    # a box is a single location).
    def _sym_read(self, key):
        return self.value

    def _sym_write_raw(self, key, value):
        self.value = value

    def __repr__(self):
        return f"Box({self.name}={self.value!r})"


def is_boolean_value(value) -> bool:
    return isinstance(value, (bool, SymBool))


def is_integer_value(value) -> bool:
    return isinstance(value, SymInt) or \
        (isinstance(value, int) and not isinstance(value, bool))
