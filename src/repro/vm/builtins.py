"""The SVM's lifted builtin library.

These are the built-in procedures of the HL language (Fig. 7) lifted to
operate on symbolic values: list operations, arithmetic, comparisons, type
predicates and structural equality. Immutable lists are Python tuples.

Union arguments are handled the way rule CO1 prescribes: the operation is
applied to each concrete member of the union, members of the wrong dynamic
type contribute an infeasibility constraint instead of a value, the
disjunction of the surviving guards is asserted on the current path, and
the guarded results are reassembled into a single value with
:func:`repro.sym.merge.merge_many`.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.smt import terms as T
from repro.sym import ops
from repro.sym.merge import merge_many
from repro.sym.values import (
    Box,
    SymInt,
    Union,
    is_boolean_value,
    is_integer_value,
    wrap_bool,
)
from repro.vm import context
from repro.vm.errors import AssertionFailure, TypeFailure
from repro.vm.mutable import Vector


def union_apply(fn: Callable, *args, count_join: bool = False):
    """Apply `fn` after unpacking any union arguments (rule CO1).

    With several union arguments the cartesian product of their members is
    explored; guards multiply out and remain pairwise disjoint. `fn` may
    raise :class:`TypeFailure`/:class:`AssertionFailure` for ill-typed
    members, which excludes those paths instead of failing the evaluation.
    """
    if not any(isinstance(arg, Union) for arg in args):
        return fn(*args)
    combos: List[Tuple[T.Term, tuple]] = [(T.TRUE, ())]
    for arg in args:
        if isinstance(arg, Union):
            combos = [
                (both, values + (entry_value,))
                for guard, values in combos
                for entry_guard, entry_value in arg.entries
                if (both := T.mk_and(guard, entry_guard)) is not T.FALSE
            ]
        else:
            combos = [(guard, values + (arg,)) for guard, values in combos]
    alternatives = [
        (guard, (lambda vals=values: fn(*vals)))
        for guard, values in combos
    ]
    vm = context.current()
    return vm.guarded(alternatives, assert_coverage=True,
                      failure_message=f"no member of the union fits {fn.__name__}",
                      count_join=count_join)


def _expect_list(value) -> tuple:
    if isinstance(value, tuple):
        return value
    raise TypeFailure(f"expected a list, got {value!r}")


def _expect_nonempty(value) -> tuple:
    lst = _expect_list(value)
    if not lst:
        raise AssertionFailure("expected a non-empty list")
    return lst


# ---------------------------------------------------------------------------
# Pairs and lists
# ---------------------------------------------------------------------------

def cons(value, rest):
    def apply(value, rest):
        return (value,) + _expect_list(rest)
    return union_apply(apply, value, rest)


def car(value):
    return union_apply(lambda lst: _expect_nonempty(lst)[0], value)


def cdr(value):
    return union_apply(lambda lst: _expect_nonempty(lst)[1:], value)


def length(value):
    return union_apply(lambda lst: len(_expect_list(lst)), value)


def is_null(value):
    if isinstance(value, Union):
        guards = [guard for guard, member in value.entries
                  if isinstance(member, tuple) and not member]
        return wrap_bool(T.mk_or(*guards)) if guards else False
    return isinstance(value, tuple) and not value


def is_pair(value):
    if isinstance(value, Union):
        guards = [guard for guard, member in value.entries
                  if isinstance(member, tuple) and member]
        return wrap_bool(T.mk_or(*guards)) if guards else False
    return isinstance(value, tuple) and bool(value)


def list_ref(lst, index):
    """(list-ref lst k): symbolic indices select among the elements."""
    def apply(lst, index):
        concrete = _expect_list(lst)
        if isinstance(index, bool) or \
                not isinstance(index, (int, SymInt)):
            raise TypeFailure(f"list index must be an integer: {index!r}")
        if isinstance(index, int):
            if not 0 <= index < len(concrete):
                raise AssertionFailure(
                    f"list index {index} out of range [0, {len(concrete)})")
            return concrete[index]
        vm = context.current()
        if not concrete:
            raise AssertionFailure("list-ref on an empty list")
        in_bounds = ops.and_(ops.ge(index, 0), ops.lt(index, len(concrete)))
        vm.assert_(in_bounds, "list index out of range")
        entries = [(T.mk_eq(index.term, _index_term(index, i)), element)
                   for i, element in enumerate(concrete)]
        return merge_many(entries)
    return union_apply(apply, lst, index)


def _index_term(index: SymInt, i: int) -> T.Term:
    return T.bv_const(i, index.width)


def append2(a, b):
    def apply(a, b):
        return _expect_list(a) + _expect_list(b)
    return union_apply(apply, a, b)


def append(*lists):
    result: object = ()
    for lst in lists:
        result = append2(result, lst)
    return result


def reverse(value):
    return union_apply(lambda lst: tuple(reversed(_expect_list(lst))), value)


def take(value, count):
    """(take lst n): the first n elements; n may be symbolic."""
    def apply(lst, count):
        concrete = _expect_list(lst)
        if isinstance(count, bool) or not isinstance(count, (int, SymInt)):
            raise TypeFailure(f"take count must be an integer: {count!r}")
        if isinstance(count, int):
            if not 0 <= count <= len(concrete):
                raise AssertionFailure(
                    f"take count {count} out of range [0, {len(concrete)}]")
            return concrete[:count]
        vm = context.current()
        in_range = ops.and_(ops.ge(count, 0), ops.le(count, len(concrete)))
        vm.assert_(in_range, "take count out of range")
        entries = [(T.mk_eq(count.term, _index_term(count, n)), concrete[:n])
                   for n in range(len(concrete) + 1)]
        return merge_many(entries)
    return union_apply(apply, value, count)


def drop(value, count):
    def apply(lst, count):
        concrete = _expect_list(lst)
        if isinstance(count, int) and not isinstance(count, bool):
            if not 0 <= count <= len(concrete):
                raise AssertionFailure(
                    f"drop count {count} out of range [0, {len(concrete)}]")
            return concrete[count:]
        if not isinstance(count, SymInt):
            raise TypeFailure(f"drop count must be an integer: {count!r}")
        vm = context.current()
        in_range = ops.and_(ops.ge(count, 0), ops.le(count, len(concrete)))
        vm.assert_(in_range, "drop count out of range")
        entries = [(T.mk_eq(count.term, _index_term(count, n)), concrete[n:])
                   for n in range(len(concrete) + 1)]
        return merge_many(entries)
    return union_apply(apply, value, count)


def list_map(fn, value):
    """(map fn lst) over the concrete spine of a (union of) list(s)."""
    return union_apply(
        lambda lst: tuple(apply_value(fn, element)
                          for element in _expect_list(lst)),
        value)


def list_foldl(fn, init, value):
    def apply(lst):
        accumulator = init
        for element in _expect_list(lst):
            accumulator = apply_value(fn, element, accumulator)
        return accumulator
    return union_apply(apply, value)


# ---------------------------------------------------------------------------
# Type predicates (Fig. 7's union?, number?, boolean?, procedure?, list?)
# ---------------------------------------------------------------------------

def _union_type_guards(value: Union, predicate) -> object:
    guards = [guard for guard, member in value.entries if predicate(member)]
    if not guards:
        return False
    if len(guards) == len(value.entries):
        return wrap_bool(T.mk_or(*guards))
    return wrap_bool(T.mk_or(*guards))


def is_boolean(value):
    if isinstance(value, Union):
        return _union_type_guards(value, is_boolean_value)
    return is_boolean_value(value)


def is_number(value):
    if isinstance(value, Union):
        return _union_type_guards(value, is_integer_value)
    return is_integer_value(value)


def is_list(value):
    if isinstance(value, Union):
        return _union_type_guards(value, lambda v: isinstance(v, tuple))
    return isinstance(value, tuple)


def is_procedure(value):
    if isinstance(value, Union):
        return _union_type_guards(value, callable)
    return callable(value)


def is_union(value):
    return isinstance(value, Union)


def is_vector(value):
    if isinstance(value, Union):
        return _union_type_guards(value, lambda v: isinstance(v, Vector))
    return isinstance(value, Vector)


def is_box(value):
    if isinstance(value, Union):
        return _union_type_guards(value, lambda v: isinstance(v, Box))
    return isinstance(value, Box)


def equal(a, b):
    """Structural equal? (symbolic-aware); see §4.4 on why eq? is absent."""
    return ops.sym_equal(a, b)


# ---------------------------------------------------------------------------
# Procedure application (rule AP2 for symbolic procedure values)
# ---------------------------------------------------------------------------

def apply_value(proc, *args):
    """Apply a (possibly union-of-)procedure value to arguments.

    A union of *procedures* is applied member-wise with merged results and
    effects — the paper's analogue of dynamically dispatched calls in
    bounded model checkers for OO languages (rule AP2). Union *arguments*
    flow into the procedure untouched: whether to unpack them is each
    operation's own decision (lifted builtins do; reflective operations
    like ``evaluate`` and ``union-contents`` must not).
    """
    if not isinstance(proc, Union):
        if not callable(proc):
            raise TypeFailure(f"not a procedure: {proc!r}")
        return proc(*args)
    def apply(member):
        if not callable(member):
            raise TypeFailure(f"not a procedure: {member!r}")
        return member(*args)
    # AP2 rewrites to an if-expression, so this *is* a control-flow join.
    return union_apply(apply, proc, count_join=True)
