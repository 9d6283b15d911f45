"""Concrete evaluation agrees with the constructors' constant folding.

``terms.evaluate`` compiles a term over variables and runs the
per-operator table; the ``mk_*`` constructors fold constant arguments with
their own code. For every rebuildable operator, at widths 1-8, the two
must give the same value on the same arguments.
"""

import itertools
import random

import pytest

from repro.smt import terms as T

#: Argument sorts ("b" boolean, "v" bitvector) each operator is built at.
SIGNATURES = {
    T.OP_NOT: ["b"],
    T.OP_AND: ["bb", "bbb"],
    T.OP_OR: ["bb", "bbb"],
    T.OP_XOR: ["bb"],
    T.OP_EQ: ["vv", "bb"],
    T.OP_ITE: ["bvv", "bbb"],
    T.OP_ADD: ["vv", "vvv"],
    T.OP_NEG: ["v"],
    T.OP_BVNOT: ["v"],
    **{op: ["vv"] for op in (
        T.OP_ULT, T.OP_ULE, T.OP_SLT, T.OP_SLE, T.OP_SUB, T.OP_MUL,
        T.OP_UDIV, T.OP_UREM, T.OP_SDIV, T.OP_SREM, T.OP_SMOD,
        T.OP_BVAND, T.OP_BVOR, T.OP_BVXOR, T.OP_SHL, T.OP_LSHR,
        T.OP_ASHR)},
}

WIDTHS = range(1, 9)


def _domain(sort, width, rng):
    """Argument values: every value up to 3 bits, else the edge cases
    (0, 1, around the sign bit, all-ones) plus two random values."""
    if sort == "b":
        return (False, True)
    if width <= 3:
        return range(1 << width)
    ones = (1 << width) - 1
    sign = 1 << (width - 1)
    edges = {0, 1, 2, sign - 1, sign, sign + 1, ones - 1, ones}
    return sorted(edges | {rng.randrange(ones + 1) for _ in range(2)})


def _var(sort, index, width):
    if sort == "b":
        return T.bool_var(f"ev{index}")
    return T.bv_var(f"ev{index}", width)


def _const(sort, value, width):
    return T.bool_const(value) if sort == "b" else T.bv_const(value, width)


def test_every_rebuildable_operator_has_a_signature():
    assert set(SIGNATURES) == set(T._rebuilders())


@pytest.mark.parametrize("op", sorted(SIGNATURES))
def test_evaluation_matches_constant_folding(op):
    rng = random.Random(op)
    rebuild = T._rebuilders()[op]
    for width, signature in itertools.product(WIDTHS, SIGNATURES[op]):
        variables = [_var(sort, i, width) for i, sort in enumerate(signature)]
        run = T.compile_term(rebuild(None, variables))
        domains = [_domain(sort, width, rng) for sort in signature]
        for values in itertools.product(*domains):
            folded = rebuild(None, [_const(sort, value, width) for sort, value
                                    in zip(signature, values)])
            assert folded.is_const, (op, width, values)
            env = dict(zip(variables, values))
            assert run(env) == folded.const_value(), (op, width, values)


@pytest.mark.parametrize("op, fold", [
    (T.OP_SUB, lambda x, y: T.mk_sub(x, y)),
    (T.OP_NEG, lambda x, y: T.mk_neg(x)),
])
def test_normalised_away_operators_evaluate_like_their_constructors(op, fold):
    # mk_sub and mk_neg build linear forms, never a bvsub/bvneg node, so
    # the table's entries for those operators are checked on nodes
    # interned directly.
    for width in WIDTHS:
        x, y = T.bv_var("ev0", width), T.bv_var("ev1", width)
        args = (x, y) if op == T.OP_SUB else (x,)
        run = T.compile_term(T._intern(op, args, None, T.BV, width))
        for vx, vy in itertools.product(range(1 << min(width, 4)), repeat=2):
            expected = fold(T.bv_const(vx, width), T.bv_const(vy, width))
            assert run({x: vx, y: vy}) == expected.const_value()


def test_compiled_term_is_reusable_and_defaults_unbound_variables():
    p, x = T.bool_var("ev_p"), T.bv_var("ev_x", 4)
    run = T.compile_term(T.mk_ite(p, T.mk_add(x, T.bv_const(1, 4)), x))
    assert run({p: True, x: 15}) == 0
    assert run({p: False, x: 15}) == 15
    assert run({}) == 0                  # p defaults to False, x to 0
    assert T.evaluate(x, {}) == 0
    assert T.evaluate(p, {p: True}) is True


def test_eval_op_applies_one_operator_to_concrete_arguments():
    x, y = T.bv_var("ev0", 4), T.bv_var("ev1", 4)
    assert T.eval_op(T.mk_ult(x, y), [3, 9]) is True
    assert T.eval_op(T.mk_sdiv(x, y), [0b1000, 0b0001]) == 0b1000
    with pytest.raises(ValueError):
        T.eval_op(T.bv_const(1, 4), [])
