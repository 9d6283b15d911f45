"""Tests for the hash-consed term layer and its simplifying constructors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import terms as T


def bv(value, width=4):
    return T.bv_const(value, width)


class TestInterning:
    def test_structurally_equal_terms_are_identical(self):
        x = T.bv_var("ix", 4)
        a = T.mk_add(x, bv(1))
        b = T.mk_add(x, bv(1))
        assert a is b

    def test_commutative_normalization(self):
        x, y = T.bv_var("cx", 4), T.bv_var("cy", 4)
        assert T.mk_add(x, y) is T.mk_add(y, x)
        assert T.mk_mul(x, y) is T.mk_mul(y, x)
        assert T.mk_bvand(x, y) is T.mk_bvand(y, x)

    def test_distinct_widths_are_distinct_terms(self):
        assert T.bv_const(1, 4) is not T.bv_const(1, 5)


class TestBooleanSimplification:
    def test_not_involution(self):
        p = T.bool_var("p0")
        assert T.mk_not(T.mk_not(p)) is p

    def test_and_identity_and_zero(self):
        p = T.bool_var("p1")
        assert T.mk_and(p, T.TRUE) is p
        assert T.mk_and(p, T.FALSE) is T.FALSE
        assert T.mk_and() is T.TRUE

    def test_or_identity_and_zero(self):
        p = T.bool_var("p2")
        assert T.mk_or(p, T.FALSE) is p
        assert T.mk_or(p, T.TRUE) is T.TRUE
        assert T.mk_or() is T.FALSE

    def test_complement_pairs(self):
        p = T.bool_var("p3")
        assert T.mk_and(p, T.mk_not(p)) is T.FALSE
        assert T.mk_or(p, T.mk_not(p)) is T.TRUE

    def test_and_flattening(self):
        p, q, r = (T.bool_var(f"pf{i}") for i in range(3))
        nested = T.mk_and(T.mk_and(p, q), r)
        assert set(nested.args) == {p, q, r}

    def test_duplicate_conjuncts_collapse(self):
        p, q = T.bool_var("pd"), T.bool_var("qd")
        assert T.mk_and(p, q, p) is T.mk_and(p, q)

    def test_xor_units(self):
        p = T.bool_var("px")
        assert T.mk_xor(p, T.FALSE) is p
        assert T.mk_xor(p, T.TRUE) is T.mk_not(p)
        assert T.mk_xor(p, p) is T.FALSE

    def test_implies(self):
        p = T.bool_var("pi")
        assert T.mk_implies(T.FALSE, p) is T.TRUE
        assert T.mk_implies(T.TRUE, p) is p

    def test_ite_folding(self):
        p = T.bool_var("pt")
        x, y = T.bv_var("tx", 4), T.bv_var("ty", 4)
        assert T.mk_ite(T.TRUE, x, y) is x
        assert T.mk_ite(T.FALSE, x, y) is y
        assert T.mk_ite(p, x, x) is x

    def test_bool_ite_to_connectives(self):
        p, q = T.bool_var("pb"), T.bool_var("qb")
        assert T.mk_ite(p, T.TRUE, T.FALSE) is p
        assert T.mk_ite(p, T.FALSE, T.TRUE) is T.mk_not(p)
        assert T.mk_ite(p, q, T.FALSE) is T.mk_and(p, q)

    def test_ite_negated_condition_normalizes(self):
        p = T.bool_var("pn")
        x, y = T.bv_var("nx", 4), T.bv_var("ny", 4)
        assert T.mk_ite(T.mk_not(p), x, y) is T.mk_ite(p, y, x)


class TestCanonicalOrder:
    """Children are ordered, and terms hashed, by creation serial."""

    def test_serials_increase_with_creation(self):
        a, b = T.bool_var("so_a"), T.bool_var("so_b")
        assert a.serial < b.serial
        assert hash(a) == a.serial

    def test_commutative_args_in_serial_order(self):
        a, b, c = (T.bool_var(f"sc_{n}") for n in "abc")
        conj = T.mk_and(c, a, b)
        assert conj.args == (a, b, c)
        assert T.mk_xor(b, a).args == (a, b)
        x, y = T.bv_var("sc_x", 4), T.bv_var("sc_y", 4)
        assert T.mk_eq(y, x).args == (x, y)
        assert T.mk_bvand(y, x).args == (x, y)
        assert T.mk_add(y, x, bv(3)).args == (bv(3), x, y)

    def test_complement_found_without_building_negation(self):
        a, b = T.bool_var("cp_a"), T.bool_var("cp_b")
        T.mk_and(a, b)
        T.mk_or(a, b, b)
        T.mk_xor(a, b)
        assert T._lookup(T.OP_NOT, (a,), None, 0) is None
        assert T._lookup(T.OP_NOT, (b,), None, 0) is None
        assert T.mk_and(a, b, T.mk_not(a)) is T.FALSE
        assert T.mk_or(T.mk_not(b), a, b) is T.TRUE
        assert T.mk_xor(T.mk_not(a), a) is T.TRUE


class TestBitvectorSimplification:
    def test_constant_folding_wraps(self):
        assert T.mk_add(bv(15), bv(1)).const_value() == 0
        assert T.mk_sub(bv(0), bv(1)).const_value() == 15
        assert T.mk_mul(bv(5), bv(5)).const_value() == 9  # 25 mod 16

    def test_additive_units(self):
        x = T.bv_var("ax", 4)
        assert T.mk_add(x, bv(0)) is x
        assert T.mk_sub(x, bv(0)) is x
        assert T.mk_sub(x, x) is T.bv_const(0, 4)

    def test_multiplicative_units(self):
        x = T.bv_var("mx", 4)
        assert T.mk_mul(x, bv(1)) is x
        assert T.mk_mul(x, bv(0)) is T.bv_const(0, 4)

    def test_neg_involution(self):
        x = T.bv_var("nx2", 4)
        assert T.mk_neg(T.mk_neg(x)) is x

    def test_bitwise_units(self):
        x = T.bv_var("bx", 4)
        assert T.mk_bvand(x, bv(15)) is x
        assert T.mk_bvand(x, bv(0)) is T.bv_const(0, 4)
        assert T.mk_bvor(x, bv(0)) is x
        assert T.mk_bvxor(x, x) is T.bv_const(0, 4)
        assert T.mk_bvnot(T.mk_bvnot(x)) is x

    def test_comparison_folding(self):
        assert T.mk_ult(bv(3), bv(5)) is T.TRUE
        assert T.mk_slt(bv(15), bv(0)) is T.TRUE  # -1 < 0 signed
        assert T.mk_ult(bv(15), bv(0)) is T.FALSE
        x = T.bv_var("cmp", 4)
        assert T.mk_ule(x, x) is T.TRUE
        assert T.mk_slt(x, x) is T.FALSE

    def test_eq_folding(self):
        x = T.bv_var("ex", 4)
        assert T.mk_eq(x, x) is T.TRUE
        assert T.mk_eq(bv(3), bv(3)) is T.TRUE
        assert T.mk_eq(bv(3), bv(4)) is T.FALSE

    def test_width_mismatch_rejected(self):
        with pytest.raises(TypeError):
            T.mk_add(T.bv_var("w4", 4), T.bv_var("w5", 5))

    def test_sort_mismatch_rejected(self):
        with pytest.raises(TypeError):
            T.mk_and(T.bv_var("s4", 4))
        with pytest.raises(TypeError):
            T.mk_add(T.bool_var("sb"), T.bool_var("sb2"))


class TestDivisionSemantics:
    """SMT-LIB division-by-zero and signedness conventions."""

    def test_udiv_by_zero_is_all_ones(self):
        assert T.mk_udiv(bv(7), bv(0)).const_value() == 15

    def test_urem_by_zero_is_dividend(self):
        assert T.mk_urem(bv(7), bv(0)).const_value() == 7

    def test_sdiv_truncates_toward_zero(self):
        assert T.mk_sdiv(bv(-7 & 15), bv(2)).const_value() == (-3 & 15)

    def test_srem_follows_dividend_sign(self):
        assert T.mk_srem(bv(-7 & 15), bv(3)).const_value() == (-1 & 15)

    def test_smod_follows_divisor_sign(self):
        assert T.mk_smod(bv(-7 & 15), bv(3)).const_value() == 2
        assert T.mk_smod(bv(7), bv(-3 & 15)).const_value() == (-2 & 15)


class TestTraversals:
    def test_term_size_counts_shared_nodes_once(self):
        x = T.bv_var("sx", 4)
        shared = T.mk_add(x, bv(1))
        expr = T.mk_eq(T.mk_mul(shared, shared), shared)
        # Nodes: x, 1, add, mul, eq — the shared add counts once.
        assert T.term_size(expr) == 5

    def test_term_vars(self):
        x, y = T.bv_var("vx", 4), T.bv_var("vy", 4)
        expr = T.mk_ult(T.mk_add(x, y), x)
        assert set(T.term_vars(expr)) == {x, y}

    def test_substitute_constant_folds(self):
        x, y = T.bv_var("ux", 4), T.bv_var("uy", 4)
        expr = T.mk_add(T.mk_mul(x, y), bv(1))
        result = T.substitute(expr, {x: bv(2), y: bv(3)})
        assert result.const_value() == 7

    def test_substitute_partial(self):
        x, y = T.bv_var("wx", 4), T.bv_var("wy", 4)
        expr = T.mk_add(x, y)
        result = T.substitute(expr, {x: bv(0)})
        assert result is y

    def test_substitute_sort_check(self):
        x = T.bv_var("zx", 4)
        with pytest.raises(TypeError):
            T.substitute(T.mk_add(x, x), {x: T.bv_const(0, 5)})

    def test_evaluate(self):
        x = T.bv_var("evx", 4)
        p = T.bool_var("evp")
        expr = T.mk_ite(p, T.mk_add(x, bv(1)), x)
        assert T.evaluate(expr, {p: True, x: 3}) == 4
        assert T.evaluate(expr, {p: False, x: 3}) == 3

    def test_evaluate_defaults_unassigned_to_zero(self):
        x = T.bv_var("dflt", 4)
        assert T.evaluate(T.mk_add(x, bv(2)), {}) == 2


class TestPrinting:
    def test_sexpr_output(self):
        x = T.bv_var("prx", 4)
        assert T.to_sexpr(T.mk_add(x, bv(1))) == "(bvadd (_ bv1 4) prx)" or \
            T.to_sexpr(T.mk_add(x, bv(1))) == "(bvadd prx (_ bv1 4))"

    def test_sexpr_depth_cap(self):
        x = T.bv_var("cap", 4)
        deep = x
        for _ in range(10):
            deep = T.mk_mul(deep, x)  # multiplication does not flatten
        assert "..." in T.to_sexpr(deep, max_depth=2)

    def test_add_chain_flattens_to_linear_form(self):
        """The linear normal form: x+1+1+...+1 is the single term x+10."""
        x = T.bv_var("cap2", 8)
        deep = x
        for _ in range(10):
            deep = T.mk_add(deep, T.bv_const(1, 8))
        assert deep is T.mk_add(x, T.bv_const(10, 8))

    def test_linear_normalization_identifies_equal_sums(self):
        """(a+b)+2c == 2c+b+a and x+x == 2x intern to the same term."""
        a, b, c = (T.bv_var(f"lin{i}", 8) for i in range(3))
        left = T.mk_add(T.mk_add(a, b), T.mk_mul(c, bv(2, 8)))
        right = T.mk_add(T.mk_add(T.mk_mul(bv(2, 8), c), b), a)
        assert left is right
        assert T.mk_add(a, a) is T.mk_mul(a, bv(2, 8))
        # Equalities between them fold away entirely.
        assert T.mk_eq(left, right) is T.TRUE
        assert T.mk_eq(T.mk_sub(left, right), T.bv_const(0, 8)) is T.TRUE


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
@settings(max_examples=100, deadline=None)
def test_signed_round_trip(a, b):
    width = 8
    signed = T.to_signed(a, width)
    assert -128 <= signed <= 127
    assert signed & 0xFF == a
    # add folding agrees with modular arithmetic
    total = T.mk_add(T.bv_const(a, width), T.bv_const(b, width))
    assert total.const_value() == (a + b) % 256
