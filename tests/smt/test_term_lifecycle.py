"""Intern-table lifecycle: weak interning across query boundaries.

Live terms are never evicted, so a term held across `reset_terms()` and a
structurally equal term built afterwards are the same object — the
identity-based equality every layer above relies on. Dead terms leave the
table on their own.
"""

import gc

from repro.smt import terms as T


def build(x):
    return T.mk_eq(T.mk_add(x, T.bv_const(1, 8)), T.bv_const(5, 8))


class TestWeakInterning:
    def test_identity_survives_reset(self):
        x = T.bv_var("life_x", 8)
        before = build(x)
        T.reset_terms()
        after = build(x)
        assert after is before

    def test_identity_across_query_boundaries(self):
        """Two independent 'queries' building the same formula share it."""
        first = build(T.bv_var("life_q", 8))
        T.reset_terms()  # what a query runner might do between queries
        second = build(T.bv_var("life_q", 8))
        assert second is first

    def test_true_false_singletons_survive(self):
        T.reset_terms()
        gc.collect()
        assert T.bool_const(True) is T.TRUE
        assert T.bool_const(False) is T.FALSE

    def test_dead_terms_are_reclaimed(self):
        base = T.num_interned_terms()
        x = T.bv_var("reclaim_x", 8)
        terms = [T.mk_add(x, T.bv_const(n, 8)) for n in range(2, 60)]
        assert T.num_interned_terms() >= base + len(terms)
        del terms
        gc.collect()
        # The adds (and the constants they solely referenced) are gone;
        # `x` itself is still live and must still be interned.
        assert T.num_interned_terms() < base + 58
        assert T.bv_var("reclaim_x", 8) is x

    def test_live_subterms_keep_identity_after_parent_dies(self):
        x = T.bv_var("sub_x", 8)
        inner = T.mk_add(x, T.bv_const(1, 8))
        outer = T.mk_eq(inner, T.bv_const(9, 8))
        del outer
        gc.collect()
        assert T.mk_add(x, T.bv_const(1, 8)) is inner
