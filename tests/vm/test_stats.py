"""Tests for evaluation statistics (Table 4's instrumentation)."""

from repro.sym import fresh_bool, merge
from repro.sym.values import UNION_COUNTERS
from repro.vm import VM
from repro.vm.stats import EvalStats


class TestUnionCounters:
    def test_counting(self):
        UNION_COUNTERS.reset()
        merge(fresh_bool(), (1,), (1, 2))
        assert UNION_COUNTERS.created == 1
        assert UNION_COUNTERS.cardinality_sum == 2
        assert UNION_COUNTERS.max_cardinality == 2

    def test_reset(self):
        merge(fresh_bool(), (1,), (1, 2))
        UNION_COUNTERS.reset()
        assert UNION_COUNTERS.created == 0


class TestEvalStats:
    def test_window_captures_only_bracketed_unions(self):
        merge(fresh_bool("before"), (1,), (1, 2))  # outside the window
        stats = EvalStats()
        stats.start()
        merge(fresh_bool("inside"), (1,), (1, 2, 3))
        stats.stop()
        assert stats.unions_created == 1
        assert stats.union_cardinality_sum == 2
        assert stats.svm_seconds > 0

    def test_accumulates_across_windows(self):
        stats = EvalStats()
        for _ in range(2):
            stats.start()
            merge(fresh_bool(), (1,), (1, 2))
            stats.stop()
        assert stats.unions_created == 2

    def test_row_shape(self):
        stats = EvalStats()
        row = stats.row()
        assert set(row) == {"joins", "count", "sum", "max",
                            "svm_sec", "solver_sec"}

    def test_vm_counts_joins(self):
        with VM() as vm:
            vm.stats.start()
            vm.branch(fresh_bool(), lambda: 1, lambda: 2)
            vm.branch(True, lambda: 1, lambda: 2)  # concrete: no join
            vm.stats.stop()
            assert vm.stats.joins == 1

    def test_max_cardinality_tracks_peak(self):
        stats = EvalStats()
        stats.start()
        union = merge(fresh_bool("p1"), (1,), (1, 2))
        merge(fresh_bool("p2"), union, (1, 2, 3))
        stats.stop()
        assert stats.max_union_cardinality == 3

    def test_nested_windows_do_not_clobber_outer_max(self):
        """Regression: start() zeroes the global max counter for its own
        window; stop() must restore the surrounding window's peak, or a
        nested evaluation (a query run from inside another evaluation)
        under-reports the outer `max` column."""
        outer = EvalStats()
        inner = EvalStats()
        outer.start()
        union = merge(fresh_bool("n1"), (1,), (1, 2))
        merge(fresh_bool("n2"), union, (1, 2, 3))  # outer peak: 3
        inner.start()
        merge(fresh_bool("n3"), (1,), (1, 2))      # inner peak: 2
        inner.stop()
        outer.stop()
        assert inner.max_union_cardinality == 2
        assert outer.max_union_cardinality == 3  # not clobbered to 2

    def test_interleaved_windows_keep_global_peak(self):
        outer = EvalStats()
        inner = EvalStats()
        outer.start()
        merge(fresh_bool("i1"), (1,), (1, 2))      # peak 2, before inner
        inner.start()
        inner.stop()                                # inner saw nothing
        outer.stop()
        assert inner.max_union_cardinality == 0
        # The peak predates inner's window, but stop() restores it.
        assert outer.max_union_cardinality == 2

    def test_record_check_adds_every_counter_of_a_delta(self):
        """Each CheckStats field lands on its EvalStats counter, and the
        check's own seconds are left to the query's timing."""
        from repro.smt.solver import CheckStats

        delta = CheckStats(checks=1, conflicts=7, decisions=20,
                           propagations=150, learned=5, encode_hits=9,
                           encode_misses=4, seconds=0.01, tripped=1,
                           certified=1, sanitize_rewrites=3)
        stats = EvalStats()
        stats.record_check(delta)
        stats.record_check(delta)
        assert stats.solver_checks == 2
        assert stats.solver_conflicts == 14
        assert stats.solver_decisions == 40
        assert stats.solver_propagations == 300
        assert stats.solver_learned == 10
        assert stats.encode_cache_hits == 18
        assert stats.encode_cache_misses == 8
        assert stats.budget_trips == 2
        assert stats.certified_checks == 2
        assert stats.sanitize_rewrites == 6
        assert stats.solver_seconds == 0.0

    def test_add_sums_counters_and_keeps_the_peak(self):
        first = EvalStats(joins=3, max_union_cardinality=4,
                          solver_seconds=0.5, sanitize_rewrites=2)
        second = EvalStats(joins=1, max_union_cardinality=2,
                           solver_seconds=0.25, sanitize_rewrites=1)
        first.add(second)
        assert first.joins == 4
        assert first.max_union_cardinality == 4
        assert first.solver_seconds == 0.75
        assert first.sanitize_rewrites == 3
