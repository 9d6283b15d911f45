"""REPRO_CERTIFY reaching solve/verify/synthesize/debug, and the stats."""

import pytest

from repro.obs.metrics import BusMetrics
from repro.queries import solve, synthesize, verify
from repro.queries.debug import debug, relax
from repro.smt import terms as T
from repro.sym.values import SymInt
from repro.vm.context import assert_


def _sym(name, width=8):
    return SymInt(T.bv_var(name, width))


class _LazyInputs:
    def __init__(self, backing):
        self._backing = backing

    def __iter__(self):
        return iter(self._backing)


@pytest.fixture
def certified(monkeypatch):
    monkeypatch.setenv("REPRO_CERTIFY", "1")


class TestCertifiedQueries:
    def test_solve_certified(self, certified):
        outcome = solve(lambda: assert_(_sym("cq_a") + 1 == 5))
        assert outcome.status == "sat"
        assert outcome.stats.certified_checks == 1
        assert outcome.model.evaluate(_sym("cq_a")) == 4

    def test_verify_certified(self, certified):
        outcome = verify(lambda: assert_(_sym("cq_b") * 2 != 7))
        assert outcome.status == "unsat"
        assert outcome.stats.certified_checks == 1

    def test_verify_counterexample_certified(self, certified):
        outcome = verify(lambda: assert_(_sym("cq_c") != 3))
        assert outcome.status == "sat"
        assert outcome.stats.certified_checks == 1
        assert outcome.model.evaluate(_sym("cq_c")) == 3

    def test_synthesize_certified(self, certified):
        inputs = []

        def thunk():
            x = _sym("cq_x")
            hole = _sym("cq_h")
            inputs.append(x)
            assert_(x + hole == x + 3)

        outcome = synthesize(_LazyInputs(inputs), thunk)
        assert outcome.status == "sat"
        # CEGIS runs at least one guess and one check, each certified.
        assert outcome.stats.certified_checks >= 2
        assert outcome.model.evaluate(_sym("cq_h")) == 3

    def test_debug_certified(self, certified):
        def thunk():
            x = relax(_sym("cq_d"), "x")
            y = relax(x + 1, "x+1")
            assert_(y == 0)
            assert_(x == 7)

        outcome = debug(thunk)
        assert outcome.status == "sat"
        assert outcome.core  # some relaxation is to blame
        assert outcome.stats.certified_checks >= 2

    def test_env_knob_reaches_queries(self, monkeypatch):
        monkeypatch.setenv("REPRO_CERTIFY", "1")
        outcome = solve(lambda: assert_(_sym("cq_e") == 9))
        assert outcome.status == "sat"
        assert outcome.stats.certified_checks == 1

    def test_certify_off_records_zero(self):
        outcome = solve(lambda: assert_(_sym("cq_f") == 1))
        assert outcome.status == "sat"
        assert outcome.stats.certified_checks == 0

    def test_cert_metrics_aggregate(self, certified):
        metrics = BusMetrics()
        with metrics.subscribed():
            solve(lambda: assert_(_sym("cq_g") == 2))
        snapshot = metrics.snapshot()
        assert snapshot["smt.certified"] == 1
        assert snapshot["cert.model.checks"] == 1
        assert "cert.model.rejected" not in snapshot
