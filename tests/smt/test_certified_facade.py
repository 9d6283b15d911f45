"""SmtSolver trust-but-verify mode: flag plumbing, certification, model
completeness, and the minimize_core postcondition."""

import pytest

from repro.obs.events import BUS
from repro.smt import terms as T
from repro.smt.solver import CheckStats, SmtResult, SmtSolver
from repro.solver.budget import Budget
from repro.solver.certify import CertificationError


class TestCertifyFlag:
    def test_off_by_default(self):
        solver = SmtSolver()
        assert solver.certify is False
        assert solver.proof is None
        assert solver.sat.proof is None

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_CERTIFY", "1")
        assert SmtSolver().certify is True
        monkeypatch.setenv("REPRO_CERTIFY", "0")
        assert SmtSolver().certify is False
        monkeypatch.setenv("REPRO_CERTIFY", "")
        assert SmtSolver().certify is False

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CERTIFY", "1")
        assert SmtSolver(certify=False).certify is False
        monkeypatch.delenv("REPRO_CERTIFY", raising=False)
        assert SmtSolver(certify=True).certify is True

    def test_uncertified_check_records_zero(self):
        solver = SmtSolver()
        solver.add_assertion(T.bool_var("cf_a"))
        assert solver.check() is SmtResult.SAT
        assert solver.last_cert is None
        assert solver.last_check.certified == 0


class TestCertifiedAnswers:
    def test_sat_answer_is_certified(self):
        solver = SmtSolver(certify=True)
        x = T.bv_var("cx", 8)
        solver.add_assertion(T.mk_eq(T.mk_mul(x, T.bv_const(3, 8)),
                                     T.bv_const(21, 8)))
        assert solver.check() is SmtResult.SAT
        assert solver.last_cert == "model"
        assert solver.last_check.certified == 1
        assert solver.cumulative.certified == 1

    def test_unsat_answer_is_certified(self):
        solver = SmtSolver(certify=True)
        x = T.bv_var("cy", 8)
        solver.add_assertion(T.mk_eq(x, T.bv_const(1, 8)))
        solver.add_assertion(T.mk_eq(x, T.bv_const(2, 8)))
        assert solver.check() is SmtResult.UNSAT
        assert solver.last_cert == "proof"
        assert solver.last_check.certified == 1

    def test_trivially_false_fast_path(self):
        solver = SmtSolver(certify=True)
        solver.add_assertion(T.FALSE)
        assert solver.check() is SmtResult.UNSAT
        assert solver.last_cert == "trivial"
        assert solver.last_check.certified == 1

    def test_certified_across_assumption_checks(self):
        solver = SmtSolver(certify=True)
        x = T.bv_var("cz", 8)
        solver.add_assertion(T.mk_ult(x, T.bv_const(10, 8)))
        assert solver.check([T.mk_eq(x, T.bv_const(12, 8))]) \
            is SmtResult.UNSAT
        assert solver.last_cert == "proof"
        assert solver.check() is SmtResult.SAT
        assert solver.last_cert == "model"
        assert solver.model()[x] < 10

    def test_certified_assumption_core(self):
        solver = SmtSolver(certify=True)
        a, b = T.bool_var("cc_a"), T.bool_var("cc_b")
        solver.add_assertion(T.mk_or(T.mk_not(a), T.mk_not(b)))
        assert solver.check([a, b]) is SmtResult.UNSAT
        assert solver.last_cert == "proof"
        assert set(solver.unsat_core()) == {a, b}

    def test_unknown_is_not_certified(self):
        solver = SmtSolver(budget=Budget(conflicts=0), certify=True)
        x = T.bv_var("cu", 12)
        y = T.bv_var("cv", 12)
        solver.add_assertion(T.mk_eq(T.mk_mul(x, y), T.bv_const(3131, 12)))
        result = solver.check()
        if result is SmtResult.UNKNOWN:
            assert solver.last_cert is None
            assert solver.last_check.certified == 0

    def test_certify_model_rejects_corrupted_bindings(self):
        solver = SmtSolver(certify=True)
        x = T.bv_var("cw", 8)
        solver.add_assertion(T.mk_eq(x, T.bv_const(90, 8)))
        assert solver.check() is SmtResult.SAT
        solver.certify_model()  # the genuine model passes
        bad = solver.model().bindings()
        bad[x] ^= 1
        with pytest.raises(CertificationError):
            solver.certify_model(bad)

    def test_cert_events_on_bus(self):
        events = []
        unsubscribe = BUS.subscribe(events.append)
        try:
            solver = SmtSolver(certify=True)
            solver.add_assertion(T.bool_var("ce_a"))
            solver.check()
        finally:
            unsubscribe()
        cert_ends = [e for e in events
                     if e.name == "cert.model" and e.ph == "E"]
        assert len(cert_ends) == 1
        assert cert_ends[0].args["ok"] is True
        check_ends = [e for e in events
                      if e.name == "smt.check" and e.ph == "E"]
        assert check_ends[0].args["certified"] == 1


class TestMinimizeCorePostcondition:
    def test_minimized_core_is_reproved(self):
        solver = SmtSolver(certify=True)
        a, b = T.bool_var("mc_a"), T.bool_var("mc_b")
        pads = [T.bool_var(f"mc_p{i}") for i in range(4)]
        solver.add_assertion(T.mk_or(T.mk_not(a), T.mk_not(b)))
        assert solver.check([a, b] + pads) is SmtResult.UNSAT
        core = solver.minimize_core()
        assert set(core) == {a, b}

    def test_non_core_claim_is_rejected(self):
        solver = SmtSolver(certify=True)
        a, b = T.bool_var("nc_a"), T.bool_var("nc_b")
        solver.add_assertion(T.mk_or(T.mk_not(a), T.mk_not(b)))
        assert solver.check([a, b]) is SmtResult.UNSAT
        with pytest.raises(CertificationError):
            solver._certify_core([a])  # a alone is satisfiable


class TestModelCompleteness:
    def test_declared_variable_gets_a_value(self):
        solver = SmtSolver()
        x = T.bv_var("mc_lonely", 8)
        flag = T.bool_var("mc_flag")
        solver.declare(x, flag)
        solver.add_assertion(T.TRUE)
        assert solver.check() is SmtResult.SAT
        model = solver.model()
        assert x in model and model[x] == 0
        assert flag in model and model[flag] is False

    def test_assertion_variables_always_appear(self):
        # The model scan walks the active assertions, so even if a future
        # encoder stops eagerly translating every subterm, asserted
        # variables keep a defined model value. Exercise the scan by
        # dropping the blaster's record of the variable.
        solver = SmtSolver()
        x = T.bv_var("mc_scanned", 8)
        solver.add_assertion(T.mk_ule(x, T.bv_const(200, 8)))
        assert solver.check() is SmtResult.SAT
        solver.blaster._bv_vars.pop(x)
        model = solver.model()
        assert x in model and model[x] == 0

    def test_declare_rejects_non_variables(self):
        solver = SmtSolver()
        with pytest.raises(TypeError):
            solver.declare(T.bv_const(1, 8))

    def test_explicit_variable_list_still_wins(self):
        solver = SmtSolver()
        x = T.bv_var("mc_x", 8)
        y = T.bv_var("mc_y", 8)
        solver.add_assertion(T.mk_eq(x, T.bv_const(5, 8)))
        solver.declare(y)
        assert solver.check() is SmtResult.SAT
        model = solver.model([x])
        assert x in model and y not in model


class TestCheckStatsCertified:
    def test_certified_field_survives_arithmetic(self):
        a = CheckStats(checks=2, certified=2)
        b = CheckStats(checks=1, certified=1)
        assert (a - b).certified == 1
        a += b
        assert a.certified == 3
        assert a.copy().certified == 3
