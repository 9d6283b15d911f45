#!/usr/bin/env python
"""CI certification smoke: certified queries per family, plus chaos.

Exercises trust-but-verify mode end to end the way a user would, with
the ``REPRO_CERTIFY=1`` environment variable (the one way to turn it on
for queries and drivers):

- a SYNTHCL CEGIS synthesis — every guess and every counterexample check
  is certified;
- an IFCL EENI check (the certified-verify row: the insecurity witness's
  model is re-evaluated at the term level);
- a WEBSYNTH XPath synthesis;
- a fault-localization ``debug`` query — the MaxSAT-style loop's UNSAT
  answers replay their DRUP proofs and the minimized core is re-proved on
  a fresh one-shot solver;
- the fault-injection suite: every chaos class must be caught.

Each query must report its expected status with every solver check
certified; a certifier that wrongly rejected a genuine answer would raise
``CertificationError`` and fail the script. Exits non-zero on any failure.
"""

import os
import sys
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sym import set_default_int_width  # noqa: E402


@contextmanager
def _certified():
    os.environ["REPRO_CERTIFY"] = "1"
    try:
        yield
    finally:
        del os.environ["REPRO_CERTIFY"]


def _report(label, outcome, expect_status):
    stats = outcome.stats
    assert outcome.status == expect_status, \
        f"{label}: expected {expect_status}, got {outcome.status}"
    assert stats.certified_checks >= 1, \
        f"{label}: no certified checks recorded"
    assert stats.certified_checks == stats.solver_checks, \
        f"{label}: {stats.solver_checks} checks but only " \
        f"{stats.certified_checks} certified"
    print(f"  {label}: {outcome.status}, "
          f"{stats.certified_checks}/{stats.solver_checks} checks certified")


def smoke_synthcl_synthesize() -> None:
    from repro.sdsl.synthcl.bench import run_benchmark
    print("synthcl synthesis (FWT2s):")
    with _certified():
        outcome = run_benchmark("FWT2s")
    _report("FWT2s", outcome, "sat")


def smoke_ifcl_verify() -> None:
    from repro.sdsl.ifcl import BUGGY_MACHINES
    from repro.sdsl.ifcl.verify import eeni_check
    print("ifcl EENI check (B2):")
    with _certified():
        result = eeni_check(BUGGY_MACHINES["B2"], 3)
    _report("B2", result, "insecure")


def smoke_websynth_env() -> None:
    from repro.sdsl.websynth import HtmlNode
    from repro.sdsl.websynth.synth import synthesize_xpath
    print("websynth synthesis:")
    page = HtmlNode("html", (
        HtmlNode("body", (
            HtmlNode("div", (HtmlNode("span", text="alpha"),
                             HtmlNode("span", text="beta"))),
            HtmlNode("div", (HtmlNode("p", text="noise"),
                             HtmlNode("span", text="gamma"))),
        )),
    ))
    set_default_int_width(16)
    try:
        with _certified():
            result = synthesize_xpath(page, ["alpha", "beta", "gamma"])
    finally:
        set_default_int_width(32)
    _report("xpath", result, "sat")


def smoke_debug_query() -> None:
    from repro.queries.debug import debug, relax
    from repro.smt import terms as T
    from repro.sym.values import SymInt
    from repro.vm.context import assert_
    print("debug query:")

    def thunk():
        x = relax(SymInt(T.bv_var("smoke_dbg", 8)), "x")
        y = relax(x + 1, "x+1")
        assert_(y == 0)
        assert_(x == 7)

    with _certified():
        outcome = debug(thunk)
    _report(f"blame core {sorted(outcome.core)}", outcome, "sat")
    assert outcome.core, "debug: empty blame core"
    assert outcome.stats.certified_checks >= 2, \
        "debug: expected the relaxation loop to certify several checks"


def smoke_chaos(seed: int) -> None:
    from repro.solver.chaos import run_chaos
    print(f"fault injection (seed {seed}):")
    outcomes = run_chaos(seed=seed)
    for outcome in outcomes:
        status = "caught" if outcome.caught else "MISSED"
        print(f"  {outcome.fault:<24} {status}")
    missed = [o.fault for o in outcomes if not o.caught]
    assert not missed, f"certifiers accepted injected faults: {missed}"
    assert len(outcomes) >= 6, "chaos taxonomy shrank below six classes"


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    smoke_synthcl_synthesize()
    smoke_ifcl_verify()
    smoke_websynth_env()
    smoke_debug_query()
    smoke_chaos(seed)
    print("certification smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
