#!/usr/bin/env python
"""CI tracing smoke: run one traced query per family, validate the traces.

Exercises the observability layer end to end the way a user would:

- a SYNTHCL verification sweep traced into one file by wrapping the
  driver call in ``with tracing(path):``;
- an IFCL EENI check traced the same way;
- a WEBSYNTH XPath synthesis traced via the ``REPRO_TRACE`` environment
  variable (the zero-code-change capture path);
- a SYNTHCL CEGIS synthesis, checking per-iteration spans appear.

Each JSONL trace must be non-empty, satisfy the structural invariants
(monotonic timestamps, LIFO span nesting), and convert to a Chrome
trace-event file that ``json.load`` accepts with ``ph``/``ts``/``pid``/
``tid`` on every event. The converted traces are left in the output
directory (default ``traces/``) for CI to archive. Exits non-zero on any
failure.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import (  # noqa: E402
    check_trace_invariants,
    jsonl_to_chrome,
    load_jsonl_trace,
    reset_env_sink,
    tracing,
)
from repro.sym import set_default_int_width  # noqa: E402


def _validate(jsonl_path: Path, expect_names) -> list:
    rows = load_jsonl_trace(jsonl_path)
    assert rows, f"{jsonl_path}: trace is empty"
    check_trace_invariants(rows)
    names = {row["name"] for row in rows}
    for name in expect_names:
        assert name in names, \
            f"{jsonl_path}: expected a {name!r} event, saw {sorted(names)}"
    chrome_path = jsonl_path.with_suffix(".json")
    count = jsonl_to_chrome(jsonl_path, chrome_path)
    with open(chrome_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    events = payload["traceEvents"]
    assert len(events) == count == len(rows)
    for event in events:
        for key in ("ph", "ts", "pid", "tid"):
            assert key in event, f"{chrome_path}: event missing {key!r}"
    print(f"  {jsonl_path.name}: {len(rows)} events ok "
          f"({', '.join(sorted(names))})")
    return rows


def smoke_synthcl_verify(out_dir: Path) -> None:
    from repro.sdsl.synthcl.bench import run_benchmark
    # SF kernels branch on pixel coordinates, so the sweep produces VM
    # joins; the equalities still fold concretely (the refinement is
    # proven by term interning without a solver check), which is itself
    # worth seeing in a trace: query spans with no smt.check inside.
    print("synthcl verify sweep (SF1v, with tracing(path)):")
    trace = out_dir / "synthcl_sf1v.jsonl"
    with tracing(trace):
        outcome = run_benchmark("SF1v", bounds=[(2, 2), (2, 3)])
    assert outcome.status == "unsat", outcome.status
    rows = _validate(trace, ["query.verify", "vm.join"])
    joins = [r for r in rows if r["name"] == "vm.join"]
    assert all(j["args"].get("cardinality", 0) >= 2 for j in joins)


def smoke_synthcl_synthesize(out_dir: Path) -> None:
    from repro.sdsl.synthcl.bench import run_benchmark
    print("synthcl synthesis (FWT2s, cegis iterations):")
    trace = out_dir / "synthcl_fwt2s.jsonl"
    with tracing(trace):
        outcome = run_benchmark("FWT2s")
    assert outcome.status == "sat", outcome.status
    _validate(trace, ["query.synthesize", "cegis.iteration", "smt.check"])


def smoke_ifcl_verify(out_dir: Path) -> None:
    from repro.sdsl.ifcl import BUGGY_MACHINES
    from repro.sdsl.ifcl.verify import eeni_check
    print("ifcl EENI check (B2, with tracing(path)):")
    trace = out_dir / "ifcl_b2.jsonl"
    with tracing(trace):
        result = eeni_check(BUGGY_MACHINES["B2"], 3)
    assert result.status == "insecure", result.status
    _validate(trace, ["query.verify", "smt.check", "vm.join", "vm.union"])


def smoke_websynth_env(out_dir: Path) -> None:
    from repro.sdsl.websynth import HtmlNode
    from repro.sdsl.websynth.synth import synthesize_xpath
    print("websynth synthesis (REPRO_TRACE environment capture):")
    page = HtmlNode("html", (
        HtmlNode("body", (
            HtmlNode("div", (HtmlNode("span", text="alpha"),
                             HtmlNode("span", text="beta"))),
            HtmlNode("div", (HtmlNode("p", text="noise"),
                             HtmlNode("span", text="gamma"))),
        )),
    ))
    trace = out_dir / "websynth_env.jsonl"
    set_default_int_width(16)
    os.environ["REPRO_TRACE"] = str(trace)
    try:
        result = synthesize_xpath(page, ["alpha", "beta", "gamma"])
    finally:
        del os.environ["REPRO_TRACE"]
        reset_env_sink()  # flush + detach so the file is complete
        set_default_int_width(32)
    assert result.status == "sat", result.status
    _validate(trace, ["query.solve", "smt.check", "smt.encode"])


def main() -> int:
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "traces")
    out_dir.mkdir(parents=True, exist_ok=True)
    smoke_synthcl_verify(out_dir)
    smoke_synthcl_synthesize(out_dir)
    smoke_ifcl_verify(out_dir)
    smoke_websynth_env(out_dir)
    print(f"tracing smoke ok; artifacts in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
