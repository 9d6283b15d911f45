"""Tests of the benchmark itself: the verdict oracle, the layer clock,
seeded inputs and the refusal to run without a source tree.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import io
import json
from contextlib import redirect_stdout

import pytest

import layers
import run
import worker
import workloads
from repro.obs.events import BUS
from repro.sdsl.ifcl import DecodedInstruction
from repro.sdsl.ifcl.machine import PUSH
from repro.sdsl.websynth import SITE_SPECS
from repro.vm.stats import EvalStats


def _answer(verdict, detail=None):
    return workloads.Answer(verdict, EvalStats(), detail)


def _records(query, answer):
    return [(query, answer, 0.1)]


def test_wrong_unknown_and_raised_answers_count_as_failed():
    query = workloads._eeni("basic", 2)
    assert worker._confirm(_records(query, _answer("secure"))) == [None]
    for answer in (_answer("insecure"), _answer("unknown"), None):
        assert worker._confirm(_records(query, answer))[0] is not None


def test_real_query_with_a_wrong_expectation_is_failed():
    query = workloads._eeni("B2", 3)
    query.expected = "secure"          # B2 has a bound-3 attack
    _, answer, _ = worker._run_query(query, None)
    assert answer.verdict == "insecure"
    assert "expected 'secure'" in worker._confirm(_records(query, answer))[0]


def test_raising_query_is_recorded_not_propagated():
    def explode():
        raise RuntimeError("boom")
    query = workloads.Query("eeni", "boom", "secure", explode)
    _, answer, _ = worker._run_query(query, None)
    assert answer is None
    assert workloads.confirm(query, answer) == "raised"


def test_attack_that_does_not_replay_is_failed():
    query = workloads._eeni("B2", 3)
    harmless = [DecodedInstruction(PUSH, 1, 1, False)] * 3
    assert "replay" in workloads.confirm(query,
                                         _answer("insecure", harmless))


def test_xpath_other_than_ground_truth_is_failed():
    query = workloads._websynth(SITE_SPECS[0], page_seed=3)
    _, truth, _ = query.context
    assert workloads.confirm(query, _answer("sat", tuple(truth))) is None
    wrong = tuple(truth[:-1]) + ("t0",)
    assert "ground truth" in workloads.confirm(query, _answer("sat", wrong))


def test_figure10_fit():
    bounds = workloads.FIG10_BOUNDS
    quadratic = [(b, 10 * b, 3 * b * b + 2 * b + 7) for b in bounds]
    assert workloads.confirm_fig10(quadratic) is None
    assert workloads.quadratic_r_squared(
        [x for _, x, _ in quadratic],
        [y for _, _, y in quadratic]) == pytest.approx(1.0)
    flat = [(b, 10 * b, 5) for b in bounds]
    assert "monotone" in workloads.confirm_fig10(flat)
    step = [(b, 10 * b, b + (1000 if b > 4 else 0)) for b in bounds]
    assert "R^2" in workloads.confirm_fig10(step)


def test_same_seed_same_inputs():
    def shape(queries):
        return [(q.family, q.label, q.expected) for q in queries]
    assert run.WORKLOADS == workloads.WORKLOADS
    sizes = {"ifcl_verify": 19, "svm_eval": 19, "synth_cegis": 25,
             "ifcl_checked": 16}
    for name, size in sizes.items():
        first = workloads.build(name, 7)
        assert len(first) == size
        assert shape(first) == shape(workloads.build(name, 7))
    assert shape(workloads.build("ifcl_verify", 7)) != \
        shape(workloads.build("ifcl_verify", 8))


def test_layer_self_times_sum_to_wall_and_certify_matches_cert_spans(
        monkeypatch):
    monkeypatch.setenv("REPRO_CERTIFY", "1")
    monkeypatch.setenv("REPRO_ANALYZE", "1")
    cert_spans = []
    opened = {}

    def sink(event):
        if event.cat == "cert" and event.ph == "B":
            opened[event.name] = event.ts_us
        elif event.cat == "cert" and event.ph == "E":
            cert_spans.append(event.ts_us - opened.pop(event.name))

    clock = layers.LayerClock()
    original = EvalStats.start
    unsubscribe = BUS.subscribe(sink)
    try:
        with layers.install(clock):
            with clock.span("query"):
                _, answer, _ = worker._run_query(
                    workloads._eeni("B2", 2), clock)
    finally:
        unsubscribe()
    assert answer.verdict == "secure"
    spans = clock.spans()
    wall = spans[0]["end_s"] - spans[0]["start_s"]
    assert sum(clock.self_s.values()) == pytest.approx(wall, rel=1e-6)
    for layer in ("svm", "encode", "sanitize", "sat", "certify", "query"):
        assert clock.self_s[layer] > 0, layer
    cert_s = sum(cert_spans) / 1e6
    assert 0 < cert_s <= clock.self_s["certify"]
    assert cert_s >= 0.5 * clock.self_s["certify"]
    assert answer.stats.certified_checks == 1
    # The wrappers are gone once the block exits.
    assert EvalStats.start is original


def test_run_refuses_a_directory_without_the_source_tree(tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "svm_eval", "--seed", "1",
                         "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert out.getvalue() == ""


def test_per_layer_metrics_are_complete():
    with open(run.HERE.parent / "BENCHMARK.json") as spec:
        declared = json.load(spec)
    counters = {name: 1 for name in list(worker.STAT_FIELDS)
                + ["max_union", "cnf_clauses", "cnf_vars"]}
    traced = {"self_s": dict.fromkeys(layers.LAYERS, 1.0),
              "counters": counters, "live_terms": 1, "wall_s": 2.0}
    metrics = run._per_layer(traced, {"wall_s": 1.0})
    assert sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])
    for metric in declared["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    measured = {"queries": [["a", 0.5, 0], ["b", 2.0, 0]],
                "peak_rss_mb": 30.0, "setup_s": 0.2}
    end_to_end = run._end_to_end([measured], [0.2])
    assert sorted(end_to_end) == \
        sorted(m["name"] for m in declared["end_to_end"])


def test_end_to_end_takes_each_query_median_over_passes():
    def run_of(a, b, rss):
        return {"queries": [["a", a, 0], ["b", b, 0]], "peak_rss_mb": rss,
                "setup_s": 0.3}
    passes = [run_of(1.0, 4.0, 30), run_of(9.0, 1.0, 31),
              run_of(2.0, 2.0, 32)]
    metrics = run._end_to_end(passes, [0.1, 0.2])
    assert metrics["queries_per_s"]["value"] == pytest.approx(2 / 4.0)
    assert metrics["latency_geomean_s"]["value"] == pytest.approx(2.0)
    assert metrics["peak_rss_mb"]["value"] == 31
    assert metrics["setup_s"]["value"] == 0.3
