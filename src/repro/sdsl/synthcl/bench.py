"""The SYNTHCL benchmark suite: Table 1's MM/SF/FWT queries.

Each benchmark id from the paper (``MM1v`` … ``FWT2s``) maps to a query
thunk plus its input-length bounds. The paper's bounds (32-bit numbers,
dimensions up to 16, images up to 9×9, arrays up to 2^6) target Z3 on a
2.13 GHz machine; the defaults here are scaled for a pure-Python solver
and recorded next to the paper's (see EXPERIMENTS.md). Pass a different
``bounds`` to sweep larger sizes.

A *verification* benchmark checks a refinement against the reference on
every symbolic input within bounds (expect ``unsat`` = refinement correct);
a *synthesis* benchmark fills a sketch's holes by CEGIS (expect ``sat``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.queries import Budget, QueryOutcome, synthesize, verify
from repro.sym import fresh_int, ops
from repro.sym.values import SymInt
from repro.vm import assert_
from repro.sdsl.synthcl.programs import fwt, mm, sobel


def _symbolic_array(name: str, length: int) -> Tuple[SymInt, ...]:
    return tuple(fresh_int(name) for _ in range(length))


def _assert_equal_arrays(expected: Sequence, actual: Sequence) -> None:
    if len(expected) != len(actual):
        raise AssertionError(
            f"shape mismatch: {len(expected)} vs {len(actual)} elements")
    for index, (want, got) in enumerate(zip(expected, actual)):
        assert_(ops.num_eq(want, got), f"output element {index} differs")


@dataclass
class SynthClBenchmark:
    """One Table 1 benchmark: id, kind, query thunk factory, and bounds."""

    name: str
    kind: str                      # "verify" | "synthesize"
    bounds: Tuple                  # scaled default bounds
    paper_bounds: str              # the paper's bound description
    run: Callable[..., QueryOutcome] = field(repr=False, default=None)


# ---------------------------------------------------------------------------
# MM
# ---------------------------------------------------------------------------

def _mm_verify(version: int, dims: Sequence[Tuple[int, int, int]],
               budget: Optional[Budget] = None) -> QueryOutcome:
    implementation = {1: mm.mm_parallel_v1, 2: mm.mm_parallel_v2}[version]
    last: Optional[QueryOutcome] = None
    for n, p, m in dims:
        def thunk(n=n, p=p, m=m):
            a = _symbolic_array("a", n * p)
            b = _symbolic_array("b", p * m)
            _assert_equal_arrays(mm.mm_reference(a, b, n, p, m),
                                 implementation(a, b, n, p, m))
        outcome = verify(thunk, budget=budget)
        last = _merge_outcomes(last, outcome)
        if outcome.status != "unsat":
            return last  # counterexample or exhausted budget: stop early
    return last


def _mm_synthesize(dims: Sequence[Tuple[int, int, int]],
                   budget: Optional[Budget] = None) -> QueryOutcome:
    n, p, m = dims[0]
    inputs: List = []

    def thunk():
        a = _symbolic_array("a", n * p)
        b = _symbolic_array("b", p * m)
        inputs.extend(a + b)
        _assert_equal_arrays(mm.mm_reference(a, b, n, p, m),
                             mm.mm_sketch(a, b, n, p, m))
    return synthesize(_LazyInputs(inputs), thunk, budget=budget)


class _LazyInputs:
    """Input list resolved only after the thunk has populated it."""

    def __init__(self, backing: List):
        self._backing = backing

    def __iter__(self):
        return iter(self._backing)


# ---------------------------------------------------------------------------
# SF
# ---------------------------------------------------------------------------

def _sf_verify(version: int, sizes: Sequence[Tuple[int, int]],
               budget: Optional[Budget] = None) -> QueryOutcome:
    implementation = sobel.SOBEL_VERSIONS[version]
    last: Optional[QueryOutcome] = None
    for w, h in sizes:
        def thunk(w=w, h=h):
            image = _symbolic_array("px", w * h * sobel.CHANNELS)
            _assert_equal_arrays(sobel.sobel_reference(image, w, h),
                                 implementation(image, w, h))
        outcome = verify(thunk, budget=budget)
        last = _merge_outcomes(last, outcome)
        if outcome.status != "unsat":
            return last
    return last


def _sf_synthesize(sizes: Sequence[Tuple[int, int]],
                   budget: Optional[Budget] = None) -> QueryOutcome:
    w, h = sizes[0]
    inputs: List = []

    def thunk():
        image = _symbolic_array("px", w * h * sobel.CHANNELS)
        inputs.extend(image)
        _assert_equal_arrays(sobel.sobel_reference(image, w, h),
                             sobel.sobel_sketch(image, w, h))
    return synthesize(_LazyInputs(inputs), thunk, budget=budget)


# ---------------------------------------------------------------------------
# FWT
# ---------------------------------------------------------------------------

def _fwt_verify(version: int, exponents: Sequence[int],
                budget: Optional[Budget] = None) -> QueryOutcome:
    implementation = {1: fwt.fwt_parallel_v1, 2: fwt.fwt_parallel_v2}[version]
    last: Optional[QueryOutcome] = None
    for k in exponents:
        def thunk(k=k):
            data = _symbolic_array("x", 1 << k)
            _assert_equal_arrays(fwt.fwt_reference(data),
                                 implementation(data))
        outcome = verify(thunk, budget=budget)
        last = _merge_outcomes(last, outcome)
        if outcome.status != "unsat":
            return last
    return last


def _fwt_synthesize(exponents: Sequence[int],
                    budget: Optional[Budget] = None) -> QueryOutcome:
    k = exponents[0]
    inputs: List = []

    def thunk():
        data = _symbolic_array("x", 1 << k)
        inputs.extend(data)
        _assert_equal_arrays(fwt.fwt_reference(data), fwt.fwt_sketch(data))
    return synthesize(_LazyInputs(inputs), thunk, budget=budget)


def _merge_outcomes(accumulated: Optional[QueryOutcome],
                    outcome: QueryOutcome) -> QueryOutcome:
    if accumulated is not None:
        outcome.stats.add(accumulated.stats)
    return outcome


# ---------------------------------------------------------------------------
# The Table 1 registry (scaled bounds; paper bounds in the docstring column)
# ---------------------------------------------------------------------------

_MM_DIMS = [(n, p, m) for n in (2, 3) for p in (2, 3) for m in (2, 3)]
_SF_SIZES = [(w, h) for w in (1, 2, 3) for h in (1, 2, 3)]
_SF_INTERIOR = [(3, 3), (3, 4), (4, 3)]
_FWT_EXPONENTS = [0, 1, 2, 3]

SYNTHCL_BENCHMARKS: Dict[str, SynthClBenchmark] = {}


def _register(name: str, kind: str, bounds, paper_bounds: str, run) -> None:
    SYNTHCL_BENCHMARKS[name] = SynthClBenchmark(
        name=name, kind=kind, bounds=tuple(bounds),
        paper_bounds=paper_bounds, run=run)


_register("MM1v", "verify", _MM_DIMS,
          "n,p,m ∈ {4,8,12,16}, 32-bit", partial(_mm_verify, 1))
_register("MM2v", "verify", _MM_DIMS,
          "n,p,m ∈ {4,8,12,16}, 32-bit", partial(_mm_verify, 2))
_register("MM2s", "synthesize", [(2, 3, 2)],
          "n,p,m ∈ {8}, 8-bit", _mm_synthesize)
for _v in (1, 2, 3, 4, 5):
    _register(f"SF{_v}v", "verify", _SF_SIZES,
              "w,h ∈ {1..9}, 32-bit", partial(_sf_verify, _v))
for _v in (6, 7):
    _register(f"SF{_v}v", "verify", _SF_INTERIOR,
              "w,h ∈ {3..9}, 32-bit", partial(_sf_verify, _v))
_register("SF3s", "synthesize", [(2, 2)],
          "w,h ∈ {1..4}, 8-bit", _sf_synthesize)
_register("SF7s", "synthesize", [(3, 3)],
          "w,h ∈ {4}, 8-bit", _sf_synthesize)
_register("FWT1v", "verify", _FWT_EXPONENTS,
          "2^k, k ∈ {0..6}, 32-bit", partial(_fwt_verify, 1))
_register("FWT2v", "verify", _FWT_EXPONENTS,
          "2^k, k ∈ {0..6}, 32-bit", partial(_fwt_verify, 2))
_register("FWT1s", "synthesize", [3],
          "2^k, k ∈ {3}, 8-bit", _fwt_synthesize)
_register("FWT2s", "synthesize", [2],
          "2^k, k ∈ {3}, 8-bit", _fwt_synthesize)


def run_benchmark(name: str, bounds=None,
                  budget: Optional[Budget] = None) -> QueryOutcome:
    """Run one Table 1 benchmark; returns its QueryOutcome with stats.

    `budget` caps the whole benchmark: verification sweeps share it across
    every bound in the sweep (and stop at the first unknown), and synthesis
    benchmarks hand it to CEGIS. On exhaustion the outcome is ``unknown``
    with a :class:`~repro.queries.ResourceReport`. To trace a whole sweep
    into one file, call this inside ``with repro.obs.tracing(path):``.
    """
    benchmark = SYNTHCL_BENCHMARKS[name]
    return benchmark.run(
        bounds if bounds is not None else benchmark.bounds, budget=budget)
