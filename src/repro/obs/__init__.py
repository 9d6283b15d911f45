"""``repro.obs`` — the unified tracing & metrics layer.

One event bus (:mod:`repro.obs.events`), a metrics registry over it
(:mod:`repro.obs.metrics`), and pluggable sinks
(:mod:`repro.obs.sinks`). There are two ways to capture a trace. In code,
wrap the calls in ``with tracing(sink):``, where ``sink`` is a path (a
JSONL trace is written there) or any callable sink (e.g.
:class:`~repro.obs.sinks.ChromeTraceSink`,
:class:`~repro.obs.metrics.BusMetrics`)::

    with tracing("trace.jsonl"):
        verify(check, setup=setup)

Without code changes, set the ``REPRO_TRACE`` environment variable to a
file path; every query then writes its events there::

    REPRO_TRACE=trace.jsonl python examples/quickstart.py
    python -c "from repro.obs import jsonl_to_chrome; \\
               jsonl_to_chrome('trace.jsonl', 'trace.json')"
    # load trace.json in chrome://tracing or https://ui.perfetto.dev
"""

from __future__ import annotations

import atexit
import json
import os
from contextlib import contextmanager
from typing import List, Optional

from repro.obs.events import BEGIN, BUS, END, Event, EventBus, INSTANT
from repro.obs.metrics import BusMetrics, MetricsRegistry
from repro.obs.sinks import (
    ChromeTraceSink,
    JsonlTraceWriter,
    MemorySink,
    SummarySink,
    jsonl_to_chrome,
)

__all__ = [
    "BUS", "Event", "EventBus", "BEGIN", "END", "INSTANT",
    "BusMetrics", "MetricsRegistry",
    "ChromeTraceSink", "JsonlTraceWriter", "MemorySink", "SummarySink",
    "jsonl_to_chrome", "tracing", "reset_env_sink",
    "load_jsonl_trace", "check_trace_invariants",
]

#: Environment variable naming a JSONL trace path for zero-code capture.
TRACE_ENV_VAR = "REPRO_TRACE"

_env_writer: Optional[JsonlTraceWriter] = None
_env_path: Optional[str] = None
_env_unsubscribe = None


def _ensure_env_sink() -> None:
    """Install (once) the process-global writer named by ``REPRO_TRACE``.

    The writer stays subscribed for the rest of the process so that a
    multi-query program lands in a single trace file; it is closed at
    interpreter exit. Changing the variable between queries re-targets
    the writer.
    """
    global _env_writer, _env_path, _env_unsubscribe
    path = os.environ.get(TRACE_ENV_VAR)
    if not path:
        return
    if _env_writer is not None and _env_path == path:
        return
    reset_env_sink()
    _env_writer = JsonlTraceWriter(path)
    _env_path = path
    _env_unsubscribe = BUS.subscribe(_env_writer)


def reset_env_sink() -> None:
    """Close and detach the ``REPRO_TRACE`` writer (test isolation)."""
    global _env_writer, _env_path, _env_unsubscribe
    if _env_unsubscribe is not None:
        _env_unsubscribe()
        _env_unsubscribe = None
    if _env_writer is not None:
        _env_writer.close()
        _env_writer = None
    _env_path = None


atexit.register(reset_env_sink)


@contextmanager
def tracing(trace=None):
    """Activate tracing for the dynamic extent of the ``with`` block.

    - ``trace`` is a path (str/PathLike): a :class:`JsonlTraceWriter` is
      opened there, subscribed, and closed on exit.
    - ``trace`` is a callable sink: subscribed for the block, left open
      on exit (the caller owns it).
    - ``trace`` is ``None``: no sink of its own, but the ``REPRO_TRACE``
      environment fallback is (idempotently) installed — this is what
      makes every query traceable with zero code changes.

    Yields the active sink (or ``None``).
    """
    if trace is None:
        _ensure_env_sink()
        yield _env_writer
        return
    if callable(trace):
        unsubscribe = BUS.subscribe(trace)
        try:
            yield trace
        finally:
            unsubscribe()
        return
    writer = JsonlTraceWriter(trace)
    unsubscribe = BUS.subscribe(writer)
    try:
        yield writer
    finally:
        unsubscribe()
        writer.close()


# ---------------------------------------------------------------------------
# Trace validation (shared by tests and the CI smoke job)
# ---------------------------------------------------------------------------

def load_jsonl_trace(path) -> List[dict]:
    """Parse a JSONL trace file into a list of row dicts."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def check_trace_invariants(rows: List[dict]) -> None:
    """Assert the structural invariants of a single-threaded trace.

    - every row has ``name``/``cat``/``ph``/``ts_us``/``args``;
    - timestamps are monotonically non-decreasing;
    - ``B``/``E`` events nest with LIFO discipline and matching names,
      and the trace closes every span it opens.

    Raises ``AssertionError`` naming the offending row otherwise.
    """
    last_ts = float("-inf")
    stack: List[str] = []
    for index, row in enumerate(rows):
        for key in ("name", "cat", "ph", "ts_us", "args"):
            assert key in row, f"row {index} missing {key!r}: {row}"
        assert row["ph"] in (BEGIN, END, INSTANT), \
            f"row {index} has bad ph {row['ph']!r}"
        assert row["ts_us"] >= last_ts, \
            f"row {index} timestamp went backwards: {row['ts_us']} < {last_ts}"
        last_ts = row["ts_us"]
        if row["ph"] == BEGIN:
            stack.append(row["name"])
        elif row["ph"] == END:
            assert stack, f"row {index} ends {row['name']!r} with no open span"
            opened = stack.pop()
            assert opened == row["name"], \
                (f"row {index} ends {row['name']!r} but innermost open "
                 f"span is {opened!r}")
    assert not stack, f"trace left spans open: {stack}"
