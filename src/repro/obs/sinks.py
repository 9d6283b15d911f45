"""Trace sinks: JSONL writer, Chrome trace-event exporter, summaries.

A sink is any callable taking an :class:`~repro.obs.events.Event`. The
writers here are the pluggable back-ends behind :func:`repro.obs.tracing`
and the ``REPRO_TRACE`` environment variable:

- :class:`JsonlTraceWriter` — one JSON object per line, append-order =
  emission order. The stable interchange format; cheap to write, easy to
  grep, and convertible offline.
- :class:`ChromeTraceSink` / :func:`jsonl_to_chrome` — the Chrome
  trace-event format (the JSON array ``chrome://tracing`` and Perfetto
  load directly): ``ph``/``ts``/``pid``/``tid`` on every event.
- :class:`SummarySink` — an in-memory hierarchical aggregation of spans
  (by nesting path) rendered as an indented text report.
- :class:`MemorySink` — a plain list accumulator for tests.
"""

from __future__ import annotations

import io
import json
import os
from typing import Dict, List, Optional, Union

from repro.obs.events import BEGIN, END, Event, INSTANT


class MemorySink:
    """Collects events in a list (testing / ad-hoc inspection)."""

    def __init__(self):
        self.events: List[Event] = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()


class JsonlTraceWriter:
    """Writes each event as one JSON line to a file (or file-like).

    Lines are flushed as they are written: a trace of a crashed or
    budget-killed run is still readable up to the failure point, which is
    exactly when a trace is most wanted.
    """

    def __init__(self, target: Union[str, os.PathLike, io.TextIOBase]):
        if hasattr(target, "write"):
            self._file = target
            self._owns_file = False
        else:
            self._file = open(target, "w", encoding="utf-8")
            self._owns_file = True
        self.events_written = 0

    def __call__(self, event: Event) -> None:
        self._file.write(json.dumps(event.to_dict(),
                                    separators=(",", ":")) + "\n")
        self._file.flush()
        self.events_written += 1

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()


def _chrome_event(row: Dict[str, object], pid: int, tid: int) -> dict:
    """One JSONL row → one Chrome trace-event object."""
    out = {
        "name": row["name"],
        "cat": row["cat"],
        "ph": row["ph"],
        "ts": row["ts_us"],
        "pid": pid,
        "tid": tid,
        "args": row.get("args") or {},
    }
    if out["ph"] == INSTANT:
        out["s"] = "t"  # thread-scoped instant marker
    return out


class ChromeTraceSink:
    """Accumulates events; :meth:`write` emits a Chrome trace-event file."""

    def __init__(self, pid: Optional[int] = None, tid: int = 1):
        self.pid = pid if pid is not None else os.getpid()
        self.tid = tid
        self._rows: List[dict] = []

    def __call__(self, event: Event) -> None:
        self._rows.append(event.to_dict())

    def trace_events(self) -> List[dict]:
        return [_chrome_event(row, self.pid, self.tid) for row in self._rows]

    def write(self, path: Union[str, os.PathLike]) -> None:
        payload = {"traceEvents": self.trace_events(),
                   "displayTimeUnit": "ms"}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")


def jsonl_to_chrome(jsonl_path: Union[str, os.PathLike],
                    chrome_path: Union[str, os.PathLike],
                    pid: int = 1, tid: int = 1) -> int:
    """Convert a JSONL trace file to a Chrome trace-event file.

    Returns the number of events converted. The source process is gone by
    conversion time, so ``pid``/``tid`` are synthetic constants — Perfetto
    only uses them to group events onto tracks.
    """
    events: List[dict] = []
    with open(jsonl_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(_chrome_event(json.loads(line), pid, tid))
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(chrome_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return len(events)


class _SummaryNode:
    __slots__ = ("name", "count", "total_us", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_us = 0.0
        self.children: Dict[str, "_SummaryNode"] = {}

    def child(self, name: str) -> "_SummaryNode":
        node = self.children.get(name)
        if node is None:
            node = _SummaryNode(name)
            self.children[name] = node
        return node


class SummarySink:
    """Aggregates spans by nesting path into a human-readable tree.

    Instants are counted as zero-duration leaves under the innermost open
    span. Durations are *inclusive* (a parent's total includes its
    children), matching how the flame view in Perfetto reads.
    """

    def __init__(self):
        self._root = _SummaryNode("<trace>")
        # (node, begin_ts) per open span.
        self._stack: List[tuple] = []

    def __call__(self, event: Event) -> None:
        if event.ph == BEGIN:
            parent = self._stack[-1][0] if self._stack else self._root
            self._stack.append((parent.child(event.name), event.ts_us))
        elif event.ph == END:
            if not self._stack:
                return  # unbalanced END: tolerate partial traces
            node, begin_ts = self._stack.pop()
            node.count += 1
            node.total_us += event.ts_us - begin_ts
        else:
            parent = self._stack[-1][0] if self._stack else self._root
            leaf = parent.child(event.name)
            leaf.count += 1

    def report(self) -> str:
        lines = [f"{'span':44s} {'count':>8s} {'total_ms':>10s}"]

        def render(node: _SummaryNode, depth: int) -> None:
            for name in sorted(node.children):
                child = node.children[name]
                label = ("  " * depth + name)[:44]
                lines.append(f"{label:44s} {child.count:8d} "
                             f"{child.total_us / 1000:10.2f}")
                render(child, depth + 1)

        render(self._root, 0)
        return "\n".join(lines)
