"""The structured event bus: typed, timestamped telemetry for the stack.

Every layer of the SVM — the CDCL core, the bit-blaster, the SMT facade,
the VM's guarded evaluator, and the queries — carries first-class hook
points that publish :class:`Event` records to a process-wide
:data:`BUS`. Consumers subscribe plain callables (sinks) and receive
events synchronously, at the site that produced them, which is what lets
the symbolic profiler attribute events to host call sites by walking the
stack at delivery time.

Design constraints:

- **Zero dependencies.** This module imports only the standard library
  and nothing from ``repro``, so every layer (including the SAT core at
  the bottom of the import graph) may import it.
- **Disabled is free.** When no sink is subscribed, ``BUS.enabled`` is
  ``False`` and every instrumentation site reduces to a single attribute
  check — no event objects are allocated, no timestamps taken. Tier-1
  timings are unaffected by the instrumentation being present.
- **Spans are stack-shaped.** ``begin``/``end`` events follow call
  structure, so a single thread's event stream has strict LIFO nesting;
  sinks and the Chrome trace-event exporter rely on it.

Event taxonomy (name — category — payload):

========================  ====  ==============================================
``query.solve`` (span)    query  ``status``
``query.verify`` (span)   query  ``status``
``query.synthesize``      query  ``status``
``query.debug`` (span)    query  ``status``
``cegis.iteration``       query  ``iteration``, ``examples``; end: ``outcome``
``smt.check`` (span)      smt    ``assumptions``; end: ``result``
                                 plus the full CheckStats delta
``smt.encode`` (span)     smt    end: ``hits``, ``misses``, ``cached``
``cert.model`` (span)     cert   end: ``ok`` (SAT-answer certification)
``cert.proof`` (span)     cert   ``steps``; end: ``ok``, ``core``
``cert.core`` (span)      cert   ``size``; end: ``ok`` (minimized-core
                                 re-proof)
``sat.solve`` (span)      sat    ``assumptions``; end: ``result``,
                                 ``conflicts``, ``reason``
``sat.restart``           sat    ``restarts``, ``conflicts``, ``limit``
``sat.conflicts``         sat    ``conflicts``, ``learned`` (milestone)
``sat.budget_trip``       sat    ``reason``, ``phase``
``vm.join``               vm     ``cardinality`` (feasible alternatives)
``vm.merge``              vm     ``locations`` (merged heap locations)
``vm.union``              vm     ``cardinality``
``analysis.sanitize``     analysis  span: ``nodes``; end: SanitizeStats
                                 delta + ``changed``; instant:
                                 ``proved_false``, ``term``
``analysis.race``         analysis  ``pairs``, ``discharged``,
                                 ``overlaps``, ``residual`` (per launch)
``analysis.lint``         analysis  span: ``files``; end:
                                 ``diagnostics`` + per-severity counts
========================  ====  ==============================================
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

#: Span/instant markers, matching the Chrome trace-event ``ph`` field.
BEGIN = "B"
END = "E"
INSTANT = "i"


class Event:
    """One telemetry record: a span boundary or an instant."""

    __slots__ = ("name", "cat", "ph", "ts_us", "args")

    def __init__(self, name: str, cat: str, ph: str, ts_us: float,
                 args: Optional[Dict[str, object]]):
        self.name = name
        self.cat = cat
        self.ph = ph          # BEGIN | END | INSTANT
        self.ts_us = ts_us    # microseconds since the bus epoch
        self.args = args      # payload dict, or None

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (the JSONL trace row shape)."""
        return {"name": self.name, "cat": self.cat, "ph": self.ph,
                "ts_us": self.ts_us, "args": self.args or {}}

    def __repr__(self) -> str:
        return (f"Event({self.name!r}, {self.cat!r}, {self.ph!r}, "
                f"ts_us={self.ts_us:.1f}, args={self.args!r})")


Sink = Callable[[Event], None]


class EventBus:
    """In-process fan-out of events to subscribed sinks.

    Instrumentation sites guard emission with the :attr:`enabled` flag::

        bus = BUS
        if bus.enabled:
            bus.instant("vm.union", "vm", cardinality=3)

    ``enabled`` is maintained by ``subscribe``/``unsubscribe`` — it is
    True exactly while at least one sink is attached. Delivery is
    synchronous and in subscription order; a sink that raises aborts the
    operation that emitted the event (sinks are trusted in-process code,
    not plugins).
    """

    def __init__(self):
        self.enabled = False
        self._sinks: List[Sink] = []
        self._epoch = time.perf_counter()

    # -- subscription --------------------------------------------------

    def subscribe(self, sink: Sink) -> Callable[[], None]:
        """Attach a sink; returns an idempotent unsubscribe closure."""
        self._sinks.append(sink)
        self.enabled = True

        done = False

        def unsubscribe() -> None:
            nonlocal done
            if done:
                return
            done = True
            self.unsubscribe(sink)

        return unsubscribe

    def unsubscribe(self, sink: Sink) -> None:
        """Detach one occurrence of `sink` (no-op if absent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass
        self.enabled = bool(self._sinks)

    @property
    def sinks(self) -> List[Sink]:
        return list(self._sinks)

    # -- emission ------------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since the bus epoch (monotonic)."""
        return (time.perf_counter() - self._epoch) * 1e6

    def emit(self, event: Event) -> None:
        for sink in self._sinks:
            sink(event)

    def begin(self, name: str, cat: str, **args) -> None:
        """Open a span. Must be paired with :meth:`end`, LIFO-nested."""
        self.emit(Event(name, cat, BEGIN, self.now_us(), args or None))

    def end(self, name: str, cat: str, **args) -> None:
        """Close the innermost open span named `name`."""
        self.emit(Event(name, cat, END, self.now_us(), args or None))

    def instant(self, name: str, cat: str, **args) -> None:
        """Emit a point-in-time event."""
        self.emit(Event(name, cat, INSTANT, self.now_us(), args or None))


#: The process-wide bus every instrumentation site publishes to.
BUS = EventBus()
