"""Metrics: counters, gauges, and histograms over bus events.

A :class:`MetricsRegistry` is a named collection of instruments whose
:meth:`~MetricsRegistry.snapshot` is a plain, deterministically-ordered
dict — suitable for embedding in benchmark JSON rows and for golden-file
assertions. :class:`BusMetrics` is a ready-made
:class:`~repro.obs.events.EventBus` sink that aggregates the standard
event taxonomy into a registry: solver checks by result, conflict and
propagation totals, encode-cache hits/misses (and the derived hit rate),
restarts, budget trips, VM joins/unions with cardinality histograms.

This is the "Cache-a-lot" style view: effectiveness over time rather
than end-of-run sums — subscribe, run, snapshot, compare.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.obs.events import BUS, END, Event, EventBus, INSTANT


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """A last-write-wins measurement."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self):
        return self.value


class Histogram:
    """Power-of-two bucketed distribution of non-negative observations.

    Bucket ``2^k`` counts observations with ``2^(k-1) < v <= 2^k``
    (bucket ``0`` counts zeros and ``1`` counts ones), which is plenty of
    resolution for cardinalities and conflict counts while keeping the
    snapshot small and deterministic.
    """

    __slots__ = ("count", "total", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.max = 0
        self.buckets: Dict[int, int] = {}

    def observe(self, value) -> None:
        value = int(value)
        if value < 0:
            value = 0
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        bucket = 0
        if value > 0:
            bucket = 1
            while bucket < value:
                bucket <<= 1
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def snapshot(self):
        return {
            "count": self.count,
            "sum": self.total,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else 0.0,
            "buckets": {str(k): self.buckets[k]
                        for k in sorted(self.buckets)},
        }


class MetricsRegistry:
    """Get-or-create instruments by name; deterministic snapshots."""

    def __init__(self):
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {factory.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, object]:
        """All instruments, sorted by name; values are plain JSON types."""
        return {name: self._instruments[name].snapshot()
                for name in sorted(self._instruments)}


class BusMetrics:
    """An event-bus sink that aggregates the standard taxonomy.

    Usage::

        metrics = BusMetrics()
        with metrics.subscribed():
            outcome = solve(program)
        row["metrics"] = metrics.snapshot()
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 bus: Optional[EventBus] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.bus = bus if bus is not None else BUS

    # The sink protocol: BusMetrics is itself a callable sink.
    def __call__(self, event: Event) -> None:
        name, ph, args = event.name, event.ph, event.args or {}
        reg = self.registry
        if name == "smt.check" and ph == END:
            reg.counter("smt.checks").inc()
            reg.counter(f"smt.result.{args.get('result', '?')}").inc()
            reg.counter("smt.conflicts").inc(args.get("conflicts", 0))
            reg.counter("smt.decisions").inc(args.get("decisions", 0))
            reg.counter("smt.propagations").inc(args.get("propagations", 0))
            reg.counter("smt.learned").inc(args.get("learned", 0))
            reg.counter("smt.encode_hits").inc(args.get("encode_hits", 0))
            reg.counter("smt.encode_misses").inc(args.get("encode_misses", 0))
            reg.counter("smt.budget_trips").inc(args.get("tripped", 0))
            reg.counter("smt.certified").inc(args.get("certified", 0))
            reg.histogram("smt.check_conflicts").observe(
                args.get("conflicts", 0))
            reg.histogram("smt.check_ms").observe(
                round(args.get("seconds", 0.0) * 1000))
        elif name in ("cert.model", "cert.proof", "cert.core") and ph == END:
            reg.counter(f"{name}.checks").inc()
            if not args.get("ok", False):
                reg.counter(f"{name}.rejected").inc()
        elif name == "smt.encode" and ph == END:
            reg.counter("encode.spans").inc()
            reg.counter("encode.hits").inc(args.get("hits", 0))
            reg.counter("encode.misses").inc(args.get("misses", 0))
        elif name == "vm.join" and ph == INSTANT:
            reg.counter("vm.joins").inc()
            reg.histogram("vm.join_cardinality").observe(
                args.get("cardinality", 0))
        elif name == "vm.union" and ph == INSTANT:
            reg.counter("vm.unions").inc()
            reg.histogram("vm.union_cardinality").observe(
                args.get("cardinality", 0))
        elif name == "vm.merge" and ph == INSTANT:
            reg.counter("vm.merges").inc()
        elif name == "sat.restart" and ph == INSTANT:
            reg.counter("sat.restarts").inc()
        elif name == "sat.budget_trip" and ph == INSTANT:
            reg.counter("sat.budget_trips").inc()
            reg.counter(
                f"sat.budget_trip.{args.get('reason', '?')}").inc()
        elif name == "cegis.iteration" and ph == END:
            reg.counter("cegis.iterations").inc()
            reg.counter(
                f"cegis.outcome.{args.get('outcome', '?')}").inc()
        elif name == "analysis.sanitize":
            if ph == END:
                reg.counter("analysis.sanitize.passes").inc()
                reg.counter("analysis.sanitize.rewrites").inc(
                    args.get("rewrites", 0))
                reg.counter("analysis.sanitize.guards_decided").inc(
                    args.get("guards_decided", 0))
                reg.counter("analysis.sanitize.certified").inc(
                    args.get("certified", 0))
            elif ph == INSTANT and args.get("proved_false"):
                # proved-true/false verdicts land after the span closes;
                # the proved-false one is an instant of its own.
                reg.counter("analysis.sanitize.proved_false").inc()
        elif name == "analysis.race" and ph == INSTANT:
            reg.counter("analysis.race.launches").inc()
            reg.counter("analysis.race.pairs").inc(args.get("pairs", 0))
            reg.counter("analysis.race.discharged").inc(
                args.get("discharged", 0))
            reg.counter("analysis.race.residual").inc(
                args.get("residual", 0))
        elif name == "analysis.lint" and ph == END:
            reg.counter("analysis.lint.runs").inc()
            reg.counter("analysis.lint.files").inc(args.get("files", 0))
            reg.counter("analysis.lint.diagnostics").inc(
                args.get("diagnostics", 0))

    def subscribed(self):
        """Context manager: receive events for the dynamic extent."""
        return _Subscription(self.bus, self)

    def snapshot(self) -> Dict[str, object]:
        """Registry snapshot plus the derived headline rates."""
        reg = self.registry
        checks = reg.counter("smt.checks").value
        hits = reg.counter("smt.encode_hits").value
        misses = reg.counter("smt.encode_misses").value
        encoded = hits + misses
        reg.gauge("derived.encode_cache_hit_rate").set(
            (hits / encoded) if encoded else 0.0)
        reg.gauge("derived.conflicts_per_check").set(
            (reg.counter("smt.conflicts").value / checks) if checks else 0.0)
        return reg.snapshot()


class _Subscription:
    """Subscribe a sink on enter, detach on exit."""

    def __init__(self, bus: EventBus, sink):
        self._bus = bus
        self._sink = sink
        self._unsubscribe: Optional[Callable[[], None]] = None

    def __enter__(self):
        self._unsubscribe = self._bus.subscribe(self._sink)
        return self._sink

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
