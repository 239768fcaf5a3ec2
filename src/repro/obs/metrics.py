"""Process-local metrics registry.

Counters, gauges and streaming histograms for the telemetry layer.  The
registry is the quantitative half of :mod:`repro.obs` (the qualitative half
being the event bus): every instrumented hot path increments a counter or
observes a histogram here, and :mod:`repro.obs.report` renders the registry
into the per-campaign cost summary — the observable form of the paper's
measurement-cost argument.

Everything is pure Python (no numpy): histograms keep a deterministic
reservoir sample for quantiles, so the registry can be imported by the
lowest-level modules without dragging in the numeric stack.

Thread safety: a registry created with ``thread_safe=True`` (the
default) guards every mutation and read-out behind one shared
``threading.RLock`` — the instruments it creates share the registry's
lock, so concurrent handler threads (the HTTP service) and the
thread-per-connection farm broker can increment and scrape without an
external lock.  ``thread_safe=False`` keeps the historical lock-free
behaviour for single-threaded hot paths (per-unit capture registries).
"""

from __future__ import annotations

import random
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Reservoir size of a streaming histogram.  Quantiles are exact up to this
#: many observations and a uniform sample beyond it.
DEFAULT_RESERVOIR_SIZE = 512


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` by the nearest-rank rule.

    Returns an observed value (the one at rank ``int(q * n)``, clamped),
    or ``nan`` for no values.  Histograms, alert rules and the service
    dashboard all summarize latencies with this one rule.
    """
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class _NullLock:
    """Zero-cost stand-in for a lock (``thread_safe=False`` registries)."""

    __slots__ = ()

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_LOCK = _NullLock()


class Counter:
    """Monotonic counter with an optional per-label breakdown.

    ``inc(label=...)`` keeps a secondary count per label (e.g. measurements
    per test name) next to the total; the report renders the top labels.
    """

    __slots__ = ("name", "value", "by_label", "_lock")

    def __init__(self, name: str, lock: Optional[object] = None) -> None:
        self.name = name
        self.value = 0
        self.by_label: Dict[str, int] = {}
        self._lock = lock if lock is not None else _NULL_LOCK

    def inc(self, amount: int = 1, label: Optional[str] = None) -> None:
        """Add ``amount`` to the total (and to ``label``'s count if given)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount
            if label is not None:
                self.by_label[label] = self.by_label.get(label, 0) + amount

    def top_labels(self, count: int = 20) -> List[Tuple[str, int]]:
        """The ``count`` largest labels, descending, ties by name."""
        with self._lock:
            ranked = sorted(
                self.by_label.items(), key=lambda kv: (-kv[1], kv[0])
            )
        return ranked[:count]


class Gauge:
    """Last-value-wins instrument (e.g. validation accuracy)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: Optional[object] = None) -> None:
        self.name = name
        self.value: Optional[float] = None
        self._lock = lock if lock is not None else _NULL_LOCK

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self.value = float(value)


class Histogram:
    """Streaming value distribution: count/sum/min/max plus quantiles.

    Quantiles come from a bounded reservoir (algorithm R with a fixed-seed
    RNG, so runs are reproducible); below the reservoir size they are exact.
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "min",
        "max",
        "raw",
        "_reservoir",
        "_reservoir_size",
        "_rng",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        keep_raw: bool = False,
        lock: Optional[object] = None,
    ) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: Every observation in order, when ``keep_raw`` — the farm
        #: collector uses this to replay a worker's histogram into the
        #: parent registry exactly (reservoir state included).
        self.raw: Optional[List[float]] = [] if keep_raw else None
        self._reservoir: List[float] = []
        self._reservoir_size = reservoir_size
        self._rng = random.Random(0x5EED)
        self._lock = lock if lock is not None else _NULL_LOCK

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if self.raw is not None:
                self.raw.append(value)
            if len(self._reservoir) < self._reservoir_size:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self._reservoir_size:
                    self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        """Mean observation (``nan`` when empty)."""
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (nearest-rank over the reservoir sample)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            return nearest_rank(self._reservoir, q)

    @property
    def p50(self) -> float:
        """Median."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """95th percentile."""
        return self.quantile(0.95)


class MetricsRegistry:
    """Named instruments, created on first use.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` return the
    existing instrument or create it — so instrumented code needs no setup
    and a summary can show a counter at zero (the instrument exists the
    moment the instrumented path runs, even if it never fires).

    With ``keep_raw=True`` every histogram keeps its full observation
    stream (:attr:`Histogram.raw`) so the registry can be shipped across
    a process boundary and replayed exactly — the farm collector builds
    per-work-unit registries this way.

    ``thread_safe=True`` (the default) shares one reentrant lock across
    the registry and every instrument it creates, so concurrent threads
    can mutate and scrape without external coordination.  Single-thread
    hot paths (per-unit capture registries) can opt out.
    """

    def __init__(self, keep_raw: bool = False, thread_safe: bool = True) -> None:
        self.keep_raw = keep_raw
        self._lock = threading.RLock() if thread_safe else _NULL_LOCK
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created at 0 if new)."""
        with self._lock:
            instrument = self.counters.get(name)
            if instrument is None:
                instrument = self.counters[name] = Counter(
                    name, lock=self._lock
                )
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``."""
        with self._lock:
            instrument = self.gauges.get(name)
            if instrument is None:
                instrument = self.gauges[name] = Gauge(name, lock=self._lock)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``."""
        with self._lock:
            instrument = self.histograms.get(name)
            if instrument is None:
                instrument = self.histograms[name] = Histogram(
                    name, keep_raw=self.keep_raw, lock=self._lock
                )
        return instrument

    def names(self) -> Iterable[str]:
        """All instrument names, counters first, each group sorted."""
        with self._lock:
            ordered = (
                sorted(self.counters)
                + sorted(self.gauges)
                + sorted(self.histograms)
            )
        yield from ordered

    def snapshot(self) -> Dict[str, object]:
        """Plain-data dump (for tests and JSON export)."""
        with self._lock:
            return {
                "counters": {
                    name: {"value": c.value, "by_label": dict(c.by_label)}
                    for name, c in self.counters.items()
                },
                "gauges": {name: g.value for name, g in self.gauges.items()},
                "histograms": {
                    name: {
                        "count": h.count,
                        "sum": h.total,
                        "min": h.min,
                        "max": h.max,
                        "mean": h.mean,
                        "p50": h.p50,
                        "p95": h.p95,
                    }
                    for name, h in self.histograms.items()
                },
            }

    def dump_raw(self) -> Dict[str, object]:
        """Transportable (picklable/JSON-able) form for exact replay.

        Histograms dump their full observation stream when the registry
        keeps raw values (the collector's per-unit registries do);
        otherwise the reservoir sample stands in — still deterministic,
        but a subsample beyond :data:`DEFAULT_RESERVOIR_SIZE`.
        """
        with self._lock:
            return {
                "counters": {
                    name: {"value": c.value, "by_label": dict(c.by_label)}
                    for name, c in self.counters.items()
                },
                "gauges": {name: g.value for name, g in self.gauges.items()},
                "histograms": {
                    name: list(h.raw if h.raw is not None else h._reservoir)
                    for name, h in self.histograms.items()
                },
            }

    def merge_raw(self, payload: Dict[str, object]) -> None:
        """Replay a :meth:`dump_raw` payload into this registry.

        Deterministic: counters merge label-sorted, gauges last-write-
        wins, histogram observations replay in recorded order — so
        merging the same per-unit payloads in the same order always
        yields an identical registry, no matter where the units ran.
        """
        with self._lock:
            self._merge_raw_locked(payload)

    def _merge_raw_locked(self, payload: Dict[str, object]) -> None:
        for name, data in sorted(payload.get("counters", {}).items()):
            counter = self.counter(name)
            by_label = data.get("by_label") or {}
            for label, amount in sorted(by_label.items()):
                counter.inc(int(amount), label=label)
            unlabelled = int(data.get("value", 0)) - sum(
                int(v) for v in by_label.values()
            )
            if unlabelled > 0:
                counter.inc(unlabelled)
        for name, value in sorted(payload.get("gauges", {}).items()):
            if value is not None:
                self.gauge(name).set(float(value))
        for name, values in sorted(payload.get("histograms", {}).items()):
            histogram = self.histogram(name)
            for value in values:
                histogram.observe(float(value))

    def reset(self) -> None:
        """Drop every instrument (start of a fresh campaign)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
