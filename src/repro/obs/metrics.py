"""Hierarchical metrics: counters, gauges, and log-scale latency histograms.

The flat :class:`~repro.engine.stats.Counters` bag answers "how many",
but the paper's argument is about *distributions* — how long requests
queue at the shared IOMMU TLB port, how long page walks take, how long
a request lives end to end.  :class:`LatencyHistogram` records those
distributions in geometrically spaced buckets (bounded relative error,
O(1) inserts, sparse storage), and :class:`MetricsRegistry` names and
owns every instrument so one ``snapshot()`` captures a whole run.

Names are dot-namespaced (``iommu.queue_delay``); :meth:`MetricsRegistry.scope`
returns a prefixed view so a component can register ``queue_delay``
without knowing where it sits in the hierarchy.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.engine.stats import Counters
from repro.obs.timeline import Timeline


__all__ = ["LatencyHistogram", "MetricsRegistry", "MetricsScope"]

_INF = float("inf")
_floor = math.floor
_log = math.log
#: Most distinct values whose bucket index a histogram keeps memoized.
_INDEX_MEMO_LIMIT = 1024

class LatencyHistogram:
    """A log-scale histogram of nonnegative values.

    Buckets are geometric with ``sub_buckets_per_octave`` buckets per
    power of two (default 8 → ≈ ±4.4% relative error at the geometric
    bucket midpoint).  Values ≤ 0 land in a dedicated zero bucket, so
    "no queueing delay" is represented exactly.  ``count``, ``total``,
    ``min`` and ``max`` are tracked exactly regardless of bucketing.
    """

    def __init__(self, sub_buckets_per_octave: int = 8) -> None:
        if sub_buckets_per_octave < 1:
            raise ValueError("need at least one bucket per octave")
        self.sub_buckets_per_octave = sub_buckets_per_octave
        self._log_growth = math.log(2.0) / sub_buckets_per_octave
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self.total = 0.0
        # Exact bounds as plain floats: ``+inf``/``-inf`` until the first
        # value, so ``record`` needs no ``is None`` tests (see ``min``).
        self._lo = _INF
        self._hi = -_INF
        # Recorded values repeat heavily (a run's request latencies and
        # queue delays take a few percent as many distinct values as it
        # records), so ``record`` memoizes each value's bucket index in
        # place of recomputing the logarithm.  A full memo is emptied and
        # refilled, so it follows the values a long-lived registry sees
        # now; it is a cache, so it is not pickled.
        self._index_of: Dict[float, int] = {}

    def record(self, value: float, count: int = 1) -> None:
        """Add ``count`` observations of ``value``."""
        self.count += count
        self.total += value * count
        if value < self._lo:
            self._lo = value
        if value > self._hi:
            self._hi = value
        if value <= 0.0:
            self._zero_count += count
            return
        index_of = self._index_of
        index = index_of.get(value)
        if index is None:
            index = _floor(_log(value) / self._log_growth)
            if len(index_of) >= _INDEX_MEMO_LIMIT:
                index_of.clear()
            index_of[value] = index
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + count

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_index_of"] = {}
        return state

    @property
    def min(self) -> Optional[float]:
        """Smallest recorded value, or ``None`` before the first."""
        return self._lo if self._lo <= self._hi else None

    @property
    def max(self) -> Optional[float]:
        """Largest recorded value, or ``None`` before the first."""
        return self._hi if self._lo <= self._hi else None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at the ``p``-th percentile (0–100), ±one bucket width.

        Returns the geometric midpoint of the bucket holding the rank,
        clamped to the exact observed ``[min, max]`` range.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        if p == 100.0:
            return self.max  # exact: the maximum is tracked outside buckets
        rank = max(1, math.ceil(p / 100.0 * self.count))
        cumulative = self._zero_count
        if rank <= cumulative:
            return 0.0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                midpoint = math.exp((index + 0.5) * self._log_growth)
                return min(max(midpoint, self.min), self.max)
        return self.max  # floating-point slack: rank beyond the last bucket

    def quantiles(self) -> Dict[str, float]:
        """The p50/p95/p99 summary every latency export carries."""
        return {
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready summary: count, mean, min/max, p50/p95/p99."""
        summary: Dict[str, float] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }
        summary.update(self.quantiles())
        return summary

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's observations into this one.

        Bucket-exact: merging preserves every count, the zero bucket,
        and the exact min/max, so parent-process aggregation over
        per-worker histograms matches recording everything in one
        registry.  Both histograms must share a bucket layout.
        """
        if other.sub_buckets_per_octave != self.sub_buckets_per_octave:
            raise ValueError(
                "cannot merge histograms with different bucket layouts "
                f"({self.sub_buckets_per_octave} vs "
                f"{other.sub_buckets_per_octave} sub-buckets per octave)"
            )
        self.count += other.count
        self.total += other.total
        self._zero_count += other._zero_count
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        if other._lo < self._lo:
            self._lo = other._lo
        if other._hi > self._hi:
            self._hi = other._hi

    def reset(self) -> None:
        self._buckets.clear()
        self._zero_count = 0
        self.count = 0
        self.total = 0.0
        self._lo = _INF
        self._hi = -_INF


class MetricsRegistry:
    """Named counters, gauges, and histograms for one simulated run.

    Wraps a :class:`~repro.engine.stats.Counters` bag (``registry.counters``
    keeps the exact ``add``/``as_dict`` interface the rest of the
    simulator already uses) and adds gauges and latency histograms
    beside it.  Instruments are created on first use and shared by
    name, so two components asking for ``iommu.queue_delay`` aggregate
    into the same histogram.
    """

    def __init__(self, counters: Optional[Counters] = None) -> None:
        self.counters = counters if counters is not None else Counters()
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        #: Optional per-epoch time series (see :meth:`enable_timeline`).
        #: Instrumented components capture this reference at
        #: construction, so leaving it ``None`` costs nothing per event.
        self.timeline: Optional[Timeline] = None

    def enable_timeline(
        self, epoch_cycles: float = 1024.0, max_epochs: int = 512
    ) -> Timeline:
        """Attach (or return the existing) windowed timeline.

        Must be called before the hierarchy is built — components grab
        ``metrics.timeline`` in their constructors.
        """
        if self.timeline is None:
            self.timeline = Timeline(epoch_cycles=epoch_cycles,
                                     max_epochs=max_epochs)
        return self.timeline

    # -- instruments ------------------------------------------------------
    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` (delegates to the wrapped bag)."""
        self.counters.add(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set point-in-time gauge ``name`` to ``value``."""
        self._gauges[name] = value

    def histogram(self, name: str, sub_buckets_per_octave: int = 8) -> LatencyHistogram:
        """Get (or create) the histogram registered under ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = LatencyHistogram(sub_buckets_per_octave)
            self._histograms[name] = hist
        return hist

    def scope(self, prefix: str) -> "MetricsScope":
        """A view that prepends ``prefix.`` to every instrument name."""
        return MetricsScope(self, prefix)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (parallel-run aggregation).

        Counters add, histograms merge bucket-exactly, and gauges take
        the other registry's value (point-in-time semantics: last write
        wins, as if the worker had written through this registry).
        """
        self.counters.merge(other.counters)
        for name, value in other.gauges().items():
            self._gauges[name] = value
        for name, hist in other.histograms().items():
            self.histogram(name, hist.sub_buckets_per_octave).merge(hist)
        if other.timeline is not None:
            if self.timeline is None:
                self.timeline = Timeline(
                    epoch_cycles=other.timeline.epoch_cycles,
                    max_epochs=other.timeline.max_epochs)
            self.timeline.merge(other.timeline)

    # -- export -----------------------------------------------------------
    def gauges(self) -> Dict[str, float]:
        return dict(sorted(self._gauges.items()))

    def histograms(self) -> Dict[str, LatencyHistogram]:
        return dict(sorted(self._histograms.items()))

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready dict of everything, with deterministic key order.

        The ``timeline`` key appears only when a timeline is attached,
        keeping snapshots byte-identical for runs that never opt in.
        """
        out: Dict[str, Any] = {
            "counters": self.counters.as_dict(),
            "gauges": self.gauges(),
            "histograms": {
                name: hist.as_dict() for name, hist in self.histograms().items()
            },
        }
        if self.timeline is not None:
            out["timeline"] = self.timeline.as_dict()
        return out

    def reset(self) -> None:
        self.counters.reset()
        self._gauges.clear()
        for hist in self._histograms.values():
            hist.reset()
        if self.timeline is not None:
            self.timeline.reset()


class MetricsScope:
    """A prefixed view onto a :class:`MetricsRegistry`."""

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix.rstrip(".") + "."

    def add(self, name: str, amount: int = 1) -> None:
        self._registry.add(self._prefix + name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        self._registry.set_gauge(self._prefix + name, value)

    def histogram(self, name: str, sub_buckets_per_octave: int = 8) -> LatencyHistogram:
        return self._registry.histogram(self._prefix + name, sub_buckets_per_octave)

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self._registry, self._prefix + prefix)
