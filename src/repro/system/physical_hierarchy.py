"""Baseline physically-addressed GPU memory hierarchy (Figure 1).

Per-CU TLBs are consulted after coalescing and before the (physically
indexed) caches.  A private-TLB miss becomes a translation service
request to the IOMMU over the PCIe-protocol link; once the translation
returns, the access proceeds down the physical L1 → shared banked L2 →
DRAM path.

The IDEAL MMU variant (Figure 4) gives every CU an infinite TLB whose
misses are satisfied instantly — translation never costs cycles, which
isolates the pure cache/DRAM behaviour as the 1.0 reference point.

This module holds the hierarchy's state, counters and software-visible
operations.  The request path lives in one place,
:func:`repro.system.fastpath.compile_physical_access`: every build,
instrumented or not, installs that closure as ``access``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engine.stats import Counters, LifetimeTracker
from repro.memsys.addressing import lines_per_page
from repro.memsys.cache import Cache
from repro.memsys.dram import DRAM
from repro.memsys.iommu import IOMMU
from repro.memsys.page_table import PageTable
from repro.memsys.tlb import TLB
from repro.engine.resources import BankedServer
from repro.system.config import SoCConfig
from repro.system.fastpath import compile_physical_access


__all__ = ["PhysicalHierarchy"]

class PhysicalHierarchy:
    """The baseline MMU + physical cache hierarchy."""

    def __init__(
        self,
        config: SoCConfig,
        page_tables: Dict[int, PageTable],
        ideal: bool = False,
        track_lifetimes: bool = False,
        obs=None,
    ) -> None:
        self.config = config
        self.page_tables = dict(page_tables)
        self.ideal = ideal
        self._counters = Counters()
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        # Windowed time series (obs.metrics.timeline); None unless the
        # caller enabled a timeline before building the hierarchy.
        self._timeline = obs.metrics.timeline if obs is not None else None
        # Deferred hot-path event counts (flushed via the ``counters``
        # property; only nonzero counts materialize, matching the
        # key-presence semantics of per-event ``Counters.add``).
        # ``tlb.accesses`` is not counted per access: every access makes
        # exactly one per-CU TLB probe, so it is derived at flush time
        # from the TLBs' own hit/miss totals.
        self._n_tlb_misses = 0
        self._n_miss_l1_hit = 0
        self._n_miss_l2_hit = 0
        self._n_miss_l2_miss = 0
        self._n_l2_writebacks = 0

        self.lifetimes: Optional[Dict[str, LifetimeTracker]] = None
        if track_lifetimes:
            self.lifetimes = {
                "tlb": LifetimeTracker(),
                "l1": LifetimeTracker(),
                "l2": LifetimeTracker(),
            }

        tlb_entries = None if ideal else config.per_cu_tlb_entries
        self.per_cu_tlbs: List[TLB] = [
            TLB(capacity=tlb_entries, name=f"cu{i}-tlb")
            for i in range(config.n_cus)
        ]
        self.l1s: List[Cache] = [
            Cache(config.l1, name=f"cu{i}-l1") for i in range(config.n_cus)
        ]
        self.l2 = Cache(config.l2, name="l2")
        self.l2_banks = BankedServer(config.l2.n_banks)
        self.dram = DRAM(
            latency_cycles=config.dram_latency,
            bandwidth_gbps=config.dram_bandwidth_gbps,
            frequency_ghz=config.frequency_ghz,
            line_size=config.line_size,
        )
        self.iommu = IOMMU(
            config.iommu, page_tables, frequency_ghz=config.frequency_ghz,
            obs=obs,
        )
        self._lpp = lines_per_page(config.line_size)
        if obs is not None:
            self.l2_banks.attach_delay_histogram(
                obs.metrics.histogram("l2.bank_queue_delay"))
        # The closure-compiled access path is this hierarchy's only one,
        # instrumented or not: ``access(cu_id, request, now, asid=0)``
        # returns the request's completion time (see fastpath).
        self.access = compile_physical_access(self)

    # -- counters ---------------------------------------------------------
    @property
    def counters(self) -> Counters:
        """The hierarchy's counter bag, with pending hot-path deltas flushed."""
        self._flush_counters()
        return self._counters

    def _flush_counters(self) -> None:
        counters = self._counters
        probes = sum(t.hits + t.misses for t in self.per_cu_tlbs)
        if probes:
            counters.set("tlb.accesses", probes)
        if self._n_tlb_misses:
            counters.add("tlb.misses", self._n_tlb_misses)
            self._n_tlb_misses = 0
        if self._n_miss_l1_hit:
            counters.add("tlb.miss_l1_hit", self._n_miss_l1_hit)
            self._n_miss_l1_hit = 0
        if self._n_miss_l2_hit:
            counters.add("tlb.miss_l2_hit", self._n_miss_l2_hit)
            self._n_miss_l2_hit = 0
        if self._n_miss_l2_miss:
            counters.add("tlb.miss_l2_miss", self._n_miss_l2_miss)
            self._n_miss_l2_miss = 0
        if self._n_l2_writebacks:
            counters.add("l2.writebacks", self._n_l2_writebacks)
            self._n_l2_writebacks = 0

    # -- software-visible operations ------------------------------------------
    def shootdown(self, asid: int, vpn: int, now: float = 0.0) -> bool:
        """Single-entry TLB shootdown across the per-CU TLBs and the IOMMU.

        The physical caches are untouched: frames are never reused by
        the allocator, so stale lines under a dead translation can never
        be reached again.  Returns True if any translation was dropped.
        """
        key = (asid << 52) | vpn
        dropped = False
        for tlb in self.per_cu_tlbs:
            if tlb.invalidate(key, now):
                dropped = True
        if self.iommu.invalidate(vpn, asid):
            dropped = True
        return dropped

    def shootdown_all(self, now: float = 0.0) -> int:
        """All-entry shootdown; returns the number of translations dropped."""
        dropped = sum(tlb.invalidate_all(now) for tlb in self.per_cu_tlbs)
        return dropped + self.iommu.invalidate_all()

    # -- aggregate statistics ---------------------------------------------------
    def per_cu_tlb_miss_ratio(self) -> float:
        accesses = sum(t.accesses for t in self.per_cu_tlbs)
        misses = sum(t.misses for t in self.per_cu_tlbs)
        return misses / accesses if accesses else 0.0

    def finish(self, now: float) -> None:
        """End-of-run accounting: flush counters and lifetime trackers."""
        self._flush_counters()
        if self.lifetimes is None:
            return
        for tracker in self.lifetimes.values():
            tracker.flush(now)
