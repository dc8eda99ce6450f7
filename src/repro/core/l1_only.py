"""L1-only virtual caching (§5.4, Figure 11).

This design virtualizes only the private L1s — the configuration most
CPU virtual-cache proposals correspond to.  The shared L2 stays
physically indexed, so translation (per-CU TLB, then the IOMMU) is
needed on every L1 *miss* and on every write-through.  L1 read hits are
the only accesses that skip translation, which is why the paper finds
whole-hierarchy virtual caching filters roughly twice the shared-TLB
traffic (31% vs 66% of private-TLB misses, Figure 2's black vs
black+red bars).

Synonym correctness at the L1 level is kept by an ASDT-style table
(after Yoon & Sohi [52], the design §4 builds on): one entry per
physical page with data in any L1, recording the unique leading virtual
page.

This module holds the hierarchy's state and its software-visible
operations (shootdowns, counters).  The request path itself lives in
one place, :func:`repro.system.fastpath.compile_l1only_access`: every
build, instrumented or not, installs that closure as ``access``, and
the closure inlines the ASDT operations defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.virtual_hierarchy import _ASID_SHIFT, page_key
from repro.engine.resources import BankedServer
from repro.engine.stats import Counters
from repro.memsys.addressing import lines_per_page
from repro.memsys.cache import Cache
from repro.memsys.dram import DRAM
from repro.memsys.iommu import IOMMU
from repro.memsys.page_table import PageTable
from repro.memsys.permissions import ReadWriteSynonymFault
from repro.memsys.tlb import TLB
from repro.system.config import SoCConfig


__all__ = ["ASDT", "ASDTEntry", "L1OnlyVirtualHierarchy"]


@dataclass
class ASDTEntry:
    """Active-synonym-detection entry: one per physical page in the L1s."""

    ppn: int
    leading_asid: int
    leading_vpn: int
    resident_lines: int = 0
    written: bool = False


class ASDT:
    """Tracks the leading virtual page of every physical page in the L1s."""

    def __init__(self, fault_on_rw_synonym: bool = True) -> None:
        self._by_ppn: Dict[int, ASDTEntry] = {}
        self._by_leading: Dict[Tuple[int, int], int] = {}
        self.fault_on_rw_synonym = fault_on_rw_synonym
        self.synonym_accesses = 0

    def __len__(self) -> int:
        return len(self._by_ppn)

    def check(self, asid: int, vpn: int, ppn: int, is_write: bool) -> ASDTEntry:
        """Establish/verify the leading page for an L1 fill of ``ppn``."""
        entry = self._by_ppn.get(ppn)
        if entry is None:
            entry = ASDTEntry(ppn=ppn, leading_asid=asid, leading_vpn=vpn,
                              written=is_write)
            self._by_ppn[ppn] = entry
            self._by_leading[(asid, vpn)] = ppn
            return entry
        if (entry.leading_asid, entry.leading_vpn) != (asid, vpn):
            self.synonym_accesses += 1
            if self.fault_on_rw_synonym and (is_write or entry.written):
                raise ReadWriteSynonymFault(ppn, entry.leading_vpn, vpn)
        if is_write:
            entry.written = True
        return entry

    def note_write(self, asid: int, vpn: int, ppn: int) -> None:
        """A write-through to ``ppn`` passed by; mark tracked pages written.

        Writes to untracked pages are harmless (no stale data can be in
        the L1s) and do not allocate an entry — write-through L1s never
        hold a dirty copy.
        """
        entry = self._by_ppn.get(ppn)
        if entry is None:
            return
        if (entry.leading_asid, entry.leading_vpn) != (asid, vpn):
            self.synonym_accesses += 1
            if self.fault_on_rw_synonym:
                raise ReadWriteSynonymFault(ppn, entry.leading_vpn, vpn)
        entry.written = True

    def on_fill(self, ppn: int) -> None:
        entry = self._by_ppn.get(ppn)
        if entry is not None:
            entry.resident_lines += 1

    def on_evict(self, ppn: int) -> None:
        entry = self._by_ppn.get(ppn)
        if entry is None:
            return
        entry.resident_lines -= 1
        if entry.resident_lines <= 0:
            del self._by_ppn[ppn]
            self._by_leading.pop((entry.leading_asid, entry.leading_vpn), None)

    def leading_of(self, ppn: int) -> Optional[Tuple[int, int]]:
        entry = self._by_ppn.get(ppn)
        if entry is None:
            return None
        return entry.leading_asid, entry.leading_vpn

    def ppn_of_leading(self, asid: int, vpn: int) -> Optional[int]:
        """Reverse index: the PPN led by ``(asid, vpn)``, if tracked."""
        return self._by_leading.get((asid, vpn))

    def entries(self) -> List[ASDTEntry]:
        """Stat-free snapshot of the live entries, for invariant audits."""
        return list(self._by_ppn.values())

    def clear(self) -> None:
        """Drop all tracking (after a full L1 flush)."""
        self._by_ppn.clear()
        self._by_leading.clear()


class L1OnlyVirtualHierarchy:
    """Virtual L1s over a physical L2, with per-CU TLBs on L1 misses."""

    def __init__(
        self,
        config: SoCConfig,
        page_tables: Dict[int, PageTable],
        fault_on_rw_synonym: bool = True,
        obs=None,
    ) -> None:
        self.config = config
        self._counters = Counters()
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        # Windowed time series (obs.metrics.timeline); None unless the
        # caller enabled a timeline before building the hierarchy.
        self._timeline = obs.metrics.timeline if obs is not None else None
        self._lpp = lines_per_page(config.line_size)
        # Deferred hot-path event counts (flushed via the ``counters``
        # property; only nonzero counts materialize, matching the
        # key-presence semantics of per-event ``Counters.add``).
        self._n_accesses = 0
        self._n_l1_hits = 0
        self._n_synonym_replays = 0
        self._n_tlb_accesses = 0
        self._n_tlb_misses = 0
        self._n_l2_hits = 0
        self._n_l2_writebacks = 0
        self.l1s: List[Cache] = [
            Cache(config.l1, name=f"cu{i}-vl1") for i in range(config.n_cus)
        ]
        self.per_cu_tlbs: List[TLB] = [
            TLB(capacity=config.per_cu_tlb_entries, name=f"cu{i}-tlb")
            for i in range(config.n_cus)
        ]
        self.l2 = Cache(config.l2, name="l2-physical")
        self.l2_banks = BankedServer(config.l2.n_banks)
        self.dram = DRAM(
            latency_cycles=config.dram_latency,
            bandwidth_gbps=config.dram_bandwidth_gbps,
            frequency_ghz=config.frequency_ghz,
            line_size=config.line_size,
        )
        self.iommu = IOMMU(config.iommu, page_tables,
                           frequency_ghz=config.frequency_ghz, obs=obs)
        self.asdt = ASDT(fault_on_rw_synonym=fault_on_rw_synonym)
        if obs is not None:
            self.l2_banks.attach_delay_histogram(
                obs.metrics.histogram("l2.bank_queue_delay"))
        # The closure-compiled access path is this hierarchy's only one,
        # instrumented or not: ``access(cu_id, request, now, asid=0)``
        # returns the request's completion time (see fastpath).
        from repro.system.fastpath import compile_l1only_access

        self.access = compile_l1only_access(self)

    # -- counters ---------------------------------------------------------
    @property
    def counters(self) -> Counters:
        """The hierarchy's counter bag, with pending hot-path deltas flushed."""
        self._flush_counters()
        return self._counters

    def _flush_counters(self) -> None:
        counters = self._counters
        if self._n_accesses:
            counters.add("vc.accesses", self._n_accesses)
            self._n_accesses = 0
        if self._n_l1_hits:
            counters.add("vc.l1_hits", self._n_l1_hits)
            self._n_l1_hits = 0
        if self._n_synonym_replays:
            counters.add("vc.synonym_replays", self._n_synonym_replays)
            self._n_synonym_replays = 0
        if self._n_tlb_accesses:
            counters.add("tlb.accesses", self._n_tlb_accesses)
            self._n_tlb_accesses = 0
        if self._n_tlb_misses:
            counters.add("tlb.misses", self._n_tlb_misses)
            self._n_tlb_misses = 0
        if self._n_l2_hits:
            counters.add("l2.hits", self._n_l2_hits)
            self._n_l2_hits = 0
        if self._n_l2_writebacks:
            counters.add("l2.writebacks", self._n_l2_writebacks)
            self._n_l2_writebacks = 0

    # -- software-visible operations ----------------------------------------
    def shootdown(self, asid: int, vpn: int, now: float = 0.0) -> bool:
        """Single-entry TLB shootdown: drop the translation and L1 data.

        Only leading pages have data in the (virtual) L1s; shooting down
        a non-leading synonym page needs just the TLB invalidations —
        the data remains valid under its unchanged leading mapping.
        Returns True when cached data had to be invalidated.
        """
        key = (asid << _ASID_SHIFT) | vpn
        for tlb in self.per_cu_tlbs:
            tlb.invalidate(key, now)
        self.iommu.invalidate(vpn, asid)
        ppn = self.asdt.ppn_of_leading(asid, vpn)
        if ppn is None:
            return False
        pkey = page_key(asid, vpn)
        dropped = False
        for l1 in self.l1s:
            for _line in l1.invalidate_page(pkey):
                self.asdt.on_evict(ppn)
                dropped = True
        return dropped

    def shootdown_all(self, now: float = 0.0) -> int:
        """All-entry shootdown: flush every translation and virtual L1."""
        for tlb in self.per_cu_tlbs:
            tlb.invalidate_all(now)
        self.iommu.invalidate_all()
        flushed = len(self.asdt)
        for l1 in self.l1s:
            l1.invalidate_all()
        self.asdt.clear()
        return flushed

    def finish(self, now: float) -> None:
        """End-of-run hook: flush deferred counters into the bag."""
        self._flush_counters()
