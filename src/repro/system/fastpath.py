"""Closure-compiled access paths for the memory hierarchies.

The simulate loop spends nearly all of its time inside
``hierarchy.access``; at the default scales that is hundreds of
thousands of Python-level attribute walks (``self.config.interconnect
.l1_to_l2`` and friends), method dispatches, and short-lived
:class:`~repro.memsys.cache.CacheLine` allocations.  This module
*compiles* each hierarchy's access path once at construction time into
a closure whose free variables are the hot structures themselves — the
per-CU TLB list, the raw cache sets, the L2 bank servers, the DRAM
link's bound ``request`` — and whose latencies are plain local floats.
There are three access closures, one per hierarchy kind, plus the
full virtual hierarchy's L1/L2 fills (:func:`compile_virtual_fills`),
and all of them share one DRAM-transfer closure
(:func:`_compile_dram_line`).

Three rules keep each compiled path bit-identical to the structures it
inlines (``tests/golden_hotpath.json`` pins every counter *and* the
cycle count; ``tests/golden_obs.json`` pins every trace event,
histogram and timeline series of instrumented runs):

* counters are attributed in exactly the same order and on exactly the
  same events as the structures' own methods;
* LRU state is touched identically (probe → ``move_to_end`` on hit,
  ``popitem(last=False)`` on eviction);
* evicted victim lines are *recycled* in place of allocating a fresh
  ``CacheLine`` — same field values, same dict ordering, one object
  allocation less per fill.

Each closure is its hierarchy's *only* access path: every build,
instrumented or not, installs it as ``access``.  Instrumentation is
decided once, at build time: the tracer, the timeline, the lifetime
trackers and the L2-bank delay histogram are captured as free variables
that are ``None`` when absent, so an uninstrumented build pays one
``is None`` test per hook site and an instrumented build runs the same
code with the hooks taken.  The IOMMU's histograms are recorded inline
too; an IOMMU with a timeline, an enabled tracer or shared-TLB lifetimes
keeps its ``translate_parts`` method, which carries those hooks.
"""

from __future__ import annotations

from repro.core.fbt import AccessCheck, ReadWriteSynonymFault
from repro.memsys.addressing import large_page_base_vpn
from repro.memsys.cache import CacheLine
from repro.memsys.permissions import PageFault, PermissionFault, Permissions

__all__ = [
    "compile_l1only_access",
    "compile_physical_access",
    "compile_virtual_access",
    "compile_virtual_fills",
]

_RW = Permissions.READ_WRITE


def _compile_dram_line(dram):
    """Build the one-line DRAM transfer shared by every access closure.

    The closure is ``DRAM.access_line`` → ``BandwidthLink.request``
    inlined, with the link's constants captured as locals.
    """
    link = dram._link
    line_size = dram.line_size
    link_wc = link.WINDOW_CYCLES
    link_bpc = link.bytes_per_cycle
    link_inf = link_bpc == float("inf")
    link_latency = link.latency
    link_transfer = 0.0 if link_inf else line_size / link_bpc
    link_cap = float("inf") if link_inf else link_wc * link_bpc

    def dram_line(now):
        link.total_requests += 1
        link.total_bytes += line_size
        if link_inf:
            return now + link_latency
        w = int(now // link_wc)
        if w > link._window_index:
            link._window_index = w
            wbytes = 0.0 + line_size
        else:
            wbytes = link._window_bytes + line_size
        link._window_bytes = wbytes
        overflow = wbytes - link_cap
        if overflow > 0:
            delay = overflow / link_bpc
            link.total_queue_delay += delay
            return now + delay + link_transfer + link_latency
        return now + link_transfer + link_latency

    return dram_line


def compile_physical_access(h):
    """Build the ``access`` closure for a :class:`PhysicalHierarchy`.

    This is the hierarchy's only access path: it is installed on every
    build, so instrumentation is decided here, once.  The timeline and
    tracer hooks, the three lifetime trackers (``track_lifetimes``) and
    the ``l2.bank_queue_delay`` histogram are captured ``None`` checks,
    and an IOMMU with a timeline or an enabled tracer keeps
    ``translate_parts``.
    """
    cfg = h.config
    per_cu_tlbs = h.per_cu_tlbs
    l1s = h.l1s
    l1_set_mask = l1s[0]._set_mask if l1s else 0
    l1_ways = cfg.l1.associativity
    l2 = h.l2
    l2_sets = l2._sets
    l2_set_mask = l2._set_mask
    l2_ways = cfg.l2.associativity
    banks = h.l2_banks.banks
    # ``%`` equals the bank mask for power-of-two bank counts, and is
    # ``Cache.bank_of``'s own fallback for the rest.
    n_banks = len(banks)
    lpp = h._lpp
    tlb_latency = cfg.per_cu_tlb_latency
    l1_latency = cfg.l1_latency
    l2_latency = cfg.l2_latency
    l1_to_l2 = cfg.interconnect.l1_to_l2
    gpu_to_iommu = cfg.interconnect.gpu_to_iommu
    iommu_to_gpu = cfg.interconnect.iommu_to_gpu
    ideal = h.ideal
    page_tables = h.page_tables
    timeline = h._timeline
    tracer = h._tracer
    if tracer is not None and not tracer.enabled:
        tracer = None
    tlb_life = l1_life = l2_life = None
    if h.lifetimes is not None:
        tlb_life = h.lifetimes["tlb"]
        l1_life = h.lifetimes["l1"]
        l2_life = h.lifetimes["l2"]
    # IOMMU constants for the inlined ``translate_parts`` prologue +
    # shared-TLB probe (the shared-TLB-miss tail keeps the
    # ``_translate_miss_parts`` method).  The IOMMU's histograms are
    # recorded inline; a timeline, an enabled tracer or shared-TLB
    # lifetimes keep the full method, which carries those hooks.
    iommu = h.iommu
    iommu_translate_parts = iommu.translate_parts
    stlb = iommu.shared_tlb
    iommu_inline = (iommu._timeline is None
                    and (iommu._tracer is None or not iommu._tracer.enabled)
                    and stlb.lifetimes is None)
    queue_hist = iommu._queue_hist
    translate_hist = iommu._translate_hist
    sampler = iommu.access_sampler
    sampler_ic = sampler.interval_cycles
    scounts = sampler._window_counts
    stlb_entries = stlb._entries
    iommu_unlimited = iommu.unlimited_bandwidth
    port_banks = iommu._port_banks
    n_port_banks = iommu._n_port_banks
    bank_low = iommu._bank_select_low
    port_request = iommu.port.request
    iommu_tlb_latency = iommu._tlb_latency
    iommu_translate_miss = iommu._translate_miss_parts
    # Windowed-server accounting constants for the inlined bank request
    # (all banks share one rate and, when attached, one histogram).
    window_cycles = banks[0].WINDOW_CYCLES
    l2_rate = banks[0].rate
    l2_cap = window_cycles * l2_rate
    bank_hist = banks[0].delay_histogram
    dram_line = _compile_dram_line(h.dram)

    def access(cu_id, request, now, asid=0):
        vpn = request.vpn
        is_write = request.is_write
        line_index = request.line_addr % lpp
        if timeline is not None:
            timeline.record("tlb.probes", now)
        tlb = per_cu_tlbs[cu_id]
        key = (asid << 52) | vpn
        if key == tlb._memo_key:
            entry = tlb._memo_entry
            tlb.hits += 1
        else:
            entries = tlb._entries
            entry = entries.get(key)
            if entry is not None:
                entries.move_to_end(key)
                tlb.hits += 1
                tlb._memo_key = key
                tlb._memo_entry = entry
        ready = now + tlb_latency
        if entry is not None:
            if tlb_life is not None:
                tlb_life.on_access((cu_id, key), now)
            if tracer is not None:
                tracer.emit("tlb.hit", ready, cu=cu_id, vpn=vpn)
            permissions = entry.permissions
            if not permissions._value_ & (2 if is_write else 1):
                raise PermissionFault(vpn, is_write, permissions)
            physical_line = entry.ppn * lpp + line_index
        else:
            tlb.misses += 1
            h._n_tlb_misses += 1
            if timeline is not None:
                timeline.record("tlb.misses", ready)
            if tracer is not None:
                tracer.emit("tlb.miss", ready, cu=cu_id, vpn=vpn)
            if ideal:
                # Instant fill from the page table: translation is free.
                mapping = page_tables[asid].lookup(vpn)
                if mapping is None:
                    raise PageFault(vpn, asid)
                ppn, permissions = mapping
            else:
                t_iommu = ready + gpu_to_iommu
                if iommu_inline:
                    # Inlined ``IOMMU.translate_parts`` prologue +
                    # shared-TLB probe; the per-CU TLB key doubles as
                    # the shared-TLB key (both are ``asid<<52 | vpn``).
                    window = int(t_iommu // sampler_ic)
                    scounts[window] = scounts.get(window, 0) + 1
                    if window > sampler._max_window:
                        sampler._max_window = window
                    iommu._n_accesses += 1
                    iommu._ever_translated = True
                    if iommu_unlimited:
                        service_start = t_iommu
                    elif port_banks is not None:
                        if bank_low:
                            service_start = port_banks[
                                vpn % n_port_banks].request(t_iommu)
                        else:
                            service_start = port_banks[
                                (vpn >> 9) % n_port_banks].request(t_iommu)
                    else:
                        service_start = port_request(t_iommu)
                    iommu.queue_cycles += service_start - t_iommu
                    if queue_hist is not None:
                        queue_hist.record(service_start - t_iommu)
                    t_tr = service_start + iommu_tlb_latency
                    if key == stlb._memo_key:
                        stlb.hits += 1
                        sentry = stlb._memo_entry
                    else:
                        sentry = stlb_entries.get(key)
                        if sentry is None:
                            stlb.misses += 1
                        else:
                            stlb_entries.move_to_end(key)
                            stlb.hits += 1
                            stlb._memo_key = key
                            stlb._memo_entry = sentry
                    if sentry is not None:
                        iommu._n_tlb_hits += 1
                        if translate_hist is not None:
                            translate_hist.record(t_tr - t_iommu)
                        ppn = sentry.ppn
                        permissions = sentry.permissions
                        finish = t_tr
                    else:
                        ppn, permissions, finish, _, _, _, _ = (
                            iommu_translate_miss(key, vpn, t_tr, t_iommu,
                                                 asid))
                else:
                    ppn, permissions, finish, _, _, _, _ = (
                        iommu_translate_parts(vpn, t_iommu, asid))
                ready = finish + iommu_to_gpu
            victim = tlb.insert(key, ppn, permissions, ready)
            if tlb_life is not None:
                if victim is not None:
                    tlb_life.on_evict((cu_id, victim.vpn), ready)
                tlb_life.on_insert((cu_id, key), ready)
            if not permissions._value_ & (2 if is_write else 1):
                raise PermissionFault(vpn, is_write, permissions)
            physical_line = ppn * lpp + line_index
            # Figure 2 breakdown: where would a VC have found the data?
            if physical_line in l1s[cu_id]._sets[physical_line & l1_set_mask]:
                h._n_miss_l1_hit += 1
            elif physical_line in l2_sets[physical_line & l2_set_mask]:
                h._n_miss_l2_hit += 1
            else:
                h._n_miss_l2_miss += 1

        # Write-through, no-allocate L1: a write updates the line on a
        # hit and, like every read miss, continues to the L2.
        l1 = l1s[cu_id]
        l1_set = l1._sets[physical_line & l1_set_mask]
        if physical_line in l1_set:
            l1_set.move_to_end(physical_line)
            l1.hits += 1
            if not is_write:
                if l1_life is not None:
                    l1_life.on_access((cu_id, physical_line), ready)
                return ready + l1_latency
        else:
            l1.misses += 1

        # The banked L2: a store occupies the CU window until it lands
        # there; a read continues to DRAM on a miss.  Inlined
        # ``WindowedServer.request`` (see resources.py).
        server = banks[physical_line % n_banks]
        start = ready + l1_latency + l1_to_l2
        server.total_requests += 1
        w = int(start // window_cycles)
        wi = server._window_index
        if w > wi:
            server._window_index = w
            count = 1.0
            server._window_count = count
        else:
            if w < wi:
                start = wi * window_cycles
            count = server._window_count + 1.0
            server._window_count = count
        overflow = count - l2_cap
        if overflow > 0.0:
            delay = overflow / l2_rate
            server.total_queue_delay += delay
            start += delay
            if bank_hist is not None:
                bank_hist.record(delay)
        elif bank_hist is not None:
            bank_hist.record(0.0)
        t_mem = start + l2_latency
        l2_set = l2_sets[physical_line & l2_set_mask]
        l2_line = l2_set.get(physical_line)
        if l2_line is not None:
            l2_set.move_to_end(physical_line)
            l2.hits += 1
            if is_write:
                l2_line.dirty = True
                if l2_life is not None:
                    l2_life.on_access(physical_line, start)
                return t_mem
            if l2_life is not None:
                l2_life.on_access(physical_line, t_mem)
        else:
            l2.misses += 1
            # Reads fetch the line; a store is a full-line write that
            # allocates in the write-back L2 with no memory fetch.
            if not is_write:
                t_mem = dram_line(t_mem)
            if len(l2_set) >= l2_ways:
                _, victim = l2_set.popitem(last=False)
                if victim.dirty:
                    dram_line(t_mem)  # write-back traffic
                    h._n_l2_writebacks += 1
                if l2_life is not None:
                    l2_life.on_evict(victim.line_addr, t_mem)
                if victim.page is not None:
                    l2._forget_page_line(victim)
                    victim.page = None
                victim.line_addr = physical_line
                victim.dirty = is_write
                victim.permissions = _RW
                l2_set[physical_line] = victim
            else:
                l2_set[physical_line] = CacheLine(physical_line, is_write)
                l2._n_resident += 1
            if l2_life is not None:
                l2_life.on_insert(physical_line, t_mem)
            if is_write:
                return t_mem
        # Fill the L1 (the line cannot already be resident: it missed).
        if len(l1_set) >= l1_ways:
            _, victim = l1_set.popitem(last=False)
            if l1_life is not None:
                l1_life.on_evict((cu_id, victim.line_addr), t_mem)
            victim.line_addr = physical_line
            victim.dirty = False
            victim.permissions = _RW
            l1_set[physical_line] = victim
        else:
            l1_set[physical_line] = CacheLine(physical_line)
            l1._n_resident += 1
        if l1_life is not None:
            l1_life.on_insert((cu_id, physical_line), t_mem)
        return t_mem + l1_to_l2

    return access


def compile_virtual_fills(h):
    """Build the L1 and L2 fills of a :class:`VirtualCacheHierarchy`.

    Returns ``(fill_l1, fill_l2)``.  The hierarchy installs them as
    ``_fill_l1``/``_fill_l2``, so the access closure and the rare
    bail-out methods (``_miss_path``, ``_synonym_replay``) share one
    implementation.  Both inline ``Cache.insert`` and *recycle* the
    evicted victim line in place of allocating a fresh ``CacheLine``.
    """
    l1s = h.l1s
    l1_set_mask = l1s[0]._set_mask if l1s else 0
    l1_ways = l1s[0]._associativity if l1s else 0
    l2 = h.l2
    l2_sets = l2._sets
    l2_set_mask = l2._set_mask
    l2_ways = l2._associativity
    lpp = h._lpp
    filters = h.filters
    pkey_mask = (1 << 52) - 1
    fbt = h.fbt
    fbt_note_l2_eviction = fbt.note_l2_eviction
    fbt_note_l2_fill = fbt.note_l2_fill
    bt_sets = fbt.bt._sets
    bt_set_mask = fbt.bt.n_sets - 1
    dram_line = _compile_dram_line(h.dram)

    def fill_l1(cu_id, asid, vpn, key, permissions):
        l1 = l1s[cu_id]
        cache_set = l1._sets[key & l1_set_mask]
        pkey = (asid << 52) | vpn
        # ``InvalidationFilter.on_fill``/``on_evict`` inlined: one dict
        # upsert per L1 fill, one decrement per page-carrying eviction.
        fcounts = filters[cu_id]._counts
        fkey = (asid, vpn)
        existing = cache_set.get(key)
        if existing is not None:
            # A synonym replay can refill a leading line that is already
            # resident (the original probe used the synonym key).
            existing.permissions = permissions
            cache_set.move_to_end(key)
            fcounts[fkey] = fcounts.get(fkey, 0) + 1
            return
        if len(cache_set) >= l1_ways:
            _, victim = cache_set.popitem(last=False)
            victim_page = victim.page
            if victim_page is not None:
                l1._forget_page_line(victim)
                ekey = (victim_page >> 52, victim_page & pkey_mask)
                count = fcounts.get(ekey, 0)
                if count <= 1:
                    fcounts.pop(ekey, None)
                else:
                    fcounts[ekey] = count - 1
            victim.line_addr = key
            victim.dirty = False
            victim.permissions = permissions
            victim.page = pkey
            cache_set[key] = victim
        else:
            cache_set[key] = CacheLine(key, False, permissions, pkey)
            l1._n_resident += 1
        page_lines = l1._page_lines
        page_lines[pkey] = page_lines.get(pkey, 0) + 1
        fcounts[fkey] = fcounts.get(fkey, 0) + 1

    def fill_l2(asid, vpn, line_index, ppn, dirty, permissions, now):
        key = (asid << 52) | (vpn * lpp + line_index)
        pkey = (asid << 52) | vpn
        cache_set = l2_sets[key & l2_set_mask]
        existing = cache_set.get(key)
        if existing is not None:
            # Refill of a resident line: refresh LRU, merge the dirty
            # bit (write-back cache), no victim.
            existing.dirty = existing.dirty or dirty
            existing.permissions = permissions
            cache_set.move_to_end(key)
        else:
            if len(cache_set) >= l2_ways:
                _, victim = cache_set.popitem(last=False)
                if victim.dirty:
                    dram_line(now)  # write-back traffic
                    h._n_l2_writebacks += 1
                victim_page = victim.page
                if victim_page is not None:
                    l2._forget_page_line(victim)
                    fbt_note_l2_eviction(victim_page >> 52,
                                         victim_page & pkey_mask,
                                         victim.line_addr % lpp)
                victim.line_addr = key
                victim.dirty = dirty
                victim.permissions = permissions
                victim.page = pkey
                cache_set[key] = victim
            else:
                cache_set[key] = CacheLine(key, dirty, permissions, pkey)
                l2._n_resident += 1
            page_lines = l2._page_lines
            page_lines[pkey] = page_lines.get(pkey, 0) + 1
        # Inlined ``FBT.note_l2_fill`` (stat-free BT peek + bit set);
        # the rare counter-tracked / missing-entry cases keep the
        # method, which owns the counter-base fallback and the
        # inclusion-broken error.
        entry = bt_sets[ppn & bt_set_mask].get(ppn)
        if entry is not None and entry.tracking == "bitvector":
            bit = 1 << line_index
            if not entry.line_bits & bit:
                entry.line_bits = entry.line_bits | bit
                entry.line_count += 1
        else:
            fbt_note_l2_fill(ppn, line_index)

    return fill_l1, fill_l2


def compile_virtual_access(h):
    """Build the ``access`` closure for a :class:`VirtualCacheHierarchy`.

    This is the hierarchy's only access path: it is installed on every
    build, so instrumentation is decided here, once.  The timeline and
    tracer hooks and the ``l2.bank_queue_delay`` histogram are captured
    ``None`` checks, and an IOMMU with a timeline or an enabled tracer
    keeps ``translate_parts``.  The whole-hierarchy miss spine is
    inlined; synonym replays, invalidations and the non-inclusive
    write-allocate bail out to the hierarchy's methods, which own that
    logic.
    """
    l2 = h.l2
    l1s = h.l1s
    l1_set_mask = l1s[0]._set_mask if l1s else 0
    l2_sets = l2._sets
    l2_set_mask = l2._set_mask
    banks = h.l2_banks.banks
    # ``%`` equals the bank mask for power-of-two bank counts, and is
    # ``Cache.bank_of``'s own fallback for the rest.
    n_banks = len(banks)
    lpp = h._lpp
    l1_latency = h._l1_latency
    l2_latency = h._l2_latency
    l1_to_l2 = h._l1_to_l2
    srts = h.srts
    miss_path = h._miss_path
    fill_l1 = h._fill_l1
    fill_l2 = h._fill_l2
    execute_invalidation = h._execute_invalidation
    synonym_replay = h._synonym_replay
    interconnect = h.config.interconnect
    gpu_to_iommu = interconnect.gpu_to_iommu
    l2_to_fbt = interconnect.l2_to_fbt
    fbt_lookup = interconnect.fbt_lookup
    timeline = h._timeline
    tracer = h._tracer
    if tracer is not None and not tracer.enabled:
        tracer = None
    # FBT consultation constants for the inlined base-page
    # ``check_access`` (large pages under the counter policy keep the
    # method, which owns that logic).
    fbt = h.fbt
    fbt_check_access = fbt.check_access
    bt = fbt.bt
    bt_sets = bt._sets
    bt_set_mask = bt.n_sets - 1
    counter_policy = fbt.large_page_policy == fbt.COUNTER_POLICY
    fbt_allocate = fbt._allocate
    fault_on_rw = fbt.fault_on_rw_synonym
    fbt_counters = fbt.counters
    ft = fbt.ft
    ft_index = ft._index
    ft_lookup = ft.lookup
    # IOMMU constants for the inlined ``translate_parts`` prologue +
    # shared-TLB probe (the shared-TLB-miss tail keeps the
    # ``_translate_miss_parts`` method).  The IOMMU's histograms are
    # recorded inline; a timeline, an enabled tracer or shared-TLB
    # lifetimes keep the full method, which carries those hooks.
    iommu = h.iommu
    iommu_translate_parts = iommu.translate_parts
    stlb = iommu.shared_tlb
    iommu_inline = (iommu._timeline is None
                    and (iommu._tracer is None or not iommu._tracer.enabled)
                    and stlb.lifetimes is None)
    queue_hist = iommu._queue_hist
    translate_hist = iommu._translate_hist
    sampler = iommu.access_sampler
    sampler_ic = sampler.interval_cycles
    scounts = sampler._window_counts
    stlb_entries = stlb._entries
    iommu_unlimited = iommu.unlimited_bandwidth
    port_banks = iommu._port_banks
    n_port_banks = iommu._n_port_banks
    bank_low = iommu._bank_select_low
    port_request = iommu.port.request
    iommu_tlb_latency = iommu._tlb_latency
    iommu_translate_miss = iommu._translate_miss_parts
    # Windowed-server accounting constants for the inlined bank request
    # (all banks share one rate and, when attached, one histogram).
    window_cycles = banks[0].WINDOW_CYCLES
    l2_rate = banks[0].rate
    l2_cap = window_cycles * l2_rate
    bank_hist = banks[0].delay_histogram
    dram_line = _compile_dram_line(h.dram)

    def access(cu_id, request, now, asid=0):
        vline = request.line_addr
        vpn = request.vpn
        line_index = vline % lpp
        is_write = request.is_write
        if timeline is not None:
            timeline.record("vc.accesses", now)
        if srts is not None:
            # Dynamic synonym remapping: redirect known synonym pages to
            # their leading address before the L1 lookup.  Inlined
            # ``SynonymRemapTable.lookup`` (dict probe + LRU refresh).
            srt = srts[cu_id]
            skey = (asid, vpn)
            remap = srt._entries.get(skey)
            if remap is None:
                srt.misses += 1
            else:
                srt._entries.move_to_end(skey)
                srt.hits += 1
                asid, vpn = remap
                vline = vpn * lpp + line_index
                h._n_srt_remaps += 1
        key = (asid << 52) | vline
        l1 = l1s[cu_id]
        l1_set = l1._sets[key & l1_set_mask]
        line = l1_set.get(key)
        if line is not None:
            l1_set.move_to_end(key)
            l1.hits += 1
            if not line.permissions._value_ & (2 if is_write else 1):
                raise PermissionFault(vpn, is_write, line.permissions)
            h._n_l1_hits += 1
            if timeline is not None:
                timeline.record("vc.l1_hits", now)
            if tracer is not None:
                tracer.emit("vc.l1_hit", now, cu=cu_id, vpn=vpn)
            if not is_write:
                return now + l1_latency
            # Write-through: the write still flows to the L2 and the
            # store occupies the CU window until it lands there.
        else:
            l1.misses += 1

        # The banked virtual L2, for L1 misses and write-throughs alike.
        # Inlined ``WindowedServer.request`` (see resources.py).
        server = banks[key % n_banks]
        start = now + l1_latency + l1_to_l2
        server.total_requests += 1
        w = int(start // window_cycles)
        wi = server._window_index
        if w > wi:
            server._window_index = w
            count = 1.0
            server._window_count = count
        else:
            if w < wi:
                start = wi * window_cycles
            count = server._window_count + 1.0
            server._window_count = count
        overflow = count - l2_cap
        if overflow > 0.0:
            delay = overflow / l2_rate
            server.total_queue_delay += delay
            start += delay
            if bank_hist is not None:
                bank_hist.record(delay)
        elif bank_hist is not None:
            bank_hist.record(0.0)
        t_hit = start + l2_latency
        l2_set = l2_sets[key & l2_set_mask]
        l2_line = l2_set.get(key)
        if l2_line is not None:
            l2_set.move_to_end(key)
            l2.hits += 1
            if line is None:
                if not l2_line.permissions._value_ & (2 if is_write else 1):
                    raise PermissionFault(vpn, is_write, l2_line.permissions)
                h._n_l2_hits += 1
                if timeline is not None:
                    timeline.record("vc.l2_hits", t_hit)
                if tracer is not None:
                    tracer.emit("vc.l2_hit", t_hit, cu=cu_id, vpn=vpn)
            if is_write:
                l2_line.dirty = True
                # Inlined ``FBT.note_write`` (first FT probe; the
                # counter-policy base-page fallback keeps the counted
                # ``ForwardTable.lookup`` method).
                ft.lookups += 1
                fentry = ft_index.get((asid, vpn))
                if fentry is not None:
                    ft.hits += 1
                    fentry.written = True
                elif counter_policy:
                    fentry = ft_lookup(asid, large_page_base_vpn(vpn))
                    if fentry is not None:
                        fentry.written = True
                return t_hit
            fill_l1(cu_id, asid, vpn, key, l2_line.permissions)
            return t_hit + l1_to_l2
        l2.misses += 1
        if line is not None:
            # Non-inclusive hierarchy: L1 write hit, L2 miss — allocate
            # in the write-back L2 via the translated miss path.
            return miss_path(cu_id, asid, vpn, line_index, t_hit)

        # Whole-hierarchy miss → translation is finally needed.  The
        # common (leading-page, no-invalidation) miss spine is inlined
        # here; synonym replays and shootdowns bail out to the methods,
        # which own that logic.
        h._n_l2_misses += 1
        if timeline is not None:
            timeline.record("vc.l2_misses", t_hit)
        if tracer is not None:
            tracer.emit("vc.miss", t_hit, cu=cu_id, vpn=vpn)
        t_iommu = t_hit + gpu_to_iommu
        if iommu_inline:
            # Inlined ``IOMMU.translate_parts`` prologue + shared-TLB
            # probe.
            window = int(t_iommu // sampler_ic)
            scounts[window] = scounts.get(window, 0) + 1
            if window > sampler._max_window:
                sampler._max_window = window
            iommu._n_accesses += 1
            iommu._ever_translated = True
            if iommu_unlimited:
                service_start = t_iommu
            elif port_banks is not None:
                if bank_low:
                    service_start = port_banks[
                        vpn % n_port_banks].request(t_iommu)
                else:
                    service_start = port_banks[
                        (vpn >> 9) % n_port_banks].request(t_iommu)
            else:
                service_start = port_request(t_iommu)
            iommu.queue_cycles += service_start - t_iommu
            if queue_hist is not None:
                queue_hist.record(service_start - t_iommu)
            t_tr = service_start + iommu_tlb_latency
            tkey = (asid << 52) | vpn
            if tkey == stlb._memo_key:
                stlb.hits += 1
                sentry = stlb._memo_entry
            else:
                sentry = stlb_entries.get(tkey)
                if sentry is None:
                    stlb.misses += 1
                else:
                    stlb_entries.move_to_end(tkey)
                    stlb.hits += 1
                    stlb._memo_key = tkey
                    stlb._memo_entry = sentry
            if sentry is not None:
                iommu._n_tlb_hits += 1
                if translate_hist is not None:
                    translate_hist.record(t_tr - t_iommu)
                ppn = sentry.ppn
                permissions = sentry.permissions
                finish = t_tr
                is_large = sentry.is_large
                lb_vpn = sentry.large_base_vpn
                lb_ppn = sentry.large_base_ppn
            else:
                ppn, permissions, finish, _, is_large, lb_vpn, lb_ppn = (
                    iommu_translate_miss(tkey, vpn, t_tr, t_iommu, asid))
        else:
            ppn, permissions, finish, _, is_large, lb_vpn, lb_ppn = (
                iommu_translate_parts(vpn, t_iommu, asid))
        if not permissions._value_ & (2 if is_write else 1):
            raise PermissionFault(vpn, is_write, permissions)
        t_fbt = finish + l2_to_fbt + fbt_lookup
        if timeline is not None:
            timeline.record("fbt.lookups", t_fbt)
        if is_large and counter_policy:
            check = fbt_check_access(
                asid, vpn, ppn, permissions, line_index, is_write,
                is_large=True, large_base_vpn=lb_vpn, large_base_ppn=lb_ppn,
            )
        else:
            # Inlined base-page ``FBT.check_access``: BT probe, then the
            # leading case completes here — no AccessCheck object, no
            # invalidations — while allocation/synonym build one.
            bt_set = bt_sets[ppn & bt_set_mask]
            entry = bt_set.get(ppn)
            bt.lookups += 1
            if entry is None:
                check = fbt_allocate(asid, vpn, ppn, permissions, is_write)
            else:
                bt_set.move_to_end(ppn)
                bt.hits += 1
                if entry.leading_asid == asid and entry.leading_vpn == vpn:
                    if is_write:
                        entry.written = True
                        # Full-line store: allocate in the write-back
                        # L2, no fetch.
                        fill_l2(asid, vpn, line_index, ppn, True,
                                permissions, t_fbt)
                        return t_fbt + l1_to_l2
                    t_mem = dram_line(t_fbt)
                    fill_l2(asid, vpn, line_index, ppn, False, permissions,
                            t_mem)
                    fill_l1(cu_id, asid, vpn, key, permissions)
                    return t_mem + l1_to_l2
                # Synonym: mirror ``check_access``'s synonym arm.
                fbt_counters.add("fbt.synonym_accesses")
                if fault_on_rw and (is_write or entry.written):
                    fbt_counters.add("fbt.rw_synonym_faults")
                    raise ReadWriteSynonymFault(ppn, entry.leading_vpn, vpn)
                if is_write:
                    entry.written = True
                check = AccessCheck(
                    status="synonym", entry=entry,
                    leading_asid=entry.leading_asid,
                    leading_vpn=entry.leading_vpn,
                    replay_hits_l2=entry.line_cached(line_index),
                )
        if check.invalidations or check.status == "synonym":
            for order in check.invalidations:
                execute_invalidation(order, t_fbt)
            if check.status == "synonym":
                return synonym_replay(cu_id, asid, vpn, check, ppn,
                                      line_index, is_write, t_fbt)
        if is_write:
            # Full-line store: allocate in the write-back L2, no fetch.
            fill_l2(asid, vpn, line_index, ppn, True, permissions, t_fbt)
            return t_fbt + l1_to_l2
        t_mem = dram_line(t_fbt)
        fill_l2(asid, vpn, line_index, ppn, False, permissions, t_mem)
        fill_l1(cu_id, asid, vpn, key, permissions)
        return t_mem + l1_to_l2

    return access


def compile_l1only_access(h):
    """Build the ``access`` closure for an :class:`L1OnlyVirtualHierarchy`.

    This is the hierarchy's only access path: it is installed on every
    build, so instrumentation is decided here, once.  The timeline and
    tracer hooks and the ``l2.bank_queue_delay`` histogram are captured
    ``None`` checks, and an IOMMU with a timeline or an enabled tracer
    keeps ``translate_parts``.  The four ASDT operations (``check``,
    ``note_write``, ``on_fill``, ``on_evict``) are inlined on the ASDT's
    own dicts.
    """
    from repro.core.l1_only import ASDTEntry

    cfg = h.config
    per_cu_tlbs = h.per_cu_tlbs
    l1s = h.l1s
    l1_set_mask = l1s[0]._set_mask if l1s else 0
    l1_ways = cfg.l1.associativity
    l2 = h.l2
    l2_sets = l2._sets
    l2_set_mask = l2._set_mask
    l2_ways = cfg.l2.associativity
    banks = h.l2_banks.banks
    # ``%`` equals the bank mask for power-of-two bank counts, and is
    # ``Cache.bank_of``'s own fallback for the rest.
    n_banks = len(banks)
    lpp = h._lpp
    pkey_mask = (1 << 52) - 1
    tlb_latency = cfg.per_cu_tlb_latency
    l1_latency = cfg.l1_latency
    l2_latency = cfg.l2_latency
    l1_to_l2 = cfg.interconnect.l1_to_l2
    gpu_to_iommu = cfg.interconnect.gpu_to_iommu
    iommu_to_gpu = cfg.interconnect.iommu_to_gpu
    asdt = h.asdt
    asdt_by_ppn = asdt._by_ppn
    asdt_by_leading = asdt._by_leading
    timeline = h._timeline
    tracer = h._tracer
    if tracer is not None and not tracer.enabled:
        tracer = None
    # IOMMU constants for the inlined ``translate_parts`` prologue +
    # shared-TLB probe (the shared-TLB-miss tail keeps the
    # ``_translate_miss_parts`` method).  The IOMMU's histograms are
    # recorded inline; a timeline, an enabled tracer or shared-TLB
    # lifetimes keep the full method, which carries those hooks.
    iommu = h.iommu
    iommu_translate_parts = iommu.translate_parts
    stlb = iommu.shared_tlb
    iommu_inline = (iommu._timeline is None
                    and (iommu._tracer is None or not iommu._tracer.enabled)
                    and stlb.lifetimes is None)
    queue_hist = iommu._queue_hist
    translate_hist = iommu._translate_hist
    sampler = iommu.access_sampler
    sampler_ic = sampler.interval_cycles
    scounts = sampler._window_counts
    stlb_entries = stlb._entries
    iommu_unlimited = iommu.unlimited_bandwidth
    port_banks = iommu._port_banks
    n_port_banks = iommu._n_port_banks
    bank_low = iommu._bank_select_low
    port_request = iommu.port.request
    iommu_tlb_latency = iommu._tlb_latency
    iommu_translate_miss = iommu._translate_miss_parts
    # Windowed-server accounting constants for the inlined bank request
    # (all banks share one rate and, when attached, one histogram).
    window_cycles = banks[0].WINDOW_CYCLES
    l2_rate = banks[0].rate
    l2_cap = window_cycles * l2_rate
    bank_hist = banks[0].delay_histogram
    dram_line = _compile_dram_line(h.dram)

    def access(cu_id, request, now, asid=0):
        vline = request.line_addr
        vpn = request.vpn
        is_write = request.is_write
        h._n_accesses += 1
        if timeline is not None:
            timeline.record("vc.accesses", now)
        key = (asid << 52) | vline
        l1 = l1s[cu_id]
        l1_set = l1._sets[key & l1_set_mask]
        line = l1_set.get(key)
        if line is not None:
            l1_set.move_to_end(key)
            l1.hits += 1
            if not is_write:
                if not line.permissions._value_ & 1:
                    raise PermissionFault(vpn, False, line.permissions)
                h._n_l1_hits += 1
                if timeline is not None:
                    timeline.record("vc.l1_hits", now)
                if tracer is not None:
                    tracer.emit("vc.l1_hit", now, cu=cu_id, vpn=vpn)
                return now + l1_latency
        else:
            l1.misses += 1

        # Everything else needs a physical address: L1 read misses and
        # all writes (write-through to the physical L2).  Per-CU TLB
        # first (no lifetime tracker: memo tag compare, then the probe).
        h._n_tlb_accesses += 1
        if timeline is not None:
            timeline.record("tlb.probes", now)
        tlb = per_cu_tlbs[cu_id]
        tkey = (asid << 52) | vpn
        t = now + tlb_latency
        if tkey == tlb._memo_key:
            entry = tlb._memo_entry
            tlb.hits += 1
        else:
            entries = tlb._entries
            entry = entries.get(tkey)
            if entry is not None:
                entries.move_to_end(tkey)
                tlb.hits += 1
                tlb._memo_key = tkey
                tlb._memo_entry = entry
        if entry is not None:
            if tracer is not None:
                tracer.emit("tlb.hit", t, cu=cu_id, vpn=vpn)
            ppn = entry.ppn
            permissions = entry.permissions
            ready = t
        else:
            tlb.misses += 1
            h._n_tlb_misses += 1
            if timeline is not None:
                timeline.record("tlb.misses", t)
            if tracer is not None:
                tracer.emit("tlb.miss", t, cu=cu_id, vpn=vpn)
            t_iommu = t + gpu_to_iommu
            if iommu_inline:
                # Inlined ``IOMMU.translate_parts`` prologue + shared-TLB
                # probe; the per-CU TLB key doubles as the shared-TLB key.
                window = int(t_iommu // sampler_ic)
                scounts[window] = scounts.get(window, 0) + 1
                if window > sampler._max_window:
                    sampler._max_window = window
                iommu._n_accesses += 1
                iommu._ever_translated = True
                if iommu_unlimited:
                    service_start = t_iommu
                elif port_banks is not None:
                    if bank_low:
                        service_start = port_banks[
                            vpn % n_port_banks].request(t_iommu)
                    else:
                        service_start = port_banks[
                            (vpn >> 9) % n_port_banks].request(t_iommu)
                else:
                    service_start = port_request(t_iommu)
                iommu.queue_cycles += service_start - t_iommu
                if queue_hist is not None:
                    queue_hist.record(service_start - t_iommu)
                t_tr = service_start + iommu_tlb_latency
                if tkey == stlb._memo_key:
                    stlb.hits += 1
                    sentry = stlb._memo_entry
                else:
                    sentry = stlb_entries.get(tkey)
                    if sentry is None:
                        stlb.misses += 1
                    else:
                        stlb_entries.move_to_end(tkey)
                        stlb.hits += 1
                        stlb._memo_key = tkey
                        stlb._memo_entry = sentry
                if sentry is not None:
                    iommu._n_tlb_hits += 1
                    if translate_hist is not None:
                        translate_hist.record(t_tr - t_iommu)
                    ppn = sentry.ppn
                    permissions = sentry.permissions
                    finish = t_tr
                else:
                    ppn, permissions, finish, _, _, _, _ = (
                        iommu_translate_miss(tkey, vpn, t_tr, t_iommu, asid))
            else:
                ppn, permissions, finish, _, _, _, _ = (
                    iommu_translate_parts(vpn, t_iommu, asid))
            ready = finish + iommu_to_gpu
            tlb.insert(tkey, ppn, permissions, ready)
        if not permissions._value_ & (2 if is_write else 1):
            raise PermissionFault(vpn, is_write, permissions)
        line_index = vline % lpp
        physical_line = ppn * lpp + line_index

        if is_write:
            if line is not None:
                h._n_l1_hits += 1
            # Inlined ``ASDT.note_write``: writes to untracked pages
            # allocate nothing (a write-through L1 holds no dirty copy).
            aentry = asdt_by_ppn.get(ppn)
            if aentry is not None:
                if aentry.leading_asid != asid or aentry.leading_vpn != vpn:
                    asdt.synonym_accesses += 1
                    if asdt.fault_on_rw_synonym:
                        raise ReadWriteSynonymFault(
                            ppn, aentry.leading_vpn, vpn)
                aentry.written = True
        else:
            # Inlined ``ASDT.check``: establish or verify the leading page.
            aentry = asdt_by_ppn.get(ppn)
            if aentry is None:
                aentry = ASDTEntry(ppn, asid, vpn)
                asdt_by_ppn[ppn] = aentry
                asdt_by_leading[(asid, vpn)] = ppn
            elif aentry.leading_asid != asid or aentry.leading_vpn != vpn:
                asdt.synonym_accesses += 1
                if asdt.fault_on_rw_synonym and aentry.written:
                    raise ReadWriteSynonymFault(ppn, aentry.leading_vpn, vpn)
            lead_asid = aentry.leading_asid
            lead_vpn = aentry.leading_vpn
            lead_key = (lead_asid << 52) | (lead_vpn * lpp + line_index)
            if lead_key != key:
                # Synonym: the data, if present, is cached under the
                # leading virtual address; replay there.
                h._n_synonym_replays += 1
                if l1.lookup(lead_key) is not None:
                    h._n_l1_hits += 1
                    return ready + l1_latency
                key = lead_key
                asid = lead_asid
                vpn = lead_vpn
                l1_set = l1._sets[key & l1_set_mask]

        # The banked physical L2: a write-through store occupies the CU
        # window until it lands there; a read continues to DRAM on a miss.
        # Inlined ``WindowedServer.request`` (see resources.py).
        server = banks[physical_line % n_banks]
        start = ready + l1_latency + l1_to_l2
        server.total_requests += 1
        w = int(start // window_cycles)
        wi = server._window_index
        if w > wi:
            server._window_index = w
            count = 1.0
            server._window_count = count
        else:
            if w < wi:
                start = wi * window_cycles
            count = server._window_count + 1.0
            server._window_count = count
        overflow = count - l2_cap
        if overflow > 0.0:
            delay = overflow / l2_rate
            server.total_queue_delay += delay
            start += delay
            if bank_hist is not None:
                bank_hist.record(delay)
        elif bank_hist is not None:
            bank_hist.record(0.0)
        t_mem = start + l2_latency
        l2_set = l2_sets[physical_line & l2_set_mask]
        l2_line = l2_set.get(physical_line)
        if l2_line is not None:
            l2_set.move_to_end(physical_line)
            l2.hits += 1
            if is_write:
                l2_line.dirty = True
                return t_mem
            h._n_l2_hits += 1
        else:
            l2.misses += 1
            if is_write:
                # Write-allocate, full-line store: no memory fetch, and a
                # dirty victim is written back from the service start.
                t_victim = start
            else:
                t_mem = t_victim = dram_line(t_mem)
            if len(l2_set) >= l2_ways:
                _, victim = l2_set.popitem(last=False)
                if victim.dirty:
                    dram_line(t_victim)  # write-back traffic
                    h._n_l2_writebacks += 1
                if victim.page is not None:
                    l2._forget_page_line(victim)
                    victim.page = None
                victim.line_addr = physical_line
                victim.dirty = is_write
                victim.permissions = _RW
                l2_set[physical_line] = victim
            else:
                l2_set[physical_line] = CacheLine(physical_line, is_write)
                l2._n_resident += 1
            if is_write:
                return t_mem

        # Fill the virtual L1 under the (leading) key; it missed, so it
        # is not resident.  An evicted line releases its page's ASDT
        # entry (inlined ``ppn_of_leading`` + ``ASDT.on_evict``).
        pkey = (asid << 52) | vpn
        page_lines = l1._page_lines
        if len(l1_set) >= l1_ways:
            _, victim = l1_set.popitem(last=False)
            victim_page = victim.page
            if victim_page is not None:
                remaining = page_lines.get(victim_page, 0) - 1
                if remaining > 0:
                    page_lines[victim_page] = remaining
                else:
                    page_lines.pop(victim_page, None)
                victim_ppn = asdt_by_leading.get(
                    (victim_page >> 52, victim_page & pkey_mask))
                if victim_ppn is not None:
                    ventry = asdt_by_ppn.get(victim_ppn)
                    if ventry is not None:
                        ventry.resident_lines -= 1
                        if ventry.resident_lines <= 0:
                            del asdt_by_ppn[victim_ppn]
                            asdt_by_leading.pop(
                                (ventry.leading_asid, ventry.leading_vpn),
                                None)
            victim.line_addr = key
            victim.dirty = False
            victim.permissions = permissions
            victim.page = pkey
            l1_set[key] = victim
        else:
            l1_set[key] = CacheLine(key, False, permissions, pkey)
            l1._n_resident += 1
        page_lines[pkey] = page_lines.get(pkey, 0) + 1
        # Inlined ``ASDT.on_fill`` (the eviction above may have dropped
        # this very page's entry).
        aentry = asdt_by_ppn.get(ppn)
        if aentry is not None:
            aentry.resident_lines += 1
        return t_mem + l1_to_l2

    return access
