"""Independent count oracle for the per-CU L1s and TLBs.

The oracle shares no code with the simulator: it imports nothing from
``repro.memsys``, ``repro.core`` or ``repro.system`` (the designs,
``simulate`` and ``Observability`` come in only to produce the counts
under test, uninstrumented and instrumented).  It replays each CU's coalesced request
stream through plain ``OrderedDict`` LRUs:

* a 32-set, 8-way L1 that refreshes on write hits and does not allocate
  on write misses (write-through, no write-allocate);
* a 32-entry fully associative per-CU TLB, probed on every request for
  the physical design, and only on L1 read misses and on writes for
  L1-only virtual caching (L1 read hits need no translation).

Both structures are private to a CU, so only each CU's own stream order
matters, not how the issue loop interleaves CUs in time.  The oracle
keys the L1 by *virtual* line even for the physically indexed baseline
L1.  That is exact here: these workloads map virtual pages to physical
pages one to one, and a 4 KB page holds 32 lines of 128 B, as many as
the L1 has sets, so a line's set is its offset within the page under
either address.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro import BASELINE_512, L1_ONLY_VC_32, SoCConfig, simulate
from repro.obs import Observability
from repro.workloads import registry

SCALE = 0.1
#: ``mis`` and ``bc`` are here because they are the streams whose L1 hit
#: counts depend on the write-hit LRU refresh; the other four do not.
WORKLOADS = ("bfs", "hotspot", "kmeans", "lud", "mis", "bc")

L1_SETS = 32
L1_WAYS = 8
TLB_ENTRIES = 32
LINES_PER_PAGE = 4096 // 128


class LRU:
    """A fully associative LRU set of keys."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.keys: OrderedDict = OrderedDict()

    def probe(self, key) -> bool:
        """True on a hit (which refreshes ``key``), False on a miss."""
        if key in self.keys:
            self.keys.move_to_end(key)
            return True
        return False

    def fill(self, key) -> None:
        if len(self.keys) >= self.capacity:
            self.keys.popitem(last=False)
        self.keys[key] = None


def replay(trace, translate_every_request: bool) -> dict:
    """Expected L1 hits and per-CU TLB probes/misses for ``trace``."""
    counts = {"l1.hits": 0, "tlb.accesses": 0, "tlb.misses": 0}
    for stream in trace.coalesced_per_cu():
        l1_sets = [LRU(L1_WAYS) for _ in range(L1_SETS)]
        tlb = LRU(TLB_ENTRIES)
        for requests in stream:
            if requests is None:  # scratchpad: never reaches memory
                continue
            for request in requests:
                line = request.line_addr
                l1_set = l1_sets[line % L1_SETS]
                hit = l1_set.probe(line)
                counts["l1.hits"] += hit
                if translate_every_request or request.is_write or not hit:
                    counts["tlb.accesses"] += 1
                    page = line // LINES_PER_PAGE
                    if not tlb.probe(page):
                        counts["tlb.misses"] += 1
                        tlb.fill(page)
                if not hit and not request.is_write:
                    l1_set.fill(line)
    return counts


def simulated(trace, design, instrumented) -> dict:
    config = SoCConfig()
    obs = Observability() if instrumented else None
    hierarchy = design.build(config, {0: trace.address_space.page_table},
                             obs=obs)
    result = simulate(trace, hierarchy, design.soc_config(config),
                      design=design.name)
    return result.counters


#: Every workload runs twice: uninstrumented, and with the metrics-only
#: ``Observability`` the service attaches to every point it computes
#: (ids ending in ``-obs``).  Both must meet the same oracle.
POINTS = [(w, False) for w in WORKLOADS] + [(w, True) for w in WORKLOADS]


@pytest.fixture(scope="module", params=POINTS,
                ids=[w + ("-obs" if obs else "") for w, obs in POINTS])
def point(request):
    workload, instrumented = request.param
    return registry.load(workload, scale=SCALE), instrumented


def test_baseline_counts_match_oracle(point):
    trace, instrumented = point
    expected = replay(trace, translate_every_request=True)
    counters = simulated(trace, BASELINE_512, instrumented)
    assert counters["l1.hits"] == expected["l1.hits"]
    assert counters["tlb.misses"] == expected["tlb.misses"]


def test_l1_only_counts_match_oracle(point):
    trace, instrumented = point
    expected = replay(trace, translate_every_request=False)
    counters = simulated(trace, L1_ONLY_VC_32, instrumented)
    assert counters["l1.hits"] == expected["l1.hits"]
    assert counters["tlb.accesses"] == expected["tlb.accesses"]
    assert counters["tlb.misses"] == expected["tlb.misses"]
    assert counters.get("vc.synonym_replays", 0) == 0
