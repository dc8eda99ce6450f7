"""One access path per hierarchy.

Each hierarchy kind has exactly one implementation of its request path:
the closure that :mod:`repro.system.fastpath` compiles at build time.
No hierarchy class defines an ``access`` method that could drift from
it, and every build — instrumented or not, with lifetime tracking, the
IDEAL MMU, non-power-of-two L2 banking, or synonym remapping — installs
the compiled closure.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.l1_only import L1OnlyVirtualHierarchy
from repro.core.virtual_hierarchy import VirtualCacheHierarchy
from repro.memsys.address_space import AddressSpace
from repro.obs import Observability, RecordingTracer
from repro.system.designs import (
    BASELINE_512,
    IDEAL_MMU,
    L1_ONLY_VC_32,
    VC_WITH_OPT,
)
from repro.system.physical_hierarchy import PhysicalHierarchy
from repro.system.run import simulate
from repro.workloads.trace import MemoryInstruction, Trace


def _six_banks(config):
    return replace(config, l2=replace(config.l2, n_banks=6))


#: ``(id, build)`` where ``build(config, page_tables, obs)`` returns a
#: hierarchy.
BUILDS = (
    ("baseline", lambda c, p, o: BASELINE_512.build(c, p, obs=o)),
    ("baseline-lifetimes", lambda c, p, o: BASELINE_512.build(
        c, p, track_lifetimes=True, obs=o)),
    ("ideal", lambda c, p, o: IDEAL_MMU.build(c, p, obs=o)),
    ("baseline-6-banks", lambda c, p, o: BASELINE_512.build(
        _six_banks(c), p, obs=o)),
    ("vc", lambda c, p, o: VC_WITH_OPT.build(c, p, obs=o)),
    ("vc-6-banks", lambda c, p, o: VC_WITH_OPT.build(
        _six_banks(c), p, obs=o)),
    ("vc-synonym-remap", lambda c, p, o: VirtualCacheHierarchy(
        c, p, enable_synonym_remapping=True, obs=o)),
    ("l1-only", lambda c, p, o: L1_ONLY_VC_32.build(c, p, obs=o)),
    ("l1-only-6-banks", lambda c, p, o: L1_ONLY_VC_32.build(
        _six_banks(c), p, obs=o)),
)


def _observability():
    obs = Observability(tracer=RecordingTracer())
    obs.metrics.enable_timeline()
    return obs


def _trace(space):
    m = space.mmap(12)
    per_cu = [[
        MemoryInstruction(
            addresses=(m.base_va + ((cu * 4096 + i * 640) % m.size_bytes),),
            is_write=i % 5 == 0)
        for _ in range(4) for i in range(40)
    ] for cu in range(2)]
    return Trace(name="reuse", per_cu=per_cu, address_space=space,
                 issue_interval=4.0)


@pytest.mark.parametrize(
    "cls", [PhysicalHierarchy, VirtualCacheHierarchy, L1OnlyVirtualHierarchy])
def test_hierarchy_classes_define_no_access_method(cls):
    assert "access" not in vars(cls)


@pytest.mark.parametrize("instrumented", [False, True],
                         ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("build", [b for _, b in BUILDS],
                         ids=[name for name, _ in BUILDS])
def test_every_build_runs_the_compiled_closure(small_config, build,
                                               instrumented):
    space = AddressSpace(asid=0)
    trace = _trace(space)
    obs = _observability() if instrumented else None
    hierarchy = build(small_config, {0: space.page_table}, obs)
    access = hierarchy.access
    assert access.__module__ == "repro.system.fastpath"
    assert access.__qualname__.startswith("compile_")
    assert access.__qualname__.endswith(".<locals>.access")
    result = simulate(trace, hierarchy, small_config)
    assert result.requests == 320
    if instrumented:
        bank_requests = sum(b.total_requests
                            for b in hierarchy.l2_banks.banks)
        assert bank_requests > 0
        assert obs.metrics.histograms()["l2.bank_queue_delay"].count == \
            bank_requests
