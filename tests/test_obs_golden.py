"""Golden pin of instrumented runs.

``tests/test_hotpath_golden.py`` pins what an uninstrumented run
computes; this file pins what an *instrumented* one reports.  Most
points run with an :class:`~repro.obs.Observability` carrying a
:class:`~repro.obs.RecordingTracer` and an enabled timeline; the
``(metrics only)`` points run with the bare ``Observability()`` the
service attaches to every point it computes.  The snapshot in
``tests/golden_obs.json`` holds SHA-256 digests of:

* the counters;
* ``metrics.snapshot()`` — every histogram, the merged counters and
  the timeline;
* for traced points, the timeline on its own and the tracer's event
  stream, in emission order;
* for ``track_lifetimes`` builds, every lifetime tracker's residence
  and active-lifetime lists, in recording order.

Any drift in an event's time, order or fields, in a histogram bucket or
in a timeline epoch fails here, so instrumentation hooks can move
between implementations without changing what a run reports.

Regenerate (only when an *intentional* change shifts instrumented
output)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.obs import Observability, RecordingTracer
from repro.system.config import SoCConfig
from repro.system.designs import (
    BASELINE_512,
    IDEAL_MMU,
    L1_ONLY_VC_32,
    VC_WITH_OPT,
)
from repro.system.run import simulate
from repro.workloads import registry

GOLDEN_PATH = Path(__file__).parent / "golden_obs.json"

WORKLOADS = ("bfs", "pagerank")
SCALE = 0.05
#: ``(design, track_lifetimes, traced)`` run on every workload.
POINTS = (
    (BASELINE_512, False, True),
    (IDEAL_MMU, False, True),
    (VC_WITH_OPT, False, True),
    (L1_ONLY_VC_32, False, True),
    (BASELINE_512, True, True),
    (BASELINE_512, False, False),
    (VC_WITH_OPT, False, False),
    (L1_ONLY_VC_32, False, False),
)


def _coerce(obj):
    """JSON fallback for numpy scalars in trace-derived event fields."""
    return obj.item()


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, default=_coerce).encode()).hexdigest()


def _events_digest(events) -> str:
    h = hashlib.sha256()
    for event in events:
        h.update(json.dumps(event, sort_keys=True, default=_coerce).encode())
        h.update(b"\n")
    return h.hexdigest()


def _key(workload, design, track_lifetimes, traced) -> str:
    return (f"{workload}/{design.name}"
            + (" +lifetimes" if track_lifetimes else "")
            + ("" if traced else " (metrics only)"))


def _run_point(workload, design, track_lifetimes, traced):
    trace = registry.load(workload, scale=SCALE)
    config = SoCConfig()
    if traced:
        tracer = RecordingTracer()
        obs = Observability(tracer=tracer)
        timeline = obs.metrics.enable_timeline()
    else:
        obs = Observability()
    hierarchy = design.build(config, {0: trace.address_space.page_table},
                             track_lifetimes=track_lifetimes, obs=obs)
    result = simulate(trace, hierarchy, design.soc_config(config),
                      design=design.name)
    digests = {
        "counters": _digest(result.counters),
        "metrics": _digest(obs.metrics.snapshot()),
    }
    if traced:
        digests["timeline"] = _digest(timeline.as_dict())
        digests["events"] = _events_digest(tracer.events)
    if track_lifetimes:
        digests["lifetimes"] = _digest({
            name: [tracker.residence_times, tracker.active_lifetimes]
            for name, tracker in hierarchy.lifetimes.items()
        })
    return {
        "cycles": result.cycles,
        "requests": result.requests,
        "events": len(tracer.events) if traced else 0,
        "digests": digests,
    }


@pytest.fixture(scope="module")
def golden():
    recorded = (json.loads(GOLDEN_PATH.read_text())
                if GOLDEN_PATH.exists() else None)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        recorded = {
            _key(w, *point): _run_point(w, *point)
            for w in WORKLOADS for point in POINTS
        }
        GOLDEN_PATH.write_text(
            json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    assert recorded is not None, (
        "golden snapshot missing — run with REPRO_REGEN_GOLDEN=1 to record it"
    )
    return recorded


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("point", POINTS,
                         ids=[_key("", *p).lstrip("/") for p in POINTS])
def test_instrumented_run_matches_golden(golden, workload, point):
    assert _run_point(workload, *point) == golden[_key(workload, *point)]
