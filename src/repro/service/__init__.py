"""Simulation-as-a-service: a long-lived batching server over the result cache.

PRs 1–4 made one experiment process fast (hot-path overhaul), parallel
(``run_many`` over a process pool), durable (disk cache + crash-safe
checkpoints), and observable (tracing + metrics) — but every consumer
still had to fork the whole CLI.  This package turns that machinery
into a service, the same way the paper's virtual hierarchy filters
translation traffic before the shared IOMMU TLB: requests are filtered
through the warm in-memory memo and the persistent disk cache, and only
genuine misses reach the simulation pool.

* :mod:`repro.service.protocol` — the JSON wire protocol: design-name
  resolution, request validation, and result payloads with cache-tier
  provenance (``memo`` / ``disk`` / ``computed``).
* :mod:`repro.service.server` — :class:`ExperimentService`, a stdlib
  ``asyncio`` HTTP server with single-flight request coalescing, wave
  batching into :meth:`ResultCache.run_many`, ``/metrics`` +
  ``/healthz`` endpoints, and graceful drain on SIGTERM.
* :mod:`repro.service.client` — :class:`ServiceClient`, a stdlib-only
  typed client (submit/poll/fetch and synchronous simulate).
* :mod:`repro.service.http11` — the server's HTTP/1.1 framing and
  the response-body digest the client verifies.
* :mod:`repro.service.jobs` — :class:`JobJournal`, the crash-safe
  journal behind durable ``/v1/jobs``.

Start a server with ``repro-experiment serve --port 8000 --jobs 4
--cache-dir ~/.cache/repro``, or embed one in-process::

    from repro.service import ExperimentService, ServiceClient

    service = ExperimentService(jobs=2, scale=0.05)
    host, port = service.start_in_thread()
    with ServiceClient(host, port) as client:
        reply = client.simulate([{"workload": "bfs", "design": "Baseline 512"}])
        print(reply.points[0].tier)   # "computed", then "memo" on a rerun
    service.shutdown()
"""

from __future__ import annotations

from repro.service.client import (
    HealthReport,
    JobReply,
    PointReply,
    ServiceClient,
    ServiceError,
    SimulateReply,
    TransportError,
    parse_target,
)
from repro.service.jobs import JobJournal
from repro.service.protocol import (
    DESIGNS_BY_NAME,
    PointSpec,
    ProtocolError,
    design_slug,
    resolve_design,
)
from repro.service.server import ExperimentService

__all__ = [
    "DESIGNS_BY_NAME",
    "ExperimentService",
    "HealthReport",
    "JobJournal",
    "JobReply",
    "PointReply",
    "PointSpec",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "SimulateReply",
    "TransportError",
    "design_slug",
    "parse_target",
    "resolve_design",
]
