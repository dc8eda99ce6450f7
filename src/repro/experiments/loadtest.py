"""Closed-loop load test for the experiment service.

Drives N concurrent clients against a running
:class:`~repro.service.server.ExperimentService` (or one it spawns
in-process) and reports, per concurrency level, the p50/p95/p99 request
latency and the sustained throughput — then locates the *saturation
knee*: the concurrency past which added clients stop buying throughput
and only buy queueing delay.  A level whose throughput collapses to
zero (every request failed) is the most extreme knee of all and is
reported at the last level that still moved requests.  Failures are
broken down by class — ``shed`` (429 admission control), ``deadline``
(504), ``connection`` (transport), ``other`` — and every level reports
its shed rate, so overload-protection behaviour is visible alongside
the saturation knee it exists to defend.

This is the service-layer analogue of the paper's Figure 5 bandwidth
sweep: the batching server is the shared resource, the request stream
is the translation traffic, and the memo/disk cache tiers are the
filters.  A load test against a warm cache measures the *filtered*
path (HTTP + single-flight + batching), which is why thousands of
requests per second are achievable over a simulator that takes
milliseconds per point.

Each client is closed-loop (it issues the next request only after the
previous response lands), so offered load scales with the number of
clients and the latency distribution is honest — there is no
coordinated-omission distortion from a paced open loop.

Every request carries the full point list.  After the warm-up request
those points are cache hits, so the sweep measures the warm service
path; mixed hot and cold traffic is what the ``serve-mixed`` open loop
in ``perfbench/`` measures.

Usage::

    repro-experiment loadtest                       # self-spawned server
    repro-experiment loadtest --lt-clients 1,2,4,8,16 --lt-requests 50
    repro-experiment loadtest --lt-target 127.0.0.1:8000   # running server
    repro-experiment loadtest --lt-target '[::1]:8000'     # IPv6 target
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import LatencyHistogram
from repro.service.client import (
    ServiceClient,
    ServiceError,
    TransportError,
    parse_target,
)

__all__ = [
    "DEFAULT_LEVELS",
    "DEFAULT_POINTS",
    "FAILURE_CLASSES",
    "LevelResult",
    "LoadtestReport",
    "classify_failure",
    "find_knee",
    "main",
    "run",
]

#: Failure classes a level breaks its failures down into: ``shed``
#: (429 admission control), ``deadline`` (504 budget exhausted),
#: ``connection`` (transport-level: resets, timeouts, digest
#: mismatches), and ``other`` (any remaining wrong status).
FAILURE_CLASSES: Tuple[str, ...] = ("shed", "deadline", "connection",
                                    "other")


def classify_failure(exc: BaseException) -> str:
    """Map one failed request's exception to a :data:`FAILURE_CLASSES` key."""
    if isinstance(exc, TransportError):
        return "connection"
    if isinstance(exc, ServiceError):
        if exc.status == 429:
            return "shed"
        if exc.status == 504:
            return "deadline"
        return "other"
    if isinstance(exc, (OSError, TimeoutError)):
        return "connection"
    return "other"

#: Concurrency levels swept by default (doubling, like the fig5 sweep).
DEFAULT_LEVELS: Tuple[int, ...] = (1, 2, 4, 8)

#: The request body every client issues: one cheap point that the
#: service resolves from its memo tier after the first wave, so the
#: test loads the service path rather than the simulator.
DEFAULT_POINTS: Tuple[Tuple[str, str], ...] = (("bfs", "baseline-512"),)

#: Batch window (seconds) and maximum wave size of the self-spawned
#: service.
SPAWNED_BATCH_WINDOW = 0.002
SPAWNED_MAX_BATCH = 64

#: Throughput must improve by at least this factor per doubling of
#: clients to count as "still scaling"; below it, the knee is called.
KNEE_GAIN_THRESHOLD = 1.10


def _format_target(host: str, port: int) -> str:
    """``host:port`` with IPv6 hosts bracketed."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


@dataclass(frozen=True)
class LevelResult:
    """Aggregate outcome of one concurrency level."""

    concurrency: int
    requests: int
    failures: int
    wall_seconds: float
    throughput_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    failure_classes: Dict[str, int] = field(default_factory=dict)

    @property
    def shed_rate(self) -> float:
        """Fraction of this level's requests the service shed (429)."""
        if self.requests <= 0:
            return 0.0
        return self.failure_classes.get("shed", 0) / self.requests

    def as_dict(self) -> Dict[str, object]:
        return {
            "concurrency": self.concurrency,
            "requests": self.requests,
            "failures": self.failures,
            "failure_classes": {cls: self.failure_classes.get(cls, 0)
                                for cls in FAILURE_CLASSES},
            "shed_rate": round(self.shed_rate, 4),
            "wall_seconds": round(self.wall_seconds, 6),
            "throughput_rps": round(self.throughput_rps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
        }


@dataclass
class LoadtestReport:
    """All levels plus the detected saturation knee."""

    target: str
    points: List[Tuple[str, str]]
    requests_per_client: int
    levels: List[LevelResult] = field(default_factory=list)
    knee_concurrency: Optional[int] = None

    @property
    def ok(self) -> bool:
        return all(level.failures == 0 for level in self.levels)

    def as_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "points": [list(p) for p in self.points],
            "requests_per_client": self.requests_per_client,
            "levels": [level.as_dict() for level in self.levels],
            "knee_concurrency": self.knee_concurrency,
        }

    def render(self) -> str:
        lines = [
            f"Service load test against {self.target} "
            f"({self.requests_per_client} requests/client, "
            f"points: {', '.join('/'.join(p) for p in self.points)})",
            "",
            f"{'clients':>7s} {'req':>6s} {'fail':>5s} {'shed%':>6s} "
            f"{'req/s':>9s} {'p50 ms':>9s} {'p95 ms':>9s} {'p99 ms':>9s}",
        ]
        for level in self.levels:
            lines.append(
                f"{level.concurrency:7d} {level.requests:6d} "
                f"{level.failures:5d} {level.shed_rate:6.1%} "
                f"{level.throughput_rps:9.1f} "
                f"{level.p50_ms:9.3f} {level.p95_ms:9.3f} "
                f"{level.p99_ms:9.3f}"
            )
        breakdown = {cls: sum(level.failure_classes.get(cls, 0)
                              for level in self.levels)
                     for cls in FAILURE_CLASSES}
        if any(breakdown.values()):
            lines.append("")
            lines.append(
                "failure breakdown: " + ", ".join(
                    f"{count} {cls}" for cls, count in breakdown.items()
                    if count))
        lines.append("")
        if self.knee_concurrency is not None:
            lines.append(
                f"saturation knee at {self.knee_concurrency} client(s): "
                f"beyond it, added clients buy <"
                f"{KNEE_GAIN_THRESHOLD - 1:.0%} throughput per doubling")
        else:
            lines.append(
                "no saturation knee within the swept levels "
                "(throughput still scaling at the highest concurrency)")
        return "\n".join(lines)


def find_knee(levels: Sequence[LevelResult],
              gain_threshold: float = KNEE_GAIN_THRESHOLD) -> Optional[int]:
    """The last concurrency that still scaled, or None if all levels did.

    Scanning adjacent levels, the knee is the lower level of the first
    pair whose throughput ratio falls below ``gain_threshold``.  A
    successor level with *zero* throughput — every request failed, the
    most extreme saturation there is — reports the knee at the last
    level that still moved requests, rather than being skipped as if
    the service were still scaling.  Zero-throughput levels never
    anchor a ratio themselves.
    """
    last_nonzero: Optional[LevelResult] = None
    for prev, nxt in zip(levels, levels[1:]):
        if prev.throughput_rps > 0:
            last_nonzero = prev
        if nxt.throughput_rps <= 0:
            # Throughput collapse: knee at the last productive level
            # (None when no level ever moved a request).
            if last_nonzero is not None:
                return last_nonzero.concurrency
            continue
        if prev.throughput_rps <= 0:
            continue  # a zero level cannot anchor a ratio
        if nxt.throughput_rps / prev.throughput_rps < gain_threshold:
            return prev.concurrency
    return None


def _client_loop(host: str, port: int,
                 points: List[Tuple[str, str]], n_requests: int,
                 barrier: threading.Barrier,
                 latencies: List[float], failures: Dict[str, int],
                 lock: threading.Lock) -> None:
    """One closed-loop client: wait at the barrier, then issue requests."""
    local_lat: List[float] = []
    local_fail: Dict[str, int] = {}
    with ServiceClient(host, port, timeout=120.0) as client:
        barrier.wait()
        for _ in range(n_requests):
            start = time.perf_counter()
            try:
                client.simulate(points)
            except (ServiceError, OSError, TimeoutError) as exc:
                cls = classify_failure(exc)
                local_fail[cls] = local_fail.get(cls, 0) + 1
                continue
            local_lat.append(time.perf_counter() - start)
    with lock:
        latencies.extend(local_lat)
        for cls, count in local_fail.items():
            failures[cls] = failures.get(cls, 0) + count


def _run_level(host: str, port: int, concurrency: int,
               points: List[Tuple[str, str]],
               n_requests: int) -> LevelResult:
    latencies: List[float] = []
    failures: Dict[str, int] = {}
    lock = threading.Lock()
    barrier = threading.Barrier(concurrency + 1)
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(host, port, points, n_requests,
                  barrier, latencies, failures, lock),
            name=f"loadtest-client-{i}", daemon=True)
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()  # release every client at once
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = max(time.perf_counter() - wall_start, 1e-9)

    hist = LatencyHistogram()
    for value in latencies:
        hist.record(value)
    n_ok = len(latencies)
    n_fail = sum(failures.values())
    return LevelResult(
        concurrency=concurrency,
        requests=n_ok + n_fail,
        failures=n_fail,
        wall_seconds=wall,
        throughput_rps=n_ok / wall,
        p50_ms=hist.percentile(50) * 1e3 if n_ok else 0.0,
        p95_ms=hist.percentile(95) * 1e3 if n_ok else 0.0,
        p99_ms=hist.percentile(99) * 1e3 if n_ok else 0.0,
        mean_ms=hist.mean * 1e3 if n_ok else 0.0,
        failure_classes=dict(failures),
    )


def run(
    host: str,
    port: int,
    levels: Sequence[int] = DEFAULT_LEVELS,
    requests_per_client: int = 8,
    points: Sequence[Tuple[str, str]] = DEFAULT_POINTS,
) -> LoadtestReport:
    """Sweep the concurrency levels against an already-running service.

    A single warm-up request primes the cache tiers first, so every
    timed level measures the steady-state service path instead of one
    level absorbing the initial simulation cost.
    """
    points = [tuple(p) for p in points]
    with ServiceClient(host, port, timeout=600.0) as client:
        client.simulate(points)  # warm the cache tiers
    report = LoadtestReport(
        target=_format_target(host, port), points=list(points),
        requests_per_client=requests_per_client)
    for concurrency in levels:
        report.levels.append(
            _run_level(host, port, concurrency, points, requests_per_client))
    report.knee_concurrency = find_knee(report.levels)
    return report


def main(
    target: Optional[str] = None,
    levels: Sequence[int] = DEFAULT_LEVELS,
    requests_per_client: int = 8,
    points: Sequence[Tuple[str, str]] = DEFAULT_POINTS,
    scale: Optional[float] = None,
    jobs: int = 1,
    out: Optional[str] = None,
) -> int:
    """CLI entry (``repro-experiment loadtest``); returns an exit code.

    Without ``target`` (``host:port``), a private in-process service is
    spawned on a free port with a throwaway cache directory and drained
    afterwards, so the load test is fully self-contained.  Exit codes:
    0 success, 1 the test ran but failed (including an unreachable
    target), 2 bad arguments.
    """
    service = None
    tempdir = None
    if target is None:
        from repro.service.server import ExperimentService

        tempdir = tempfile.TemporaryDirectory(prefix="repro-loadtest-")
        service = ExperimentService(
            port=0, jobs=jobs, scale=scale if scale is not None else 0.05,
            cache_dir=tempdir.name, batch_window=SPAWNED_BATCH_WINDOW,
            max_batch=SPAWNED_MAX_BATCH)
        host, port = service.start_in_thread()
        print(f"loadtest: spawned in-process service on {host}:{port}")
    else:
        try:
            host, port = parse_target(target)
        except ValueError as exc:
            print(f"repro-experiment: error: --lt-target {exc}")
            return 2
    try:
        report = run(host, port, levels=levels,
                     requests_per_client=requests_per_client, points=points)
    except (ServiceError, OSError) as exc:
        # A dead target (connection refused, reset, HTTP error on the
        # warm-up request) is a *result*, not a crash: report it
        # cleanly with the documented non-zero exit.
        print(f"repro-experiment: error: load test against "
              f"{_format_target(host, port)} failed: {exc}")
        return 1
    finally:
        if service is not None:
            service.shutdown()
        if tempdir is not None:
            tempdir.cleanup()
    print(report.render())
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0 if report.ok else 1
