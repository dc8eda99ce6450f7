"""The experiment service: an asyncio HTTP server over :class:`ResultCache`.

Architecture (one request's life)::

    HTTP request ──> parse/validate (protocol.py)
        │                 │ 400 on unknown workload/design/config
        ▼
    single-flight map (fingerprint → in-flight point)
        │ duplicate concurrent points join the existing future
        ▼
    batch queue ──> batcher task: collects points for ``batch_window``
        │           seconds (or ``max_batch``), then runs one *wave*;
        │           at most one wave is admitted per ``batch_window``,
        │           so ``max_batch / batch_window`` is the service's
        │           steady-state admission budget under backlog
        ▼
    wave (executor thread): each point resolved through the cache tiers
        memo  — already in the in-process memo           (0 work)
        disk  — loaded from the persistent DiskCache     (1 pickle read)
        computed — batched into ``ResultCache.run_many`` (simulated, with
                   the PR 4 timeout/retry/checkpoint machinery)
        │
        ▼
    futures resolve ──> JSON response with per-point tier provenance

This is the paper's bandwidth-filtering argument applied to the
simulation fleet itself: the two cache tiers filter repeated experiment
traffic so only genuine misses reach the expensive shared resource (the
process pool), exactly as virtual-cache hits filter translations before
the shared IOMMU TLB.

Endpoints:

* ``POST /v1/simulate`` — run/fetch points, blocking until the wave lands.
* ``POST /v1/jobs`` / ``GET /v1/jobs/<id>`` — submit → poll → fetch.
* ``GET /metrics`` — Prometheus text exposition of the
  :class:`~repro.obs.MetricsRegistry` (per-tier latency histograms,
  tier counters, queue gauges); ``Accept: application/json`` returns
  the raw JSON snapshot instead.
* ``GET /healthz`` — queue depth, in-flight points, pool liveness.
* ``POST /v1/drain`` — programmatic graceful drain (same path as SIGTERM).

Graceful shutdown: SIGTERM (or ``/v1/drain``) stops the listener,
rejects new work with 503, finishes every in-flight wave (delivering
the responses), leaves the crash-safe checkpoint flushed (appends are
fsync'd per point), and exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
import uuid
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import ResultCache, SweepError
from repro.experiments.disk_cache import config_fingerprint
from repro.obs import Observability
from repro.obs.promexp import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.promexp import render_prometheus
from repro.obs.trace_context import TraceContext
from repro.service import http11, protocol
from repro.service.http11 import Raw as _Raw
from repro.service.jobs import JobJournal
from repro.service.protocol import PointSpec, ProtocolError
from repro.workloads import registry

__all__ = [
    "ExperimentService",
    "TIER_COMPUTED",
    "TIER_DISK",
    "TIER_MEMO",
    "run_server",
]

TIER_MEMO = "memo"
TIER_DISK = "disk"
TIER_COMPUTED = "computed"

#: Completed job records kept for polling before the oldest are evicted.
_MAX_JOBS = 1024


class _InflightPoint:
    """One unique point travelling from the queue through a wave.

    ``deadline`` is an absolute :func:`time.monotonic` instant after
    which nobody is waiting for this point any more (``None`` = someone
    will wait forever).  Coalescing keeps the *most patient* joiner's
    deadline, so an impatient duplicate can never cancel work another
    client still wants.
    """

    __slots__ = ("spec", "future", "enqueued_at", "ctx", "deadline")

    def __init__(self, spec: PointSpec, future: "asyncio.Future",
                 ctx: Optional[TraceContext] = None,
                 deadline: Optional[float] = None) -> None:
        self.spec = spec
        self.future = future
        self.enqueued_at = time.perf_counter()
        self.ctx = ctx
        self.deadline = deadline


class _PointFailed(RuntimeError):
    """A computed point that did not survive its wave."""

    def __init__(self, spec: PointSpec, reason: str) -> None:
        super().__init__(reason)
        self.spec = spec
        self.reason = reason


class _PointDeadline(_PointFailed):
    """A point abandoned because its caller's deadline budget ran out."""


class ExperimentService:
    """A long-lived batching simulation server over one :class:`ResultCache`.

    The service owns (or adopts) a cache configured exactly like the
    CLI's: ``jobs`` workers per wave, optional ``cache_dir`` disk
    persistence, optional crash-safe ``checkpoint``, per-point
    timeout/retries, and invariant auditing.  ``scale`` fixes the
    default workload scale (requests may override per request).

    Run it three ways: :meth:`serve_forever` (the CLI path, installs
    SIGTERM/SIGINT drain handlers), :meth:`start_in_thread` /
    :meth:`shutdown` (embedding in tests and examples), or ``await
    start()`` inside an existing event loop.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        scale: Optional[float] = None,
        cache_dir: Optional[str] = None,
        checkpoint: Optional[str] = None,
        check_invariants: bool = False,
        point_timeout: Optional[float] = None,
        point_retries: int = 2,
        batch_window: float = 0.01,
        max_batch: int = 64,
        max_inflight: Optional[int] = None,
        jobs_journal: Optional[str] = None,
        cache: Optional[ResultCache] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 (or None)")
        self.host = host
        self.port = port
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.max_inflight = max_inflight
        self.obs = obs if obs is not None else Observability()
        if cache is None:
            cache = ResultCache(
                jobs=jobs, cache_dir=cache_dir, checkpoint=checkpoint,
                check_invariants=check_invariants,
                point_timeout=point_timeout, point_retries=point_retries)
            if scale is not None:
                cache.scale = scale
        elif scale is not None:
            cache.scale = scale
        if cache.obs is None:
            cache.obs = self.obs
        else:
            self.obs = cache.obs
        self.cache = cache
        # Snapshots the request parser validates against; waves restore
        # the cache to these after any per-request override.
        self._base_scale = cache.effective_scale()
        self._base_config = cache.config

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._queue: "asyncio.Queue[Optional[_InflightPoint]]" = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._drained_event: Optional[asyncio.Event] = None
        self._inflight: Dict[str, _InflightPoint] = {}
        self._jobs: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._journal = JobJournal(jobs_journal) if jobs_journal else None
        self._shed_total = 0
        self._writers: set = set()
        self._active_points = 0
        self._busy_requests = 0
        self._wave_active = False
        self._waves_run = 0
        self._last_wave_error: Optional[str] = None
        self._draining = False
        self._started_at = time.time()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the batcher; returns (host, port)."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._drained_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._batcher_task = self._loop.create_task(self._batch_loop())
        self._started_at = time.time()
        if self._journal is not None:
            self._replay_journal()
        return self.host, self.port

    def _replay_journal(self) -> None:
        """Rebuild the job table from the journal on restart.

        Finished jobs are served straight from their recorded payloads;
        submitted-but-unfinished jobs (the server died mid-run) are
        re-validated and re-run under their original job IDs and trace
        IDs.  Their points are fingerprint-keyed, so anything that
        reached the disk cache before the crash costs nothing to
        "recompute".
        """
        metrics = self.obs.metrics
        for job in self._journal.replay():
            record: Dict[str, Any] = {
                "job_id": job.job_id,
                "status": "running",
                "trace_id": job.trace_id,
                "submitted_unix": job.submitted_at,
                "n_points": None,
                "result": None,
            }
            if job.finished:
                record["status"] = job.status
                record["result"] = job.payload
                record["completed_unix"] = job.completed_at
                if isinstance(job.payload, dict):
                    record["n_points"] = len(job.payload.get("points") or [])
                metrics.add("service.jobs.recovered")
                self._jobs[job.job_id] = record
                continue
            ctx = TraceContext.from_headers({"x-trace-id": job.trace_id})
            try:
                body = json.loads(job.body.decode("utf-8"))
                specs = self._parse_points(body)
            except (UnicodeDecodeError, json.JSONDecodeError,
                    ProtocolError) as exc:
                record["status"] = "failed"
                record["result"] = {"error": protocol.ERROR_BAD_REQUEST,
                                    "message": f"journal replay: {exc}"}
                record["completed_unix"] = time.time()
                self._jobs[job.job_id] = record
                continue
            record["n_points"] = len(specs)
            self._jobs[job.job_id] = record
            self._loop.create_task(self._run_job(record, body, ctx))
            metrics.add("service.jobs.resumed")
        if self._journal.repaired_bytes:
            metrics.add("service.journal.repaired_bytes",
                        self._journal.repaired_bytes)

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; safe from a signal handler).

        New work is rejected with 503 immediately; in-flight waves
        finish and deliver their responses; the drain completes once
        the queue is empty and every response has been written.
        """
        if self._draining or self._loop is None:
            return
        self._draining = True
        self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()  # stop accepting new connections
        while (self._active_points or self._busy_requests
               or not self._queue.empty()
               or any(r["status"] == "running"
                      for r in self._jobs.values())):
            await asyncio.sleep(0.01)
        await self._queue.put(None)  # stop the batcher
        if self._batcher_task is not None:
            await self._batcher_task
        # Idle keep-alive connections would outlive the loop otherwise.
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._server is not None:
            await self._server.wait_closed()
        self._drained_event.set()

    async def serve_until_drained(self) -> None:
        """Block until a drain (SIGTERM, /v1/drain, or shutdown()) finishes."""
        await self._drained_event.wait()

    def start_in_thread(self, timeout: float = 30.0) -> Tuple[str, int]:
        """Run the service on a dedicated event-loop thread; returns the address."""
        started = threading.Event()
        failure: List[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            try:
                asyncio.set_event_loop(loop)
                loop.run_until_complete(self.start())
            except BaseException as exc:  # surface bind errors to the caller
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_until_complete(self.serve_until_drained())
                loop.run_until_complete(loop.shutdown_default_executor())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-service", daemon=True)
        self._thread.start()
        if not started.wait(timeout):
            raise RuntimeError("service did not start in time")
        if failure:
            raise failure[0]
        return self.host, self.port

    def shutdown(self, timeout: float = 60.0) -> None:
        """Drain a :meth:`start_in_thread` service and join its thread."""
        if self._loop is not None and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self.request_drain)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        if self._thread is not None:
            self._thread.join(timeout)

    async def _amain(self) -> None:
        await self.start()
        print(f"repro-service listening on http://{self.host}:{self.port}",
              flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await self.serve_until_drained()
        print("repro-service drained cleanly", flush=True)

    def serve_forever(self) -> int:
        """The CLI entry: serve until SIGTERM/SIGINT drains us; exit 0."""
        asyncio.run(self._amain())
        return 0

    # -- admission + single-flight + batching -----------------------------
    def _admit(self, specs: List[PointSpec]) -> None:
        """Shed the request with 429 if its new points exceed the budget.

        Only *new* points count: duplicates of in-flight points coalesce
        for free and are never shed, and duplicate fingerprints within
        one request are one point.  The ``Retry-After`` hint is how long
        the wave pipeline needs to drain back under the budget at its
        steady-state rate of ``max_batch`` points per ``batch_window``.
        """
        if self.max_inflight is None:
            return
        fresh = {spec.fingerprint for spec in specs
                 if spec.fingerprint not in self._inflight}
        if self._active_points + len(fresh) <= self.max_inflight:
            return
        excess = self._active_points + len(fresh) - self.max_inflight
        window = max(self.batch_window, 0.01)
        waves_needed = (excess + self.max_batch - 1) // self.max_batch
        retry_after = max(0.05, waves_needed * window)
        self._shed_total += 1
        self.obs.metrics.add("service.requests.shed")
        self.obs.metrics.add("service.points.shed", len(fresh))
        raise ProtocolError(
            429, protocol.ERROR_OVERLOADED,
            f"overloaded: {self._active_points} point(s) in flight "
            f"+ {len(fresh)} new > max_inflight={self.max_inflight}",
            retry_after=retry_after)

    def _enqueue(self, spec: PointSpec,
                 ctx: Optional[TraceContext] = None,
                 deadline: Optional[float] = None,
                 ) -> Tuple[_InflightPoint, bool]:
        """Get the in-flight entry for a point, creating one if needed.

        Returns ``(entry, coalesced)``; ``coalesced`` is True when the
        point joined a computation another request already started.
        """
        entry = self._inflight.get(spec.fingerprint)
        if entry is not None:
            # Keep the most patient deadline: a short-deadline duplicate
            # must not shorten the budget of whoever got here first.
            if deadline is None:
                entry.deadline = None
            elif entry.deadline is not None:
                entry.deadline = max(entry.deadline, deadline)
            self.obs.metrics.add("service.points.coalesced")
            return entry, True
        point_ctx = (ctx.child()
                     if ctx is not None and self.obs.tracing else None)
        entry = _InflightPoint(spec, self._loop.create_future(), point_ctx,
                               deadline)
        self._inflight[spec.fingerprint] = entry
        self._active_points += 1
        self._queue.put_nowait(entry)
        self.obs.metrics.add("service.points.enqueued")
        return entry, False

    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            entry = await self._queue.get()
            if entry is None:
                return
            wave_started = loop.time()
            batch = [entry]
            deadline = wave_started + self.batch_window
            # Fire the wave before the earliest caller deadline in the
            # batch: batching latency comes out of their budget too.
            if entry.deadline is not None:
                deadline = min(deadline, entry.deadline)
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if nxt is None:
                    self._queue.put_nowait(None)  # re-arm the stop sentinel
                    break
                batch.append(nxt)
                if nxt.deadline is not None:
                    deadline = min(deadline, nxt.deadline)
            self._wave_active = True
            try:
                await loop.run_in_executor(None, self._execute_wave, batch)
            except BaseException as exc:  # defensive: _execute_wave catches
                self._last_wave_error = f"{type(exc).__name__}: {exc}"
                for item in batch:
                    self._finish_point(
                        item, None, None,
                        _PointFailed(item.spec, self._last_wave_error))
            finally:
                self._wave_active = False
                self._waves_run += 1
            # Pace wave admission: a backlog that fills batches
            # instantly used to fire waves back-to-back, so the
            # configured window never actually bounded admitted load
            # and the server saturated on per-request overhead instead
            # of its wave budget.  Holding the next wave until the
            # window elapses makes max_batch/batch_window a real
            # admission cap; an idle server is unaffected.
            cooldown = wave_started + self.batch_window - loop.time()
            if cooldown > 0:
                await asyncio.sleep(cooldown)

    # -- wave execution (runs on an executor thread) ----------------------
    def _execute_wave(self, batch: List[_InflightPoint]) -> None:
        """Resolve one batch of unique points through the cache tiers."""
        groups: "OrderedDict[Tuple[float, str], List[_InflightPoint]]" = \
            OrderedDict()
        for entry in batch:
            key = (entry.spec.scale, config_fingerprint(entry.spec.config))
            groups.setdefault(key, []).append(entry)
        for (scale, _), entries in groups.items():
            self._run_group(scale, entries)

    def _run_group(self, scale: float, entries: List[_InflightPoint]) -> None:
        cache = self.cache
        saved_scale, saved_config = cache.scale, cache.config
        saved_timeout = cache.point_timeout
        now = time.monotonic()
        expired = [e for e in entries
                   if e.deadline is not None and e.deadline <= now]
        entries = [e for e in entries
                   if e.deadline is None or e.deadline > now]
        for entry in expired:
            # Nobody is waiting any more: answer 504 without paying for
            # even a cache probe.
            self._resolve(entry, None, None, _PointDeadline(
                entry.spec, "deadline exceeded before the wave ran"))
        if not entries:
            return
        try:
            cache.scale = scale
            cache.config = entries[0].spec.config
            # Never compute longer than the most patient caller in this
            # group will wait: clamp the per-point timeout to the widest
            # remaining deadline budget.
            budgets = [e.deadline - now for e in entries
                       if e.deadline is not None]
            if len(budgets) == len(entries):
                clamp = max(budgets)
                cache.point_timeout = (clamp if saved_timeout is None
                                       else min(saved_timeout, clamp))
            tiers: Dict[str, str] = {}
            to_compute: List[_InflightPoint] = []
            disk = cache._disk_cache()
            for entry in entries:
                spec = entry.spec
                key = cache._key(spec.workload, spec.design,
                                 spec.track_lifetimes)
                if key in cache._results:
                    tiers[spec.fingerprint] = TIER_MEMO
                    continue
                cached = disk.load(spec.fingerprint) if disk is not None \
                    else None
                if cached is not None:
                    cache._results[key] = cached
                    tiers[spec.fingerprint] = TIER_DISK
                else:
                    tiers[spec.fingerprint] = TIER_COMPUTED
                    to_compute.append(entry)
            sweep_failures: Dict[Tuple[str, str], str] = {}
            wave_error: Optional[str] = None
            if to_compute:
                # One wave-level span context: the pool workers' spans
                # nest under the first traced point's span.
                wave_ctx = next(
                    (e.ctx for e in to_compute if e.ctx is not None), None)
                try:
                    cache.run_many(
                        [(e.spec.workload, e.spec.design,
                          e.spec.track_lifetimes) for e in to_compute],
                        trace_ctx=(wave_ctx.child()
                                   if wave_ctx is not None else None))
                except SweepError as exc:
                    self._last_wave_error = str(exc)
                    sweep_failures = {
                        (f.workload, f.design): str(f) for f in exc.failures}
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    wave_error = f"{type(exc).__name__}: {exc}"
                    self._last_wave_error = wave_error
            for entry in entries:
                spec = entry.spec
                key = cache._key(spec.workload, spec.design,
                                 spec.track_lifetimes)
                result = cache._results.get(key)
                if result is not None:
                    self._resolve(entry, tiers[spec.fingerprint], result)
                    continue
                reason = (sweep_failures.get((spec.workload, spec.design.name))
                          or wave_error
                          or "point did not complete")
                if entry.deadline is not None \
                        and time.monotonic() >= entry.deadline:
                    self._resolve(entry, None, None, _PointDeadline(
                        spec, f"deadline exceeded during compute: {reason}"))
                else:
                    self._resolve(entry, None, None,
                                  _PointFailed(spec, reason))
        finally:
            cache.scale, cache.config = saved_scale, saved_config
            cache.point_timeout = saved_timeout

    def _resolve(self, entry: _InflightPoint, tier: Optional[str],
                 result, exc: Optional[BaseException] = None) -> None:
        self._loop.call_soon_threadsafe(
            self._finish_point, entry, tier, result, exc)

    def _finish_point(self, entry: _InflightPoint, tier: Optional[str],
                      result, exc: Optional[BaseException]) -> None:
        """Settle one point's future (always on the event-loop thread)."""
        if self._inflight.pop(entry.spec.fingerprint, None) is not None:
            self._active_points -= 1
        metrics = self.obs.metrics
        latency = time.perf_counter() - entry.enqueued_at
        if entry.future.done():
            return
        if exc is not None:
            metrics.add("service.points.failed")
            entry.future.set_exception(exc)
        else:
            metrics.add(f"service.tier.{tier}")
            metrics.histogram(f"service.latency.{tier}").record(latency)
            entry.future.set_result((result, tier))
        if entry.ctx is not None and self.obs.tracing:
            self.obs.tracer.emit(
                "span", time.time(), name="service.point", dur=latency,
                workload=entry.spec.workload,
                design=entry.spec.design.name,
                tier=tier if exc is None else "failed",
                **entry.ctx.span_fields())

    # -- HTTP layer -------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                self._busy_requests += 1
                try:
                    status, payload, trace_id, extra = await self._route(
                        method, path, headers, body)
                    # Established connections stay alive through a drain
                    # (so clients see a clean 503, not a reset); _drain()
                    # force-closes them once the last response is written.
                    keep_alive = (headers.get("connection", "").lower()
                                  != "close")
                    await self._write_response(
                        writer, status, payload, keep_alive, trace_id,
                        extra_headers=extra)
                finally:
                    self._busy_requests -= 1
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError, asyncio.LimitOverrunError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    _read_request = staticmethod(http11.read_request)

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, status: int,
                              payload: Any, keep_alive: bool,
                              trace_id: str = "-",
                              extra_headers: Optional[Dict[str, str]] = None,
                              ) -> None:
        await http11.write_response(writer, status, payload, keep_alive,
                                    trace_id, extra_headers=extra_headers)

    async def _route(self, method: str, path: str, headers: Dict[str, str],
                     body: bytes) -> Tuple[int, Any, str, Dict[str, str]]:
        # Adopt the caller's trace context (X-Trace-Id/X-Parent-Span)
        # when present; otherwise this request starts a fresh trace.
        ctx = TraceContext.from_headers(headers)
        metrics = self.obs.metrics
        metrics.add("service.requests")
        started = time.perf_counter()
        extra: Dict[str, str] = {}
        try:
            status, payload = await self._dispatch(
                method, path, headers, body, ctx)
        except ProtocolError as exc:
            status, payload = exc.status, exc.body()
            extra = exc.headers()
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            metrics.add("service.errors.internal")
            status, payload = 500, {
                "error": protocol.ERROR_INTERNAL,
                "message": f"{type(exc).__name__}: {exc}",
            }
        if isinstance(payload, dict):
            payload.setdefault("trace_id", ctx.trace_id)
        metrics.add(f"service.http.{status}")
        dur = time.perf_counter() - started
        metrics.histogram("service.request_seconds").record(dur)
        if self.obs.tracing:
            self.obs.tracer.emit(
                "span", time.time(), name="service.request", dur=dur,
                method=method, path=path, status=status,
                **ctx.span_fields())
        return status, payload, ctx.trace_id, extra

    async def _dispatch(self, method: str, path: str,
                        headers: Dict[str, str], body: bytes,
                        ctx: TraceContext) -> Tuple[int, Any]:
        if path == "/healthz":
            self._require(method, "GET")
            return 200, self._health_payload()
        if path == "/metrics":
            self._require(method, "GET")
            snapshot = self._metrics_payload()
            if "application/json" in headers.get("accept", ""):
                return 200, snapshot
            text = render_prometheus(self.obs.metrics)
            return 200, _Raw(text.encode("utf-8"), _PROM_CONTENT_TYPE)
        if path == "/v1/simulate":
            self._require(method, "POST")
            self._reject_if_draining()
            return await self._simulate(self._decode(body), ctx,
                                        deadline=self._parse_deadline(headers))
        if path == "/v1/jobs":
            self._require(method, "POST")
            self._reject_if_draining()
            return self._submit_job(self._decode(body), ctx, body)
        if path == "/v1/sweep":
            # A sweep is a durable job: the raw spec body is journaled
            # before the 202 ack, so it survives a restart and replays
            # through the same sweep-aware parser.
            self._require(method, "POST")
            self._reject_if_draining()
            decoded = self._decode(body)
            if not isinstance(decoded, dict) or "sweep" not in decoded:
                raise ProtocolError(
                    400, protocol.ERROR_BAD_REQUEST,
                    "request needs a 'sweep' object (a SweepSpec)")
            return self._submit_job(decoded, ctx, body)
        if path.startswith("/v1/jobs/"):
            self._require(method, "GET")
            return self._job_status(path[len("/v1/jobs/"):])
        if path == "/v1/drain":
            self._require(method, "POST")
            self.request_drain()
            return 202, {"status": "draining"}
        raise ProtocolError(404, protocol.ERROR_NOT_FOUND,
                            f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise ProtocolError(
                405, protocol.ERROR_BAD_REQUEST,
                f"method {method} not allowed here (use {expected})")

    def _reject_if_draining(self) -> None:
        if self._draining:
            self.obs.metrics.add("service.rejected.draining")
            raise ProtocolError(
                503, protocol.ERROR_DRAINING,
                "service is draining; no new work accepted")

    @staticmethod
    def _decode(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                400, protocol.ERROR_BAD_REQUEST,
                f"request body is not valid JSON: {exc}")

    @staticmethod
    def _parse_deadline(headers: Dict[str, str]) -> Optional[float]:
        """``X-Deadline-Ms`` (remaining budget) → absolute monotonic instant."""
        return protocol.parse_deadline_header(headers)

    # -- endpoints --------------------------------------------------------
    def _parse_points(self, body: Any) -> List[PointSpec]:
        if isinstance(body, dict) and "sweep" in body:
            _spec, specs = protocol.parse_sweep_request(
                body, self._base_scale, self._base_config,
                check_invariants=self.cache.check_invariants)
            return specs
        return protocol.parse_simulate_request(
            body, self._base_scale, self._base_config,
            check_invariants=self.cache.check_invariants)

    async def _simulate(self, body: Any, ctx: TraceContext,
                        deadline: Optional[float] = None,
                        enforce_admission: bool = True,
                        ) -> Tuple[int, Dict[str, Any]]:
        specs = self._parse_points(body)
        if enforce_admission:
            self._admit(specs)
        include_counters = bool(isinstance(body, dict)
                                and body.get("include_counters"))
        if isinstance(body, dict) and isinstance(body.get("sweep"), dict):
            output = body["sweep"].get("output")
            include_counters = include_counters or bool(
                isinstance(output, dict) and output.get("include_counters"))
        started = time.perf_counter()
        entries = [self._enqueue(spec, ctx, deadline) for spec in specs]
        outcomes = await asyncio.gather(
            *(entry.future for entry, _ in entries), return_exceptions=True)
        points: List[Dict[str, Any]] = []
        failures: List[Dict[str, Any]] = []
        all_deadline = True
        for spec, (entry, coalesced), outcome in zip(
                specs, entries, outcomes):
            if isinstance(outcome, BaseException):
                reason = getattr(outcome, "reason", None) or str(outcome)
                is_deadline = isinstance(outcome, _PointDeadline)
                all_deadline = all_deadline and is_deadline
                failures.append({
                    "workload": spec.workload,
                    "design": spec.design.name,
                    "fingerprint": spec.fingerprint,
                    "reason": reason,
                    "deadline_exceeded": is_deadline,
                })
                points.append({
                    "workload": spec.workload,
                    "design": spec.design.name,
                    "fingerprint": spec.fingerprint,
                    "error": reason,
                })
            else:
                result, tier = outcome
                points.append(protocol.result_payload(
                    spec, result, tier, coalesced,
                    include_counters=include_counters))
        payload: Dict[str, Any] = {
            "trace_id": ctx.trace_id,
            "points": points,
            "wall_seconds": time.perf_counter() - started,
            "simulations_run_total": self.cache.simulations_run,
        }
        if failures:
            if all_deadline:
                # Every failure was the caller's budget running out: the
                # honest answer is 504, not a sweep failure.
                self.obs.metrics.add("service.requests.deadline")
                payload["error"] = protocol.ERROR_DEADLINE
                payload["message"] = (
                    f"{len(failures)} of {len(specs)} point(s) exceeded "
                    f"the request deadline")
                payload["failures"] = failures
                return 504, payload
            payload["error"] = protocol.ERROR_SWEEP_FAILED
            payload["message"] = (
                f"{len(failures)} of {len(specs)} point(s) failed")
            payload["failures"] = failures
            return 500, payload
        return 200, payload

    def _submit_job(self, body: Any, ctx: TraceContext,
                    raw_body: bytes = b"") -> Tuple[int, Dict[str, Any]]:
        specs = self._parse_points(body)  # validate before accepting
        self._admit(specs)  # shed at the door, never after journaling
        job_id = uuid.uuid4().hex
        submitted = time.time()
        if self._journal is not None:
            # Journal before acknowledging: an accepted job is on disk
            # by definition, so a crash after the 202 cannot lose it.
            self._journal.record_submitted(
                job_id, raw_body, ctx.trace_id, submitted)
        record: Dict[str, Any] = {
            "job_id": job_id,
            "status": "running",
            "trace_id": ctx.trace_id,
            "submitted_unix": submitted,
            "n_points": len(specs),
            "result": None,
        }
        self._jobs[job_id] = record
        while len(self._jobs) > _MAX_JOBS:
            self._evict_one_job()
        self._loop.create_task(self._run_job(record, body, ctx))
        self.obs.metrics.add("service.jobs.submitted")
        return 202, {"job_id": job_id, "status": "running",
                     "n_points": len(specs), "trace_id": ctx.trace_id}

    def _evict_one_job(self) -> None:
        for job_id, record in self._jobs.items():
            if record["status"] != "running":
                del self._jobs[job_id]
                return
        self._jobs.popitem(last=False)  # all running: drop the oldest

    async def _run_job(self, record: Dict[str, Any], body: Any,
                       ctx: TraceContext) -> None:
        try:
            # Admission was decided when the job was accepted (and
            # journaled); an accepted job always runs, even if interactive
            # load has since filled the inflight budget.
            status, payload = await self._simulate(
                body, ctx, enforce_admission=False)
        except ProtocolError as exc:
            status, payload = exc.status, exc.body()
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            status = 500
            payload = {"error": protocol.ERROR_INTERNAL,
                       "message": f"{type(exc).__name__}: {exc}"}
        record["result"] = payload
        record["status"] = "done" if status == 200 else "failed"
        record["completed_unix"] = time.time()
        if self._journal is not None:
            self._journal.record_finished(
                record["job_id"], record["status"], payload,
                record["completed_unix"])

    def _job_status(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        record = self._jobs.get(job_id)
        if record is None:
            raise ProtocolError(404, protocol.ERROR_NOT_FOUND,
                                f"unknown job {job_id!r}")
        payload = {key: record[key] for key in
                   ("job_id", "status", "n_points", "submitted_unix")}
        if record["status"] != "running":
            payload["result"] = record["result"]
            payload["completed_unix"] = record["completed_unix"]
        return 200, payload

    def _health_payload(self) -> Dict[str, Any]:
        cache = self.cache
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": time.time() - self._started_at,
            "queue_depth": self._queue.qsize(),
            "inflight_points": self._active_points,
            "max_inflight": self.max_inflight,
            "shed_total": self._shed_total,
            "busy_requests": self._busy_requests,
            "jobs_running": sum(1 for r in self._jobs.values()
                                if r["status"] == "running"),
            "jobs_journal": (self._journal.path
                             if self._journal is not None else None),
            "pool": {
                "jobs": cache.jobs,
                "wave_active": self._wave_active,
                "waves_run": self._waves_run,
                "last_wave_error": self._last_wave_error,
            },
            "simulations_run": cache.simulations_run,
            "scale": self._base_scale,
            "cache_dir": cache.cache_dir,
            "checkpoint": cache.checkpoint,
            "workloads": sorted(registry.WORKLOADS),
            "designs": sorted({protocol.design_slug(name)
                               for name in protocol.DESIGNS_BY_NAME}),
        }

    def _metrics_payload(self) -> Dict[str, Any]:
        metrics = self.obs.metrics
        metrics.set_gauge("service.queue_depth", self._queue.qsize())
        metrics.set_gauge("service.inflight_points", self._active_points)
        metrics.set_gauge("service.shed_total", self._shed_total)
        metrics.set_gauge("service.simulations_run",
                          self.cache.simulations_run)
        metrics.set_gauge("service.waves_run", self._waves_run)
        metrics.set_gauge("service.uptime_seconds",
                          time.time() - self._started_at)
        return metrics.snapshot()


def run_server(
    host: str = "127.0.0.1",
    port: int = 8000,
    jobs: int = 1,
    scale: Optional[float] = None,
    cache_dir: Optional[str] = None,
    checkpoint: Optional[str] = None,
    check_invariants: bool = False,
    point_timeout: Optional[float] = None,
    point_retries: int = 2,
    batch_window: float = 0.01,
    max_batch: int = 64,
    max_inflight: Optional[int] = None,
    jobs_journal: Optional[str] = None,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> int:
    """Build and run a service until SIGTERM/SIGINT drains it (CLI path).

    ``max_inflight`` bounds admitted points (shed with 429 beyond it);
    ``jobs_journal`` persists ``/v1/jobs`` across restarts.
    ``trace_out`` streams every request/point/worker span to a
    JSON-lines file (view with ``repro-experiment trace show``);
    ``metrics_out`` writes the final metrics snapshot on drain.
    """
    obs = None
    if trace_out or metrics_out:
        from repro.obs import JsonLinesTracer

        tracer = JsonLinesTracer(trace_out) if trace_out else None
        obs = Observability(tracer=tracer)
    service = ExperimentService(
        host=host, port=port, jobs=jobs, scale=scale, cache_dir=cache_dir,
        checkpoint=checkpoint, check_invariants=check_invariants,
        point_timeout=point_timeout, point_retries=point_retries,
        batch_window=batch_window, max_batch=max_batch,
        max_inflight=max_inflight, jobs_journal=jobs_journal, obs=obs)
    try:
        return service.serve_forever()
    finally:
        if obs is not None:
            obs.close()
        if metrics_out:
            with open(metrics_out, "w", encoding="utf-8") as handle:
                json.dump(service.obs.metrics.snapshot(), handle,
                          indent=2, sort_keys=True)
                handle.write("\n")
