"""A stdlib-only typed client for the experiment service.

:class:`ServiceClient` wraps :mod:`http.client` so examples, tests, and
scripts talk to a running :class:`~repro.service.server.ExperimentService`
without any third-party dependency:

>>> with ServiceClient("127.0.0.1", 8123) as client:          # doctest: +SKIP
...     reply = client.simulate([{"workload": "bfs",
...                               "design": "baseline-512"}])
...     print(reply.points[0].tier, reply.points[0].cycles)
...     job = client.submit([{"workload": "bfs", "design": "vc-with-opt"}])
...     done = client.wait(job)                               # poll → fetch
...     print(done.points[0].tier)

Server-side rejections (bad request, unknown design, sweep failures,
a draining server) raise :class:`ServiceError` carrying the HTTP
status, the machine-readable error code, and the decoded body.
Connection-level failures — refused connects, mid-body disconnects,
corrupted response bodies — raise :class:`TransportError` (a
:class:`ServiceError` subclass) with the failure phase and partial-read
context instead of leaking raw ``ConnectionResetError`` /
``IncompleteReadError`` out of the client.

Resilience knobs (all default off/conservative):

* ``deadline_ms`` — every request carries ``X-Deadline-Ms``; the server
  answers 504 instead of computing work nobody will wait for.
* ``retries`` / ``retry_budget_s`` — jittered-exponential-backoff
  retries for *idempotent* requests on transport errors, 429 sheds
  (honoring ``Retry-After``), and 503s, bounded by a wall-clock budget.
  Job submits are never retried: a duplicate submit is a duplicate job.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.trace_context import TraceContext
from repro.service.http11 import DIGEST_HEADER, body_digest

__all__ = [
    "HealthReport",
    "JobReply",
    "PointReply",
    "ServiceClient",
    "ServiceError",
    "SimulateReply",
    "TransportError",
    "parse_target",
]


def parse_target(target: str) -> "tuple[str, int]":
    """Parse ``HOST:PORT`` (IPv6 as ``[ADDR]:PORT``) into ``(host, port)``.

    Accepts an optional ``http://`` prefix and trailing slash so a
    pasted URL works too.  Bracketed IPv6 literals lose their brackets
    (``[::1]:8000`` → ``("::1", 8000)``), which is what both
    :class:`ServiceClient` and :mod:`http.client` expect.  Raises
    ``ValueError`` with a human-readable reason on anything else —
    including a bare host with no port, the historical foot-gun
    ``rpartition(":")`` silently mangled.
    """
    text = target.strip()
    for prefix in ("http://", "https://"):
        if text.startswith(prefix):
            text = text[len(prefix):]
            break
    text = text.rstrip("/")
    if text.startswith("["):  # bracketed IPv6 literal
        addr, bracket, rest = text[1:].partition("]")
        if not bracket or not addr:
            raise ValueError(f"{target!r}: unterminated '[' in host")
        if not rest.startswith(":"):
            raise ValueError(f"{target!r}: missing ':PORT' after {addr!r}")
        host, port_text = addr, rest[1:]
    else:
        host, sep, port_text = text.rpartition(":")
        if not sep:
            raise ValueError(
                f"{target!r}: missing ':PORT' (expected HOST:PORT)")
        if ":" in host:
            raise ValueError(
                f"{target!r}: IPv6 hosts must be bracketed, "
                f"like [{host}]:{port_text}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"{target!r}: port {port_text!r} is not an integer")
    if not 1 <= port <= 65535:
        raise ValueError(f"{target!r}: port {port} out of range 1-65535")
    return host or "127.0.0.1", port


class ServiceError(RuntimeError):
    """An error response from the service (HTTP status >= 400)."""

    def __init__(self, status: int, code: str, message: str,
                 body: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = status
        self.code = code
        self.message = message
        self.body = body if body is not None else {}


class TransportError(ServiceError):
    """A connection-level failure: no (trustworthy) HTTP response.

    ``phase`` records how far the exchange got (``"send"``,
    ``"read-status"``, ``"read-body"``, or ``"verify"`` for a body whose
    ``X-Content-Digest`` did not match — corruption in transit), and
    ``bytes_read`` how much of the body arrived before the failure.
    Retry logic classifies on exactly this: a transport error never
    carries data, so an idempotent request can always be retried, while
    a non-idempotent one must surface the error to its caller.
    """

    def __init__(self, phase: str, bytes_read: int = 0,
                 cause: Optional[BaseException] = None,
                 message: Optional[str] = None) -> None:
        detail = message or (f"{type(cause).__name__}: {cause}" if cause
                             else "connection failed")
        super().__init__(
            0, "transport",
            f"{detail} (phase={phase}, bytes_read={bytes_read})")
        self.phase = phase
        self.bytes_read = bytes_read
        self.cause = cause


@dataclass(frozen=True)
class PointReply:
    """One resolved experiment point, with its cache-tier provenance."""

    workload: str
    design: str
    tier: str  # "memo" | "disk" | "computed"
    coalesced: bool
    cycles: float
    instructions: int
    requests: int
    fingerprint: str
    scale: float
    wall_clock_seconds: float
    counters: Optional[Dict[str, int]] = None

    @classmethod
    def from_json(cls, raw: Dict[str, Any]) -> "PointReply":
        return cls(
            workload=raw["workload"],
            design=raw["design"],
            tier=raw["tier"],
            coalesced=raw["coalesced"],
            cycles=raw["cycles"],
            instructions=raw["instructions"],
            requests=raw["requests"],
            fingerprint=raw["fingerprint"],
            scale=raw["scale"],
            wall_clock_seconds=raw["wall_clock_seconds"],
            counters=raw.get("counters"),
        )


@dataclass(frozen=True)
class SimulateReply:
    """The response to one simulate call (or one finished job)."""

    trace_id: str
    points: List[PointReply]
    wall_seconds: float
    simulations_run_total: int

    @classmethod
    def from_json(cls, raw: Dict[str, Any]) -> "SimulateReply":
        return cls(
            trace_id=raw["trace_id"],
            points=[PointReply.from_json(p) for p in raw["points"]],
            wall_seconds=raw["wall_seconds"],
            simulations_run_total=raw["simulations_run_total"],
        )


@dataclass(frozen=True)
class JobReply:
    """One poll of an asynchronous job."""

    job_id: str
    status: str  # "running" | "done" | "failed"
    n_points: int
    result: Optional[SimulateReply] = None
    raw_result: Optional[Dict[str, Any]] = None

    @property
    def done(self) -> bool:
        return self.status != "running"


@dataclass(frozen=True)
class HealthReport:
    """The decoded ``/healthz`` payload."""

    status: str
    queue_depth: int
    inflight_points: int
    simulations_run: int
    pool: Dict[str, Any]
    raw: Dict[str, Any] = field(repr=False, default_factory=dict)


PointLike = Union[Dict[str, Any], Iterable]


def _normalize_points(points: Iterable[PointLike]) -> List[Dict[str, Any]]:
    """Accept dicts or (workload, design[, track_lifetimes]) tuples."""
    normalized: List[Dict[str, Any]] = []
    for point in points:
        if isinstance(point, dict):
            normalized.append(point)
            continue
        parts = list(point)
        if len(parts) not in (2, 3):
            raise ValueError(
                "tuple points must be (workload, design[, track_lifetimes])")
        spec: Dict[str, Any] = {"workload": parts[0], "design": parts[1]}
        if len(parts) == 3:
            spec["track_lifetimes"] = bool(parts[2])
        normalized.append(spec)
    return normalized


class ServiceClient:
    """Blocking HTTP client for the simulation service (stdlib only)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8000,
                 timeout: float = 600.0,
                 trace_ctx: Optional[TraceContext] = None,
                 deadline_ms: Optional[float] = None,
                 retries: int = 0,
                 retry_budget_s: float = 10.0,
                 backoff_base: float = 0.05,
                 retry_seed: int = 0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: When set, every request carries this trace's id (each request
        #: becomes a child span); when None each request starts a fresh
        #: server-side trace.
        self.trace_ctx = trace_ctx
        #: Default per-request deadline budget sent as ``X-Deadline-Ms``
        #: (None = no deadline); :meth:`simulate` can override per call.
        self.deadline_ms = deadline_ms
        #: Backoff retries for idempotent requests beyond the single
        #: free stale-keepalive retry (0 = the historical behavior).
        self.retries = retries
        #: Wall-clock ceiling across one request's retries: once spent,
        #: the last error surfaces no matter how many retries remain.
        self.retry_budget_s = retry_budget_s
        self.backoff_base = backoff_base
        self._rng = random.Random(f"client-retry:{retry_seed}")
        #: The trace id of the most recent request (from the server's
        #: ``X-Trace-Id`` response header) — stitch with ``trace show``.
        self.last_trace_id: Optional[str] = None
        self.retries_performed = 0
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing ---------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def _trace_headers(self) -> Dict[str, str]:
        if self.trace_ctx is None:
            return {}
        return self.trace_ctx.headers()

    def _attempt(self, method: str, path: str, payload: Optional[bytes],
                 headers: Dict[str, str]):
        """One HTTP exchange; all connection-level failures become typed."""
        conn = self._connection()
        phase = "send"
        try:
            conn.request(method, path, body=payload, headers=headers)
            phase = "read-status"
            response = conn.getresponse()
            phase = "read-body"
            raw = response.read()
        except (http.client.HTTPException, ConnectionError, OSError) as exc:
            self.close()
            partial = getattr(exc, "partial", b"")
            raise TransportError(phase, len(partial or b""), cause=exc)
        digest = response.getheader(DIGEST_HEADER)
        if digest is not None and digest != body_digest(raw):
            # The bytes arrived but are not what the server sent: treat
            # exactly like a dead connection, never like data.
            self.close()
            raise TransportError(
                "verify", len(raw),
                message="response body failed X-Content-Digest check "
                        "(corrupted in transit)")
        trace_id = response.getheader("X-Trace-Id")
        if trace_id and trace_id != "-":
            self.last_trace_id = trace_id
        return response, raw

    @staticmethod
    def _retry_after_hint(response, raw: bytes) -> Optional[float]:
        header = response.getheader("Retry-After")
        if header is not None:
            try:
                return max(0.0, float(header))
            except ValueError:
                pass
        try:
            hint = json.loads(raw.decode("utf-8")).get("retry_after")
            return max(0.0, float(hint)) if hint is not None else None
        except (UnicodeDecodeError, ValueError, AttributeError):
            return None

    def _backoff(self, attempt: int, retry_after: Optional[float],
                 budget_deadline: float,
                 abs_deadline: Optional[float]) -> bool:
        """Sleep before retry ``attempt``; False when no budget remains."""
        delay = self.backoff_base * (2 ** attempt)
        delay *= 0.5 + self._rng.random()  # jitter into [0.5x, 1.5x)
        if retry_after is not None:
            delay = max(delay, retry_after)
        now = time.monotonic()
        if now + delay > budget_deadline:
            return False
        if abs_deadline is not None and now + delay >= abs_deadline:
            return False  # the deadline would expire before the retry
        time.sleep(delay)
        self.retries_performed += 1
        return True

    def _raw_request(self, method: str, path: str,
                     payload: Optional[bytes],
                     headers: Dict[str, str],
                     idempotent: bool = True,
                     abs_deadline: Optional[float] = None):
        """One logical exchange: free stale-keepalive retry + budgeted
        backoff retries (idempotent requests only)."""
        budget_deadline = time.monotonic() + self.retry_budget_s
        attempt = 0
        free_retry_used = False
        while True:
            if abs_deadline is not None:
                remaining_ms = (abs_deadline - time.monotonic()) * 1000.0
                if remaining_ms <= 0:
                    raise ServiceError(
                        504, "deadline_exceeded",
                        "client-side deadline exhausted before the "
                        "request was sent")
                headers = dict(headers)
                headers["X-Deadline-Ms"] = format(remaining_ms, ".3f")
            reused = self._conn is not None
            try:
                response, raw = self._attempt(method, path, payload, headers)
            except TransportError:
                if not idempotent:
                    raise
                # A server that closed a kept-alive socket between calls
                # looks like a dead connection; retry once on a fresh
                # one, free — the historical pre-retry behavior.
                if reused and not free_retry_used:
                    free_retry_used = True
                    continue
                if attempt >= self.retries or not self._backoff(
                        attempt, None, budget_deadline, abs_deadline):
                    raise
                attempt += 1
                continue
            if (response.status in (429, 503) and idempotent
                    and attempt < self.retries):
                hint = self._retry_after_hint(response, raw)
                if self._backoff(attempt, hint, budget_deadline,
                                 abs_deadline):
                    attempt += 1
                    continue
            return response, raw

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 idempotent: bool = True,
                 deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        headers["Accept"] = "application/json"
        headers.update(self._trace_headers())
        budget = deadline_ms if deadline_ms is not None else self.deadline_ms
        abs_deadline = (time.monotonic() + budget / 1000.0
                        if budget is not None else None)
        response, raw = self._raw_request(
            method, path, payload, headers,
            idempotent=idempotent, abs_deadline=abs_deadline)
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ServiceError(response.status, "bad_payload",
                               f"undecodable response body: {raw[:200]!r}")
        if response.status >= 400:
            raise ServiceError(
                response.status,
                decoded.get("error", "error"),
                decoded.get("message", f"HTTP {response.status}"),
                decoded,
            )
        return decoded

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- API --------------------------------------------------------------
    def simulate(self, points: Iterable[PointLike],
                 scale: Optional[float] = None,
                 config: Optional[Dict[str, Any]] = None,
                 include_counters: bool = False,
                 deadline_ms: Optional[float] = None) -> SimulateReply:
        """Run (or fetch) points synchronously; blocks until the wave lands.

        ``deadline_ms`` overrides the client-wide deadline budget for
        this one call.  Simulate is idempotent (points are
        fingerprint-keyed), so it participates in retry policy.
        """
        body: Dict[str, Any] = {"points": _normalize_points(points)}
        if scale is not None:
            body["scale"] = scale
        if config is not None:
            body["config"] = config
        if include_counters:
            body["include_counters"] = True
        return SimulateReply.from_json(
            self._request("POST", "/v1/simulate", body,
                          deadline_ms=deadline_ms))

    def submit(self, points: Iterable[PointLike],
               scale: Optional[float] = None,
               config: Optional[Dict[str, Any]] = None) -> str:
        """Submit an asynchronous job; returns its id for :meth:`poll`.

        Submits are **not idempotent** — a retried submit is a second
        job — so this call never retries, and it always uses a fresh
        connection so a stale kept-alive socket cannot force the
        ambiguous did-it-arrive case.
        """
        body: Dict[str, Any] = {"points": _normalize_points(points)}
        if scale is not None:
            body["scale"] = scale
        if config is not None:
            body["config"] = config
        self.close()  # fresh connection: no stale-keepalive ambiguity
        return self._request("POST", "/v1/jobs", body,
                             idempotent=False)["job_id"]

    def sweep(self, spec: Any) -> str:
        """Submit a :class:`~repro.experiments.sweepspec.SweepSpec` as a job.

        ``spec`` is a ``SweepSpec`` (or its already-serialized dict
        form).  Like :meth:`submit`, a sweep submit is not idempotent:
        it never retries and always uses a fresh connection.  Returns
        the job id for :meth:`poll`/:meth:`wait`.
        """
        if hasattr(spec, "to_dict"):
            spec = spec.to_dict()
        body = {"sweep": spec}
        self.close()  # fresh connection: no stale-keepalive ambiguity
        return self._request("POST", "/v1/sweep", body,
                             idempotent=False)["job_id"]

    def poll(self, job_id: str) -> JobReply:
        """Fetch a job's status (and its result once finished)."""
        raw = self._request("GET", f"/v1/jobs/{job_id}")
        result = raw.get("result")
        return JobReply(
            job_id=raw["job_id"],
            status=raw["status"],
            n_points=raw["n_points"],
            result=(SimulateReply.from_json(result)
                    if raw["status"] == "done" and result else None),
            raw_result=result,
        )

    def wait(self, job_id: str, poll_interval: float = 0.05,
             timeout: float = 600.0) -> SimulateReply:
        """Poll until a job finishes; raise on failure or timeout."""
        deadline = time.monotonic() + timeout
        while True:
            reply = self.poll(job_id)
            if reply.status == "done":
                assert reply.result is not None
                return reply.result
            if reply.status == "failed":
                raise ServiceError(
                    500, "sweep_failed",
                    f"job {job_id} failed", reply.raw_result or {})
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still running after {timeout}s")
            time.sleep(poll_interval)

    def healthz(self) -> HealthReport:
        raw = self._request("GET", "/healthz")
        return HealthReport(
            status=raw["status"],
            queue_depth=raw["queue_depth"],
            inflight_points=raw["inflight_points"],
            simulations_run=raw["simulations_run"],
            pool=raw["pool"],
            raw=raw,
        )

    def metrics(self) -> Dict[str, Any]:
        """The server's full metrics snapshot (counters/gauges/histograms)."""
        return self._request("GET", "/metrics")

    def metrics_text(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        headers = {"Accept": "text/plain"}
        headers.update(self._trace_headers())
        response, raw = self._raw_request("GET", "/metrics", None, headers)
        if response.status >= 400:
            raise ServiceError(response.status, "error",
                               f"HTTP {response.status} from /metrics")
        return raw.decode("utf-8")

    def drain(self) -> None:
        """Ask the server to drain gracefully (same path as SIGTERM)."""
        self._request("POST", "/v1/drain")
