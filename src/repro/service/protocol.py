"""Wire protocol for the simulation service.

The server and client speak plain JSON over HTTP.  This module owns
everything both sides must agree on without importing each other:

* **Design resolution** — experiment points name their MMU design as a
  string; :func:`resolve_design` accepts either the canonical Table 2
  name (``"VC With OPT"``) or its URL-friendly slug (``"vc-with-opt"``)
  and returns the frozen :class:`~repro.system.designs.MMUDesign`.
* **Request validation** — :func:`parse_simulate_request` turns a
  decoded JSON body into validated :class:`PointSpec` records, raising
  :class:`ProtocolError` (which carries the HTTP status to answer
  with) on anything malformed: unknown workloads or designs, bad
  scales, non-scalar config overrides.
* **Result payloads** — :func:`result_payload` serializes one slim
  :class:`~repro.system.run.SimulationResult` plus its cache-tier
  provenance (``memo`` — served from the in-process memo; ``disk`` —
  loaded from the persistent cache; ``computed`` — a fresh simulation
  ran for this request).

Every point's identity is the same complete fingerprint the disk cache
uses (:func:`~repro.experiments.disk_cache.point_fingerprint`), so
single-flight coalescing, the disk cache, and sweep checkpoints all
agree on what "the same point" means.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.experiments import sweepspec
from repro.experiments.disk_cache import point_fingerprint
from repro.system.config import SoCConfig
from repro.system.designs import (
    DESIGNS_BY_NAME,
    MMUDesign,
    PRESET_DESIGNS,
    design_slug,
)
from repro.system.run import SimulationResult
from repro.workloads import registry

__all__ = [
    "DESIGNS_BY_NAME",
    "ERROR_BAD_REQUEST",
    "ERROR_DEADLINE",
    "ERROR_DRAINING",
    "ERROR_INTERNAL",
    "ERROR_NOT_FOUND",
    "ERROR_OVERLOADED",
    "ERROR_SWEEP_FAILED",
    "PointSpec",
    "ProtocolError",
    "design_slug",
    "parse_deadline_header",
    "parse_simulate_request",
    "parse_sweep_request",
    "resolve_design",
    "resolve_workload",
    "result_payload",
]

#: Machine-readable error codes carried in every error body.
ERROR_BAD_REQUEST = "bad_request"
ERROR_NOT_FOUND = "not_found"
ERROR_DRAINING = "draining"
ERROR_SWEEP_FAILED = "sweep_failed"
ERROR_INTERNAL = "internal_error"
#: Admission control shed the request: accepting it would push the
#: server past its ``max_inflight`` point budget.  Answered with 429
#: and a ``Retry-After`` hint.
ERROR_OVERLOADED = "overloaded"
#: The caller's ``X-Deadline-Ms`` budget ran out before (or while)
#: computing the request; answered with 504 instead of dead work.
ERROR_DEADLINE = "deadline_exceeded"

#: Hard cap on points per request: a service request is an experiment
#: wave, not an unbounded sweep (run those through the CLI).
MAX_POINTS_PER_REQUEST = 256


class ProtocolError(ValueError):
    """A request the service must reject, with the HTTP status to use.

    ``retry_after`` (seconds, optional) is surfaced as a ``Retry-After``
    header so shed requests (429) carry a concrete back-off hint.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after

    def body(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"error": self.code, "message": self.message}
        if self.retry_after is not None:
            body["retry_after"] = self.retry_after
        return body

    def headers(self) -> Dict[str, str]:
        """Extra response headers this error carries (may be empty)."""
        if self.retry_after is None:
            return {}
        return {"Retry-After": format(max(0.0, self.retry_after), ".3f")}


def parse_deadline_header(headers: Mapping[str, str]) -> Optional[float]:
    """Parse ``X-Deadline-Ms`` into an absolute ``time.monotonic`` instant.

    Returns ``None`` when the header is absent.  A non-numeric value is
    a 400; a budget that is already spent (``<= 0``) is answered 504
    up front — accepting it would only produce dead work.
    """
    value = headers.get("x-deadline-ms")
    if value is None:
        return None
    try:
        ms = float(value)
    except (TypeError, ValueError):
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"X-Deadline-Ms must be a number of milliseconds, got {value!r}")
    if ms <= 0:
        raise ProtocolError(
            504, ERROR_DEADLINE,
            "deadline already exhausted on arrival (X-Deadline-Ms <= 0)")
    return time.monotonic() + ms / 1000.0


def resolve_design(name: Any) -> MMUDesign:
    """Look up a design by canonical name or slug; 400 on anything else."""
    if not isinstance(name, str):
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"point 'design' must be a string, got {type(name).__name__}")
    design = DESIGNS_BY_NAME.get(name) or DESIGNS_BY_NAME.get(design_slug(name))
    if design is None:
        known = sorted({design_slug(d.name) for d in PRESET_DESIGNS})
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"unknown design {name!r}; known designs: {', '.join(known)}")
    return design


def resolve_workload(name: Any) -> str:
    """Validate a workload name against the registry; 400 on anything else."""
    if not isinstance(name, str):
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"point 'workload' must be a string, got {type(name).__name__}")
    if name not in registry.WORKLOADS:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"unknown workload {name!r}; known workloads: "
            f"{', '.join(sorted(registry.WORKLOADS))}")
    return name


def config_with_overrides(base: SoCConfig, overrides: Any) -> SoCConfig:
    """Apply scalar top-level ``SoCConfig`` overrides from a request.

    Only plain int/float/bool fields may be overridden over the wire
    (``n_cus``, ``cu_window``, ``dram_latency``, …); nested structures
    (cache/IOMMU configs) would need their own schema and are rejected
    so a typo cannot silently build a half-default config.
    """
    if not isinstance(overrides, dict):
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"'config' must be an object of field overrides, "
            f"got {type(overrides).__name__}")
    field_names = {f.name for f in dataclasses.fields(SoCConfig)}
    clean: Dict[str, Any] = {}
    for key, value in overrides.items():
        if key not in field_names:
            raise ProtocolError(
                400, ERROR_BAD_REQUEST, f"unknown SoCConfig field {key!r}")
        current = getattr(base, key)
        if isinstance(current, bool) or \
                not isinstance(current, (int, float, type(None))):
            raise ProtocolError(
                400, ERROR_BAD_REQUEST,
                f"SoCConfig field {key!r} is not a scalar; only scalar "
                f"fields can be overridden over the wire")
        if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ProtocolError(
                400, ERROR_BAD_REQUEST,
                f"override for {key!r} must be a number or null, "
                f"got {type(value).__name__}")
        clean[key] = value
    try:
        return dataclasses.replace(base, **clean)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST, f"invalid config override: {exc}")


@dataclass(frozen=True)
class PointSpec:
    """One fully resolved experiment point a request asks for.

    ``fingerprint`` is the complete identity (workload, scale, design,
    lifetimes, invariant auditing, config hash) shared with the disk
    cache and checkpoint layers; the server keys single-flight
    coalescing on it.
    """

    workload: str
    design: MMUDesign
    track_lifetimes: bool
    scale: float
    config: SoCConfig
    check_invariants: bool
    fingerprint: str

    @classmethod
    def build(
        cls,
        workload: str,
        design: MMUDesign,
        track_lifetimes: bool,
        scale: float,
        config: SoCConfig,
        check_invariants: bool,
    ) -> "PointSpec":
        return cls(
            workload=workload,
            design=design,
            track_lifetimes=track_lifetimes,
            scale=scale,
            config=config,
            check_invariants=check_invariants,
            fingerprint=point_fingerprint(
                workload, scale, design, track_lifetimes, config,
                check_invariants=check_invariants),
        )


def _parse_scale(raw: Any, default: float) -> float:
    if raw is None:
        return default
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"'scale' must be a number, got {type(raw).__name__}")
    scale = float(raw)
    if not scale > 0:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST, f"'scale' must be positive, got {scale}")
    return scale


def parse_simulate_request(
    body: Any,
    default_scale: float,
    base_config: SoCConfig,
    check_invariants: bool = False,
) -> List[PointSpec]:
    """Validate a decoded ``/v1/simulate`` (or job-submit) body.

    Accepts either ``{"points": [{...}, ...]}`` or a single-point
    shorthand ``{"workload": ..., "design": ...}``.  Request-level
    ``scale`` and ``config`` apply to every point.  The returned list
    preserves request order (duplicates included — the server coalesces
    them, the response answers each).
    """
    if not isinstance(body, dict):
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"request body must be a JSON object, got {type(body).__name__}")
    scale = _parse_scale(body.get("scale"), default_scale)
    config = base_config
    if body.get("config") is not None:
        config = config_with_overrides(base_config, body["config"])

    if "points" in body:
        raw_points = body["points"]
        if not isinstance(raw_points, list) or not raw_points:
            raise ProtocolError(
                400, ERROR_BAD_REQUEST,
                "'points' must be a non-empty array of point objects")
    elif "workload" in body or "design" in body:
        raw_points = [body]
    else:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            "request needs either 'points' or a 'workload'/'design' pair")
    if len(raw_points) > MAX_POINTS_PER_REQUEST:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"too many points in one request "
            f"({len(raw_points)} > {MAX_POINTS_PER_REQUEST})")

    specs: List[PointSpec] = []
    for index, raw in enumerate(raw_points):
        if not isinstance(raw, dict):
            raise ProtocolError(
                400, ERROR_BAD_REQUEST,
                f"points[{index}] must be an object, "
                f"got {type(raw).__name__}")
        workload = resolve_workload(raw.get("workload"))
        design = resolve_design(raw.get("design"))
        track = raw.get("track_lifetimes", False)
        if not isinstance(track, bool):
            raise ProtocolError(
                400, ERROR_BAD_REQUEST,
                f"points[{index}].track_lifetimes must be a boolean")
        specs.append(PointSpec.build(
            workload, design, track, scale, config, check_invariants))
    return specs


def parse_sweep_request(
    body: Any,
    default_scale: float,
    base_config: SoCConfig,
    check_invariants: bool = False,
) -> Tuple[sweepspec.SweepSpec, List[PointSpec]]:
    """Validate a ``/v1/sweep`` body: ``{"sweep": {<SweepSpec JSON>}}``.

    The spec's own strict validation runs first (every
    :class:`~repro.experiments.sweepspec.SweepSpecError` maps to 400
    with the spec's message), then service policy applies on top:

    * fault-plan specs are rejected — fault injection mutates page
      tables, so those runs are never cacheable and run CLI-side only;
    * ``check_invariants: true`` requires a server started with
      auditing on, otherwise its fingerprints could never match the
      server's cache tiers;
    * the expanded point list is capped at ``MAX_POINTS_PER_REQUEST``
      like any other request.

    Returns the parsed spec plus its fully resolved points (spec order,
    one :class:`PointSpec` per point).
    """
    if not isinstance(body, dict):
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"request body must be a JSON object, got {type(body).__name__}")
    unknown = sorted(set(body) - {"sweep"})
    if unknown:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"a sweep request carries only a 'sweep' object; unknown "
            f"key(s) {', '.join(map(repr, unknown))}")
    if "sweep" not in body:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST, "request needs a 'sweep' object")
    try:
        spec = sweepspec.SweepSpec.from_dict(body["sweep"])
    except sweepspec.SweepSpecError as exc:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST, f"invalid sweep spec: {exc}")
    if spec.faults is not None:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            "fault-plan sweeps are not served over the wire (fault "
            "injection is never cached); run the spec through "
            "'repro-experiment sweep' instead")
    if spec.check_invariants and not check_invariants:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            "spec requests check_invariants but this server runs without "
            "invariant auditing; start it with --check-invariants")
    scale = spec.scale if spec.scale is not None else default_scale
    try:
        config = spec.apply_config(base_config)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST, f"invalid config override: {exc}")
    points = spec.resolved_points()
    if len(points) > MAX_POINTS_PER_REQUEST:
        raise ProtocolError(
            400, ERROR_BAD_REQUEST,
            f"sweep expands to too many points "
            f"({len(points)} > {MAX_POINTS_PER_REQUEST})")
    return spec, [
        PointSpec.build(workload, design, track, scale, config,
                        check_invariants)
        for workload, design, track in points
    ]


def result_payload(
    spec: PointSpec,
    result: SimulationResult,
    tier: str,
    coalesced: bool,
    include_counters: bool = False,
) -> Dict[str, Any]:
    """JSON-ready payload for one resolved point.

    ``tier`` is the cache tier that satisfied the point for *this*
    request; ``coalesced`` marks points that joined another request's
    in-flight computation rather than starting their own.
    """
    payload: Dict[str, Any] = {
        "workload": spec.workload,
        "design": spec.design.name,
        "design_slug": design_slug(spec.design.name),
        "scale": spec.scale,
        "track_lifetimes": spec.track_lifetimes,
        "fingerprint": spec.fingerprint,
        "tier": tier,
        "coalesced": coalesced,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "requests": result.requests,
        "wall_clock_seconds": result.wall_clock_seconds,
    }
    if include_counters:
        payload["counters"] = dict(result.counters)
    return payload
