"""Microbenchmark harness for the per-access simulation hot path.

Times representative (workload, design) points — the Figure 4 baseline
sweep plus a Figure 9 virtual-cache point — and reports *simulator
throughput* (coalesced requests simulated per wall-clock second), with a
per-stage breakdown (trace synthesis, hierarchy construction, the
``simulate()`` request loop).

Throughput is what the figure sweeps multiply by dozens of design
points, so it is the number this repo tracks across PRs::

    repro-experiment bench                          # print + write BENCH json
    repro-experiment bench --scale 0.05             # tiny CI smoke scale
    repro-experiment bench --bench-compare benchmarks/perf/BENCH_PR3.json
    repro-experiment bench --bench-baseline benchmarks/perf/BENCH_SEED.json

``--bench-baseline`` embeds a previously recorded run (e.g. the
pre-optimization seed measurement) into the output JSON and reports the
speedup against it.  ``--bench-compare`` gates CI: the run fails when
total requests/sec regresses more than ``--bench-tolerance`` (default
30%) below the recorded file's number.

Requests/sec is *not* scale-robust: on Baseline 512, bfs runs at about
172k req/s at scale 0.05 and about 78k req/s at scale 1.0 (2-core Xeon,
CPython 3.11).  Smaller scales run faster, so comparing a tiny-scale
run against a record taken at a larger scale lets real regressions
through; treat ``--bench-compare`` as a smoke check only.  The
measured harness is ``perfbench/`` at the repository root: it runs
paper-scale points with host-speed scaling, pinned result digests and
per-layer attribution (see ``perfbench/README.md``).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.sweepspec import SweepSpec
from repro.system.config import SoCConfig
from repro.system.designs import (
    BASELINE_512,
    BASELINE_16K,
    IDEAL_MMU,
    MMUDesign,
    VC_WITH_OPT,
)
from repro.system.run import simulate
from repro.workloads import registry

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_POINTS",
    "PointResult",
    "attach_baseline",
    "check_regression",
    "main",
    "render",
    "run_bench",
]

BENCH_SCHEMA_VERSION = 2

#: The tracked points: the fig4 smoke sweep (one workload under the
#: three baseline MMUs) plus a fig9 virtual-cache point.  ``bfs`` is a
#: high-translation-bandwidth workload, so every layer of the hot path
#: (TLBs, IOMMU queueing, FBT, caches) is exercised.
DEFAULT_POINTS: Sequence[tuple] = (
    ("fig4", "bfs", IDEAL_MMU),
    ("fig4", "bfs", BASELINE_512),
    ("fig4", "bfs", BASELINE_16K),
    ("fig9", "bfs", VC_WITH_OPT),
)


@dataclass
class PointResult:
    """Timing of one benchmarked (workload, design) point."""

    name: str
    workload: str
    design: str
    trace_seconds: float
    build_seconds: float
    simulate_seconds: float
    requests: int
    instructions: int
    cycles: float
    requests_per_sec: float
    trace_source: str = "generated"

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "workload": self.workload,
            "design": self.design,
            "trace_source": self.trace_source,
            "trace_seconds": round(self.trace_seconds, 6),
            "build_seconds": round(self.build_seconds, 6),
            "simulate_seconds": round(self.simulate_seconds, 6),
            "requests": self.requests,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "requests_per_sec": round(self.requests_per_sec, 1),
        }


def _bench_point(
    figure: str,
    workload: str,
    design: MMUDesign,
    config: SoCConfig,
    scale: float,
    repeats: int,
) -> PointResult:
    """Benchmark one point; the best of ``repeats`` runs is reported.

    Each repeat builds a fresh hierarchy (state never carries over), so
    repeats measure the same work; best-of-N suppresses host noise.
    The trace is memoized by the registry — its synthesis cost is the
    cold first load, reported separately from the simulate loop.  When
    a compiled-trace store is active the first load may instead mmap a
    prior compilation; ``trace_source`` records which happened.
    """
    before = registry.trace_cache_stats()
    t0 = time.perf_counter()
    trace = registry.load(workload, scale=scale)
    trace_seconds = time.perf_counter() - t0
    after = registry.trace_cache_stats()
    if after["hits"] > before["hits"]:
        trace_source = "compiled"
    elif after["misses"] > before["misses"]:
        trace_source = "generated"
    else:
        trace_source = "memoized" if trace_seconds < 0.001 else "generated"

    best = None
    build_seconds = 0.0
    for _ in range(repeats):
        page_tables = {0: trace.address_space.page_table}
        t0 = time.perf_counter()
        hierarchy = design.build(config, page_tables)
        build = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = simulate(trace, hierarchy, design.soc_config(config),
                          design=design.name)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
            build_seconds = build
    elapsed, result = best
    return PointResult(
        name=f"{figure}:{workload}:{design.name}",
        workload=workload,
        design=design.name,
        trace_seconds=trace_seconds,
        build_seconds=build_seconds,
        simulate_seconds=elapsed,
        requests=result.requests,
        instructions=result.instructions,
        cycles=result.cycles,
        requests_per_sec=result.requests / elapsed if elapsed > 0 else 0.0,
        trace_source=trace_source,
    )


def run_bench(
    scale: float = 0.1,
    repeats: int = 3,
    points: Sequence[tuple] = DEFAULT_POINTS,
    config: Optional[SoCConfig] = None,
    obs=None,
    trace_cache: Optional[str] = None,
) -> Dict[str, object]:
    """Run every benchmark point and return the report dict.

    ``obs`` is telemetry *about* the benchmark, never *inside* it: the
    timed simulate loop stays unobserved (observing it would distort
    the tracked requests/sec), and each point instead yields one
    ``bench.point`` span plus ``bench.*`` metrics after its best run.

    ``trace_cache`` names a compiled-trace store directory: a warm
    rerun mmaps prior compilations (trace stage ≈ 0) and the report's
    ``trace_cache`` block records the hit/miss/store traffic.
    """
    config = config if config is not None else SoCConfig()
    if trace_cache is not None:
        registry.set_trace_cache(trace_cache)
    trace_ctx = None
    if obs is not None and obs.tracing:
        from repro.obs.trace_context import TraceContext

        trace_ctx = TraceContext.new()
    # The benchmarked points are enumerated through a SweepSpec like
    # every other entry point; the figure labels ride alongside (they
    # are report metadata, not point identity).
    spec = SweepSpec.explicit(
        [(workload, design) for _figure, workload, design in points],
        name="bench")
    figures = [figure for figure, _workload, _design in points]
    results: List[PointResult] = []
    for figure, (workload, design, _track) in zip(figures,
                                                  spec.resolved_points()):
        point = _bench_point(figure, workload, design, config, scale, repeats)
        results.append(point)
        if obs is not None:
            obs.metrics.add("bench.points")
            obs.metrics.histogram("bench.simulate_seconds").record(
                point.simulate_seconds)
            obs.metrics.histogram("bench.requests_per_sec").record(
                point.requests_per_sec)
            if trace_ctx is not None:
                obs.tracer.emit(
                    "span", time.time(), name="bench.point",
                    dur=point.simulate_seconds, point=point.name,
                    requests=point.requests,
                    requests_per_sec=round(point.requests_per_sec, 1),
                    **trace_ctx.child().span_fields())
    total_requests = sum(r.requests for r in results)
    total_seconds = sum(r.simulate_seconds for r in results)
    total_trace_seconds = sum(r.trace_seconds for r in results)
    stats = registry.trace_cache_stats()
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "scale": scale,
        "repeats": repeats,
        "trace_cache": {
            "enabled": trace_cache is not None,
            "dir": trace_cache,
            "hits": stats["hits"],
            "misses": stats["misses"],
            "stores": stats["stores"],
            "trace_seconds": round(total_trace_seconds, 6),
        },
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "points": [r.as_dict() for r in results],
        "total": {
            "requests": total_requests,
            "simulate_seconds": round(total_seconds, 6),
            "requests_per_sec": (
                round(total_requests / total_seconds, 1)
                if total_seconds > 0 else 0.0
            ),
        },
    }


def attach_baseline(report: Dict[str, object], baseline: Dict[str, object]) -> None:
    """Embed ``baseline`` (a prior report) and per-point speedups."""
    report["baseline"] = baseline
    by_name = {p["name"]: p for p in baseline.get("points", ())}
    speedup: Dict[str, float] = {}
    for point in report["points"]:
        prior = by_name.get(point["name"])
        if prior and prior.get("requests_per_sec"):
            speedup[point["name"]] = round(
                point["requests_per_sec"] / prior["requests_per_sec"], 2)
    base_total = baseline.get("total", {}).get("requests_per_sec")
    if base_total:
        speedup["total"] = round(
            report["total"]["requests_per_sec"] / base_total, 2)
    report["speedup_vs_baseline"] = speedup


def check_regression(
    report: Dict[str, object], recorded: Dict[str, object], tolerance: float,
) -> Optional[str]:
    """None if within tolerance, else a human-readable failure message."""
    recorded_rps = recorded.get("total", {}).get("requests_per_sec")
    if not recorded_rps:
        return "recorded benchmark file has no total requests/sec"
    current = report["total"]["requests_per_sec"]
    floor = recorded_rps * (1.0 - tolerance)
    if current < floor:
        return (
            f"throughput regression: {current:.0f} requests/sec is more than "
            f"{tolerance:.0%} below the recorded {recorded_rps:.0f} "
            f"(floor {floor:.0f})"
        )
    return None


def render(report: Dict[str, object]) -> str:
    """Human-readable summary of a benchmark report."""
    lines = [
        f"Simulation hot-path benchmark "
        f"(scale={report['scale']}, best of {report['repeats']})",
        "",
        f"{'point':38s} {'sim (s)':>9s} {'requests':>10s} {'req/s':>10s}",
    ]
    for p in report["points"]:
        lines.append(
            f"{p['name']:38s} {p['simulate_seconds']:9.3f} "
            f"{p['requests']:10d} {p['requests_per_sec']:10.0f}"
        )
    total = report["total"]
    lines.append(
        f"{'TOTAL':38s} {total['simulate_seconds']:9.3f} "
        f"{total['requests']:10d} {total['requests_per_sec']:10.0f}"
    )
    cache = report.get("trace_cache")
    if cache and cache.get("enabled"):
        lines.append(
            f"trace cache: {cache['hits']} hit(s), {cache['misses']} "
            f"miss(es), {cache['stores']} store(s); trace stage "
            f"{cache['trace_seconds']:.3f}s"
        )
    speedup = report.get("speedup_vs_baseline")
    if speedup:
        lines.append("")
        lines.append("Speedup vs recorded baseline:")
        for name, value in speedup.items():
            lines.append(f"  {name:36s} {value:5.2f}x")
    return "\n".join(lines)


def main(
    scale: float = 0.1,
    repeats: int = 3,
    out: Optional[str] = None,
    baseline_path: Optional[str] = None,
    compare_path: Optional[str] = None,
    tolerance: float = 0.30,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    trace_cache: Optional[str] = None,
) -> int:
    """CLI entry (wired to ``repro-experiment bench``); returns exit code."""
    # Read the reference files up front so a bad path fails cleanly
    # before the (multi-second) benchmark run, not after it.
    baseline = recorded = None
    for label, path in (("--bench-baseline", baseline_path),
                        ("--bench-compare", compare_path)):
        if path is None:
            continue
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            print(f"repro-experiment: error: cannot read {label} "
                  f"'{path}': {exc}", file=sys.stderr)
            return 2
        if label == "--bench-baseline":
            baseline = loaded
        else:
            recorded = loaded

    obs = None
    if trace_out or metrics_out:
        from repro.obs import JsonLinesTracer, Observability

        tracer = JsonLinesTracer(trace_out) if trace_out else None
        obs = Observability(tracer=tracer)
    report = run_bench(scale=scale, repeats=repeats, obs=obs,
                       trace_cache=trace_cache)
    if baseline is not None:
        attach_baseline(report, baseline)
    print(render(report))
    if obs is not None:
        obs.close()
        if metrics_out:
            from repro.obs.manifest import build_manifest, write_manifest

            manifest = build_manifest(
                config=SoCConfig(), metrics=obs.metrics,
                extra={"experiments": ["bench"], "scale": scale,
                       "bench_total": report["total"]})
            print(f"wrote {write_manifest(metrics_out, manifest)}")
        if trace_out:
            print(f"wrote {trace_out} ({obs.tracer.events_emitted} events)")
    if out is not None:
        try:
            parent = Path(out).resolve().parent
            parent.mkdir(parents=True, exist_ok=True)
            Path(out).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            print(f"repro-experiment: error: cannot write --bench-out "
                  f"'{out}': {exc}", file=sys.stderr)
            return 2
        print(f"\nwrote {out}")
    if recorded is not None:
        failure = check_regression(report, recorded, tolerance)
        if failure is not None:
            print(f"bench: FAIL: {failure}", file=sys.stderr)
            return 1
        recorded_rps = recorded["total"]["requests_per_sec"]
        print(f"bench: OK: {report['total']['requests_per_sec']:.0f} req/s "
              f"vs recorded {recorded_rps:.0f} (tolerance {tolerance:.0%})")
    return 0
