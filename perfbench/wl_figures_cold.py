"""``figures-cold``: regenerate every figure from empty caches.

The drivers ``repro-experiment all`` runs, in its order, at scale 0.1
through one ``ResultCache(jobs=2)`` whose ``cache_dir`` is fresh, so
the result cache and the trace store both start empty.  Two workers
race on the same traces, so this is where orchestration shows: the
process pool, the disk-cache write path and trace generation.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

import harness
from repro.analysis.paper_targets import (
    collect_measurements,
    compare_all,
    render_report,
)
from repro.experiments import (
    coherence,
    energy,
    fig2,
    fig3,
    fig4,
    fig5,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
)
from repro.experiments import common
from repro.experiments.common import ResultCache
from repro.workloads import compiled, registry

SCALE = 0.1
JOBS = 2
SETUP_REPEATS = 5
#: Set-up is what a user pays before the first figure starts: a fresh
#: interpreter importing the CLI and the figure drivers.
IMPORT_PROBE = "import repro.experiments.cli, repro.analysis.paper_targets"

DRIVERS: Dict[str, Callable[[ResultCache], object]] = {
    "coherence": coherence.run, "energy": energy.run, "fig10": fig10.run,
    "fig11": fig11.run, "fig12": fig12.run, "fig2": fig2.run,
    "fig3": fig3.run, "fig4": fig4.run, "fig5": fig5.run, "fig8": fig8.run,
    "fig9": fig9.run,
}


def _kind(counters: Dict[str, float]) -> str:
    """Design kind from the counters a result carries.

    Virtual designs count ``vc.accesses``; of those, only L1-only VC has
    per-CU TLBs and so counts ``tlb.accesses``.
    """
    if "vc.accesses" not in counters:
        return "physical"
    return "l1vc" if "tlb.accesses" in counters else "vc"


def _import_seconds(speed: harness.HostSpeed) -> float:
    """One fresh-interpreter import, scaled to reference host speed."""
    env = dict(os.environ, PYTHONPATH=str(harness.ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                   cwd=str(harness.ROOT), check=True)
    return (time.perf_counter() - start) * speed.factor()


def _reap_workers(timeout: float = 30.0) -> None:
    """Wait until every pool worker has exited (and been reaped)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            return
        time.sleep(0.01)


class _Patched:
    """Times calls into module functions for the traced run, then restores.

    Only parent-process calls are recorded; forked pool workers inherit
    the wrappers, but the spans they record stay in the worker.
    """

    def __init__(self, tracer: harness.Tracer) -> None:
        self.tracer = tracer
        self.saved: List[tuple] = []

    def wrap(self, owner, attr: str, span_name: str) -> None:
        inner = getattr(owner, attr)
        tracer = self.tracer

        def timed(*args, **kwargs):
            with tracer.span(span_name):
                return inner(*args, **kwargs)

        self.saved.append((owner, attr, inner))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        for owner, attr, inner in reversed(self.saved):
            setattr(owner, attr, inner)
        self.saved.clear()


def _regenerate(root: Path, tracer: harness.Tracer,
                speed: harness.HostSpeed) -> Dict[str, object]:
    """Run every driver from empty caches; driver times are also scaled.

    The calibration loop runs between drivers, while no pool worker is
    alive, so it measures other guests' load and not this run's own.
    Each driver's time, and each point it computed, takes the scale of
    the probes on either side of that driver: the host's speed changes
    within a regeneration, in phases of seconds.  (Over ten seeds, with
    each point scaled by the regeneration's median probe instead,
    ``sim_req_per_s`` spread by 12.5% of its median, against 4.5%.)
    """
    cache_dir = root / f"cache{len(list(root.iterdir()))}"
    # Drop the in-process trace memo too, so every regeneration is cold.
    registry.set_trace_cache(None)
    registry.set_trace_cache(cache_dir / "traces")
    cache = ResultCache(scale=SCALE, jobs=JOBS, cache_dir=str(cache_dir))
    patched = _Patched(tracer)
    if tracer.enabled:
        patched.wrap(registry, "load", "workloads.generate")
        patched.wrap(compiled, "compile_trace", "workloads.compile")
        patched.wrap(compiled, "save_compiled", "workloads.store_save")
        patched.wrap(common, "simulate", "system.simulate")
        patched.wrap(cache, "run_many", "experiments.run_many")
        patched.wrap(cache._disk_cache(), "store", "experiments.disk_store")
    figure_s: Dict[str, float] = {}
    scaled_s: Dict[str, float] = {}
    point_factor: Dict[object, float] = {}
    rendered: List[str] = []
    claims = 0
    cpu0, kids0 = harness.self_cpu_s(), harness.children_cpu_s()
    start = time.perf_counter()
    try:
        with tracer.span("regenerate"):
            for name in harness.FIGURES:
                t0 = time.perf_counter()
                span = "analysis.validate" if name == "validate" else \
                    f"experiments.figure.{name}"
                with tracer.span(span):
                    if name == "validate":
                        measured = collect_measurements(cache)
                        rendered.append(render_report(measured))
                        claims = sum(c.ok for c in compare_all(measured))
                    else:
                        rendered.append(DRIVERS[name](cache).render())
                _reap_workers()
                figure_s[name] = time.perf_counter() - t0
                factor = speed.factor()
                scaled_s[name] = figure_s[name] * factor
                for key in cache._results.keys() - point_factor.keys():
                    point_factor[key] = factor
    finally:
        patched.restore()
    wall = time.perf_counter() - start
    cpu = harness.self_cpu_s() - cpu0
    kids = harness.children_cpu_s() - kids0

    ledger = harness.Ledger()
    records, problems, point_ms = [], [], []
    requests = sim_s = scaled_sim_s = 0.0
    for key, result in cache._results.items():
        kind = _kind(result.counters)
        ledger.add(kind, result.cycles, result.requests, result.counters,
                   result.wall_clock_seconds)
        requests += result.requests
        sim_s += result.wall_clock_seconds
        scaled_sim_s += result.wall_clock_seconds * point_factor[key]
        point_ms.append(1e3 * result.wall_clock_seconds * point_factor[key])
        records.append(harness.point_record(
            result.workload, result.design, result.cycles,
            result.instructions, result.requests, result.counters))
        errors = harness.conservation_errors(kind, result.requests,
                                             result.counters)
        if errors:
            problems.append(f"{result.workload}/{result.design}: "
                            + "; ".join(errors))
    store_bytes = sum(p.stat().st_size for p in (cache_dir / "traces").rglob("*")
                      if p.is_file())
    figures_digest = harness.digest({"text": text} for text in rendered)
    return {"wall": wall, "figure_s": figure_s, "scaled_s": scaled_s,
            "cpu": cpu, "kids": kids,
            "points": cache.simulations_run, "records": len(records),
            "point_ms": point_ms, "requests": requests, "sim_s": sim_s,
            "scaled_sim_s": scaled_sim_s, "ledger": ledger,
            "digest": harness.digest(records), "figures_digest": figures_digest,
            "problems": problems, "claims": claims, "store_bytes": store_bytes}


def run(seed: int, seconds: float, tracer: harness.Tracer) -> Dict[str, object]:
    # The figure drivers take no seed: their inputs are the program's
    # default workload seeds, so every seed regenerates the same points.
    speed = harness.HostSpeed(tracer)
    setups = [_import_seconds(speed) for _ in range(SETUP_REPEATS)]
    root = Path(tempfile.mkdtemp(prefix="figures-", dir=harness.OUT / "tmp"))
    regens = []
    try:
        if tracer.enabled:
            tracer.enabled = False
            regens.append(_regenerate(root, tracer, speed))
            tracer.enabled = True
            regens.append(_regenerate(root, tracer, speed))
        else:
            start = time.perf_counter()
            while not regens or time.perf_counter() - start < seconds:
                regens.append(_regenerate(root, tracer, speed))
    finally:
        registry.set_trace_cache(None)
        shutil.rmtree(root, ignore_errors=True)

    problems = [p for r in regens for p in r["problems"]]
    digests = sorted({(r["digest"], r["figures_digest"]) for r in regens})
    if len(digests) != 1:
        problems.append(f"regenerations disagree: {digests}")
    pinned = harness.pinned_digest("figures-cold", seed)
    if pinned is not None and [list(d) for d in digests] != [pinned]:
        problems.append(f"digest {digests} != pinned {pinned}")
    attempted = sum(r["records"] + len(harness.FIGURES) for r in regens)
    failed = min(attempted, len(problems))

    e2e = {
        "setup_s": harness.median(setups),
        "peak_rss_mb": harness.peak_rss_mb(),
        "sim_req_per_s": harness.median(
            r["requests"] / r["scaled_sim_s"] for r in regens),
        "wall_s": harness.median(sum(r["scaled_s"].values()) for r in regens),
        "p50_ms": harness.median(ms for r in regens for ms in r["point_ms"]),
        "p90_ms": harness.p90(ms for r in regens for ms in r["point_ms"]),
    }
    layer: Dict[str, float] = {}
    if tracer.enabled:
        base, traced = regens
        layer.update(traced["ledger"].metrics())
        for name, secs in traced["figure_s"].items():
            layer[f"experiments.figure_s.{name}"] = secs
        self_by_name = tracer.self_by_name()
        busy = traced["cpu"] + traced["kids"]
        layer.update({
            "workloads.generate_s": self_by_name.get("workloads.generate", 0.0),
            "workloads.compile_s": self_by_name.get("workloads.compile", 0.0),
            "workloads.store_save_s": self_by_name.get("workloads.store_save",
                                                       0.0),
            "workloads.store_bytes": traced["store_bytes"],
            "experiments.parent_cpu_s": traced["cpu"],
            "experiments.worker_cpu_s": traced["kids"],
            "experiments.parallel_base_s": JOBS * traced["wall"],
            "experiments.parallel_efficiency": busy / (JOBS * traced["wall"]),
            "experiments.points_computed": traced["points"],
            "experiments.run_many_self_s": self_by_name.get(
                "experiments.run_many", 0.0),
            "experiments.disk_store_s": self_by_name.get(
                "experiments.disk_store", 0.0),
            "analysis.claims_in_band": traced["claims"],
            "obs.tracing_overhead": traced["wall"] / base["wall"],
        })
        layered = sum(secs for name, secs in self_by_name.items()
                      if name not in ("regenerate", harness.CALIBRATE))
        layer["obs.layer_coverage"] = layered / tracer.program_wall()
        layer["obs.spans"] = len(tracer.spans)
    return {
        "e2e": e2e, "layer": layer, "attempted": attempted, "failed": failed,
        "problems": problems,
        "record": {"scale": SCALE, "jobs": JOBS,
                   "raw": {"wall_s": [r["wall"] for r in regens],
                           "figure_s": [r["figure_s"] for r in regens]},
                   "calibration_ms": speed.probes,
                   "points": sorted(harness.FIGURES),
                   "digest": [list(d) for d in digests],
                   "pinned_digest": pinned, "regenerations": len(regens),
                   "setup_repeats": SETUP_REPEATS},
    }
