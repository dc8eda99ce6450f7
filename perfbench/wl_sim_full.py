"""``sim-full``: the paper-scale hot path, serial, in one process.

Six workloads x three designs at scale 1.0.  Set-up generates the six
traces (with the run's seed, but see ``SEEDED``) and compiles them into
a fresh store; the timed part loads them back, materializes the request
lists, and calls ``build`` then ``simulate()`` per point.  ``ResultCache`` is never
touched, so a change to orchestration should not move this workload.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import harness
from repro.system.config import SoCConfig
from repro.system.designs import BASELINE_512, L1_ONLY_VC_32, VC_WITH_OPT
from repro.system.run import simulate
from repro.workloads import registry
from repro.workloads.compiled import (
    compile_trace,
    load_compiled,
    save_compiled,
    store_key,
)

SCALE = 1.0
#: Two irregular graph kernels, one dense high-bandwidth kernel and
#: three regular low-bandwidth ones.
WORKLOADS = ("bfs", "pagerank", "lud", "hotspot", "nw", "kmeans")
#: One design per hierarchy kind: the physical and full-VC designs run
#: the compiled access closures, L1-only VC runs the method path.
DESIGNS = (BASELINE_512, VC_WITH_OPT, L1_ONLY_VC_32)
SETUP_REPEATS = 3
#: Workloads that take the run's seed.  lud keeps its default seed: its
#: seed picks the sampled k-steps, which sets the problem size (58k to
#: 125k requests at scale 1.0 over seeds 0-5), so a seeded lud would
#: make a run's cost depend on its seed.
SEEDED = ("bfs", "pagerank", "hotspot", "nw", "kmeans")

POINTS = [[w, d.name] for w in WORKLOADS for d in DESIGNS]


def _trace_seed(name: str, seed: int) -> Optional[int]:
    return seed if name in SEEDED else None


def _store_dir(root: Path, name: str, seed: int) -> Path:
    return root / store_key(name, SCALE, _trace_seed(name, seed))


def _setup(root: Path, seed: int, tracer: harness.Tracer,
           speed: harness.HostSpeed) -> Dict[str, float]:
    """Generate and compile every trace into a fresh store under ``root``."""
    stage = {"generate": 0.0, "compile": 0.0, "save": 0.0, "scaled": 0.0}
    with tracer.span("setup"):
        for name in WORKLOADS:
            t0 = time.perf_counter()
            with tracer.span("workloads.generate", workload=name):
                trace = registry.load(name, scale=SCALE,
                                      seed=_trace_seed(name, seed))
            t1 = time.perf_counter()
            with tracer.span("workloads.compile", workload=name):
                compiled = compile_trace(trace)
            t2 = time.perf_counter()
            with tracer.span("workloads.store_save", workload=name):
                save_compiled(compiled, _store_dir(root, name, seed), SCALE,
                              _trace_seed(name, seed))
            t3 = time.perf_counter()
            stage["generate"] += t1 - t0
            stage["compile"] += t2 - t1
            stage["save"] += t3 - t2
            stage["scaled"] += (t3 - t0) * speed.factor()
        # The in-process memo must not serve the next repetition.
        registry.clear_cache()
    return stage


def _timed_access(hierarchy, acc: List[float]) -> None:
    """Accumulate host time and calls of ``hierarchy.access`` into ``acc``.

    ``simulate()`` binds ``hierarchy.access`` once per run, so an
    instance attribute set before the call is what the issue loop uses.
    """
    inner = hierarchy.access
    clock = time.perf_counter

    def access(cu_id, request, now, asid=0):
        t = clock()
        done = inner(cu_id, request, now, asid)
        acc[0] += clock() - t
        acc[1] += 1
        return done

    hierarchy.access = access


def _pass(root: Path, seed: int, tracer: harness.Tracer,
          speed: harness.HostSpeed) -> Dict[str, object]:
    """Load, materialize and simulate all 18 points once.

    Besides raw stage times it returns each unit (a trace load, a point)
    scaled to reference host speed.
    """
    config = SoCConfig()
    ledger = harness.Ledger()
    records, problems, point_ms = [], [], []
    stage = {"load": 0.0, "materialize": 0.0, "build": 0.0, "simulate": 0.0}
    scaled = {"wall": 0.0, "simulate": 0.0}
    requests = 0
    start = time.perf_counter()
    with tracer.span("pass"):
        for name in WORKLOADS:
            t0 = time.perf_counter()
            with tracer.span("workloads.store_load", workload=name):
                trace = load_compiled(_store_dir(root, name, seed))
            if trace is None:
                problems.append(f"{name}: compiled trace failed to load")
                continue
            t1 = time.perf_counter()
            with tracer.span("workloads.materialize", workload=name):
                trace.coalesced_per_cu()
            t2 = time.perf_counter()
            stage["load"] += t1 - t0
            stage["materialize"] += t2 - t1
            scaled["wall"] += (t2 - t0) * speed.factor()
            for design in DESIGNS:
                t0 = time.perf_counter()
                with tracer.span("system.build", workload=name,
                                 design=design.name):
                    hierarchy = design.build(
                        config, {0: trace.address_space.page_table})
                acc = [0.0, 0]
                if tracer.enabled:
                    _timed_access(hierarchy, acc)
                t1 = time.perf_counter()
                with tracer.span("system.simulate", workload=name,
                                 design=design.name) as span:
                    result = simulate(trace, hierarchy,
                                      design.soc_config(config),
                                      design=design.name)
                t2 = time.perf_counter()
                factor = speed.factor()
                if tracer.enabled:
                    span.attrs.update(child_s=acc[0], access_calls=acc[1],
                                      kind=design.kind)
                stage["build"] += t1 - t0
                stage["simulate"] += t2 - t1
                scaled["wall"] += (t2 - t0) * factor
                scaled["simulate"] += (t2 - t1) * factor
                point_ms.append((t2 - t0) * 1e3 * factor)
                requests += result.requests
                ledger.add(design.kind, result.cycles, result.requests,
                           result.counters, t2 - t1, acc[0])
                records.append(harness.point_record(
                    name, design.name, result.cycles, result.instructions,
                    result.requests, result.counters))
                errors = harness.conservation_errors(
                    design.kind, result.requests, result.counters)
                if errors:
                    problems.append(f"{name}/{design.name}: "
                                    + "; ".join(errors))
            del trace
    return {"wall": time.perf_counter() - start, "stage": stage,
            "scaled": scaled,
            "requests": requests, "point_ms": point_ms, "ledger": ledger,
            "digest": harness.digest(records), "problems": problems}


def run(seed: int, seconds: float, tracer: harness.Tracer) -> Dict[str, object]:
    # Traces come only from the stores this workload builds.
    registry.set_trace_cache(None)
    root = Path(tempfile.mkdtemp(prefix="sim-full-", dir=harness.OUT / "tmp"))
    speed = harness.HostSpeed(tracer)
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            store = root / f"store{rep}"
            if rep:
                shutil.rmtree(root / f"store{rep - 1}")
            setups.append(_setup(store, seed, tracer, speed))
        store_bytes = sum(p.stat().st_size for p in store.rglob("*")
                          if p.is_file())
        passes = []
        if tracer.enabled:
            # One untraced pass for the overhead base, then the traced
            # pass every per-layer figure comes from.
            tracer.enabled = False
            passes.append(_pass(store, seed, tracer, speed))
            tracer.enabled = True
            passes.append(_pass(store, seed, tracer, speed))
        else:
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < seconds:
                passes.append(_pass(store, seed, tracer, speed))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    problems = [p for r in passes for p in r["problems"]]
    digests = sorted({r["digest"] for r in passes})
    if len(digests) != 1:
        problems.append(f"passes disagree: digests {digests}")
    pinned = harness.pinned_digest("sim-full", seed)
    if pinned is not None and digests != [pinned]:
        problems.append(f"digest {digests} != pinned {pinned} for seed {seed}")
    attempted = len(POINTS) * len(passes)
    failed = min(attempted, len(problems))

    e2e = {
        "setup_s": harness.median(s["scaled"] for s in setups),
        "peak_rss_mb": harness.peak_rss_mb(),
        "sim_req_per_s": harness.median(
            r["requests"] / r["scaled"]["simulate"] for r in passes),
        "wall_s": harness.median(r["scaled"]["wall"] for r in passes),
        "p50_ms": harness.median(ms for r in passes for ms in r["point_ms"]),
        "p90_ms": harness.p90(ms for r in passes for ms in r["point_ms"]),
    }
    layer: Dict[str, float] = {}
    if tracer.enabled:
        base, traced = passes
        layer.update(traced["ledger"].metrics())
        # Host cost per simulated request comes from the untraced pass:
        # the access wrapper adds its own time to the traced one.
        untraced = base["ledger"].metrics()
        for kind in harness.KINDS:
            name = f"system.ns_per_request.{kind}"
            layer[name] = untraced[name]
        self_by_name = tracer.self_by_name()
        layer.update({
            "workloads.generate_s": harness.median(s["generate"] for s in setups),
            "workloads.compile_s": harness.median(s["compile"] for s in setups),
            "workloads.store_save_s": harness.median(s["save"] for s in setups),
            "workloads.store_load_s": traced["stage"]["load"],
            "workloads.materialize_s": traced["stage"]["materialize"],
            "workloads.store_bytes": store_bytes,
            "system.build_s": traced["stage"]["build"],
            "system.issue_loop_self_s": self_by_name.get("system.simulate", 0.0),
            "obs.tracing_overhead": traced["wall"] / base["wall"],
        })
        layered = sum(secs for name, secs in self_by_name.items()
                      if name.startswith(("workloads.", "system.")))
        layered += sum(traced["ledger"].access_s.values())
        layer["obs.layer_coverage"] = layered / tracer.program_wall()
        layer["obs.spans"] = len(tracer.spans)
    return {
        "e2e": e2e, "layer": layer, "attempted": attempted, "failed": failed,
        "problems": problems,
        "record": {"scale": SCALE, "points": POINTS, "seeded": SEEDED,
                   "raw": {"setup_s": [s["generate"] + s["compile"] + s["save"]
                                       for s in setups],
                           "wall_s": [r["wall"] for r in passes],
                           "simulate_s": [r["stage"]["simulate"]
                                          for r in passes]},
                   "calibration_ms": speed.probes,
                   "digest": digests,
                   "pinned_digest": pinned, "passes": len(passes),
                   "setup_repeats": SETUP_REPEATS},
    }
