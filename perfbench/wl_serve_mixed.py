"""``serve-mixed``: an open loop of single-point requests against the service.

One ``repro-experiment serve --jobs 1 --scale 0.25`` subprocess with a
fresh cache directory.  Set-up starts it, warms the 18 ``sim-full``
points into its memo and generates the traces of the cold points.  Then
one client with eight connections sends single-point ``/v1/simulate``
requests on a seeded open-loop schedule at 20 req/s: 85% hot points
(memo hits) and 15% small cold points at scale 0.05, made distinct by a
``cu_window`` override, which the server must compute.  Hot hits
wait out the batch window, and queue behind the cold waves, which is
where a batching change shows.  Each request is timed from the moment
it was due.

The cold points are small so that ``p90_ms`` falls among cold requests
and the hits queued behind them, whose latency grows in step with host
time (see README.md): behind long waves, the number of hits that wait
grows with the wave too, and no host-speed scaling held that tail.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness
from repro.service.client import ServiceClient, ServiceError
from repro.system.designs import design_slug

from wl_sim_full import DESIGNS, WORKLOADS

SCALE = 0.25
RATE_PER_S = 20.0
COLD_SHARE = 0.15
COLD_SCALE = 0.05
#: Enough connections that hot requests due during a cold wave are sent
#: on time and wait in the server, where the head-of-line cost is.
#: With two, the client itself stalled behind each wave and that stall,
#: not the server, set the tail.
CONNECTIONS = 8
SETUP_REPEATS = 3
#: Cold points take cu_window values near the default (64), never it,
#: nearest first, so each costs about what the default would.
CU_WINDOWS = sorted((w for w in range(48, 81) if w != 64),
                    key=lambda w: (abs(w - 64), w))
KIND = {d.name: d.kind for d in DESIGNS}
HOT = [(w, design_slug(d.name)) for w in WORKLOADS for d in DESIGNS]
#: lud and nw are left out: their cost hardly shrinks with scale (0.2 s
#: and 0.4 s a point at scale 0.05), against 20-40 ms for these.
COLD = [(w, design_slug(d.name)) for w in ("bfs", "pagerank", "hotspot",
                                           "kmeans") for d in DESIGNS]

_LISTENING = re.compile(r"listening on http://([^\s:]+):(\d+)")


class Server:
    """A ``repro-experiment serve`` subprocess with its own cache dir."""

    def __init__(self, root: Path) -> None:
        self.root = root
        root.mkdir(parents=True)
        self.log = root / "serve.log"
        env = dict(os.environ, PYTHONPATH=str(harness.ROOT / "src"))
        with open(self.log, "w") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments.cli", "serve",
                 "--port", "0", "--jobs", "1", "--scale", str(SCALE),
                 "--cache-dir", str(root / "cache")],
                cwd=str(harness.ROOT), env=env, stdout=out,
                stderr=subprocess.STDOUT)
        self.host, self.port = self._wait_listening(timeout=60.0)

    def _wait_listening(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start: {self.log.read_text()}")

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text() \
            .rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _reply_record(point) -> Dict[str, object]:
    return harness.point_record(point.workload, point.design, point.cycles,
                                point.instructions, point.requests,
                                point.counters or {})


def _setup(root: Path) -> Tuple[Server, float, Dict[Tuple[str, str], dict]]:
    start = time.perf_counter()
    server = Server(root)
    try:
        with ServiceClient(server.host, server.port, timeout=120) as client:
            reply = client.simulate(HOT, include_counters=True)
            client.simulate(COLD, scale=COLD_SCALE)
    except BaseException:
        server.stop()
        raise
    wall = time.perf_counter() - start
    reference = {(w, s): _reply_record(p) for (w, s), p in
                 zip(HOT, reply.points)}
    return server, wall, reference


class _Schedule:
    """The seeded open loop: due times, and which point each request asks."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.n_cold = 0

    def _cold(self) -> Tuple[Tuple[str, str], int]:
        # Walk the (point, window) pairs in a fixed order, so every seed
        # asks for the same cold work; the seed shuffles when it arrives.
        # Seeded windows made the work, and sim_req_per_s, differ by
        # seed: 10% between two seeds, each run three times.
        k = self.n_cold
        self.n_cold += 1
        if k >= len(COLD) * len(CU_WINDOWS):
            raise ValueError("run too long: every cold point would repeat")
        return COLD[k % len(COLD)], CU_WINDOWS[k // len(COLD)]

    def requests(self, seconds: float) -> List[dict]:
        """``RATE_PER_S * seconds`` requests, ``COLD_SHARE`` of them cold.

        Every request gets its own equal slot of the schedule and arrives
        at a seeded offset within it: a jittered grid, not a Poisson
        process, because Poisson bunching made the tail latency depend
        more on the seed than on the server.  Cold requests use the
        middle 60% of slots of their own, so every seed offers the same
        cold load and two cold waves never queue behind each other.
        """
        total = max(1, round(RATE_PER_S * seconds))
        n_cold = round(COLD_SHARE * total)
        slot = seconds / n_cold if n_cold else 0.0
        colds = [self._cold() for _ in range(n_cold)]
        self.rng.shuffle(colds)
        out = []
        for j, (point, window) in enumerate(colds):
            due = (j + self.rng.uniform(0.2, 0.8)) * slot
            out.append({"due": due, "point": point, "cold": True,
                        "scale": COLD_SCALE, "config": {"cu_window": window}})
        n_hot = total - n_cold
        for j in range(n_hot):
            out.append({"due": (j + self.rng.random()) * seconds / n_hot,
                        "point": self.rng.choice(HOT), "cold": False,
                        "scale": None, "config": None})
        out.sort(key=lambda item: item["due"])
        return out


def _open_loop(server: Server, plan: List[dict], tracer: harness.Tracer,
               probes: List[float]) -> float:
    """Send ``plan`` on schedule over the connections; returns makespan.

    Meanwhile this thread times the calibration loop in a probe process
    every quarter second and appends the times to ``probes``.
    """
    lock = threading.Lock()
    queue = list(reversed(plan))
    clients = [ServiceClient(server.host, server.port, timeout=120)
               for _ in range(CONNECTIONS)]
    start = time.perf_counter()

    def worker(client: ServiceClient) -> None:
        while True:
            with lock:
                if not queue:
                    return
                item = queue.pop()
            delay = start + item["due"] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            item["sent"] = time.perf_counter() - start
            try:
                reply = client.simulate([item["point"]],
                                        scale=item["scale"],
                                        config=item["config"],
                                        include_counters=True)
                item["reply"] = reply.points[0]
            except (ServiceError, OSError) as exc:
                item["error"] = f"{type(exc).__name__}: {exc}"
            item["done"] = time.perf_counter() - start

    threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
    with tracer.span("open_loop") as loop_span, \
            harness.ProbeProcess() as prober:
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            probes.append(prober.probe())
            time.sleep(0.25)
        for thread in threads:
            thread.join()
    for client in clients:
        client.close()
    if tracer.enabled:
        # Request spans are recorded after the loop, from the times the
        # workers took: the connections overlap, so they cannot
        # share the tracer's nesting stack while they run.
        for item in plan:
            tracer.add("service.request", start + item["sent"],
                       start + item["done"], loop_span.index,
                       cold=item["cold"], tier=getattr(
                           item.get("reply"), "tier", "error"))
    return max(item["done"] for item in plan)


def _loop(server: Server, schedule: _Schedule, seconds: float,
          reference: Dict[Tuple[str, str], dict],
          tracer: harness.Tracer) -> Dict[str, object]:
    plan = schedule.requests(seconds)
    probes: List[float] = []
    with ServiceClient(server.host, server.port) as probe:
        health0, metrics0 = probe.healthz(), probe.metrics()["counters"]
        cpu0 = server.cpu_s()
        makespan = _open_loop(server, plan, tracer, probes)
        cpu = server.cpu_s() - cpu0
        health1, metrics1 = probe.healthz(), probe.metrics()["counters"]

    ledger = harness.Ledger()
    problems, records = [], []
    rates: List[float] = []
    latency: Dict[str, List[float]] = {"hot": [], "cold": [], "memo": [],
                                       "disk": [], "computed": [], "all": []}
    late = []
    for item in plan:
        late.append(1e3 * (item["sent"] - item["due"]))
        if "error" in item:
            problems.append(f"{item['point']}: {item['error']}")
            continue
        point = item["reply"]
        record = _reply_record(point)
        ms = 1e3 * (item["done"] - item["due"])
        latency["all"].append(ms)
        latency["cold" if item["cold"] else "hot"].append(ms)
        latency.setdefault(point.tier, []).append(ms)
        kind = KIND[point.design]
        if item["cold"]:
            records.append(dict(record, config=item["config"]))
            errors = harness.conservation_errors(kind, point.requests,
                                                 point.counters or {})
            if errors:
                problems.append(f"{item['point']} {item['config']}: "
                                + "; ".join(errors))
        elif record != reference[item["point"]]:
            problems.append(f"{item['point']}: hot reply differs from warm-up")
        if point.tier == "computed":
            rates.append(point.requests / point.wall_clock_seconds)
            ledger.add(kind, point.cycles, point.requests,
                       point.counters or {}, point.wall_clock_seconds)

    def delta(name: str) -> float:
        return metrics1.get(name, 0) - metrics0.get(name, 0)

    waves = health1.raw["pool"]["waves_run"] - health0.raw["pool"]["waves_run"]
    return {
        "makespan": makespan, "latency": latency, "late": late, "plan": plan,
        "factor": harness.REF_CALIBRATION_MS / harness.median(probes),
        "probes": probes,
        "attempted": len(plan), "problems": problems,
        "rates": rates, "ledger": ledger,
        "cold_digest": harness.digest(records), "server_cpu": cpu,
        "points_per_wave": delta("service.points.enqueued") / max(waves, 1),
        "shed": delta("service.points.shed"),
        "computed": health1.simulations_run - health0.simulations_run,
    }


def run(seed: int, seconds: float, tracer: harness.Tracer) -> Dict[str, object]:
    root = Path(tempfile.mkdtemp(prefix="serve-", dir=harness.OUT / "tmp"))
    server: Optional[Server] = None
    setups, references = [], []
    speed = harness.HostSpeed(tracer)
    try:
        for rep in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            with tracer.span("setup"):
                server, wall, reference = _setup(root / f"server{rep}")
            setups.append(wall * speed.factor())
            references.append(reference)
        schedule = _Schedule(seed)
        loops = []
        if tracer.enabled:
            tracer.enabled = False
            loops.append(_loop(server, schedule, seconds, reference, tracer))
            tracer.enabled = True
        loops.append(_loop(server, schedule, seconds, reference, tracer))
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(root, ignore_errors=True)

    result = loops[-1]
    problems = [p for loop in loops for p in loop["problems"]]
    hot_digest = harness.digest(references[0].values())
    if any(harness.digest(r.values()) != hot_digest for r in references):
        problems.append("warm-up replies differ between set-ups")
    # The first loop runs the seed's schedule in both modes; a traced
    # run's second loop asks for further cold points.
    digests = [hot_digest, loops[0]["cold_digest"]]
    # The cold points depend on the run length as well as the seed.
    pinned = harness.pinned_digest("serve-mixed", seed, seconds)
    if pinned is not None and digests != pinned:
        problems.append(f"digest {digests} != pinned {pinned}")
    attempted = sum(loop["attempted"] for loop in loops)
    failed = min(attempted, len(problems))

    lat = result["latency"]
    # Server compute and the tail latency, mostly cold points' batch
    # window plus simulation, are scaled to reference host speed.  The
    # median request is a memo hit that was not behind a wave: about
    # 10 ms of the server's batch window (a timer, which a slow host does
    # not stretch) and 2-4 ms of work.  Scaling it by host speed added
    # the host's noise instead of removing it (over ten seeds the middle
    # half of the scaled medians spread by 9-32% of their median, of the
    # raw ones by 1.6-15%), so it stays raw, as does the makespan, which
    # follows the schedule.  sim_req_per_s is the median computed point's
    # rate, not all requests over all time: a cold point is 10-60 ms of
    # host time, and the few that another guest stalled skewed the total
    # (over ten seeds the middle half spread by 12% of the median for the
    # total, 7% for the median rate).
    e2e = {
        "setup_s": harness.median(setups),
        "peak_rss_mb": harness.peak_rss_mb(),
        "sim_req_per_s": harness.median(result["rates"]) / result["factor"],
        "wall_s": result["makespan"],
        "p50_ms": harness.median(lat["all"]),
        "p90_ms": harness.p90(lat["all"]) * result["factor"],
    }
    service = {
        "service.hot_p50_ms": harness.median(lat["hot"]),
        "service.hot_p90_ms": harness.p90(lat["hot"]),
        "service.cold_p50_ms": harness.median(lat["cold"]),
        "service.memo_p50_ms": harness.median(lat["memo"]),
        "service.disk_p50_ms": harness.median(lat["disk"]),
        "service.computed_p50_ms": harness.median(lat["computed"]),
        "service.send_late_ms_p90": harness.p90(result["late"]),
        "service.server_cpu_s": result["server_cpu"],
        "service.points_per_wave": result["points_per_wave"],
        "service.failed": failed,
        "service.shed": result["shed"],
        "experiments.points_computed": result["computed"],
    }
    layer: Dict[str, float] = {}
    if tracer.enabled:
        layer.update(result["ledger"].metrics())
        layer.update(service)
        layer["obs.tracing_overhead"] = \
            result["makespan"] / loops[0]["makespan"]
        # The service's layers run in the server process; from here the
        # covered share is the part of the loop with a request in flight.
        loop_span = [s for s in tracer.spans if s.name == "open_loop"][-1]
        layer["obs.layer_coverage"] = harness.union_s(
            (s.start, s.end) for s in tracer.spans
            if s.name == "service.request") / loop_span.duration
        layer["obs.spans"] = len(tracer.spans)
    return {
        "e2e": e2e, "layer": layer, "attempted": attempted, "failed": failed,
        "problems": problems,
        "record": {"scale": SCALE, "points": [list(p) for p in HOT],
                   "cold_scale": COLD_SCALE,
                   "cold_points": [list(p) for p in COLD],
                   "rate_per_s": RATE_PER_S, "cold_share": COLD_SHARE,
                   "connections": CONNECTIONS, "digest": digests,
                   "pinned_digest": pinned, "setup_repeats": SETUP_REPEATS,
                   "service": service,
                   "raw": {"p50_ms": harness.median(lat["all"]),
                           "p90_ms": harness.p90(lat["all"]),
                           "sim_req_per_s": harness.median(result["rates"])},
                   "calibration_ms": speed.probes + result["probes"],
                   "requests": [[round(i["due"], 4), round(i["sent"], 4),
                                 round(i["done"], 4), i["cold"]]
                                for i in result["plan"]]},
    }
