"""Shared machinery of the benchmark: spans, statistics, checks, records.

Nothing here imports the simulator.  The conservation identities and the
digests are computed from plain dictionaries of counters, so they share
no code with the model they check.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
DIGESTS = Path(__file__).resolve().with_name("digests.json")

#: Bumped whenever a workload, its point set or a metric definition
#: changes; records of different versions are never compared.
BENCH_VERSION = 2

#: The three hierarchy kinds, in report order.
KINDS = ("physical", "vc", "l1vc")

#: Simulated counters reported per design kind (summed over points).
SIM_COUNTERS = ("cycles", "requests", "tlb.misses", "iommu.accesses",
                "iommu.queue_cycles", "iommu.walks", "l1.misses",
                "l2.misses")

#: Figure drivers in the order ``repro-experiment all`` runs them
#: (sorted by name; the two tables run no simulation and are left out).
FIGURES = ("coherence", "energy", "fig10", "fig11", "fig12", "fig2", "fig3",
           "fig4", "fig5", "fig8", "fig9", "validate")


# -- spans ------------------------------------------------------------------

class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Span:
    """One timed interval: name, start, end, parent, run id, attributes."""

    __slots__ = ("tracer", "name", "start", "end", "parent", "index",
                 "attrs")

    def __init__(self, tracer: "Tracer", name: str, parent: Optional[int],
                 index: int, attrs: Dict[str, object]) -> None:
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.index = index
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "Span":
        self.tracer._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer._stack.pop()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; written out once, when the run ends.

    A disabled tracer hands out one shared no-op span, so untraced runs
    pay a method call per boundary and nothing per simulated request.
    """

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        span = Span(self, name, parent, len(self.spans), attrs)
        self.spans.append(span)
        return span

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], **attrs) -> None:
        """Record a span whose times were taken elsewhere (another thread)."""
        span = Span(self, name, parent, len(self.spans), attrs)
        span.start, span.end = start, end
        self.spans.append(span)

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the time its children cover.

        A span may carry ``child_s`` (time spent in calls it timed
        without a span of their own, such as hierarchy accesses); that
        time is subtracted too.
        """
        own = {s.index: s.duration - float(s.attrs.get("child_s", 0.0))
               for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def self_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for index, secs in self.self_times().items():
            name = self.spans[index].name
            totals[name] = totals.get(name, 0.0) + secs
        return totals

    def program_wall(self) -> float:
        """Time under top-level spans, less the calibration probes."""
        return (sum(s.duration for s in self.spans if s.parent is None)
                - sum(s.duration for s in self.spans if s.name == CALIBRATE))

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.index, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                    **s.attrs}, sort_keys=True) + "\n")


# -- statistics ---------------------------------------------------------------

def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values: Iterable[float]) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def union_s(intervals: Iterable[tuple]) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def self_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# -- correctness ----------------------------------------------------------------

def conservation_errors(kind: str, requests: int,
                        counters: Dict[str, float]) -> List[str]:
    """Identities every simulated point must satisfy, by design kind.

    Each one is a count that two parts of the model record separately;
    they are checked here from the raw counters only.
    """
    c = lambda name: counters.get(name, 0)  # noqa: E731
    checks = [("l1.hits + l1.misses == requests",
               c("l1.hits") + c("l1.misses"), requests)]
    if kind == "physical":
        checks += [
            ("tlb.accesses == requests", c("tlb.accesses"), requests),
            ("tlb.miss_l1_hit + tlb.miss_l2_hit + tlb.miss_l2_miss"
             " == tlb.misses",
             c("tlb.miss_l1_hit") + c("tlb.miss_l2_hit")
             + c("tlb.miss_l2_miss"), c("tlb.misses")),
        ]
    elif kind == "vc":
        checks += [
            ("vc.accesses == requests", c("vc.accesses"), requests),
            ("vc.l1_hits + vc.l2_hits + vc.l2_misses == vc.accesses",
             c("vc.l1_hits") + c("vc.l2_hits") + c("vc.l2_misses"),
             c("vc.accesses")),
            # Every L2 miss translates once.  That includes a write that
            # hits the L1 but misses the non-inclusive L2, which is not a
            # request-level miss: vc.l2_misses <= iommu.accesses, below.
            ("iommu.accesses == l2.misses",
             c("iommu.accesses"), c("l2.misses")),
        ]
    elif kind == "l1vc":
        checks += [
            ("vc.accesses == requests", c("vc.accesses"), requests),
            ("vc.l1_hits == l1.hits", c("vc.l1_hits"), c("l1.hits")),
            ("iommu.accesses == tlb.misses",
             c("iommu.accesses"), c("tlb.misses")),
        ]
    else:
        return [f"unknown design kind {kind!r}"]
    if "iommu.accesses" in counters:
        checks.append(("iommu.tlb_hits + iommu.tlb_misses == iommu.accesses",
                       c("iommu.tlb_hits") + c("iommu.tlb_misses"),
                       c("iommu.accesses")))
    errors = [f"{name}: {lhs} != {rhs}" for name, lhs, rhs in checks
              if lhs != rhs]
    if kind == "vc" and c("vc.l2_misses") > c("iommu.accesses"):
        errors.append(f"vc.l2_misses <= iommu.accesses: {c('vc.l2_misses')}"
                      f" > {c('iommu.accesses')}")
    return errors


def point_record(workload: str, design: str, cycles: float,
                 instructions: int, requests: int,
                 counters: Dict[str, float]) -> Dict[str, object]:
    """The simulated outputs of one point, in canonical form."""
    return {"workload": workload, "design": design, "cycles": repr(cycles),
            "instructions": int(instructions), "requests": int(requests),
            "counters": {k: counters[k] for k in sorted(counters)}}


def digest(records: Iterable[Dict[str, object]]) -> str:
    """Order-independent SHA-256 over canonical point records."""
    lines = sorted(json.dumps(r, sort_keys=True) for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def pinned_digest(workload: str, seed: int,
                  seconds: Optional[float] = None) -> Optional[str]:
    """The pinned digest for a seed (and run length, where it matters)."""
    key = str(seed) if seconds is None else f"{seed}/{seconds:g}s"
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(key)


class Ledger:
    """Per-kind sums of simulated counts and host time."""

    def __init__(self) -> None:
        self.sim = {k: {name: 0 for name in SIM_COUNTERS} for k in KINDS}
        self.simulate_s = {k: 0.0 for k in KINDS}
        self.access_s = {k: 0.0 for k in KINDS}

    def add(self, kind: str, cycles: float, requests: int,
            counters: Dict[str, float], simulate_s: float,
            access_s: float = 0.0) -> None:
        row = self.sim[kind]
        row["cycles"] += cycles
        row["requests"] += requests
        for name in SIM_COUNTERS[2:]:
            row[name] += counters.get(name, 0)
        self.simulate_s[kind] += simulate_s
        self.access_s[kind] += access_s

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for kind in KINDS:
            requests = self.sim[kind]["requests"]
            out[f"system.simulate_s.{kind}"] = self.simulate_s[kind]
            out[f"system.ns_per_request.{kind}"] = (
                1e9 * self.simulate_s[kind] / requests if requests else 0.0)
            out[f"hierarchy.access_s.{kind}"] = self.access_s[kind]
            for name in SIM_COUNTERS:
                out[f"sim.{kind}.{name}"] = self.sim[kind][name]
        return out


# -- the run record -------------------------------------------------------------

def environment() -> Dict[str, object]:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "loadavg": list(os.getloadavg()), "steal_s": steal_s(),
            "calibration_ms": calibration_ms()}


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast the host is now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(1e3 * (time.perf_counter() - start))
    return median(times)


#: Span name of the calibration probes: benchmark time, not program time.
CALIBRATE = "bench.calibrate"

#: The calibration loop's time on a quiet tuning host (2-core Xeon,
#: CPython 3.11): the speed host-time metrics are scaled to.
REF_CALIBRATION_MS = 7.0


class HostSpeed:
    """Scales host time to the reference speed, unit by unit.

    The host is shared: other guests slow every process on it by up to
    2x, in phases of seconds to minutes, so raw times of the same work
    spread by 25-35% between runs.  The calibration loop runs between
    timed units in this process, and each unit is scaled by
    ``REF_CALIBRATION_MS`` over the mean of the loop times on either
    side of it.  The loop shares no code with the simulator, so a change
    to the program moves scaled times exactly as it moves raw ones.
    """

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer
        self.probes = [calibration_ms(1)]

    def factor(self) -> float:
        """Probe again; the scale for the unit since the previous probe."""
        with self.tracer.span(CALIBRATE):
            self.probes.append(calibration_ms(1))
        return REF_CALIBRATION_MS / ((self.probes[-2] + self.probes[-1]) / 2)


class ProbeProcess:
    """The calibration loop in an interpreter of its own, run on request.

    For timing the host while this process's own threads are busy: a
    loop run in one of them would also time its wait for the GIL.
    """

    def __enter__(self) -> "ProbeProcess":
        here = str(Path(__file__).resolve().parent)
        self.proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
             " import harness; harness._answer_probes()", here],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def probe(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _answer_probes() -> None:
    for _ in sys.stdin:
        print(calibration_ms(1), flush=True)


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests since boot (Linux)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def write_record(record: Dict[str, object], tracer: Tracer) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{int(record['trace'])}-{tracer.run_id}")
    path = OUT / f"{stem}.json"
    if tracer.enabled:
        spans = OUT / f"{stem}.spans.jsonl"
        tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path
