"""``/v1/sweep``: validation to 400 and durable jobs.

A SweepSpec posted to the service becomes a *job*: journaled before the
202 (so a crashed server replays it) and validated by the same strict
parser the CLI uses (so a bad spec is a typed 400, never a half-run).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.sweepspec import SweepSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobJournal
from repro.service.server import ExperimentService

SCALE = 0.05

REPO_ROOT = Path(__file__).resolve().parent.parent

SPEC = {
    "version": 1,
    "name": "svc-sweep",
    "workloads": ["bfs"],
    "designs": ["ideal-mmu", "baseline-512"],
}


def _service(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return ExperimentService(port=0, jobs=1, scale=SCALE,
                             batch_window=0.005, **kwargs)


# -- happy path -----------------------------------------------------------

def test_sweep_job_runs_and_second_submit_is_all_cache(tmp_path):
    service = _service(tmp_path)
    service.start_in_thread()
    try:
        with ServiceClient(service.host, service.port) as client:
            job_id = client.sweep(SPEC)
            reply = client.wait(job_id, timeout=120.0)
            assert [(p.workload, p.design) for p in reply.points] == \
                [("bfs", "IDEAL MMU"), ("bfs", "Baseline 512")]
            assert all(p.cycles > 0 for p in reply.points)

            again = client.wait(client.sweep(SPEC), timeout=120.0)
            assert (again.simulations_run_total
                    == reply.simulations_run_total)
            assert all(p.tier in ("memo", "disk") for p in again.points)
    finally:
        service.shutdown()


def test_sweep_accepts_spec_objects_and_respects_output(tmp_path):
    service = _service(tmp_path)
    service.start_in_thread()
    try:
        with ServiceClient(service.host, service.port) as client:
            spec = SweepSpec.from_dict(
                {**SPEC, "output": {"include_counters": True}})
            reply = client.wait(client.sweep(spec), timeout=120.0)
            assert all(p.counters for p in reply.points)
    finally:
        service.shutdown()


# -- validation: typed spec errors become HTTP 400 ------------------------

BAD_SWEEPS = [
    pytest.param({**SPEC, "designs": ["nope"]},
                 "unknown design 'nope'", id="unknown-design"),
    pytest.param({**SPEC, "workloads": ["nope"]},
                 "unknown workload 'nope'", id="unknown-workload"),
    pytest.param({**SPEC, "scale": -1}, "positive", id="bad-scale"),
    pytest.param({**SPEC, "version": 99}, "version 99", id="version-skew"),
    pytest.param({**SPEC, "faults": {"rates": [0.001]}},
                 "repro-experiment sweep", id="fault-plan-rejected"),
    pytest.param({**SPEC, "check_invariants": True},
                 "--check-invariants", id="needs-auditing-server"),
]


@pytest.mark.parametrize("doc,fragment", BAD_SWEEPS)
def test_bad_sweep_is_http_400(tmp_path, doc, fragment):
    service = _service(tmp_path)
    service.start_in_thread()
    try:
        with ServiceClient(service.host, service.port) as client:
            with pytest.raises(ServiceError) as exc:
                client.sweep(doc)
            assert exc.value.status == 400
            assert fragment in str(exc.value)
    finally:
        service.shutdown()


def test_sweep_without_spec_object_is_400(tmp_path):
    service = _service(tmp_path)
    service.start_in_thread()
    try:
        with ServiceClient(service.host, service.port) as client:
            with pytest.raises(ServiceError) as exc:
                client._request("POST", "/v1/sweep", {"points": []},
                                idempotent=False)
            assert exc.value.status == 400
            assert "'sweep' object" in str(exc.value)
    finally:
        service.shutdown()


# -- durability: the spec survives a server restart -----------------------

def test_sweep_job_survives_restart(tmp_path):
    journal = str(tmp_path / "jobs.rpck")
    first = _service(tmp_path, jobs_journal=journal)
    first.start_in_thread()
    try:
        with ServiceClient(first.host, first.port) as client:
            job_id = client.sweep(SPEC)
            cycles = [p.cycles
                      for p in client.wait(job_id, timeout=120.0).points]
    finally:
        first.shutdown()

    second = _service(tmp_path, jobs_journal=journal)
    second.start_in_thread()
    try:
        with ServiceClient(second.host, second.port) as client:
            reply = client.poll(job_id)
            assert reply.status == "done"
            assert [p.cycles for p in reply.result.points] == cycles
    finally:
        second.shutdown()


def test_journaled_sweep_replays_after_crash(tmp_path):
    """Crash between journal write and execution: the raw sweep body in
    the journal replays through the sweep-aware parser to completion."""
    journal = JobJournal(tmp_path / "jobs.rpck")
    body = json.dumps({"sweep": SPEC}).encode("utf-8")
    journal.record_submitted("sweep-resume", body, "trace-sw", time.time())

    service = _service(tmp_path, jobs_journal=str(tmp_path / "jobs.rpck"))
    service.start_in_thread()
    try:
        with ServiceClient(service.host, service.port) as client:
            result = client.wait("sweep-resume", timeout=120.0)
            assert [p.design for p in result.points] == \
                ["IDEAL MMU", "Baseline 512"]
    finally:
        service.shutdown()

    jobs = JobJournal(tmp_path / "jobs.rpck").replay()
    assert [j.job_id for j in jobs] == ["sweep-resume"]
    assert jobs[0].finished and jobs[0].status == "done"


# -- the shipped example --------------------------------------------------

def test_sweep_spec_example_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_SCALE", None)
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "sweep_spec.py"),
         "0.05"],
        capture_output=True, text=True, timeout=300,
        env=env, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "rejected as UnknownDesignError" in proc.stdout
    assert "0 new simulations" in proc.stdout
    assert "submitted sweep job" in proc.stdout
    assert "[disk]" in proc.stdout
    assert "service drained cleanly" in proc.stdout
