"""Overload and deadline behaviour of the server."""

import http.client
import json
import threading
import time

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ExperimentService

SCALE = 0.05
POINT = {"workload": "bfs", "design": "baseline-512"}
OTHER_POINT = {"workload": "bfs", "design": "ideal-mmu"}
THIRD_POINT = {"workload": "kmeans", "design": "baseline-512"}


def _start_service(tmp_path, **kwargs):
    kwargs.setdefault("batch_window", 0.005)
    svc = ExperimentService(
        port=0, jobs=1, scale=SCALE, cache_dir=str(tmp_path / "cache"),
        **kwargs)
    svc.start_in_thread()
    return svc


def _occupy(service, point=POINT):
    """Start a cold request in a thread; returns (thread, error holder)."""
    errors = []

    def _run():
        try:
            with ServiceClient(service.host, service.port,
                               timeout=120.0) as client:
                client.simulate([point])
        except Exception as exc:  # surfaced by the caller
            errors.append(exc)

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    return thread, errors


# -- admission control ----------------------------------------------------

def test_server_sheds_over_max_inflight(tmp_path):
    service = _start_service(tmp_path, max_inflight=1, batch_window=0.5)
    try:
        thread, errors = _occupy(service)
        time.sleep(0.15)  # land inside the first wave's batch window
        with ServiceClient(service.host, service.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.simulate([OTHER_POINT])
            assert excinfo.value.status == 429
            assert excinfo.value.code == "overloaded"
            health = client.healthz()
            assert health.raw["shed_total"] >= 1
            assert health.raw["max_inflight"] == 1
        thread.join(timeout=120)
        assert not errors, errors
    finally:
        service.shutdown()


def test_shed_response_carries_retry_after(tmp_path):
    service = _start_service(tmp_path, max_inflight=1, batch_window=0.5)
    try:
        thread, errors = _occupy(service)
        time.sleep(0.15)
        conn = http.client.HTTPConnection(service.host, service.port,
                                          timeout=30.0)
        try:
            conn.request("POST", "/v1/simulate",
                         body=json.dumps({"points": [OTHER_POINT]}),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            assert response.status == 429
            retry_after = response.getheader("Retry-After")
            assert retry_after is not None and float(retry_after) > 0
            assert json.loads(raw)["error"] == "overloaded"
        finally:
            conn.close()
        thread.join(timeout=120)
        assert not errors, errors
    finally:
        service.shutdown()


def test_duplicate_inflight_point_is_never_shed(tmp_path):
    # A duplicate of an in-flight point coalesces for free, so admission
    # must not count it against the budget.
    service = _start_service(tmp_path, max_inflight=1, batch_window=0.5)
    try:
        thread, errors = _occupy(service)
        time.sleep(0.15)
        with ServiceClient(service.host, service.port,
                           timeout=120.0) as client:
            reply = client.simulate([POINT])  # same point: coalesces
            assert reply.points[0].cycles > 0
        thread.join(timeout=120)
        assert not errors, errors
    finally:
        service.shutdown()


def test_client_retries_through_shed(tmp_path):
    service = _start_service(tmp_path, max_inflight=1, batch_window=0.4)
    try:
        thread, errors = _occupy(service)
        time.sleep(0.1)
        with ServiceClient(service.host, service.port, timeout=120.0,
                           retries=5, retry_budget_s=60.0,
                           retry_seed=7) as client:
            reply = client.simulate([OTHER_POINT])
            assert reply.points[0].cycles > 0
            assert client.retries_performed >= 1
        thread.join(timeout=120)
        assert not errors, errors
    finally:
        service.shutdown()


# -- deadline propagation -------------------------------------------------

def test_expired_deadline_returns_504(tmp_path):
    service = _start_service(tmp_path)
    try:
        with ServiceClient(service.host, service.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.simulate([THIRD_POINT], deadline_ms=1.0)
            assert excinfo.value.status == 504
            assert excinfo.value.code == "deadline_exceeded"
    finally:
        service.shutdown()


def test_malformed_deadline_header_is_400(tmp_path):
    service = _start_service(tmp_path)
    try:
        conn = http.client.HTTPConnection(service.host, service.port,
                                          timeout=30.0)
        try:
            conn.request("POST", "/v1/simulate",
                         body=json.dumps({"points": [POINT]}),
                         headers={"Content-Type": "application/json",
                                  "X-Deadline-Ms": "soonish"})
            response = conn.getresponse()
            response.read()
            assert response.status == 400
        finally:
            conn.close()
    finally:
        service.shutdown()


def test_nonpositive_deadline_header_is_504(tmp_path):
    service = _start_service(tmp_path)
    try:
        conn = http.client.HTTPConnection(service.host, service.port,
                                          timeout=30.0)
        try:
            conn.request("POST", "/v1/simulate",
                         body=json.dumps({"points": [POINT]}),
                         headers={"Content-Type": "application/json",
                                  "X-Deadline-Ms": "-5"})
            response = conn.getresponse()
            response.read()
            assert response.status == 504
        finally:
            conn.close()
    finally:
        service.shutdown()
