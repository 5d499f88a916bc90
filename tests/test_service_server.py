"""End-to-end HTTP service: submit, poll, results, analysis, errors."""

import http.client
import json
import socket
import sys
import threading
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro import __version__
from repro.campaigns import CampaignSpec, JsonlResultStore, PointOutcome
from repro.experiments import DnaAssaySpec, ResultSet, Runner, spec_from_dict
from repro.service import (
    MAX_CAMPAIGN_POINTS,
    ResultCache,
    ServiceClient,
    ServiceError,
    start_server,
)
from repro.service.keys import point_key
from repro.service.server import MAX_BODY_BYTES

HERE = Path(__file__).resolve().parent
FAULTED_SPEC = HERE.parent / "examples" / "specs" / "dna_assay_faulted.json"
GOLDEN = HERE / "golden"

BASE = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))
CAMPAIGN = CampaignSpec(
    base=BASE, grid={"concentration": (1e-7, 1e-6)}, replicates=2, name="server-test"
)


@pytest.fixture()
def service(tmp_path):
    server, thread = start_server(
        port=0, cache=tmp_path / "cache", root=tmp_path / "jobs"
    )
    yield ServiceClient(server.url)
    server.shutdown()
    server.server_close()
    server.manager.shutdown()
    thread.join(timeout=10)


def test_health_reports_the_library_version(service):
    import repro

    assert service.health() == {"ok": True, "version": repro.__version__}


def test_submit_poll_results_round_trip(service):
    job = service.submit(CAMPAIGN, seed=1)
    assert job["status"] in ("queued", "running", "done")
    final = service.wait(job["id"])
    assert final["status"] == "done"
    assert final["n_done"] == 4
    payload = service.results(job["id"])
    assert payload["manifest"]["name"] == "server-test"
    assert [line["point"] for line in payload["results"]] == [0, 1, 2, 3]
    assert all("records" in line["result"] for line in payload["results"])
    listed = service.jobs()
    assert [entry["id"] for entry in listed] == [job["id"]]


def test_resubmission_serves_from_cache_byte_identically(service):
    cold = service.submit(CAMPAIGN, seed=1)
    cold_status = service.wait(cold["id"])
    warm = service.submit(CAMPAIGN, seed=1)
    warm_status = service.wait(warm["id"])
    assert cold_status["cache"]["computed"] == 4
    assert warm_status["cache"] == {
        "n_points": 4, "n_unique": 4, "hits": 4, "computed": 0, "replayed": 0, "failed": 0,
    }
    cold_results = {l["point"]: l["result"] for l in service.results(cold["id"])["results"]}
    warm_results = {l["point"]: l["result"] for l in service.results(warm["id"])["results"]}
    assert json.dumps(warm_results, sort_keys=True) == json.dumps(cold_results, sort_keys=True)
    # The derived statistical report is byte-identical too.
    cold_report = service.analysis(cold["id"])["analysis"]
    warm_report = service.analysis(warm["id"])["analysis"]
    assert json.dumps(warm_report, sort_keys=True) == json.dumps(cold_report, sort_keys=True)
    stats = service.cache_stats()
    assert stats["enabled"] is True
    assert stats["cache"]["hits"] >= 4


def test_analysis_accepts_an_explicit_kind(service):
    job = service.submit(CAMPAIGN, seed=1)
    service.wait(job["id"])
    report = service.analysis(job["id"], analysis="dose_response")["analysis"]
    assert report["analysis"]["kind"] == "dose_response"


def test_cancel_endpoint_flags_the_job(service):
    job = service.submit(CAMPAIGN, seed=1)
    cancelled = service.cancel(job["id"])
    assert cancelled["id"] == job["id"]
    final = service.wait(job["id"])
    assert final["status"] in ("done", "cancelled")  # raced the worker


def test_error_paths_return_structured_json(service):
    with pytest.raises(ServiceError) as not_found:
        service.status("job-9999")
    assert not_found.value.status == 404
    with pytest.raises(ServiceError) as bad_submit:
        service._request("POST", "/jobs", {"nope": 1})
    assert bad_submit.value.status == 400
    with pytest.raises(ServiceError) as bad_kind:
        service.submit({"base": {"kind": "bogus"}})
    assert bad_kind.value.status == 400
    with pytest.raises(ServiceError) as bad_option:
        service._request("POST", "/jobs", {"campaign": CAMPAIGN.to_dict(), "evil": 1})
    assert bad_option.value.status == 400
    for removed in ("thread", "async"):
        with pytest.raises(ServiceError) as bad_executor:
            service._request(
                "POST", "/jobs", {"campaign": CAMPAIGN.to_dict(), "executor": removed}
            )
        assert bad_executor.value.status == 400
        assert "unknown executor" in str(bad_executor.value)
        assert "'serial', 'process', 'batched'" in str(bad_executor.value)
    with pytest.raises(ServiceError) as bad_route:
        service._request("GET", "/nope")
    assert bad_route.value.status == 404
    # A server without a jobs root keeps results in memory, where a
    # buffered jsonl flush setting is a client error, not a failed job.
    server, thread = start_server(port=0)
    try:
        with pytest.raises(ServiceError) as bad_store:
            ServiceClient(server.url)._request(
                "POST", "/jobs", {"campaign": CAMPAIGN.to_dict(), "flush_every": 2}
            )
        assert bad_store.value.status == 400
        assert "flush_every only applies to the jsonl store" in str(bad_store.value)
        assert server.manager.jobs() == []
    finally:
        server.shutdown()
        server.server_close()
        server.manager.shutdown()
        thread.join(timeout=10)


def test_unknown_analysis_kind_is_a_client_error(service):
    job = service.submit(CAMPAIGN, seed=1)
    service.wait(job["id"])
    with pytest.raises(ServiceError) as bad_kind:
        service.analysis(job["id"], analysis="bogus")
    assert bad_kind.value.status == 400
    assert "unknown analysis" in str(bad_kind.value)


def test_unexpected_server_fault_returns_json_500(tmp_path):
    server, thread = start_server(port=0)
    try:
        client = ServiceClient(server.url)

        def boom():
            raise RuntimeError("stats backend exploded")

        server.manager.cache_stats = boom
        with pytest.raises(ServiceError) as fault:
            client.cache_stats()
        # A server-side fault is a JSON 500, not a dropped connection —
        # and not a 400 blaming the client.
        assert fault.value.status == 500
        assert "stats backend exploded" in str(fault.value)
    finally:
        server.shutdown()
        server.server_close()
        server.manager.shutdown()
        thread.join(timeout=10)


def test_results_of_an_unfinished_job_conflict(service, tmp_path):
    # A queued-then-cancelled job has no results to serve.
    job = service.submit(CAMPAIGN, seed=1)
    service.cancel(job["id"])
    final = service.wait(job["id"])
    if final["status"] == "cancelled" and final["n_done"] == 0:
        with pytest.raises(ServiceError) as conflict:
            service.results(job["id"])
        assert conflict.value.status == 409


def test_server_without_cache_reports_disabled(tmp_path):
    server, thread = start_server(port=0)
    try:
        client = ServiceClient(server.url)
        stats = client.cache_stats()
        assert stats == {"cache": None, "enabled": False}
        job = client.submit(CAMPAIGN, seed=1)
        final = client.wait(job["id"])
        assert final["status"] == "done"
        assert final["cache"] is None
    finally:
        server.shutdown()
        server.server_close()
        server.manager.shutdown()
        thread.join(timeout=10)


# ---------------------------------------------------------------------------
# Wire format: every body is one sort-keyed JSON line
# ---------------------------------------------------------------------------
def _raw(url, method, path, body=None):
    """``(status, Content-Length header, body bytes)`` of one request."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=data)
        response = connection.getresponse()
        return response.status, response.getheader("Content-Length"), response.read()
    finally:
        connection.close()


def assert_one_sorted_line(length, body):
    assert int(length) == len(body)
    assert body.endswith(b"\n") and body.count(b"\n") == 1
    assert body == (json.dumps(json.loads(body), sort_keys=True) + "\n").encode("utf-8")


def _gated_server(tmp_path):
    """A server whose job worker waits on a gate before each job, so a
    job can be observed while it is still running."""
    server, thread = start_server(port=0, cache=tmp_path / "cache")
    gate = threading.Event()
    execute = server.manager._execute

    def gated(job):
        gate.wait(30)
        return execute(job)

    server.manager._execute = gated
    return server, thread, gate


def test_every_endpoint_answers_one_sorted_json_line(tmp_path):
    server, thread, gate = _gated_server(tmp_path)
    url = server.url
    try:
        job = json.loads(_raw(url, "POST", "/jobs", {"campaign": CAMPAIGN.to_dict()})[2])
        running = f"/jobs/{job['id']}"
        # The worker holds the job at the gate: results conflict.
        status, length, body = _raw(url, "GET", running + "/results")
        assert status == 409
        assert_one_sorted_line(length, body)
        gate.set()
        ServiceClient(url).wait(job["id"])
        expected = {
            ("GET", "/health"): 200,
            ("GET", "/cache/stats"): 200,
            ("GET", "/jobs"): 200,
            ("GET", running): 200,
            ("GET", running + "/results"): 200,
            ("GET", running + "/analysis"): 200,
            ("GET", running + "/analysis?analysis=bogus"): 400,
            ("GET", "/jobs/job-9999"): 404,
            ("GET", "/nope"): 404,
            ("POST", "/jobs"): 400,
        }
        for (method, path), want in expected.items():
            body_in = {"nope": 1} if method == "POST" else None
            status, length, body = _raw(url, method, path, body_in)
            assert status == want, (method, path, body)
            assert_one_sorted_line(length, body)
    finally:
        gate.set()
        server.shutdown()
        server.server_close()
        server.manager.shutdown()
        thread.join(timeout=10)


def _assert_same_result(loaded, computed):
    assert loaded.kind == computed.kind
    assert loaded.spec == computed.spec
    assert loaded.seeds == computed.seeds
    assert loaded.version == computed.version
    assert loaded.record_name == computed.record_name
    assert loaded.records.keys() == computed.records.keys()
    for name, column in computed.records.items():
        assert loaded.records[name].dtype == column.dtype, name
        np.testing.assert_array_equal(loaded.records[name], column, err_msg=name)
    assert loaded.metrics.keys() == computed.metrics.keys()
    for name, value in computed.metrics.items():
        np.testing.assert_equal(loaded.metrics[name], value, err_msg=name)


def test_results_lines_rebuild_the_in_memory_results(tmp_path):
    # No jobs root: the job keeps the computed ResultSets in memory.
    faulted = CampaignSpec(
        base=spec_from_dict(json.loads(FAULTED_SPEC.read_text(encoding="utf-8"))),
        grid={"concentration": (1e-7, 1e-6)},
        name="faulted-round-trip",
    )
    server, thread = start_server(port=0, cache=tmp_path / "cache")
    try:
        client = ServiceClient(server.url)
        for _ in range(2):  # cold, then served from the cache
            job = client.submit(faulted, seed=3)
            assert client.wait(job["id"])["status"] == "done"
            lines = client.results(job["id"])["results"]
            computed = {
                meta["point"]: result
                for meta, result in server.manager.job(job["id"]).result.iter_results()
            }
            assert len(lines) == len(computed) == 2
            for line in lines:
                _assert_same_result(ResultSet.from_dict(line["result"]), computed[line["point"]])
    finally:
        server.shutdown()
        server.server_close()
        server.manager.shutdown()
        thread.join(timeout=10)


# ---------------------------------------------------------------------------
# Malformed and oversized Content-Length
# ---------------------------------------------------------------------------
def _post_raw(server, length, body=b"", close=False):
    """Send ``POST /jobs`` with a literal ``Content-Length`` header over a
    raw socket; return ``(status, head lines, body)`` once the server
    closes the connection (a hung handler times the socket out).
    ``close`` asks the server to close after answering."""
    host, port = server.server_address[:2]
    connection = "Connection: close\r\n" if close else ""
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(
            f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n{connection}"
            f"Content-Length: {length}\r\n\r\n".encode("ascii") + body
        )
        received = b""
        while True:  # the server closes the connection after answering
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    return int(lines[0].split()[1]), lines[1:], body


@pytest.mark.parametrize("length", ["abc", "-1", "1.5"])
def test_malformed_content_length_is_a_client_error(length):
    server, thread = start_server(port=0)
    try:
        status, _, body = _post_raw(server, length)
        assert status == 400, body
        assert "Content-Length" in json.loads(body)["error"]
        assert server.manager.jobs() == []
    finally:
        server.shutdown()
        server.server_close()
        server.manager.shutdown()
        thread.join(timeout=10)


# ---------------------------------------------------------------------------
# Stored bytes: golden files of the faulted example spec at seed 3
# ---------------------------------------------------------------------------
def _faulted_store_bytes(tmp):
    """The cache entry file and the ``results.jsonl`` line the faulted
    example spec writes at seed 3 (point meta as the cached dispatch
    writes it; a fixed wall time, so the line is reproducible)."""
    spec = spec_from_dict(json.loads(FAULTED_SPEC.read_text(encoding="utf-8")))
    point = CampaignSpec(base=spec, name="golden").compile(seed=3)[0]
    result = Runner(seed=point.seed).run(point.spec)
    cache = ResultCache(tmp / "cache")
    assert point.backend == "object"
    key = point_key(point.spec.to_dict(), point.seed, "object", __version__)
    cache.put(
        key,
        result,
        meta={"kind": point.spec.kind, "seed": point.seed, "spec_hash": point.spec.spec_hash()},
    )
    store = JsonlResultStore(tmp / "store")
    store.add(PointOutcome(point=point, result=result, wall_s=0.25))
    store.close()
    return (
        cache._entry_path(key).read_bytes(),
        (tmp / "store" / JsonlResultStore.RESULTS_NAME).read_bytes(),
    )


def test_stored_bytes_match_the_golden_files(tmp_path):
    entry, line = _faulted_store_bytes(tmp_path)
    assert entry == (GOLDEN / "faulted_seed3_cache_entry.json").read_bytes()
    assert line == (GOLDEN / "faulted_seed3_results.jsonl").read_bytes()


if __name__ == "__main__":
    # Regenerate the golden files (only when the stored format or the
    # library version changes on purpose):
    #     PYTHONPATH=src python tests/test_service_server.py <scratch dir>
    entry, line = _faulted_store_bytes(Path(sys.argv[1]))
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "faulted_seed3_cache_entry.json").write_bytes(entry)
    (GOLDEN / "faulted_seed3_results.jsonl").write_bytes(line)


@pytest.mark.parametrize(
    "length, body",
    [
        (1_000_000_000_000, b""),  # was a 500 MemoryError
        (50_000_000, b"{}"),  # was a handler blocked on the missing bytes
        (MAX_BODY_BYTES + 1, b""),
    ],
)
def test_oversized_content_length_is_refused_unread(length, body):
    server, thread = start_server(port=0)
    try:
        status, headers, answer = _post_raw(server, length, body)
        assert status == 413, answer
        assert b"Connection: close" in headers
        assert f"{MAX_BODY_BYTES}-byte limit" in json.loads(answer)["error"]
        assert server.manager.jobs() == []
    finally:
        server.shutdown()
        server.server_close()
        server.manager.shutdown()
        thread.join(timeout=10)


def test_a_body_of_exactly_the_cap_is_read():
    server, thread = start_server(port=0)
    try:
        payload = b'{"nope": 1}'
        padded = payload + b" " * (MAX_BODY_BYTES - len(payload))
        status, _, answer = _post_raw(server, len(padded), padded, close=True)
        # Read and parsed: refused for its content, not its size.
        assert status == 400, answer
        assert "limit" not in json.loads(answer)["error"]
    finally:
        server.shutdown()
        server.server_close()
        server.manager.shutdown()
        thread.join(timeout=10)


# ---------------------------------------------------------------------------
# Campaign point cap and seed type
# ---------------------------------------------------------------------------
#: 71 bytes that name a billion-point campaign.
OVERSIZED_CAMPAIGN = b'{"campaign": {"base": {"kind": "dna_assay"}, "replicates": 1000000000}}'


def test_an_oversized_campaign_is_refused_before_it_compiles():
    assert len(OVERSIZED_CAMPAIGN) == 71
    server, thread = start_server(port=0)
    try:
        status, _, answer = _post_raw(
            server, len(OVERSIZED_CAMPAIGN), OVERSIZED_CAMPAIGN, close=True
        )
        assert status == 400, answer
        error = json.loads(answer)["error"]
        assert "1000000000 points" in error and f"at most {MAX_CAMPAIGN_POINTS}" in error
        assert server.manager.jobs() == []
    finally:
        server.shutdown()
        server.server_close()
        server.manager.shutdown()
        thread.join(timeout=10)


@pytest.mark.parametrize("seed", [1.5, True, "1"])
def test_a_non_integer_seed_is_a_client_error(service, seed):
    with pytest.raises(ServiceError) as bad_seed:
        service.submit(CAMPAIGN, seed=seed)
    assert bad_seed.value.status == 400
    assert "seed must be an integer" in str(bad_seed.value)
    assert service.jobs() == []
