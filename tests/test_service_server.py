"""End-to-end HTTP service: submit, poll, results, analysis, errors."""

import json

import pytest

from repro.campaigns import CampaignSpec
from repro.experiments import DnaAssaySpec
from repro.service import ServiceClient, ServiceError, start_server

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
