"""Job manager: submit/status/cancel, resume parity."""

import json
import sys
import threading
import time

import pytest

from repro.campaigns import CampaignSpec, run_campaign
from repro.chip import DnaMicroarrayChip
from repro.chip.serial_interface import TRANSCRIPT_ENTRIES
from repro.experiments import AdcTransferSpec, DnaAssaySpec, Runner
from repro.service import (
    JOB_STATES,
    JobManager,
    ResultCache,
    resume_campaign,
)

BASE = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))
CAMPAIGN = CampaignSpec(
    base=BASE, grid={"concentration": (1e-7, 1e-6)}, replicates=2, name="jobs-test"
)


def _payloads(store_like):
    return json.dumps(
        {meta["point"]: res.to_dict() for meta, res in store_like.iter_results()},
        sort_keys=True,
    )


@pytest.fixture()
def manager(tmp_path):
    manager = JobManager(workers=1, cache=tmp_path / "cache", root=tmp_path / "jobs")
    yield manager
    manager.shutdown()


# ---------------------------------------------------------------------------
# Submit / status / results
# ---------------------------------------------------------------------------
def test_submit_runs_in_background_and_reports_progress(manager):
    job = manager.submit(CAMPAIGN, seed=1)
    assert job.status in ("queued", "running")  # returned before completion
    manager.wait(job.id, timeout=60)
    status = manager.status(job.id)
    assert status["status"] == "done"
    assert status["n_done"] == status["n_points"] == 4
    assert status["cache"]["computed"] == 4
    assert job.result.manifest["n_points"] == 4
    assert (job.out / "results.jsonl").exists()
    assert (job.out / "manifest.json").exists()


def test_jobs_share_the_cache_across_submissions(manager):
    first = manager.submit(CAMPAIGN, seed=1)
    second = manager.submit(CAMPAIGN, seed=1)
    manager.wait(second.id, timeout=60)
    manager.wait(first.id, timeout=60)
    assert second.cache_summary == {
        "n_points": 4, "n_unique": 4, "hits": 4, "computed": 0, "replayed": 0,
        "failed": 0,
    }
    assert _payloads(first.result) == _payloads(second.result)
    assert manager.cache_stats()["puts"] == 4


def test_submit_accepts_a_campaign_dict(manager):
    job = manager.submit(CAMPAIGN.to_dict(), seed=1)
    manager.wait(job.id, timeout=60)
    assert job.status == "done"


def test_submit_caps_the_campaign_point_count(manager, monkeypatch):
    from repro.service import jobs

    huge = {"base": {"kind": "dna_assay"}, "replicates": 1_000_000_000}
    with pytest.raises(ValueError, match="1000000000 points"):
        manager.submit(huge)
    # The cap is inclusive.
    monkeypatch.setattr(jobs, "MAX_CAMPAIGN_POINTS", CAMPAIGN.n_points)
    with pytest.raises(ValueError, match=f"at most {CAMPAIGN.n_points}"):
        manager.submit(CAMPAIGN.to_dict() | {"replicates": 3})
    assert manager.jobs() == []
    job = manager.submit(CAMPAIGN, seed=1)
    manager.wait(job.id, timeout=60)
    assert job.status == "done"


@pytest.mark.parametrize("seed", [1.5, True])
def test_submit_rejects_a_non_integer_seed(manager, seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        manager.submit(CAMPAIGN, seed=seed)
    assert manager.jobs() == []


def test_submit_validates_eagerly(manager):
    for name in ("bogus", "async", "thread"):
        with pytest.raises(ValueError, match="unknown executor"):
            manager.submit(CAMPAIGN, executor=name)
    with pytest.raises(ValueError, match="flush_every"):
        manager.submit(CAMPAIGN, flush_every=0)
    with pytest.raises(KeyError, match="unknown job"):
        manager.job("job-9999")
    # Without ``root`` a job keeps its results in memory, so a buffered
    # jsonl flush setting is a bad argument, refused before queueing.
    in_memory = JobManager(workers=1)
    try:
        with pytest.raises(ValueError, match="flush_every only applies to the jsonl store"):
            in_memory.submit(CAMPAIGN, flush_every=2)
        assert in_memory.jobs() == []
    finally:
        in_memory.shutdown()


def test_manager_evicts_oldest_finished_jobs(tmp_path):
    manager = JobManager(workers=1, root=tmp_path / "jobs", max_finished=2)
    try:
        finished = []
        for seed in range(3):
            job = manager.submit(CAMPAIGN, seed=seed)
            manager.wait(job.id, timeout=60)
            finished.append(job)
        newest = manager.submit(CAMPAIGN, seed=99)
        with pytest.raises(KeyError, match="unknown job"):
            manager.job(finished[0].id)
        assert [job.id for job in manager.jobs()] == [
            finished[1].id,
            finished[2].id,
            newest.id,
        ]
        manager.wait(newest.id, timeout=60)
    finally:
        manager.shutdown()

    with pytest.raises(ValueError, match="max_finished"):
        JobManager(max_finished=-1)


def test_a_restarted_manager_numbers_jobs_after_the_last_session(tmp_path):
    campaign = CampaignSpec(base=AdcTransferSpec(), name="restart")
    outs = []
    for _ in range(2):
        manager = JobManager(workers=1, root=tmp_path / "jobs")
        try:
            job = manager.submit(campaign, seed=1)
            manager.wait(job.id, timeout=60)
            assert job.status == "done", job.error
            outs.append(job.out)
        finally:
            manager.shutdown()
    assert [out.name for out in outs] == ["job-0001", "job-0002"]
    assert all((out / "manifest.json").exists() for out in outs)


def test_failed_job_reports_its_error_and_frees_the_worker(manager):
    # The vectorized backend rejects the screening kind at submit time,
    # so force an execution-time failure instead: an unwritable out dir.
    job = manager.submit(CAMPAIGN, seed=1, out="/proc/nope/cannot-write")
    manager.wait(job.id, timeout=60)
    assert job.status == "failed"
    assert job.error
    follow_up = manager.submit(CAMPAIGN, seed=1)
    manager.wait(follow_up.id, timeout=60)
    assert follow_up.status == "done"


def test_job_states_is_the_full_vocabulary(manager):
    job = manager.submit(CAMPAIGN, seed=1)
    manager.wait(job.id, timeout=60)
    assert job.status in JOB_STATES
    assert all(state in JOB_STATES for state in ("queued", "running", "cancelled"))


# ---------------------------------------------------------------------------
# Runners kept across jobs
# ---------------------------------------------------------------------------
#: The fault schedule of the end-to-end benchmark's faulted Fig. 4 points.
FIG4_FAULTS = (
    {"kind": "serial_bitflip", "rate": 0.3, "n_flips": 2},
    {"kind": "stuck_pixel", "rate": 0.02},
)
#: Register upsets too: a reused chip depends on the readout's scrub.
UPSET_FAULTS = FIG4_FAULTS + ({"kind": "register_corrupt", "rate": 0.1},)


def _run_job(manager, campaign, seed=1):
    """Submit ``campaign`` and wait for it to finish."""
    job = manager.wait(manager.submit(campaign, seed=seed).id, timeout=60)
    assert job.status == "done", job.error
    return job


@pytest.mark.parametrize(
    "faults", [(), FIG4_FAULTS, UPSET_FAULTS], ids=["clean", "faulted", "upsets"]
)
def test_a_job_worker_keeps_each_seeds_chip_across_jobs(faults, chip_builds):
    base = BASE.replace(faults=faults)
    campaigns = [
        CampaignSpec(base=base, grid={"concentration": grid}, replicates=2)
        for grid in ((1e-7, 1e-6), (1e-5, 1e-8))
    ]
    manager = JobManager(workers=1)  # no result cache: every point runs
    jobs, registers = [], []
    try:
        for campaign in campaigns:
            job = _run_job(manager, campaign)
            jobs.append(job)
            registers.append([r.artifacts["chip"].registers.dump() for r in job.result.results()])
    finally:
        manager.shutdown()
    # Both jobs use the same 2 replicate seeds: one chip build each.
    assert chip_builds[0] == 2
    for job, dumps in zip(jobs, registers):
        for point, result, dump in zip(job.prepared.plan, job.result.results(), dumps):
            alone = Runner(point.seed).run(point.spec, backend=point.backend)
            assert result.without_artifacts().to_json() == alone.without_artifacts().to_json()
            # The reused chip leaves every job as a fresh one leaves its point.
            assert dump == alone.artifacts["chip"].registers.dump()
    first, second = (job.result.results() for job in jobs)
    assert all(a.artifacts["chip"] is b.artifacts["chip"] for a, b in zip(first, second))


def test_job_workers_never_share_a_runner(monkeypatch):
    original = Runner.run
    holders: dict[int, tuple[Runner, set]] = {}
    lock = threading.Lock()
    workers = 3  # more threads than a 2-core runner has cores
    # Each worker's first run waits for all the others', so every
    # worker runs jobs on the same seeds at the same time.
    all_running = threading.Barrier(workers, timeout=30)
    started = threading.local()

    def recording_run(self, *args, **kwargs):
        with lock:
            holders.setdefault(id(self), (self, set()))[1].add(threading.get_ident())
        if not getattr(started, "done", False):
            started.done = True
            all_running.wait()
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Runner, "run", recording_run)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    manager = JobManager(workers=workers)
    try:
        with pytest.raises(ValueError, match="exactly one worker"):
            manager.submit(CAMPAIGN, seed=1, executor="serial", workers=2)
        jobs = [manager.submit(CAMPAIGN, seed=1) for _ in range(2 * workers)]
        for job in jobs:
            manager.wait(job.id, timeout=60)
    finally:
        manager.shutdown()
        sys.setswitchinterval(interval)
    assert all(job.status == "done" for job in jobs)
    threads = [held for _, held in holders.values()]
    assert len(set().union(*threads)) == workers
    assert all(len(held) == 1 for held in threads)


def test_a_run_that_raised_drops_its_runner(monkeypatch, chip_builds):
    original = DnaMicroarrayChip.measure_assay
    raised_on = []

    def raises_once(self, *args, **kwargs):
        counts = original(self, *args, **kwargs)
        if not raised_on:
            raised_on.append(self)  # the chip is left mid-point
            raise RuntimeError("readout lost")
        return counts

    monkeypatch.setattr(DnaMicroarrayChip, "measure_assay", raises_once)
    campaign = CampaignSpec(base=BASE, grid={"concentration": (1e-7, 1e-6)})  # one seed
    manager = JobManager(workers=1)
    try:
        failing = manager.wait(manager.submit(campaign, seed=1).id, timeout=60)
        assert [entry["point"] for entry in failing.failed_points] == [0]
        later = _run_job(manager, campaign)
    finally:
        manager.shutdown()
    # The failed point's chip was dropped; its second point built a new
    # one, which the next job reuses.
    assert chip_builds[0] == 2
    chips = [r.artifacts["chip"] for r in later.result.results()]
    assert chips[0] is chips[1] is failing.result.results()[0].artifacts["chip"]
    assert raised_on[0] is not chips[0]
    alone = [Runner(1).run(point.spec) for point in later.prepared.plan]
    assert [r.without_artifacts().to_json() for r in later.result.results()] == [
        r.without_artifacts().to_json() for r in alone
    ]


def test_a_chip_kept_for_50_jobs_holds_flat_state():
    base = BASE.replace(faults=UPSET_FAULTS)
    concentrations = (1e-8, 1e-7, 1e-6, 1e-5)
    manager = JobManager(workers=1)
    chips, transcripts, registers = set(), [], []
    try:
        for n in range(50):
            grid = {"concentration": concentrations[n % 4 :] + concentrations[: n % 4]}
            job = _run_job(manager, CampaignSpec(base=base, grid=grid))
            results = job.result.results()
            chips.update(id(result.artifacts["chip"]) for result in results)
            chip = results[-1].artifacts["chip"]
            transcripts.append(len(chip.link.transcript))
            registers.append(chip.registers.dump())
    finally:
        manager.shutdown()
    assert len(chips) == 1
    # The link keeps only its latest entries: once the kept chip has
    # filled them, its transcript stops growing.
    assert transcripts == sorted(transcripts)
    assert transcripts[-10:] == [TRANSCRIPT_ENTRIES] * 10
    assert all(dump == registers[0] for dump in registers)


# ---------------------------------------------------------------------------
# Cancel + resume
# ---------------------------------------------------------------------------
def test_cancel_leaves_a_resumable_directory_with_bit_parity(tmp_path):
    manager = JobManager(workers=1, root=tmp_path / "jobs")
    try:
        big = CampaignSpec(
            base=BASE,
            grid={"concentration": tuple(10.0 ** -k for k in range(4, 10))},
            replicates=3,
        )
        job = manager.submit(big, seed=5)
        deadline = time.monotonic() + 60
        while job.n_done < 2 and time.monotonic() < deadline:
            time.sleep(0.002)
        manager.cancel(job.id)
        manager.wait(job.id, timeout=60)
        assert job.status == "cancelled"
        assert 0 < job.n_done < job.n_points
        # Partial directory: results + sidecar, no manifest.
        assert (job.out / "results.jsonl").exists()
        assert (job.out / "campaign.json").exists()
        assert not (job.out / "manifest.json").exists()

        resumed = resume_campaign(job.out)
        assert resumed.manifest["resumed"]["previously_completed"] == job.n_done
        assert resumed.manifest["resumed"]["executed"] == job.n_points - job.n_done
        reference = run_campaign(big, seed=5)
        assert _payloads(resumed) == _payloads(reference)
    finally:
        manager.shutdown()


def test_cancel_before_start_skips_the_job(tmp_path):
    manager = JobManager(workers=1, root=tmp_path / "jobs")
    try:
        blocker = manager.submit(CAMPAIGN, seed=1)
        queued = manager.submit(CAMPAIGN, seed=2)
        manager.cancel(queued.id)
        manager.wait(queued.id, timeout=60)
        manager.wait(blocker.id, timeout=60)
        assert queued.status == "cancelled"
        assert queued.n_done == 0
    finally:
        manager.shutdown()


def test_resume_refuses_a_finalized_or_alien_directory(tmp_path):
    finished = run_campaign(CAMPAIGN, seed=1, out=str(tmp_path / "done"))
    assert finished.manifest
    with pytest.raises(FileExistsError, match="nothing to resume"):
        resume_campaign(tmp_path / "done")
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError, match="campaign.json"):
        resume_campaign(tmp_path / "empty")


def test_resume_with_cache_serves_missing_points_from_cache(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    run_campaign(CAMPAIGN, seed=1, cache=cache)  # populate
    partial = run_campaign(CAMPAIGN, seed=1, out=str(tmp_path / "part"))
    (tmp_path / "part" / "manifest.json").unlink()
    lines = (tmp_path / "part" / "results.jsonl").read_text().splitlines(True)
    (tmp_path / "part" / "results.jsonl").write_text("".join(lines[:1]))
    resumed = resume_campaign(tmp_path / "part", cache=cache)
    assert resumed.manifest["resumed"] == {"previously_completed": 1, "executed": 3}
    assert resumed.manifest["cache"]["hits"] == 3
    assert _payloads(resumed) == _payloads(partial)


def test_resume_refuses_a_version_mismatch(tmp_path):
    run_campaign(CAMPAIGN, seed=1, out=str(tmp_path / "part"))
    (tmp_path / "part" / "manifest.json").unlink()
    sidecar_path = tmp_path / "part" / "campaign.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["version"] = "0.0.0-elsewhere"
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="0.0.0-elsewhere"):
        resume_campaign(tmp_path / "part")
    # The override finishes the directory but records the mixture.
    resumed = resume_campaign(tmp_path / "part", ignore_version=True)
    assert resumed.manifest["resumed"]["sidecar_version"] == "0.0.0-elsewhere"


def test_a_failing_point_keeps_the_buffered_results_on_disk(tmp_path, monkeypatch):
    campaign = CampaignSpec(
        base=BASE, grid={"concentration": (1e-9, 1e-8, 1e-7, 1e-6, 1e-5)}, name="fails-4th"
    )
    original = Runner.run
    calls = []

    def fourth_run_raises(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise RuntimeError("point 4 exploded")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Runner, "run", fourth_run_raises)
    out = tmp_path / "partial"
    with pytest.raises(RuntimeError, match="point 4 exploded"):
        run_campaign(campaign, seed=1, store="jsonl", out=out, flush_every=4)
    monkeypatch.undo()
    assert len((out / "results.jsonl").read_text().splitlines()) == 3
    assert not (out / "manifest.json").exists()
    resumed = resume_campaign(out)
    assert resumed.manifest["resumed"] == {"previously_completed": 3, "executed": 2}
    assert _payloads(resumed) == _payloads(run_campaign(campaign, seed=1))


AGREEMENT = CampaignSpec(
    base=BASE, grid={"concentration": (1e-8, 1e-7, 1e-6)}, replicates=2, name="agreement"
)


def _finished_by(driver, tmp_path):
    """Run AGREEMENT at seed 4 to a JSONL directory through one driver."""
    if driver == "run_campaign":
        out = tmp_path / "direct"
        run_campaign(AGREEMENT, seed=4, store="jsonl", out=out)
        return out
    if driver == "job":
        manager = JobManager(workers=1, root=tmp_path / "jobs")
        try:
            job = manager.submit(AGREEMENT, seed=4)
            manager.wait(job.id, timeout=60)
            assert job.status == "done", job.error
            return job.out
        finally:
            manager.shutdown()
    # resume: a directory holding the first half of the points.
    out = tmp_path / "resumed"
    run_campaign(AGREEMENT, seed=4, store="jsonl", out=out)
    (out / "manifest.json").unlink()
    lines = (out / "results.jsonl").read_text().splitlines(True)
    first_half = [line for line in lines if json.loads(line)["point"] < len(lines) // 2]
    (out / "results.jsonl").write_text("".join(first_half))
    resumed = resume_campaign(out)
    assert resumed.manifest["resumed"] == {"previously_completed": 3, "executed": 3}
    return out


def _without_wall_times(out):
    lines = {}
    for raw in (out / "results.jsonl").read_text().splitlines():
        line = json.loads(raw)
        del line["wall_s"]
        lines[line["point"]] = line
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("total_wall_s", "resumed"):
        manifest.pop(key, None)
    for meta in manifest["points"]:
        del meta["wall_s"]
    return json.dumps(lines, sort_keys=True), manifest


@pytest.mark.parametrize("driver", ["run_campaign", "job", "resume"])
def test_the_three_drivers_agree(driver, tmp_path):
    reference_out = tmp_path / "reference"
    run_campaign(AGREEMENT, seed=4, store="jsonl", out=reference_out)
    lines, manifest = _without_wall_times(_finished_by(driver, tmp_path))
    reference_lines, reference_manifest = _without_wall_times(reference_out)
    assert lines == reference_lines
    assert manifest == reference_manifest
