"""The benchmark's three workloads, each driven through a public front door.

* ``fig4_dose`` — a Fig. 4 dose-response campaign on the object backend
  with the serial executor, followed by the default ``dose_response``
  analysis.  Chip provisioning, calibration and the per-pixel sawtooth
  ADC do nearly all of the work; engine kernels, faults and the service
  are never touched.  25 chip replicates exceed the serial executor's
  16 cached Runners, so every point provisions its own chip, as a
  chip-to-chip Monte Carlo of that size does.
* ``neural_hh`` — a ``NeuralRecordingSpec`` at its defaults (64x64,
  5 neurons, Hodgkin-Huxley) but recorded for 0.05 s, with chip
  replicates on the vectorized backend through the ``batched``
  executor.  Nearly all of its time is the
  batched RK4 in ``engine.neuro_kernels.hh_batch``; it never builds an
  object chip.
* ``service_faulted`` — one closed-loop client against a live in-process
  ``repro serve`` with one job worker and a fresh on-disk cache per
  round.  Each job is the faulted ``dna_assay`` example spec over a
  4-concentration window x 2 replicates; the window slides one step per
  job, so after the first job every job reads 6 points from the cache
  and computes and writes 2.  It is the only workload that exercises
  HTTP, content keys, the cache, the job queue and the resilient serial
  readout.

A round repeats the same inputs every time, so its outputs repeat too.
The runner times rounds back to back; see ``run.py``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import checks

#: Workload sizes.  ``default`` is what the benchmark measures and what
#: the digests are pinned at; ``tiny`` keeps the benchmark's own tests
#: fast.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "fig4_dose": {
        "default": {"concentrations": 4, "replicates": 25},
        "tiny": {"concentrations": 2, "replicates": 2},
    },
    "neural_hh": {
        # 0.05 s rather than the spec's default 0.25 s of recording: RK4
        # costs the same per step at any neuron count, so a round lasts
        # about half a second and a run holds enough rounds for some of
        # them to miss the host's slow spells (see README.md).
        "default": {"replicates": 8, "spec": {"duration_s": 0.05}},
        "tiny": {
            "replicates": 2,
            "spec": {"rows": 16, "cols": 16, "n_neurons": 3, "duration_s": 0.1},
        },
    },
    "service_faulted": {
        # 100 jobs, so ten of them lie beyond the p90.
        "default": {"jobs": 100},
        "tiny": {"jobs": 3},
    },
}

#: The Fig. 4 chip experiment every DNA workload starts from.
FIG4_BASE = {"kind": "dna_assay", "probe_count": 4, "replicates": 4, "target_subset": [0, 1]}
#: ``examples/specs/dna_assay_faulted.json``'s fault schedule.
FAULTS = [
    {"kind": "serial_bitflip", "rate": 0.3, "n_flips": 2},
    {"kind": "stuck_pixel", "rate": 0.02},
]
#: Analysis samples per campaign round; their median is ``analysis_s``.
ANALYSIS_REPEATS = 5
#: Each analysis sample repeats the analysis until this much time has
#: passed and is their mean, so a sub-millisecond analysis is not
#: measured by single timer readings.
ANALYSIS_BATCH_S = 0.02
#: Status poll interval: well below the ~50 ms jobs it times, unlike
#: ``ServiceClient.wait``'s 50 ms default.
POLL_S = 0.002
TERMINAL = ("done", "failed", "cancelled")


@dataclass
class Round:
    """What one round measured.  ``timed_s`` is the part points/s is
    taken over (the campaign run, or the whole job loop); ``wall_s``
    adds the analyses.  ``busy_s`` is the time of the thread that drives
    the work (the caller for campaigns, the job worker for the service);
    spans on that thread say how much of it is accounted for, and
    ``work_s`` is the part ``experiments.run_s`` is subtracted from."""

    timed_s: float
    wall_s: float
    points: int
    units: int
    failed_units: int
    latencies_ms: list[float]
    analysis_s: list[float]
    digest: str
    work_s: float
    busy_s: float
    busy_thread: str
    #: Outcome counts that must repeat exactly round after round.
    counts: dict[str, int] = field(default_factory=dict)
    #: Per-job medians only the service has.
    service: dict[str, float] = field(default_factory=dict)


def _concentrations(n: int) -> list[float]:
    import numpy as np

    return [float(c) for c in np.logspace(-8, -5, n)]


class CampaignWorkload:
    """A campaign run through ``repro.campaigns.run_campaign``, then
    analysed with its default analysis."""

    name = ""
    executor = "serial"

    def __init__(self, seed: int, size: str, scratch: Path) -> None:
        self.seed = seed
        self.size = size
        self.campaign, self.warm = self.campaigns(SIZES[self.name][size])

    def campaigns(self, size: dict[str, Any]) -> tuple[Any, Any]:
        raise NotImplementedError

    def warm_up(self) -> None:
        from repro.campaigns import run_campaign

        run_campaign(self.warm, seed=self.seed, executor=self.executor).analyze().to_json()

    def round(self, recorder: Any) -> Round:
        from repro.campaigns import run_campaign

        start = time.perf_counter()
        result = run_campaign(self.campaign, seed=self.seed, executor=self.executor)
        work_s = time.perf_counter() - start
        reports, analysis_s = [], []
        for _ in range(ANALYSIS_REPEATS):
            calls = 0
            begin = time.perf_counter()
            while True:
                reports.append(result.analyze().to_json())
                calls += 1
                elapsed = time.perf_counter() - begin
                if elapsed >= ANALYSIS_BATCH_S:
                    break
            analysis_s.append(elapsed / calls)
        wall_s = time.perf_counter() - start
        if len(set(reports)) != 1:
            raise checks.OutputMismatch(f"{self.name}: repeated analyses differ")
        points = result.results()
        if len(points) != self.campaign.n_points:
            raise checks.OutputMismatch(
                f"{self.name}: {len(points)} points, expected {self.campaign.n_points}"
            )
        digest = checks.run_digest(
            [checks.point_digest(point.to_dict()) for point in points],
            [json.loads(reports[0])],
        )
        return Round(
            timed_s=work_s,
            wall_s=wall_s,
            points=len(points),
            units=len(points),
            failed_units=0,
            latencies_ms=[meta["wall_s"] * 1e3 for meta in result.manifest["points"]],
            analysis_s=analysis_s,
            digest=digest,
            work_s=work_s,
            busy_s=wall_s,
            busy_thread="MainThread",
        )


class Fig4Dose(CampaignWorkload):
    name = "fig4_dose"

    def campaigns(self, size: dict[str, Any]) -> tuple[Any, Any]:
        from repro.campaigns import CampaignSpec
        from repro.experiments.specs import spec_from_dict

        base = spec_from_dict(dict(FIG4_BASE))
        grid = {"concentration": tuple(_concentrations(size["concentrations"]))}
        campaign = CampaignSpec(
            base=base, grid=grid, replicates=size["replicates"], name=self.name
        )
        # Two points: the smallest campaign the dose-response analysis
        # accepts, so the warm-up loads the analysis path as well.
        warm = CampaignSpec(
            base=base, grid={"concentration": grid["concentration"][:2]}, name="warm-up"
        )
        return campaign, warm


class NeuralHH(CampaignWorkload):
    name = "neural_hh"
    executor = "batched"

    def campaigns(self, size: dict[str, Any]) -> tuple[Any, Any]:
        from repro.campaigns import CampaignSpec
        from repro.experiments import NeuralRecordingSpec

        base = NeuralRecordingSpec(**size["spec"])
        campaign = CampaignSpec(
            base=base, replicates=size["replicates"], backend="vectorized", name=self.name
        )
        warm = CampaignSpec(base=base, backend="vectorized", name="warm-up")
        return campaign, warm


class ServiceFaulted:
    """Closed loop, one client, against ``start_server`` + ``ServiceClient``."""

    name = "service_faulted"

    def __init__(self, seed: int, size: str, scratch: Path) -> None:
        self.seed = seed
        self.size = size
        self.jobs = SIZES[self.name][size]["jobs"]
        self.scratch = scratch
        self.concentrations = _concentrations(self.jobs + 3)
        self._caches = 0

    def _campaign(self, job: int) -> dict[str, Any]:
        return {
            "name": f"{self.name}-{job}",
            "base": {**FIG4_BASE, "faults": FAULTS},
            "grid": {"concentration": self.concentrations[job : job + 4]},
            "replicates": 2,
        }

    def _server(self) -> tuple[Any, Any, Path]:
        from repro.service.server import start_server

        self._caches += 1
        cache = self.scratch / f"cache-{self._caches}"
        server, thread = start_server(workers=1, cache=cache)
        return server, thread, cache

    @staticmethod
    def _stop(server: Any, thread: Any, cache: Path) -> None:
        server.shutdown()
        server.server_close()
        server.manager.shutdown()
        thread.join()
        shutil.rmtree(cache, ignore_errors=True)

    def warm_up(self) -> None:
        from repro.service.client import ServiceClient

        server, thread, cache = self._server()
        try:
            client = ServiceClient(server.url)
            job = client.submit(self._campaign(0), seed=self.seed)
            client.wait(job["id"], timeout=60.0, poll_s=POLL_S)
            client.results(job["id"])
            client.analysis(job["id"])
        finally:
            self._stop(server, thread, cache)

    def round(self, recorder: Any) -> Round:
        from repro.service.client import ServiceClient

        server, thread, cache = self._server()
        try:
            client = ServiceClient(server.url)
            fetched = []
            latencies_ms, analysis_s, polls, queue_ms = [], [], [], []
            failed = 0
            busy_s = 0.0
            start = time.perf_counter()
            for index in range(self.jobs):
                begin = time.perf_counter()
                with recorder.span("service.http_submit"):
                    job_id = client.submit(self._campaign(index), seed=self.seed)["id"]
                n_polls = 0
                while True:
                    with recorder.span("service.http_status"):
                        status = client.status(job_id)
                    n_polls += 1
                    if status["status"] in TERMINAL:
                        break
                    time.sleep(POLL_S)
                if status["status"] != "done" or status["n_failed"]:
                    failed += 1
                    continue
                with recorder.span("service.http_results"):
                    results = client.results(job_id)
                analysis_begin = time.perf_counter()
                with recorder.span("service.http_analysis"):
                    analysis = client.analysis(job_id)["analysis"]
                end = time.perf_counter()
                latencies_ms.append((end - begin) * 1e3)
                analysis_s.append(end - analysis_begin)
                polls.append(n_polls)
                job = server.manager.job(job_id)
                queue_ms.append((job.started_s - job.submitted_s) * 1e3)
                busy_s += job.finished_s - job.started_s
                fetched.append((results["results"], analysis))
            wall_s = time.perf_counter() - start
            stats = client.cache_stats()["cache"]
        finally:
            self._stop(server, thread, cache)
        digest, counts = self._check(fetched)
        counts.update(
            {
                "service.cache_hits": stats["hits"],
                "service.cache_misses": stats["misses"],
                "service.cache_corrupt": stats["corrupt"],
            }
        )
        return Round(
            timed_s=wall_s,
            wall_s=wall_s,
            points=sum(len(lines) for lines, _ in fetched),
            units=self.jobs,
            failed_units=failed,
            latencies_ms=latencies_ms,
            analysis_s=analysis_s,
            digest=digest,
            work_s=busy_s,
            busy_s=busy_s,
            busy_thread="repro-job-0",
            counts=counts,
            service={
                "service.queue_wait_ms": median(queue_ms),
                "service.status_polls": median(polls),
            },
        )

    def _check(self, fetched: list) -> tuple[str, dict[str, int]]:
        """Every cache-served payload must equal the first computation of
        its point; the round digest covers every job's points and
        analysis in order."""
        first: dict[tuple, str] = {}
        digests, analyses = [], []
        retried = dead = 0
        for lines, analysis in fetched:
            if len(lines) != 8:
                raise checks.OutputMismatch(f"{self.name}: job returned {len(lines)} points")
            for line in lines:
                digest = checks.point_digest(line["result"])
                key = (line["spec_hash"], line["seed"])
                if key not in first:
                    first[key] = digest
                    metrics = line["result"]["metrics"]
                    retried += metrics["fault_retries"]
                    dead += metrics["fault_sites_dead"]
                elif first[key] != digest:
                    raise checks.OutputMismatch(
                        f"{self.name}: cached point {key} differs from its first computation"
                    )
                digests.append(digest)
            analyses.append(analysis)
        counts = {"readout.frames_retried": retried, "readout.dead_sites": dead}
        return checks.run_digest(digests, analyses), counts


WORKLOADS = {cls.name: cls for cls in (Fig4Dose, NeuralHH, ServiceFaulted)}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_values(recorder: Any, round_: Round) -> dict[str, float]:
    """Every per-layer metric for one traced round (0 where the workload
    never enters the layer)."""
    total, calls, counts = recorder.total_s, recorder.calls, recorder.counts()
    counts.update(round_.counts)
    http = {
        name: median(recorder.samples[f"service.http_{name}"]) * 1e3
        for name in ("submit", "results", "analysis")
    }
    hits, misses = counts.get("service.cache_hits", 0), counts.get("service.cache_misses", 0)
    covered = recorder.covered_s[round_.busy_thread]
    return {
        "campaigns.compile_s": total["campaigns.compile"],
        "campaigns.store_add_s": total["campaigns.store_add"],
        "campaigns.overhead_s": round_.work_s
        - total["experiments.run"]
        - total["campaigns.batched"],
        "campaigns.batched_s": total["campaigns.batched"],
        "campaigns.batched_groups": counts.get("campaigns.batched_groups", 0),
        "experiments.run_s": total["experiments.run"],
        "experiments.runs": calls["experiments.run"],
        "chip.build_s": total["chip.build"],
        "chip.calibrate_s": total["chip.calibrate"],
        "chip.measure_s": total["chip.measure"],
        "chip.estimate_s": total["chip.estimate"],
        "devices.mosfet_ids_calls": counts.get("devices.mosfet_ids_calls", 0),
        "pixel.adc_frames": counts.get("pixel.adc_frames", 0),
        "dna.assay_s": total["dna.assay"],
        "chip.readout_s": total["chip.readout"],
        "readout.frames_retried": counts.get("readout.frames_retried", 0),
        "readout.dead_sites": counts.get("readout.dead_sites", 0),
        "engine.hh_batch_s": total["engine.hh_batch"],
        "engine.hh_neuron_steps": counts.get("engine.hh_neuron_steps", 0),
        "engine.movie_s": total["engine.movie"],
        "engine.detect_s": total["engine.detect"],
        "service.http_submit_ms": http["submit"],
        "service.http_results_ms": http["results"],
        "service.http_analysis_ms": http["analysis"],
        "service.queue_wait_ms": round_.service.get("service.queue_wait_ms", 0.0),
        "service.status_polls": round_.service.get("service.status_polls", 0.0),
        "service.point_key_s": total["service.point_key"],
        "service.cache_get_s": total["service.cache_get"],
        "service.cache_put_s": total["service.cache_put"],
        "service.cache_hits": hits,
        "service.cache_misses": misses,
        "service.cache_corrupt": counts.get("service.cache_corrupt", 0),
        "service.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "inference.analyze_s": total["inference.analyze"] / calls["inference.analyze"]
        if calls["inference.analyze"]
        else 0.0,
        "trace.unaccounted_frac": max(0.0, 1.0 - covered / round_.busy_s)
        if round_.busy_s
        else 0.0,
    }


#: Counts that are a pure function of (workload, size, seed): a traced
#: round that does not repeat the first traced round's values fails.
EXACT_COUNTS = (
    "campaigns.batched_groups",
    "experiments.runs",
    "devices.mosfet_ids_calls",
    "pixel.adc_frames",
    "readout.frames_retried",
    "readout.dead_sites",
    "engine.hh_neuron_steps",
    "service.cache_hits",
    "service.cache_misses",
    "service.cache_corrupt",
)

