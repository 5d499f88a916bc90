"""Background campaign jobs: a worker pool, cancellation, resume.

The job manager is the execution core of ``repro serve``: campaigns are
submitted (validated eagerly, queued FIFO), run on a pool of daemon
worker threads, and observed through cheap snapshot dicts — per-point
progress counts update as each outcome lands, so a client polling
``status()`` watches a 600-point sweep tick forward.  All workers share
the manager's :class:`~repro.service.cache.ResultCache`, which is what
turns overlapping submissions from many clients into mostly cache
traffic.

Cancellation is per-point: a cancelled job stops between outcomes,
flushes what completed to its JSONL directory and leaves it
*manifest-less* — the shape :func:`resume_campaign` (CLI: ``repro sweep
--resume``) recognises.  Resume replays the plan, skips every point the
partial ``results.jsonl`` already holds, and finishes the rest
bit-identically: a point's seed depends only on ``(campaign seed,
replicate)``, never on when or where it runs.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from ..campaigns import (
    CampaignResult,
    CampaignSpec,
    Executor,
    JsonlResultStore,
    Plan,
    PointOutcome,
    PreparedCampaign,
    make_store,
    prepare_campaign,
    read_campaign_sidecar,
)
from .cache import ResultCache, make_cache

#: Every state a job can report.  Terminal states: done/failed/cancelled.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Most plan points one submitted campaign may expand to.  Checked on
#: ``CampaignSpec.n_points`` before the plan is compiled, so a tiny
#: request cannot make the service expand millions of points.
MAX_CAMPAIGN_POINTS = 10_000


class JobCancelled(Exception):
    """Raised inside a worker when a job's cancel flag is set."""


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------
@dataclass
class Job:
    """One submitted campaign: its configuration plus live progress.

    Mutable progress fields (``status``, ``n_done``, ``error``, ...) are
    written by exactly one worker thread and read by pollers; each field
    is a single reference assignment, so snapshots via
    :meth:`status_dict` are always internally plausible even mid-run.
    """

    id: str
    prepared: PreparedCampaign
    out: Optional[Path] = None
    overwrite: bool = False
    flush_every: int = 1
    status: str = "queued"
    n_done: int = 0
    error: Optional[str] = None
    #: Per-point failures captured without failing the job: dicts of
    #: ``{"point", "seed", "error"}`` in completion order.  A fault-heavy
    #: campaign finishes "done" with its broken points listed here.
    failed_points: list = field(default_factory=list)
    result: Optional[CampaignResult] = None
    cache_summary: Optional[dict[str, int]] = None
    submitted_s: float = field(default_factory=time.monotonic)  # repro: allow-wallclock
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    _cancel: threading.Event = field(default_factory=threading.Event, repr=False)
    _finished: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def n_points(self) -> int:
        return len(self.prepared.plan)

    @property
    def done(self) -> bool:
        return self.status in ("done", "failed", "cancelled")

    def cancel(self) -> None:
        self._cancel.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (or timeout)."""
        return self._finished.wait(timeout)

    def status_dict(self) -> dict[str, Any]:
        """The JSON-safe snapshot the service's status endpoint serves."""
        wall = None
        if self.started_s is not None:
            end = self.finished_s if self.finished_s is not None else time.monotonic()  # repro: allow-wallclock
            wall = end - self.started_s
        return {
            "id": self.id,
            "name": self.prepared.campaign.name,
            "status": self.status,
            "n_points": self.n_points,
            "n_done": self.n_done,
            "seed": self.prepared.seed,
            "executor": self.prepared.executor.name,
            "backend": self.prepared.backend,
            "out": None if self.out is None else str(self.out),
            "error": self.error,
            "n_failed": len(self.failed_points),
            "failed_points": [dict(entry) for entry in self.failed_points],
            "cache": self.cache_summary,
            "wall_s": wall,
        }


class JobManager:
    """A FIFO queue of campaign jobs over a daemon worker-thread pool.

    All jobs share one :class:`ResultCache` (when configured), so a
    re-submitted campaign — or one overlapping a previous client's grid
    — is served from cache without touching the engine.  ``root`` gives
    jobs without an explicit ``out`` a JSONL directory at
    ``<root>/<job id>``; with neither, results stay in memory on the
    job's :class:`CampaignResult`.

    ``max_finished`` bounds how many *terminal* jobs (done / failed /
    cancelled) the manager remembers: each submission evicts the oldest
    finished jobs beyond the bound, dropping their in-memory
    :class:`CampaignResult` payloads so a long-lived ``repro serve``
    process stays flat.  Evicted job ids read as unknown afterwards
    (their JSONL directories, when configured, stay on disk).  ``None``
    disables eviction — only sensible for short-lived managers.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        cache: Union[None, str, Path, ResultCache] = None,
        root: Union[None, str, Path] = None,
        max_finished: Optional[int] = 256,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_finished is not None and max_finished < 0:
            raise ValueError(f"max_finished must be >= 0 or None, got {max_finished}")
        self.cache = make_cache(cache)
        self.root = None if root is None else Path(root)
        self.workers = int(workers)
        self.max_finished = max_finished
        self._jobs: "dict[str, Job]" = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        # Number after the jobs left under ``root`` by an earlier session.
        taken = [] if self.root is None else sorted(self.root.glob("job-*"))
        numbers = [int(path.name[4:]) for path in taken if path.name[4:].isdecimal()]
        self._counter = itertools.count(max(numbers, default=0) + 1)
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._threads = [
            threading.Thread(target=self._worker, name=f"repro-job-{n}", daemon=True)
            for n in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission / observation
    # ------------------------------------------------------------------
    def submit(
        self,
        campaign: Union[CampaignSpec, Mapping[str, Any]],
        *,
        seed: int = 0,
        executor: Union[str, Executor] = "serial",
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        out: Union[None, str, Path] = None,
        overwrite: bool = False,
        flush_every: int = 1,
    ) -> Job:
        """Validate, register and enqueue a campaign; returns the
        :class:`Job` immediately (it is also retrievable by id).

        Everything that can be rejected is rejected *here*, in the
        caller's thread — a queued job only fails for execution-time
        reasons, never for a bad argument.  A campaign of more than
        :data:`MAX_CAMPAIGN_POINTS` points is refused before it compiles.
        """
        if not isinstance(campaign, CampaignSpec):
            campaign = CampaignSpec.from_dict(campaign)
        if campaign.n_points > MAX_CAMPAIGN_POINTS:
            raise ValueError(
                f"campaign has {campaign.n_points} points; a job takes at most "
                f"{MAX_CAMPAIGN_POINTS} — split it into smaller campaigns"
            )
        prepared = prepare_campaign(
            campaign,
            seed=seed,
            executor=executor,
            workers=workers,
            backend=backend,
            cache=self.cache,
            # A job without ``out`` writes under ``<root>/<job id>``.
            out=out if out is not None else self.root,
            flush_every=flush_every,
        )
        with self._lock:
            job_id = f"job-{next(self._counter):04d}"
            job = Job(
                id=job_id,
                prepared=prepared,
                out=(
                    Path(out)
                    if out is not None
                    else (self.root / job_id if self.root is not None else None)
                ),
                overwrite=overwrite,
                flush_every=int(flush_every),
            )
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._evict_finished_locked()
        self._queue.put(job)
        return job

    def _evict_finished_locked(self) -> None:
        """Forget the oldest terminal jobs beyond ``max_finished``
        (``_locked``: callers hold ``self._lock`` — the lint C301
        convention).  Queued/running jobs are never evicted."""
        if self.max_finished is None:
            return
        finished = [job_id for job_id in self._order if self._jobs[job_id].done]
        for job_id in finished[: max(0, len(finished) - self.max_finished)]:
            del self._jobs[job_id]
            self._order.remove(job_id)

    def job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def jobs(self) -> list[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def status(self, job_id: str) -> dict[str, Any]:
        return self.job(job_id).status_dict()

    def cancel(self, job_id: str) -> Job:
        """Flag a job for cancellation (queued: skipped before start;
        running: stops at the next point boundary, leaving a resumable
        partial directory)."""
        job = self.job(job_id)
        job.cancel()
        return job

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        job = self.job(job_id)
        if not job.wait(timeout):
            raise TimeoutError(f"job {job_id} still {job.status} after {timeout}s")
        return job

    def cache_stats(self) -> Optional[dict[str, Any]]:
        return None if self.cache is None else self.cache.stats_dict()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers after the queue drains.  Jobs already queued
        still run; daemon threads mean an unclean exit cannot hang the
        interpreter either way."""
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if job._cancel.is_set():
                job.status = "cancelled"
                job.finished_s = time.monotonic()  # repro: allow-wallclock
                job._finished.set()
                continue
            job.status = "running"
            job.started_s = time.monotonic()  # repro: allow-wallclock
            try:
                job.result = self._execute(job)
                job.status = "done"
            except JobCancelled:
                job.status = "cancelled"
            except Exception as exc:  # noqa: BLE001 — reported, not raised
                job.status = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
            finally:
                job.finished_s = time.monotonic()  # repro: allow-wallclock
                job._finished.set()

    def _execute(self, job: Job) -> CampaignResult:
        """The shared campaign driver with the job hooks: per-point
        progress, captured per-point failures, and a cancel check
        between outcomes (a cancelled job leaves a manifest-less
        partial directory that :func:`resume_campaign` understands)."""

        def on_outcome(outcome: PointOutcome) -> None:
            if job._cancel.is_set():
                raise JobCancelled(job.id)
            if not outcome.ok:
                # Recorded on the job (with the trace-violation summary
                # the executor rendered), never written to the store —
                # resume sees the point as missing and retries it.
                job.failed_points.append(
                    {
                        "point": outcome.point.index,
                        "seed": outcome.point.seed,
                        "error": outcome.error,
                    }
                )
            job.n_done += 1

        sink = make_store(
            None, out=job.out, overwrite=job.overwrite, flush_every=job.flush_every
        )
        try:
            return job.prepared.execute(sink, on_outcome=on_outcome)
        finally:
            if job.prepared.dispatch is not None:
                job.cache_summary = job.prepared.dispatch.summary()


# ---------------------------------------------------------------------------
# Resume
# ---------------------------------------------------------------------------
def resume_campaign(
    out: Union[str, Path],
    *,
    executor: Union[str, Executor] = "serial",
    workers: Optional[int] = None,
    flush_every: int = 1,
    cache: Union[None, str, Path, ResultCache] = None,
    ignore_version: bool = False,
) -> CampaignResult:
    """Finish an interrupted JSONL campaign directory in place.

    Reads the ``campaign.json`` sidecar (written before any point
    executed), reopens the partial ``results.jsonl`` in append mode
    (truncating a torn tail line, keeping every intact point), recompiles
    the plan and runs only the missing points.  Because a point's seed
    is a pure function of ``(campaign seed, replicate)``, the resumed
    points are bit-identical to what an uninterrupted run would have
    produced — parity is testable point-by-point.

    The campaign, seed and backend come from the sidecar: resuming under
    different settings would silently mix incompatible numbers, so they
    are deliberately not parameters.  The engine *version* is held to
    the same standard — a directory started under a different version is
    refused (``ignore_version=True``, CLI ``--ignore-version``, accepts
    the mixed-version results anyway, and the manifest then records the
    sidecar's version so the mixture is at least visible).  The executor
    is free to differ — it never affects results.
    """
    root = Path(out)
    sidecar = read_campaign_sidecar(root)
    if sidecar is None:
        raise FileNotFoundError(
            f"{root} has no {JsonlResultStore.CAMPAIGN_NAME} sidecar; only "
            f"campaigns started by this version (or the job service) are resumable"
        )
    from .. import __version__

    sidecar_version = sidecar.get("version")
    if sidecar_version != __version__ and not ignore_version:
        raise ValueError(
            f"{root} was started by engine version {sidecar_version!r} but this "
            f"build is {__version__!r}; resuming would mix versions in one "
            f"results.jsonl — re-run the campaign, or pass ignore_version=True "
            f"(CLI: --ignore-version) to accept that"
        )
    prepared = prepare_campaign(
        sidecar["campaign"],
        seed=int(sidecar["seed"]),
        executor=executor,
        workers=workers,
        backend=sidecar.get("backend"),
        cache=cache,
        out=root,
        flush_every=flush_every,
    )
    sink = JsonlResultStore.open_partial(root, flush_every=flush_every)
    done = {meta["point"] for meta in sink.point_metas()}
    missing = tuple(point for point in prepared.plan if point.index not in done)
    resumed: dict[str, Any] = {"previously_completed": len(done), "executed": len(missing)}
    if sidecar_version != __version__:
        resumed["sidecar_version"] = sidecar_version
    return prepared.execute(
        sink,
        points=Plan(points=missing, campaign=prepared.campaign, seed=prepared.seed),
        resumed=resumed,
    )
