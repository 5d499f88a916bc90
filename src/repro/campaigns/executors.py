"""Pluggable campaign executors: serial and process pool.

An executor turns a :class:`~repro.campaigns.plan.Plan` into a stream of
:class:`PointOutcome` — one per completed run, possibly out of plan
order.  Every built-in (these two plus ``batched``, see
:mod:`repro.campaigns.batched`) honours the SeedTree contract: a point's
result depends only on ``(point.spec, point.seed, point.backend)``,
never on which worker ran it, in what order, or how many workers there
are, so the executors are bit-identical per point (the parity tests in
``tests/test_campaign_executors.py`` enforce this).

* :class:`SerialExecutor` — runs in the calling thread, one Runner per
  distinct point seed.
* :class:`ProcessExecutor` — a process pool; each worker process owns
  its own Runners keyed by point seed.  Specs travel as their
  ``to_dict()`` payloads and results come back artifact-free (rich
  model objects stay in the worker).  The throughput choice for CPU-
  bound campaigns on multi-core hosts.

Every per-point run, in any executor, goes through one timed body
(:func:`_run_point`) and one plan-aware fetch-or-build
(:func:`_fetch_runner`): a Runner is kept while its seed recurs later
in the run order, at most :data:`MAX_CACHED_RUNNERS` of them, and the
one needed furthest ahead is evicted first.  Executors build their
Runners from point seeds alone; ``Runner.run_batch`` is a plain loop
over ``Runner.run``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, Executor as _PoolExecutor
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from ..experiments.results import ResultSet
from ..experiments.runner import Runner
from ..experiments.specs import spec_from_dict
from .plan import Plan, PlanPoint

#: Names accepted by :func:`make_executor` (and the CLI's ``--executor``).
#: ``"batched"`` (see :mod:`repro.campaigns.batched`) compiles same-spec
#: vectorized-kind point groups into chip-batched engine calls and runs
#: everything else serially.
EXECUTORS = ("serial", "process", "batched")


@dataclass(frozen=True)
class PointOutcome:
    """One completed plan point: the result plus its wall time.

    With ``capture_errors`` a failed point streams out as an outcome
    whose ``result`` is ``None`` and whose ``error`` holds the rendered
    exception (plus any trace-violation summary), so a fault-heavy
    campaign keeps flowing instead of dying at the first broken point.
    """

    point: PlanPoint
    result: Optional[ResultSet]
    wall_s: float
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _error_text(exc: BaseException) -> str:
    """Render a captured per-point failure, surfacing the structured
    violation list when the exception carries one (TraceAssertionError)."""
    text = f"{type(exc).__name__}: {exc}"
    violations = getattr(exc, "violations", None)
    if violations:
        rules = sorted({getattr(v, "rule", str(v)) for v in violations})
        text = f"{type(exc).__name__}: {len(violations)} trace violation(s) [{', '.join(rules)}]"
    return text


def _check_workers(workers: Optional[int]) -> int:
    """``None`` means all cores; anything below 1 is an operator error,
    not something to clamp silently."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


class Executor:
    """Interface: stream PointOutcomes for a Plan.  Each point carries
    everything its run needs; ``capture_errors`` streams a failing point
    out as a failed outcome instead of raising."""

    name: str = "base"

    def run(self, plan: Plan, *, capture_errors: bool = False) -> Iterator[PointOutcome]:
        raise NotImplementedError


#: Per-worker bound on cached Runners (each holds built chips/layouts).
#: A campaign has one distinct seed per replicate, so without a bound a
#: 10k-replicate Monte Carlo would pin 10k calibrated chips per worker.
#: Eviction only costs a rebuild (results are seed-pure), never changes
#: numbers.
MAX_CACHED_RUNNERS = 16

#: A worker's Runner cache: point seed -> (position of that seed's next
#: point, Runner).
_RunnerCache = dict[int, tuple[int, Runner]]


def _next_uses(points: Sequence[PlanPoint]) -> list[Optional[int]]:
    """One backward scan: for each position in ``points``, the position
    of the next point with the same seed, or ``None`` if it has none."""
    uses: list[Optional[int]] = [None] * len(points)
    following: dict[int, int] = {}
    for position in range(len(points) - 1, -1, -1):
        seed = points[position].seed
        uses[position] = following.get(seed)
        following[seed] = position
    return uses


def _fetch_runner(
    runners: _RunnerCache, seed: int, position: int, next_use: Optional[int]
) -> Runner:
    """Plan-aware fetch-or-build, bounded at :data:`MAX_CACHED_RUNNERS`.

    The Runner for the point at ``position`` is kept only while its seed
    recurs (``next_use`` is its next position).  Above the bound the
    Runner needed furthest ahead is evicted, which for a known sequence
    rebuilds the fewest chips.  An entry whose next use has already
    passed (a process worker whose peer ran that point) is dropped."""
    entry = runners.pop(seed, None)
    runner = Runner(seed) if entry is None else entry[1]
    for stale in [key for key, (use, _) in runners.items() if use < position]:
        del runners[stale]
    if next_use is not None:
        runners[seed] = (next_use, runner)
        if len(runners) > MAX_CACHED_RUNNERS:
            del runners[max(runners, key=lambda key: runners[key][0])]
    return runner


def _stream_pool(
    pool: _PoolExecutor, submit: Callable[[int, PlanPoint], Any], plan: Plan, workers: int
) -> Iterator[Any]:
    """Submit plan points (with their plan positions) under a bounded
    in-flight window and yield future results as they complete.

    Submitting everything upfront would let completed-but-unconsumed
    Futures pin their ResultSets (workers outpacing the single store
    consumer), growing RAM with campaign size.  A window of a few
    multiples of the worker count keeps every worker busy while the
    backlog — and its memory — stays flat.
    """
    window = max(4, workers * 4)
    points = enumerate(plan)
    pending: set = set()
    while True:
        while len(pending) < window:
            task = next(points, None)
            if task is None:
                break
            pending.add(submit(*task))
        if not pending:
            break
        done, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            yield future.result()


def _run_point(
    runners: _RunnerCache,
    point: PlanPoint,
    position: int,
    next_use: Optional[int],
    capture_errors: bool = False,
) -> PointOutcome:
    """The one timed-run body of every executor: fetch-or-build the
    Runner for the point's seed, execute, time.  ``capture_errors``
    turns a per-point exception into a failed outcome instead of
    killing the whole stream."""
    runner = _fetch_runner(runners, point.seed, position, next_use)
    result, error = None, None
    start = time.perf_counter()  # repro: allow-wallclock
    try:
        result = runner.run(point.spec, backend=point.backend)
    except Exception as exc:  # noqa: BLE001 — opted into by capture_errors
        if not capture_errors:
            raise
        error = _error_text(exc)
    wall_s = time.perf_counter() - start  # repro: allow-wallclock
    return PointOutcome(point=point, result=result, wall_s=wall_s, error=error)


def _run_in_order(
    points: Sequence[PlanPoint], capture_errors: bool = False
) -> Iterator[PointOutcome]:
    """Run ``points`` one by one, in the order given, sharing one
    plan-aware Runner cache."""
    runners: _RunnerCache = {}
    for position, (point, next_use) in enumerate(zip(points, _next_uses(points))):
        yield _run_point(runners, point, position, next_use, capture_errors)


class SerialExecutor(Executor):
    """Run every point in the calling thread, in plan order."""

    name = "serial"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers not in (None, 1):
            raise ValueError("the serial executor has exactly one worker")
        self.workers = 1

    def run(self, plan: Plan, *, capture_errors: bool = False) -> Iterator[PointOutcome]:
        return _run_in_order(plan.points, capture_errors)


# Per-process Runners, keyed by point seed.  Module-level so the
# cache survives across tasks dispatched to the same worker process;
# bounded like the in-process caches.
_WORKER_RUNNERS: _RunnerCache = {}


def _process_worker(payload: tuple) -> tuple[int, float, Optional[ResultSet], Optional[str]]:
    """Top-level (picklable) task body for :class:`ProcessExecutor`."""
    index, seed, spec_dict, backend, position, next_use, capture_errors = payload
    # A worker-side stand-in: the parent maps the index back to its point.
    point = PlanPoint(
        index=index, spec=spec_from_dict(spec_dict), replicate=0, seed=seed, backend=backend
    )
    outcome = _run_point(_WORKER_RUNNERS, point, position, next_use, capture_errors)
    # Artifacts (chips, cultures, ...) stay in the worker: only the
    # columnar result crosses the process boundary.
    result = None if outcome.result is None else outcome.result.without_artifacts()
    return index, outcome.wall_s, result, outcome.error


class ProcessExecutor(Executor):
    """Run points on a process pool of per-worker Runners."""

    name = "process"

    def __init__(
        self, workers: Optional[int] = None, start_method: Optional[str] = None
    ) -> None:
        self.workers = _check_workers(workers)
        self.start_method = start_method

    def run(self, plan: Plan, *, capture_errors: bool = False) -> Iterator[PointOutcome]:
        by_index = {point.index: point for point in plan}
        next_uses = _next_uses(plan.points)
        context = multiprocessing.get_context(self.start_method)
        with ProcessPoolExecutor(max_workers=self.workers, mp_context=context) as pool:

            def submit(position: int, point: PlanPoint):
                payload = (
                    point.index,
                    point.seed,
                    point.spec.to_dict(),
                    point.backend,
                    position,
                    next_uses[position],
                    capture_errors,
                )
                return pool.submit(_process_worker, payload)

            for index, wall_s, result, error in _stream_pool(pool, submit, plan, self.workers):
                yield PointOutcome(
                    point=by_index[index], result=result, wall_s=wall_s, error=error
                )


def make_executor(
    executor: Union[str, Executor], workers: Optional[int] = None
) -> Executor:
    """Resolve an executor name (or pass an instance through).

    ``workers`` configures a *named* executor; combining it with an
    already-configured instance is a conflict, not a silent no-op.
    """
    if isinstance(executor, Executor):
        if workers is not None and getattr(executor, "workers", workers) != workers:
            raise ValueError(
                f"workers={workers} conflicts with the provided {executor.name} "
                f"executor instance (workers={executor.workers}); configure the "
                f"instance instead"
            )
        return executor
    if executor == "serial":
        return SerialExecutor(workers)
    if executor == "process":
        return ProcessExecutor(workers)
    if executor == "batched":
        from .batched import BatchedExecutor

        return BatchedExecutor(workers)
    raise ValueError(f"unknown executor {executor!r}; choose from {EXECUTORS}")
