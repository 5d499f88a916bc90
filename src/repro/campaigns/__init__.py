"""Campaigns: declarative sweeps, parallel executors, streaming stores.

The paper's results are all *campaigns*, not single runs — Fig. 4's
concentration series, Fig. 6's chip-to-chip Monte Carlo, the screening
funnel's compound sweeps.  This package is the batch-orchestration
layer over :mod:`repro.experiments`:

* :class:`CampaignSpec` (``spec.py``) — a frozen, serializable sweep:
  base spec + ``grid`` (cartesian product) / ``zip`` (lockstep) axes +
  seed-varied ``replicates``;
* :class:`Plan` (``plan.py``) — the compiled form: every point explicit,
  each carrying a Runner root seed derived stably from
  ``(campaign seed, replicate)`` so results never depend on point
  position, execution order or worker count;
* executors (``executors.py``) — ``serial`` / ``process``,
  parity-tested bit-identical per point, plus the ``batched`` fast path
  (``batched.py``) that compiles same-spec vectorized-kind point groups
  into chip-batched engine calls (bit-identical to serial);
* stores (``store.py``) — in-memory, or JSONL-on-disk with a
  ``manifest.json`` (provenance, point index, wall time per run) so
  million-point sweeps never hold every ResultSet in RAM;
* reports (``report.py``) — per-point metrics tables for the CLI;
* one driver (this module): :func:`prepare_campaign` is the setup step
  — every argument error fires before a store touches the filesystem —
  and :meth:`PreparedCampaign.execute` the execution loop shared by
  :func:`run_campaign`, the job service and resume.

Use::

    from repro.campaigns import CampaignSpec, run_campaign
    from repro.experiments import DnaAssaySpec

    campaign = CampaignSpec(
        base=DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1)),
        grid={"concentration": (1e-7, 1e-6, 1e-5)},
        replicates=4,                       # chip-to-chip Monte Carlo
    )
    result = run_campaign(campaign, seed=1, executor="process")
    print(result.table())

or, from the shell::

    python -m repro sweep --campaign campaign.json --executor process
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Union

from .batched import BatchedExecutor
from .executors import (
    EXECUTORS,
    Executor,
    PointOutcome,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from .plan import Plan, PlanPoint
from .report import manifest_summary, metrics_table, report_rows
from .spec import CampaignSpec, replicate_seed
from .store import (
    MANIFEST_SCHEMA,
    PENDING_SCHEMA,
    STORES,
    CampaignResult,
    JsonlResultStore,
    MemoryResultStore,
    ResultStore,
    check_store,
    make_store,
    read_campaign_sidecar,
    write_campaign_sidecar,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..service.cache import CachedDispatch, ResultCache

__all__ = [
    "EXECUTORS",
    "MANIFEST_SCHEMA",
    "PENDING_SCHEMA",
    "STORES",
    "BatchedExecutor",
    "CampaignResult",
    "CampaignSpec",
    "Executor",
    "JsonlResultStore",
    "MemoryResultStore",
    "Plan",
    "PlanPoint",
    "PointOutcome",
    "PreparedCampaign",
    "ProcessExecutor",
    "ResultStore",
    "SerialExecutor",
    "make_executor",
    "make_store",
    "manifest_summary",
    "metrics_table",
    "prepare_campaign",
    "read_campaign_sidecar",
    "replicate_seed",
    "report_rows",
    "run_campaign",
    "write_campaign_sidecar",
]


@dataclass
class PreparedCampaign:
    """A campaign that passed setup: compiled plan, resolved executor
    and cache.  :meth:`execute` is the one driver loop behind
    :func:`run_campaign`, the job service and resume."""

    campaign: CampaignSpec
    plan: Plan
    seed: int
    executor: Executor
    #: The campaign-level backend choice (``None``: each spec's own), as
    #: recorded in the manifest and sidecar; every plan point already
    #: carries the backend it resolved to.
    backend: Optional[str]
    cache: Optional["ResultCache"] = None
    #: The cache-aware dispatch of the current execution (``None``
    #: without a cache); its ``summary()`` is the manifest's cache block.
    dispatch: Optional["CachedDispatch"] = field(default=None, init=False)

    def execute(
        self,
        sink: ResultStore,
        *,
        points: Optional[Plan] = None,
        resumed: Optional[dict[str, Any]] = None,
        on_outcome: Optional[Callable[[PointOutcome], None]] = None,
    ) -> CampaignResult:
        """Stream ``points`` (default: the whole plan) into ``sink`` and
        finalize it with the manifest.

        A fresh writable JSONL store first gets the ``campaign.json``
        sidecar; a resumed one (``resumed`` is the manifest's resume
        block) keeps the sidecar it was started with.  ``on_outcome``
        sees every outcome before the store does and may raise to stop
        the run; with it, a failing point streams out as a failed
        outcome (executor ``capture_errors``) that reaches the hook and
        never the store.  On any exception the store is closed
        unfinalized, so every completed point — buffered ones too —
        stays on disk for resume."""
        from .. import __version__

        todo = self.plan if points is None else points
        capture_errors = on_outcome is not None
        if self.cache is not None:
            from ..service.cache import CachedDispatch

            self.dispatch = CachedDispatch(
                todo, self.executor, self.cache, capture_errors=capture_errors
            )
            outcomes = self.dispatch.outcomes()
        else:
            outcomes = self.executor.run(todo, capture_errors=capture_errors)
        provenance = {
            "name": self.campaign.name,
            "campaign": self.campaign.to_dict(),
            "seed": self.seed,
            "backend": self.backend,
            "version": __version__,
        }
        if resumed is None and isinstance(sink, JsonlResultStore) and sink.writable:
            write_campaign_sidecar(sink.root, provenance)
        start = time.perf_counter()  # repro: allow-wallclock
        try:
            for outcome in outcomes:
                if on_outcome is not None:
                    on_outcome(outcome)
                if outcome.ok:
                    sink.add(outcome)
        except BaseException:
            for stream in (outcomes, sink):
                close = getattr(stream, "close", None)
                if close is not None:
                    close()
            raise
        total_wall_s = time.perf_counter() - start  # repro: allow-wallclock
        point_meta = {meta["point"]: meta for meta in sink.point_metas()}
        manifest = {
            "schema": MANIFEST_SCHEMA,
            **provenance,
            "executor": self.executor.name,
            "workers": getattr(self.executor, "workers", 1),
            "store": sink.name,
            "n_points": len(self.plan),
            "total_wall_s": total_wall_s,
            "points": [point_meta.get(point.index) or point.describe() for point in self.plan],
        }
        if self.dispatch is not None:
            manifest["cache"] = self.dispatch.summary()
        if resumed is not None:
            manifest["resumed"] = resumed
        sink.finalize(manifest)
        return CampaignResult(plan=self.plan, store=sink, manifest=manifest)


def prepare_campaign(
    campaign: Union[CampaignSpec, Mapping[str, Any]],
    *,
    seed: int = 0,
    executor: Union[str, Executor] = "serial",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    cache: Any = None,
    store: Union[None, str, ResultStore] = None,
    out: Any = None,
    flush_every: int = 1,
) -> PreparedCampaign:
    """The one setup step: coerce and compile the campaign (every
    point's backend resolved and validated there), resolve the executor
    and cache, and check the seed and store arguments.  Every argument
    error fires here, before any store touches the filesystem — an
    ``overwrite=True`` run must not destroy an old campaign and then
    die on a bad argument."""
    from ..service.cache import make_cache

    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"campaign seed must be an integer, got {seed!r}")
    if not isinstance(campaign, CampaignSpec):
        campaign = CampaignSpec.from_dict(campaign)
    if backend is None:
        backend = campaign.backend
    plan = campaign.compile(seed, backend=backend)
    chosen = make_executor(executor, workers=workers)
    result_cache = make_cache(cache)
    check_store(store, out, flush_every)
    return PreparedCampaign(
        campaign=campaign,
        plan=plan,
        seed=int(seed),
        executor=chosen,
        backend=backend,
        cache=result_cache,
    )


def run_campaign(
    campaign: Union[CampaignSpec, Mapping[str, Any]],
    *,
    seed: int = 0,
    executor: Union[str, Executor] = "serial",
    workers: Optional[int] = None,
    store: Union[None, str, ResultStore] = None,
    out: Optional[str] = None,
    overwrite: bool = False,
    flush_every: int = 1,
    backend: Optional[str] = None,
    cache: Any = None,
) -> CampaignResult:
    """Compile ``campaign``, stream it through an executor into a store,
    and return the :class:`CampaignResult`.

    ``campaign`` may be a :class:`CampaignSpec` or its ``to_dict()``
    payload.  ``executor`` is a name from :data:`EXECUTORS` or an
    instance; ``store`` a name from :data:`STORES` (``"jsonl"`` needs
    ``out``; ``overwrite`` permits replacing a finalized campaign
    directory), a :class:`ResultStore`, or ``None`` for in-memory.
    ``flush_every`` enables the jsonl store's buffered append mode
    (flush every N points instead of per point — cuts per-point fsync
    overhead in large campaigns; buffered lines always land by
    ``finalize``).  ``backend`` overrides the campaign's own
    ``backend`` field (and ``None`` defers to it, then to each spec's
    default; see :meth:`CampaignSpec.compile`).  Results are
    bit-identical across executors and worker counts; only wall times
    and completion order differ.

    ``cache`` enables content-addressed result caching (CLI:
    ``--cache-dir``): a directory path or a
    :class:`~repro.service.cache.ResultCache` instance.  Points whose
    ``(spec, seed, backend, version)`` key is already cached are served
    without touching the engine, duplicate points within the campaign
    are computed once, and every computed point is cached for later
    campaigns; the manifest gains a ``cache`` accounting block.  Cached
    replay is bit-identical to recomputation (the reproduction
    invariant), so enabling a cache never changes numbers.
    """
    prepared = prepare_campaign(
        campaign,
        seed=seed,
        executor=executor,
        workers=workers,
        backend=backend,
        cache=cache,
        store=store,
        out=out,
        flush_every=flush_every,
    )
    sink = make_store(store, out=out, overwrite=overwrite, flush_every=flush_every)
    return prepared.execute(sink)
