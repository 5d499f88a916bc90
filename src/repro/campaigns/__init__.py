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
* reports (``report.py``) — per-point metrics tables for the CLI.

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

or, from a Runner / the shell::

    Runner(seed=1).run_campaign(campaign, executor="process", workers=8)
    # python -m repro sweep --campaign campaign.json --executor process
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Optional, Union

from .batched import BatchedExecutor, batchable_kinds, register_batch_compiler
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
from .spec import CampaignSpec, campaign_from_dict, replicate_seed
from .store import (
    MANIFEST_SCHEMA,
    PENDING_SCHEMA,
    STORES,
    CampaignResult,
    JsonlResultStore,
    MemoryResultStore,
    ResultStore,
    make_store,
    read_campaign_sidecar,
    write_campaign_sidecar,
)

__all__ = [
    "EXECUTORS",
    "MANIFEST_SCHEMA",
    "PENDING_SCHEMA",
    "STORES",
    "BatchedExecutor",
    "CampaignResult",
    "CampaignSpec",
    "Executor",
    "batchable_kinds",
    "register_batch_compiler",
    "JsonlResultStore",
    "MemoryResultStore",
    "Plan",
    "PlanPoint",
    "PointOutcome",
    "ProcessExecutor",
    "ResultStore",
    "SerialExecutor",
    "campaign_from_dict",
    "make_executor",
    "make_store",
    "manifest_summary",
    "metrics_table",
    "read_campaign_sidecar",
    "replicate_seed",
    "report_rows",
    "run_campaign",
    "write_campaign_sidecar",
]


def build_manifest(
    campaign: CampaignSpec,
    plan: Plan,
    sink: ResultStore,
    *,
    seed: int,
    backend: Optional[str],
    executor_name: str,
    workers: int,
    total_wall_s: float,
    cache: Optional[dict[str, Any]] = None,
    extra: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """The finalize-time manifest shared by ``run_campaign``, the job
    manager and the resume path.  ``cache`` is the cache-accounting
    block of a cache-aware run; ``extra`` merges additional provenance
    (e.g. resume bookkeeping)."""
    from .. import __version__

    point_meta = {meta["point"]: meta for meta in sink.point_metas()}
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "name": campaign.name,
        "campaign": campaign.to_dict(),
        "seed": int(seed),
        "version": __version__,
        "backend": backend,
        "executor": executor_name,
        "workers": workers,
        "store": sink.name,
        "n_points": len(plan),
        "total_wall_s": total_wall_s,
        "points": [
            point_meta[point.index] if point.index in point_meta else point.describe()
            for point in plan
        ],
    }
    if cache is not None:
        manifest["cache"] = dict(cache)
    if extra:
        manifest.update(extra)
    return manifest


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
    inputs: Optional[dict[str, Any]] = None,
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
    default).  Results are bit-identical across executors and worker
    counts; only wall times and completion order differ.

    ``cache`` enables content-addressed result caching (CLI:
    ``--cache-dir``): a directory path or a
    :class:`~repro.service.cache.ResultCache` instance.  Points whose
    ``(spec, seed, backend, version)`` key is already cached are served
    without touching the engine, duplicate points within the campaign
    are computed once, and every computed point is cached for later
    campaigns; the manifest gains a ``cache`` accounting block.  Cached
    replay is bit-identical to recomputation (the reproduction
    invariant), so enabling a cache never changes numbers.  Because
    injected ``inputs`` substrates would break exactly that invariant
    (they alter results without altering the content key), combining
    ``cache`` with non-empty ``inputs`` raises ``ValueError``.
    """
    if not isinstance(campaign, CampaignSpec):
        campaign = CampaignSpec.from_dict(campaign)
    resolved_backend = backend if backend is not None else campaign.backend
    plan = campaign.compile(seed)
    chosen = make_executor(executor, workers=workers)
    # Every setup error — executor arguments (validated eagerly in
    # run()), the backend, and the cache — must fire before make_store
    # touches the filesystem: an overwrite=True run must not destroy an
    # old campaign and then die on a bad argument.
    from ..experiments.workloads import validate_backend

    for kind in plan.kinds():
        validate_backend(kind, resolved_backend)
    outcomes = chosen.run(plan, backend=resolved_backend, inputs=inputs)
    dispatch = None
    if cache is not None:
        from ..service.cache import CachedDispatch, make_cache

        result_cache = make_cache(cache)
        # The executor's eager argument validation already ran above;
        # the un-started generator is safe to drop.
        close = getattr(outcomes, "close", None)
        if close is not None:
            close()
        dispatch = CachedDispatch(
            plan, chosen, result_cache, backend=resolved_backend, inputs=inputs
        )
        outcomes = dispatch.outcomes()
    sink = make_store(store, out=out, overwrite=overwrite, flush_every=flush_every)
    if isinstance(sink, JsonlResultStore) and sink.writable:
        from .. import __version__

        write_campaign_sidecar(
            sink.root,
            {
                "name": campaign.name,
                "campaign": campaign.to_dict(),
                "seed": int(seed),
                "backend": resolved_backend,
                "version": __version__,
            },
        )
    start = time.perf_counter()  # repro: allow-wallclock
    for outcome in outcomes:
        sink.add(outcome)
    total_wall_s = time.perf_counter() - start  # repro: allow-wallclock
    manifest = build_manifest(
        campaign,
        plan,
        sink,
        seed=seed,
        backend=resolved_backend,
        executor_name=chosen.name,
        workers=getattr(chosen, "workers", 1),
        total_wall_s=total_wall_s,
        cache=dispatch.summary() if dispatch is not None else None,
    )
    sink.finalize(manifest)
    return CampaignResult(plan=plan, store=sink, manifest=manifest)
