"""The batched experiment Runner — the library's front door.

One Runner owns one :class:`~repro.core.rng.SeedTree`; every random
stream any experiment consumes is derived from ``(seed, stream path)``,
never from call order.  Consequences:

* ``run(spec)`` is a pure function of ``(seed, spec)`` — bit-identical
  on repeat, whether run alone, inside a batch, or after other specs;
* expensive substrates (built-and-calibrated chips, probe layouts,
  compound libraries) are cached by the facet of the spec that defines
  them, so a concentration sweep of N assays provisions *one* chip and
  *one* spotted layout instead of N;
* provenance is automatic: every ResultSet records the root seed and
  the stream paths that produced it.

Use::

    from repro.experiments import DnaAssaySpec, Runner

    runner = Runner(seed=1)
    result = runner.run(DnaAssaySpec(concentration=1e-5))
    sweep = runner.run_batch(
        [DnaAssaySpec(concentration=c) for c in (1e-7, 1e-6, 1e-5)]
    )
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from ..core.rng import SeedTree
from .results import ResultSet
from .specs import ExperimentSpec, experiment_type
from .workloads import validate_backend, workload_for


@dataclass
class RunnerStats:
    """Cheap instrumentation: what the caches actually saved."""

    runs: int = 0
    chips_built: int = 0
    chips_reused: int = 0
    layouts_built: int = 0
    layouts_reused: int = 0
    libraries_built: int = 0
    libraries_reused: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class Runner:
    """Executes experiment specs with shared, deterministic resources.

    Parameters
    ----------
    seed:
        Root of the seed tree.  Two Runners with the same seed produce
        bit-identical results for the same specs.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed_tree = SeedTree(seed)
        self.stats = RunnerStats()
        self._caches: dict[str, dict[str, Any]] = {}
        # Per-run context (single-threaded): the active compute backend
        # and the provenance to stamp on results.
        self._current_seeds: dict[str, Any] = {}
        self._active_backend: str = "object"

    @property
    def seed(self) -> int:
        return self.seed_tree.root

    @property
    def backend(self) -> str:
        """The compute backend of the run currently executing
        (``"object"`` outside a run) — what workloads dispatch on."""
        return self._active_backend

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        spec: ExperimentSpec | str,
        *,
        backend: Optional[str] = None,
        inputs: Optional[dict[str, Any]] = None,
        **params: Any,
    ) -> ResultSet:
        """Execute one spec and return its :class:`ResultSet`.

        ``spec`` may be a spec instance or a registered kind name plus
        field values (``runner.run("dna_assay", concentration=1e-6)``).

        ``backend`` selects the compute backend (:data:`BACKENDS`):
        ``"object"`` runs the per-pixel reference models, ``"vectorized"``
        the :mod:`repro.engine` array kernels.  ``None`` defers to the
        spec's own ``backend`` field when it has one (``ArrayScaleSpec``)
        and otherwise means ``"object"``.  Random streams are backend-
        independent, but the two backends *consume* them differently, so
        equality across backends is to documented tolerance, not bitwise.

        ``inputs`` injects pre-built substrates (e.g. ``{"library":
        lib}``); injected resources bypass the caches.  The mapping
        itself is copied per run — a workload can never mutate the
        caller's dict, and batched runs cannot leak entries into each
        other — while the injected *values* are intentionally shared by
        reference.
        """
        spec = self._coerce_spec(spec, params)
        resolved_backend = backend if backend is not None else getattr(spec, "backend", "object")
        validate_backend(spec.kind, resolved_backend)
        workload = workload_for(spec.kind)
        paths = workload.streams(spec)
        rngs = {name: self.seed_tree.generator(*path) for name, path in paths.items()}
        self._current_seeds = {
            "root": self.seed,
            "streams": {name: [str(part) for part in path] for name, path in paths.items()},
        }
        # Save-and-restore so a workload that re-enters run() (composite
        # experiments) gets its outer backend back afterwards.
        previous_backend = self._active_backend
        self._active_backend = resolved_backend
        try:
            # Shallow copy: per-run input isolation (values shared).
            result = workload.execute(self, spec, rngs, dict(inputs or {}))
        finally:
            self._current_seeds = {}
            self._active_backend = previous_backend
        self.stats.runs += 1
        return result

    def run_batch(
        self,
        specs: Sequence[ExperimentSpec] | Iterable[ExperimentSpec],
        *,
        backend: Optional[str] = None,
        inputs: Optional[dict[str, Any]] = None,
    ) -> list[ResultSet]:
        """Execute many specs, sharing chips/layouts/libraries via the
        caches.  Results come back in input order and are identical to
        running each spec alone (streams are position-independent).

        Since the campaign redesign this is a thin shim over
        :mod:`repro.campaigns`: the spec list compiles to a
        :class:`~repro.campaigns.plan.Plan` executed in-place on *this*
        Runner by the serial executor, so caches, stats and artifacts
        behave exactly as before.  Each spec sees its own shallow copy
        of ``inputs`` (see :meth:`run`).
        """
        from ..campaigns.executors import SerialExecutor
        from ..campaigns.plan import Plan

        plan = Plan.for_specs(specs, seed=self.seed)
        results: list[Optional[ResultSet]] = [None] * len(plan)
        executor = SerialExecutor()
        for outcome in executor.run(
            plan, backend=backend, inputs=inputs, runner_factory=lambda seed: self
        ):
            results[outcome.point.index] = outcome.result
        return results  # type: ignore[return-value]

    def run_campaign(
        self,
        campaign: "Any",
        *,
        executor: "Any" = "serial",
        workers: Optional[int] = None,
        store: "Any" = None,
        out: Optional[Any] = None,
        overwrite: bool = False,
        flush_every: int = 1,
        backend: Optional[str] = None,
        inputs: Optional[dict[str, Any]] = None,
    ) -> "Any":
        """Execute a :class:`~repro.campaigns.spec.CampaignSpec` rooted
        at this Runner's seed and return the
        :class:`~repro.campaigns.store.CampaignResult`.

        Convenience front door for :func:`repro.campaigns.run_campaign`
        — see there for executor/store/backend semantics.  Replicate 0
        of every point runs under this Runner's root seed, so a
        1-replicate campaign point is bit-identical to ``self.run(spec)``
        (executors own their workers' Runner clones; this Runner's
        caches are not consulted).
        """
        from ..campaigns import run_campaign

        return run_campaign(
            campaign,
            seed=self.seed,
            executor=executor,
            workers=workers,
            store=store,
            out=out,
            overwrite=overwrite,
            flush_every=flush_every,
            backend=backend,
            inputs=inputs,
        )

    def clone(self, seed: Optional[int] = None) -> "Runner":
        """A fresh Runner with the same root seed (or ``seed``) and empty
        caches/stats.  Convenience for callers fanning work out by hand;
        equivalent to what the campaign executors build per worker
        (``Runner(point.seed)``), and bit-identical to this Runner on
        the same specs because streams depend only on (root, path)."""
        return Runner(seed=self.seed if seed is None else seed)

    def clear_caches(self) -> None:
        self._caches.clear()

    # ------------------------------------------------------------------
    # Workload services
    # ------------------------------------------------------------------
    def _coerce_spec(self, spec: ExperimentSpec | str, params: dict[str, Any]) -> ExperimentSpec:
        if isinstance(spec, str):
            return experiment_type(spec)(**params)
        if params:
            raise TypeError("field values are only accepted with a kind name, not a spec instance")
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(f"cannot run {type(spec).__name__}; expected a spec or kind name")
        return spec

    def _provision(
        self,
        cache_name: str,
        key: str,
        factory: Callable[[], Any],
        counter: str = "chips",
    ) -> Any:
        """Fetch-or-build a shared substrate, keeping reuse statistics."""
        cache = self._caches.setdefault(cache_name, {})
        if key in cache:
            setattr(self.stats, f"{counter}_reused", getattr(self.stats, f"{counter}_reused") + 1)
            return cache[key]
        built = factory()
        setattr(self.stats, f"{counter}_built", getattr(self.stats, f"{counter}_built") + 1)
        cache[key] = built
        return built

    def _result(
        self,
        spec: ExperimentSpec,
        record_name: str,
        records: dict[str, Any],
        metrics: dict[str, Any],
        artifacts: dict[str, Any],
        trace: Optional[Any] = None,
    ) -> ResultSet:
        from .. import __version__

        return ResultSet(
            kind=spec.kind,
            spec=spec.to_dict(),
            seeds=dict(self._current_seeds),
            version=__version__,
            record_name=record_name,
            records=records,
            metrics=metrics,
            artifacts=artifacts,
            trace=trace,
        )
