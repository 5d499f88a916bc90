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
from typing import Any, Callable, Iterable, Optional

from ..core.rng import SeedTree
from .results import ResultSet
from .specs import ExperimentSpec, experiment_type
from .workloads import resolve_backend, workload_for


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
    recorder:
        Optional :class:`~repro.trace.TraceRecorder` (duck-typed).  The
        object DNA chips this Runner builds carry it, so their register
        traffic, sequencer states and serial frames land on its
        simulated clock, and every result is stamped with its capture
        (``ResultSet.trace``).  Vectorized chips are never traced.
    """

    def __init__(self, seed: int = 0, recorder: Any = None) -> None:
        self.seed_tree = SeedTree(seed)
        self.recorder = recorder
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
        """
        spec = self._coerce_spec(spec, params)
        resolved_backend = resolve_backend(spec, backend)
        workload = workload_for(spec.kind)
        plan = workload.stream_plan(spec)
        rngs = plan.generators(self.seed)
        self._current_seeds = plan.provenance(self.seed)
        # Save-and-restore so a workload that re-enters run() (composite
        # experiments) gets its outer backend back afterwards.
        previous_backend = self._active_backend
        self._active_backend = resolved_backend
        try:
            result = workload.execute(self, spec, rngs)
        finally:
            self._current_seeds = {}
            self._active_backend = previous_backend
        self.stats.runs += 1
        return result

    def run_batch(
        self,
        specs: Iterable[ExperimentSpec],
        *,
        backend: Optional[str] = None,
    ) -> list[ResultSet]:
        """Execute many specs, sharing chips/layouts/libraries via the
        caches.  Results come back in input order and are identical to
        running each spec alone (streams are position-independent)."""
        return [self.run(spec, backend=backend) for spec in specs]

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
            trace=self.recorder.trace() if self.recorder is not None else None,
        )
