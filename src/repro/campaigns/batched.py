"""The batched campaign fast path: chip-batched engine calls per plan.

Serial per-point dispatch pays the full Runner / chip re-entry cost for
every campaign point — seed-tree streams, spec hashing, chip
provisioning, one small kernel call, one records pass — even when the
workload is fully vectorizable.  :class:`BatchedExecutor` compiles
groups of same-spec points into *chip-batched* engine calls instead:

* ``array_scale`` points run the engine's stacked array-scale
  evaluation (:func:`repro.engine.draw_array_scale`, then
  :func:`repro.engine.calibrate_array_scale` and
  :func:`repro.engine.count_array_scale`), chunked by
  :func:`repro.engine.stack_chunks`; this module only chunks points and
  folds records;
* ``neural_recording`` points stack their neurons along the batched-HH
  neuron axis and record through the chip's own recording tail.

Determinism contract — enforced by ``tests/test_campaign_batched.py``:

* Per-point results are **bit-identical to the serial executor** (and
  therefore to ``Runner(point.seed).run(point.spec, backend=point.backend)``): every
  point draws its streams from the same :class:`~repro.core.rng.StreamPlan`
  the Runner uses, each unit replays its own draws inside the stacked
  kernel call, and the kernels' per-chip results do not depend on the
  batch size.
* Like the process executor, batched results come back artifact-free
  (compare against ``result.without_artifacts()``); records, metrics,
  spec and seed provenance are identical.
* The streaming stores are unchanged: the executor yields ordinary
  :class:`PointOutcome` objects (batch wall time amortised over the
  batch's points).

Points whose kind has no batch compiler — or whose backend is not
``"vectorized"`` — fall back to serial per-point dispatch inside
the same executor, so ``executor="batched"`` is always safe to request.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, Optional

import numpy as np

from .. import __version__
from ..core.rng import ensure_rng
from ..engine import draw_array_scale, neuro_kernels, stack_chunks
from ..experiments.results import ResultSet
from ..experiments.workloads import (
    _build_neuro_chip,
    array_scale_unit_results,
    neural_records_and_metrics,
)
from ..neuro.culture import Culture
from .executors import Executor, PointOutcome, _run_in_order
from .plan import Plan, PlanPoint

#: A batch compiler turns a group of same-spec plan points into chunks
#: of ``(point, ResultSet)`` pairs (a generator of lists, one list per
#: compiled chunk, points in input order), bit-identical to serial
#: per-point dispatch on the vectorized backend.  Yielding per chunk —
#: rather than returning the whole group — keeps resident memory
#: bounded by the chunk size, so the streaming stores' O(1)-memory
#: profile survives million-point campaigns.
BatchCompiler = Callable[[list], Iterator[list]]

#: One neural batch holds every neuron's HH state history; larger
#: groups are integrated in chunks of at most this many neurons.
NEURAL_CHUNK_NEURONS = 1024


def _result(
    point: PlanPoint, seeds: dict, record_name: str, records: dict, metrics: dict
) -> ResultSet:
    """An artifact-free ResultSet with the Runner's exact provenance."""
    return ResultSet(
        kind=point.spec.kind,
        spec=point.spec.to_dict(),
        seeds=seeds,
        version=__version__,
        record_name=record_name,
        records=records,
        metrics=metrics,
        artifacts={},
    )


def _compile_array_scale(points: list) -> Iterator[list]:
    """Every chunk of points drawn, calibrated and counted as one chip
    stack by the engine, then folded into per-point results."""
    spec = points[0].spec
    plan = spec.stream_plan()
    for chunk in stack_chunks(points, spec.n_chips * spec.rows * spec.cols):
        unit_streams = [plan.generators(point.seed) for point in chunk]
        params, peripheries = draw_array_scale(spec, unit_streams)
        results = array_scale_unit_results(spec, params, peripheries, unit_streams)
        yield [
            (point, _result(point, plan.provenance(point.seed), "chip", records, metrics))
            for point, (records, metrics) in zip(chunk, results)
        ]


def _compile_neural(points: list) -> Iterator[list]:
    """Every point's neurons integrated in one batched Hodgkin-Huxley
    sweep (the per-step cost is flat in the neuron count), then each
    point's frames synthesised and scored on its own streams."""
    spec = points[0].spec
    plan = spec.stream_plan()
    chunk_points = max(1, NEURAL_CHUNK_NEURONS // max(1, spec.n_neurons))
    for start in range(0, len(points), chunk_points):
        prepared: list = []
        for point in points[start : start + chunk_points]:
            rngs = plan.generators(point.seed)
            chip = _build_neuro_chip(spec, "vectorized", rngs["chip"], None)
            culture = Culture.random(
                spec.n_neurons,
                chip.geometry,
                diameter_range=spec.diameter_range_m,
                rng=rngs["culture"],
            )
            record_rng = ensure_rng(rngs["record"])
            stimuli = chip.draw_spike_trains(
                culture, spec.duration_s, spec.firing_rate_hz, record_rng
            )
            prepared.append((point, chip, culture, record_rng, stimuli))
        if spec.use_hh:
            all_stimuli = [s for (*_, stimuli) in prepared for s in stimuli]
            hh_all = neuro_kernels.hh_batch(all_stimuli, spec.duration_s, dt_s=20e-6)
            bounds = np.cumsum([0] + [len(stimuli) for (*_, stimuli) in prepared])
            activities = [
                chip._hh_tables(culture, hh_all.subset(np.arange(lo, hi)))
                for (_, chip, culture, _, _), lo, hi in zip(prepared, bounds, bounds[1:])
            ]
        else:
            activities = [
                chip.activity_tables(culture, stimuli, spec.duration_s, use_hh=False)
                for _, chip, culture, _, stimuli in prepared
            ]
        compiled = []
        for (point, chip, culture, record_rng, _), activity in zip(prepared, activities):
            recording = chip.recording_from_tables(
                culture, activity, spec.duration_s, record_rng
            )
            records, metrics = neural_records_and_metrics(
                spec, chip, culture, recording, "vectorized"
            )
            seeds = plan.provenance(point.seed)
            compiled.append((point, _result(point, seeds, "neuron", records, metrics)))
        yield compiled


#: The batched path per experiment kind.  ``perfbench/spans.py`` wraps
#: the entries by key, so the executor must look them up here per group.
BATCH_COMPILERS: dict[str, BatchCompiler] = {
    "array_scale": _compile_array_scale,
    "neural_recording": _compile_neural,
}


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------
class BatchedExecutor(Executor):
    """Compile same-spec vectorized-kind point groups into chip-batched
    engine calls; everything else runs serially in the same stream."""

    name = "batched"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers not in (None, 1):
            raise ValueError("the batched executor runs in the calling thread")
        self.workers = 1

    def run(self, plan: Plan, *, capture_errors: bool = False) -> Iterator[PointOutcome]:
        fallback: list[PlanPoint] = []
        for (kind, _, backend), group in plan.groups_by_spec().items():
            # Only vectorized groups with a compiler batch.  Fault
            # injection drives the per-frame serial path, which no batch
            # compiler models — those points take the serial lane.
            if (
                backend != "vectorized"
                or kind not in BATCH_COMPILERS
                or getattr(group[0].spec, "faults", ())
            ):
                fallback.extend(group)
                continue
            compiler = BATCH_COMPILERS[kind]
            # Chunks stream out as they compile (each chunk's wall time
            # amortised over its points), so resident memory is bounded
            # by the chunk size, not the campaign size.
            start = time.perf_counter()  # repro: allow-wallclock
            for compiled in compiler(group):
                wall_each = (time.perf_counter() - start) / max(1, len(compiled))  # repro: allow-wallclock
                for point, result in compiled:
                    yield PointOutcome(point=point, result=result, wall_s=wall_each)
                start = time.perf_counter()  # repro: allow-wallclock
        yield from _run_in_order({}, fallback, capture_errors)
