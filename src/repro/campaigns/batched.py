"""The batched campaign fast path: chip-batched engine calls per plan.

Serial per-point dispatch pays the full Runner / chip re-entry cost for
every campaign point — seed-tree streams, spec hashing, chip
provisioning, one small kernel call, one records pass — even when the
workload is fully vectorizable.  :class:`BatchedExecutor` compiles
groups of same-spec points into *chip-batched* engine calls instead:
the points' chips are stacked along the engine's ``n_chips`` axis (or,
for neural recording, their neurons along the batched-HH neuron axis)
and digitised in one kernel invocation.

Determinism contract — enforced by ``tests/test_campaign_batched.py``:

* Per-point results are **bit-identical to the serial executor** (and
  therefore to ``Runner(point.seed).run(point.spec, backend)``): every
  point's random streams are drawn from its own
  ``SeedTree(point.seed)`` exactly as the Runner draws them, and the
  batched kernels evaluate elementwise math whose per-chip results do
  not depend on the batch size.
* Like the process executor, batched results come back artifact-free
  (compare against ``result.without_artifacts()``); records, metrics,
  spec and seed provenance are identical.
* The streaming stores are unchanged: the executor yields ordinary
  :class:`PointOutcome` objects (batch wall time amortised over the
  batch's points).

Points whose kind has no batch compiler — or whose resolved backend is
not ``"vectorized"`` — fall back to serial per-point dispatch inside
the same executor, so ``executor="batched"`` is always safe to request.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Iterator, Optional

import numpy as np

from .. import __version__
from ..chip.dna_chip import ChipSpecs
from ..core.rng import ensure_rng, spawn_children, stable_entropy
from ..devices.bandgap import BandgapReference
from ..devices.current_mirror import ReferenceCurrentFanout
from ..devices.dac import ResistorStringDac
from ..engine import PixelArrayParams, VectorizedNeuroChip, kernels, neuro_kernels
from ..experiments.results import ResultSet
from ..experiments.runner import Runner
from ..experiments.workloads import (
    array_scale_records_and_metrics,
    neural_records_and_metrics,
    workload_for,
)
from ..neuro.culture import ArrayGeometry, Culture
from .executors import Executor, PointOutcome, _run_point
from .plan import Plan, PlanPoint

#: A batch compiler turns a group of same-spec plan points into chunks
#: of ``(point, ResultSet)`` pairs (a generator of lists, one list per
#: compiled chunk, points in input order), bit-identical to serial
#: per-point dispatch on the vectorized backend.  Yielding per chunk —
#: rather than returning the whole group — keeps resident memory
#: bounded by the chunk size, so the streaming stores' O(1)-memory
#: profile survives million-point campaigns.
BatchCompiler = Callable[[list, str], Iterator[list]]

BATCH_COMPILERS: dict[str, BatchCompiler] = {}

#: Memory bounds: one batched array-scale call holds ~10 full-precision
#: planes per site, one neural batch holds every neuron's HH state
#: history.  Groups larger than these are processed in chunks.
ARRAY_SCALE_CHUNK_SITES = 1 << 22
NEURAL_CHUNK_NEURONS = 1024


def register_batch_compiler(kind: str, compiler: BatchCompiler) -> None:
    """Plug a batched execution path in for an experiment kind."""
    if kind in BATCH_COMPILERS:
        raise ValueError(f"batch compiler for kind {kind!r} already registered")
    BATCH_COMPILERS[kind] = compiler


def batchable_kinds() -> list[str]:
    """Experiment kinds the batched executor can compile, sorted."""
    return sorted(BATCH_COMPILERS)


# ---------------------------------------------------------------------------
# Shared per-point plumbing
# ---------------------------------------------------------------------------
class _GroupStreams:
    """Per-group stream plan: every point of a same-spec group shares
    its stream *paths* (they hash only the spec), so the spawn keys and
    the provenance metadata are computed once; per point only the three
    generators are instantiated — exactly the streams
    ``SeedTree(point.seed).generator(*path)`` would return."""

    def __init__(self, spec) -> None:
        paths = workload_for(spec.kind).streams(spec)
        self.spawn_keys = {
            name: stable_entropy(*path) for name, path in paths.items()
        }
        self.streams_meta = {
            name: [str(part) for part in path] for name, path in paths.items()
        }

    def rngs(self, point: PlanPoint) -> dict:
        return {
            name: np.random.default_rng(
                np.random.SeedSequence(entropy=point.seed, spawn_key=key)
            )
            for name, key in self.spawn_keys.items()
        }

    def seeds(self, point: PlanPoint) -> dict:
        return {"root": point.seed, "streams": self.streams_meta}


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


def _chunks(points: list, size: int) -> Iterator[list]:
    size = max(1, size)
    for start in range(0, len(points), size):
        yield points[start : start + size]


# ---------------------------------------------------------------------------
# array_scale: points stacked along the engine's n_chips axis
# ---------------------------------------------------------------------------
def _compile_array_scale(points: list, backend: str) -> list:
    """All points' chips drawn from their own chip streams, stacked into
    one :class:`PixelArrayParams` batch, digitised in one kernel call.

    Replicates :class:`~repro.engine.vchip.VectorizedDnaChip`'s stream
    consumption per chip (params first, then — only when calibrating —
    the periphery devices, in constructor order), and replays each
    point's calibration/measure draws explicitly so the stacked
    conversion is bit-identical per point.
    """
    spec = points[0].spec
    streams = _GroupStreams(spec)
    chip_specs = ChipSpecs(rows=spec.rows, cols=spec.cols)
    currents = spec.site_currents()
    chunk_points = max(1, ARRAY_SCALE_CHUNK_SITES // max(1, spec.n_chips * chip_specs.sites))
    for chunk in _chunks(points, chunk_points):
        params_list: list = []
        trees_list: list = []
        contexts: list = []
        for point in chunk:
            rngs = streams.rngs(point)
            contexts.append((rngs, streams.seeds(point)))
            generator = ensure_rng(rngs["chip"])
            chip_rngs = (
                [generator]
                if spec.n_chips == 1
                else spawn_children(generator, spec.n_chips)
            )
            for chip_rng in chip_rngs:
                params_list.append(
                    PixelArrayParams.draw(
                        spec.rows,
                        spec.cols,
                        rng=chip_rng,
                        mode=spec.mismatch,
                        counter_bits=chip_specs.counter_bits,
                    )
                )
                if spec.calibrate:
                    # The periphery consumes the chip stream after the
                    # pixel draws; only the reference trees feed the
                    # calibration conversion, but the DACs must still
                    # be sampled to keep the stream position exact.
                    bandgap = BandgapReference.sample(chip_rng)
                    ResistorStringDac.sample(chip_rng, bits=8, v_low=0.0, v_high=2.0)
                    ResistorStringDac.sample(chip_rng, bits=8, v_low=-1.0, v_high=1.0)
                    trees_list.append(
                        ReferenceCurrentFanout.build(
                            master_current=bandgap.reference_current(1.2e6),
                            count=8,
                            rng=chip_rng,
                        )
                    )
        params = PixelArrayParams.stack(params_list)
        shape = params.shape
        per_point = spec.n_chips

        def _stacked_draws(stream: str) -> tuple[np.ndarray, np.ndarray]:
            """Each point's (uniform phase, standard-normal jitter)
            draws, in the kernel's own order, stacked per chip."""
            phase = np.empty(shape)
            z = np.empty(shape)
            for index, (rngs, _) in enumerate(contexts):
                generator = ensure_rng(rngs[stream])
                lo = index * per_point
                block = (per_point, spec.rows, spec.cols)
                phase[lo : lo + per_point] = generator.uniform(0.0, 1.0, size=block)
                z[lo : lo + per_point] = generator.normal(0.0, 1.0, size=block)
            return phase, z

        if spec.calibrate:
            site_index = np.arange(chip_specs.sites)
            i_ref = np.empty((params.n_chips, chip_specs.sites))
            for position, tree in enumerate(trees_list):
                branches = tree.branch_currents() / 100.0
                i_ref[position] = branches[site_index % len(branches)]
            i_ref = i_ref.reshape(shape)
            phase, z = _stacked_draws("calibration")
            counts_cal = kernels.count_in_frame(
                i_ref,
                spec.calibration_frame_s,
                start_phase=phase,
                jitter_z=z,
                counter_bits=chip_specs.counter_bits,
                **params.kernel_kwargs(),
            )
            # Raises exactly where per-point auto_calibrate would.
            kernels.calibration_corrections(
                counts_cal, i_ref, spec.calibration_frame_s, params.dead_time_s
            )
        phase, z = _stacked_draws("measure")
        counts = kernels.count_in_frame(
            np.broadcast_to(currents, shape),
            spec.frame_s,
            start_phase=phase,
            jitter_z=z,
            counter_bits=chip_specs.counter_bits,
            **params.kernel_kwargs(),
        )
        dead = (
            kernels.dead_pixel_mask(params.leakage_a)
            .reshape(params.n_chips, -1)
            .sum(axis=1)
        )
        compiled = []
        for index, (point, (_, seeds)) in enumerate(zip(chunk, contexts)):
            lo = index * per_point
            records, metrics = array_scale_records_and_metrics(
                spec,
                "vectorized",
                counts[lo : lo + per_point],
                dead[lo : lo + per_point],
                chip_specs.counter_bits,
                params.cint_nominal_f,
                params.swing_nominal_v,
                currents,
            )
            compiled.append((point, _result(point, seeds, "chip", records, metrics)))
        yield compiled


# ---------------------------------------------------------------------------
# neural_recording: points' neurons batched through one HH integration
# ---------------------------------------------------------------------------
def _compile_neural(points: list, backend: str) -> list:
    """Every point's neurons integrated in one batched Hodgkin-Huxley
    sweep (the per-step cost is flat in the neuron count), then each
    point's frames synthesised and scored on its own streams."""
    from ..chip.neuro_chip import RecordingResult

    spec = points[0].spec
    streams = _GroupStreams(spec)
    geometry_args = (spec.rows, spec.cols, spec.pitch_m)
    chunk_points = max(1, NEURAL_CHUNK_NEURONS // max(1, spec.n_neurons))
    for chunk in _chunks(points, chunk_points):
        prepared: list = []
        for point in chunk:
            rngs, seeds = streams.rngs(point), streams.seeds(point)
            chip = VectorizedNeuroChip(geometry=ArrayGeometry(*geometry_args), rng=rngs["chip"])
            chip.calibrate()
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
            prepared.append((point, seeds, chip, culture, record_rng, stimuli))
        tables_per_point: list = []
        if spec.use_hh:
            all_stimuli = [s for (*_, stimuli) in prepared for s in stimuli]
            hh_all = neuro_kernels.hh_batch(all_stimuli, spec.duration_s, dt_s=20e-6)
            offset = 0
            for _, _, chip, culture, _, stimuli in prepared:
                subset = hh_all.subset(np.arange(offset, offset + len(stimuli)))
                offset += len(stimuli)
                tables_per_point.append(chip._hh_tables(culture, subset))
        else:
            for _, _, chip, culture, _, stimuli in prepared:
                tables_per_point.append(
                    chip.activity_tables(culture, stimuli, spec.duration_s, use_hh=False)
                )
        compiled = []
        for (point, seeds, chip, culture, record_rng, _), (
            tables,
            table_dt_s,
            ground_truth,
        ) in zip(prepared, tables_per_point):
            n_frames = int(spec.duration_s * chip.scan.frame_rate_hz)
            electrode_movie = chip.movie_from_tables(
                culture, tables, table_dt_s, n_frames, record_rng
            )
            recording = RecordingResult(
                electrode_movie=electrode_movie,
                output_movie=chip.output_movie(electrode_movie),
                ground_truth=ground_truth,
                culture=culture,
            )
            records, metrics = neural_records_and_metrics(
                spec, chip, culture, recording, "vectorized"
            )
            compiled.append((point, _result(point, seeds, "neuron", records, metrics)))
        yield compiled


register_batch_compiler("array_scale", _compile_array_scale)
register_batch_compiler("neural_recording", _compile_neural)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------
class BatchedExecutor(Executor):
    """Compile same-spec vectorized-kind point groups into chip-batched
    engine calls; everything else runs serially in the same stream."""

    name = "batched"
    inputs_refusal = (
        "pre-built `inputs` substrates cannot ride a batched compile; "
        "use the serial executor to inject them"
    )

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers not in (None, 1):
            raise ValueError("the batched executor runs in the calling thread")
        self.workers = 1

    def _iter(
        self,
        plan: Plan,
        backend: Optional[str],
        inputs: Optional[dict[str, Any]],
        capture_errors: bool,
    ) -> Iterator[PointOutcome]:
        fallback: list[PlanPoint] = []
        for (kind, _), group in plan.groups_by_spec().items():
            # One group shares one spec, so the whole group resolves to
            # one backend; only vectorized groups with a compiler batch.
            spec = group[0].spec
            resolved = backend if backend is not None else getattr(spec, "backend", "object")
            # Fault injection drives the per-frame serial path, which no
            # batch compiler models — those points take the serial lane.
            if (
                resolved != "vectorized"
                or kind not in BATCH_COMPILERS
                or getattr(spec, "faults", ())
            ):
                fallback.extend(group)
                continue
            compiler = BATCH_COMPILERS[kind]
            # Chunks stream out as they compile (each chunk's wall time
            # amortised over its points), so resident memory is bounded
            # by the chunk size, not the campaign size.
            start = time.perf_counter()  # repro: allow-wallclock
            for compiled in compiler(group, "vectorized"):
                wall_each = (time.perf_counter() - start) / max(1, len(compiled))  # repro: allow-wallclock
                for point, result in compiled:
                    yield PointOutcome(point=point, result=result, wall_s=wall_each)
                start = time.perf_counter()  # repro: allow-wallclock
        runners: "OrderedDict[int, Runner]" = OrderedDict()
        for point in fallback:
            yield _run_point(runners, point, backend, None, capture_errors)
