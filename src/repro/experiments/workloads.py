"""Workload implementations behind the Runner.

Each experiment kind contributes one function, ``execute(runner, spec,
rngs)``: it provisions the substrates it needs through
``runner._provision`` (chips, layouts, libraries; cached under the
spec's facet, ``spec.facet("chip")``), runs the physics and folds the
outcome into a :class:`~repro.experiments.results.ResultSet`.  The
random streams in ``rngs`` are not the workload's business: each spec
class declares them next to its fields (``streams``, keyed by its
``facets``), and :meth:`~repro.experiments.specs.ExperimentSpec
.stream_plan` turns them into seed-tree paths.

Each chip kind has one builder that takes the backend
(``_build_dna_chip``, ``_build_neuro_chip``), cached under a
backend-named cache; ``array_scale`` builds object chips
(``_build_array_scale_chips``) or, on the vectorized backend, a chip
stack drawn by the engine's stacked evaluator.  Both chip builders
attach the Runner's trace recorder on either backend, which is how a
traced replay (:func:`repro.trace.replay_readout`) runs the normal
workload.

``register_workload`` adds a new kind at runtime; the built-in three
(plus the ADC sweep) register at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..analysis.transfer import characterize_adc
from ..chip.dna_chip import ChipSpecs, DnaMicroarrayChip
from ..chip.neuro_chip import NeuralRecordingChip
from ..dna.assay import AssayProtocol, MicroarrayAssay
from ..dna.sample import Sample
from ..dna.sequences import DnaSequence, Probe, Target
from ..dna.spotting import ProbeLayout
from ..core.signals import Trace
from ..engine import (
    VectorizedDnaChip,
    VectorizedNeuroChip,
    calibrate_array_scale,
    count_array_scale,
    draw_array_scale,
    kernels,
    neuro_kernels,
)
from ..neuro.culture import ArrayGeometry, Culture
from ..neuro.spike_detection import score_detection, spike_snr
from ..pixel.sawtooth_adc import SawtoothAdc
from ..screening.compounds import CompoundLibrary
from ..screening.stages import default_funnel_stages
from .results import ResultSet
from .specs import (
    AdcTransferSpec,
    ArrayScaleSpec,
    DnaAssaySpec,
    ExperimentSpec,
    NeuralRecordingSpec,
    ScreeningSpec,
)

if TYPE_CHECKING:  # pragma: no cover
    from .runner import Runner

ExecuteFn = Callable[["Runner", ExperimentSpec, dict], ResultSet]


@dataclass(frozen=True)
class Workload:
    kind: str
    execute: ExecuteFn
    #: Compute backends this workload actually dispatches on; the Runner
    #: rejects requests for any other so "vectorized" can never silently
    #: run object-model code.
    backends: tuple[str, ...] = ("object",)


WORKLOADS: dict[str, Workload] = {}


def register_workload(
    kind: str, execute: ExecuteFn, backends: tuple[str, ...] = ("object",)
) -> None:
    """Plug a new experiment kind into the Runner dispatch table."""
    if kind in WORKLOADS:
        raise ValueError(f"workload {kind!r} already registered")
    WORKLOADS[kind] = Workload(kind=kind, execute=execute, backends=backends)


def workload_for(kind: str) -> Workload:
    try:
        return WORKLOADS[kind]
    except KeyError:
        raise KeyError(
            f"no workload registered for kind {kind!r}; known: {sorted(WORKLOADS)}"
        ) from None


def validate_backend(kind: str, backend: "str | None") -> None:
    """Raise unless ``backend`` is known and supported by ``kind``
    (``None`` — defer to defaults — always passes).

    The one definition of this check: :func:`resolve_backend` (behind
    Runner.run and campaign compile) and the CLI route through it, so
    error wording cannot drift, and
    callers that create resources (result stores on disk) can validate
    *first*.
    """
    if backend is None:
        return
    from .specs import BACKENDS

    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    workload = workload_for(kind)
    if backend not in workload.backends:
        raise ValueError(
            f"workload {kind!r} does not support backend "
            f"{backend!r}; supported: {workload.backends}"
        )


def resolve_backend(spec: ExperimentSpec, backend: "str | None") -> str:
    """The backend ``spec`` runs on, validated: ``backend`` when given,
    else the spec's own ``backend`` field, else ``"object"``.

    The one place this fallback is spelled out: ``Runner.run`` resolves
    through it, and ``CampaignSpec.compile`` stores its answer on every
    plan point, so executors and cache keys never resolve again.
    """
    resolved = backend if backend is not None else getattr(spec, "backend", "object")
    validate_backend(spec.kind, resolved)
    return resolved


# ---------------------------------------------------------------------------
# DNA microarray assay
# ---------------------------------------------------------------------------
def _build_dna_chip(
    spec: DnaAssaySpec, backend: str, chip_rng, calibration_rng, recorder: Any
) -> DnaMicroarrayChip:
    """Build, bias and calibrate one assay chip on ``backend``, carrying
    ``recorder``.  The vectorized chip is a subclass with the object
    chip's constructor and draws ``"paired"`` mismatch, so its pixel
    parameters are bit-identical to the object chip's on the same
    streams."""
    chip_type = VectorizedDnaChip if backend == "vectorized" else DnaMicroarrayChip
    chip = chip_type(ChipSpecs(rows=spec.rows, cols=spec.cols), rng=chip_rng, recorder=recorder)
    bias_ok = chip.configure_bias(spec.v_generator, spec.v_collector)
    if spec.calibrate:
        chip.auto_calibrate(frame_s=spec.calibration_frame_s, rng=calibration_rng)
    chip.bias_ok = bias_ok
    return chip


def _build_dna_layout(spec: DnaAssaySpec, layout_rng) -> tuple[ProbeLayout, DnaSequence | None]:
    """Returns the spotted layout plus, for mismatch panels, the target
    region the probes were designed against."""
    if spec.panel == "mismatch":
        region = DnaSequence.random(spec.probe_length, layout_rng)
        perfect = region.reverse_complement()
        probes = [Probe("match-0mm", perfect)]
        for n_mm in spec.mismatch_counts:
            probes.append(Probe(f"mismatch-{n_mm}mm", perfect.with_mismatches(n_mm, layout_rng)))
        layout = ProbeLayout.tiled(
            probes,
            rows=spec.rows,
            cols=spec.cols,
            replicates=spec.replicates,
            control_every=spec.control_every,
        )
        return layout, region
    layout = ProbeLayout.random_panel(
        spec.probe_count,
        probe_length=spec.probe_length,
        rows=spec.rows,
        cols=spec.cols,
        rng=layout_rng,
        replicates=spec.replicates,
        control_every=spec.control_every,
    )
    return layout, None


def _build_dna_sample(spec: DnaAssaySpec, layout: ProbeLayout, region: DnaSequence | None) -> Sample:
    if spec.panel == "mismatch":
        assert region is not None
        target = Target("reference-target", region, total_length=spec.target_length)
        return Sample({target: spec.concentration})
    probes = layout.probes()
    subset = list(spec.target_subset) if spec.target_subset is not None else None
    return Sample.for_probes(
        probes, spec.concentration, target_length=spec.target_length, subset=subset
    )


def _faulted_readout(
    spec: DnaAssaySpec, chip: DnaMicroarrayChip, counts: np.ndarray, rng
) -> tuple[np.ndarray, dict[str, Any]]:
    """Run the serial readout under fault injection + resilient recovery.

    Attaches a :class:`~repro.faults.FaultInjector` to the link's
    duck-typed seam, drives :func:`~repro.chip.readout
    .read_counters_resilient`, and detaches again — chips are cached
    and shared across campaign points, so the injector (and any
    register corruption that survived recovery) must never outlive this
    point's readout.

    Returns the host-recovered count matrix plus dead/silent site masks
    and the readout accounting.
    """
    from ..chip.readout import read_counters_resilient
    from ..faults import FaultInjector

    recorder = chip.recorder
    injector = FaultInjector(spec.faults, rng=rng, recorder=recorder)
    shadow = chip.registers.dump()
    chip.link.injector = injector
    try:
        outcome = read_counters_resilient(
            counts.reshape(-1), chip.registers, chip.link, chip.sequence, chip.specs, recorder
        )
    finally:
        chip.link.injector = None
        # Scrub any register upset the controller could not rewrite
        # (read-only registers): the shared chip must leave this point
        # exactly as it entered, or later points would see a state that
        # depends on execution order.
        current = chip.registers.dump()
        for name, value in shadow.items():
            if current[name] != value:
                chip.registers.corrupt(name, current[name] ^ value, source="restore")
    readout = np.asarray(outcome.counters, dtype=np.int64).reshape(counts.shape)
    dead = np.zeros(counts.size, dtype=bool)
    if outcome.dead_sites:
        dead[list(outcome.dead_sites)] = True
    dead = dead.reshape(counts.shape)
    # Silent corruption: the host decoded it cleanly, yet it is not what
    # the pixels counted (checksum-preserving flip sets, stuck pixels).
    silent = (readout != counts) & ~dead
    return readout, {"outcome": outcome, "dead": dead, "silent": silent}


def _fault_metrics(info: dict[str, Any], n_sites: int) -> dict[str, Any]:
    """Fold the readout accounting into per-point metrics the
    ``fault_tolerance`` analysis pools across a campaign."""
    outcome = info["outcome"]
    dead = int(info["dead"].sum())
    silent = int(info["silent"].sum())
    detected = outcome.frames_corrupted + outcome.registers_corrupted
    caught = detected + silent
    return {
        "fault_frames_total": outcome.frames_total,
        "fault_frames_corrupted": outcome.frames_corrupted,
        "fault_frames_recovered": outcome.frames_recovered,
        "fault_frames_lost": outcome.frames_lost,
        "fault_retries": outcome.retries,
        "fault_registers_checked": outcome.registers_checked,
        "fault_registers_corrupted": outcome.registers_corrupted,
        "fault_registers_restored": outcome.registers_restored,
        "fault_sites_total": n_sites,
        "fault_sites_dead": dead,
        "fault_sites_silent": silent,
        # Of all corruption the run produced, what fraction did the
        # controller *see* (checksum, read-back) vs decode cleanly?
        "fault_detection_rate": float(detected / caught) if caught else 1.0,
        "fault_silent_rate": float(silent / max(1, n_sites - dead)),
        "fault_site_survival": float(1.0 - dead / n_sites) if n_sites else 1.0,
        "fault_stall_s": float(outcome.stall_s_total),
    }


def _execute_dna(runner: "Runner", spec: DnaAssaySpec, rngs: dict) -> ResultSet:
    backend = runner.backend
    chip = runner._provision(
        f"dna_chip_{backend}",
        spec.facet("chip"),
        lambda: _build_dna_chip(
            spec, backend, rngs["chip"], rngs["calibration"], runner.recorder
        ),
    )
    cached_layout = runner._provision(
        "dna_layout",
        spec.facet("layout"),
        lambda: _build_dna_layout(spec, rngs["layout"]),
        counter="layouts",
    )
    layout, region = cached_layout
    sample = _build_dna_sample(spec, layout, region)
    protocol = AssayProtocol(hybridization_s=spec.hybridization_s, wash_s=spec.wash_s)
    assay = MicroarrayAssay(layout).run(sample, protocol)
    counts = chip.measure_assay(assay, frame_s=spec.frame_s, rng=rngs["measure"])
    fault_info = None
    if spec.faults:
        # The host now only knows what the resilient readout recovered:
        # counts (and everything downstream) switch to the wire values,
        # with lost frames zero-filled and flagged per site.
        true_counts = counts
        counts, fault_info = _faulted_readout(spec, chip, counts, rngs["faults"])
    estimates = chip.current_estimates(counts, frame_s=spec.frame_s)

    row, col = np.divmod(np.arange(assay.rows * assay.cols), assay.cols)
    probe = assay.column("probe_name").astype(object)
    match_mask, nonmatch_mask = assay.match_mask(), assay.mismatch_mask()
    records = {
        "row": row,
        "col": col,
        "probe": probe,
        "mismatches": assay.column("best_match_mismatches"),
        "is_match": match_mask,
        "occupancy_hyb": assay.column("occupancy_after_hybridization"),
        "occupancy_wash": assay.column("occupancy_after_wash"),
        "sensor_current_a": assay.column("sensor_current"),
        "count": counts.astype(int).ravel(),
        "current_estimate_a": estimates.flatten(),
    }
    if fault_info is not None:
        records["site_dead"] = fault_info["dead"].ravel()
        records["site_silent"] = fault_info["silent"].ravel()
    metrics: dict[str, Any] = {
        "bias_ok": bool(chip.bias_ok),
        "backend": backend,
        "n_sites": len(probe),
        "n_match_sites": int(match_mask.sum()),
        "n_probe_sites": int((probe != "").sum()),
    }
    match = records["sensor_current_a"][match_mask]
    nonmatch = records["sensor_current_a"][nonmatch_mask]
    if len(match) and len(nonmatch):
        median_match, median_nonmatch = np.median(match), np.median(nonmatch)
        metrics["median_match_current_a"] = float(median_match)
        metrics["median_nonmatch_current_a"] = float(median_nonmatch)
        metrics["discrimination_ratio"] = float(median_match / median_nonmatch)
        # Spot-to-spot spreads: the nonmatch sigma is the per-chip blank
        # noise the 3σ-LoD criterion in repro.inference rests on.
        metrics["match_current_sigma_a"] = (
            float(match.std(ddof=1)) if len(match) > 1 else 0.0
        )
        metrics["nonmatch_current_sigma_a"] = (
            float(nonmatch.std(ddof=1)) if len(nonmatch) > 1 else 0.0
        )
        # The *measured* twins (post ADC + calibration + counting noise):
        # chemistry currents are deterministic per layout, so replicate
        # spread — what a dose–response CI is about — only shows here.
        match_est = records["current_estimate_a"][match_mask]
        nonmatch_est = records["current_estimate_a"][nonmatch_mask]
        metrics["median_match_estimate_a"] = float(np.median(match_est))
        metrics["median_nonmatch_estimate_a"] = float(np.median(nonmatch_est))
    positive = records["current_estimate_a"][records["current_estimate_a"] > 0]
    if len(positive):
        metrics["current_span_decades"] = float(np.log10(positive.max() / positive.min()))
    artifacts = {
        "chip": chip,
        "layout": layout,
        "assay": assay,
        "sample": sample,
        "counts": counts,
        "current_estimates": estimates,
    }
    if fault_info is not None:
        metrics.update(_fault_metrics(fault_info, counts.size))
        artifacts["true_counts"] = true_counts
        artifacts["readout"] = fault_info["outcome"]
    return runner._result(
        spec,
        record_name="site",
        records=records,
        metrics=metrics,
        artifacts=artifacts,
    )


# ---------------------------------------------------------------------------
# Neural recording
# ---------------------------------------------------------------------------
def _build_neuro_chip(
    spec: NeuralRecordingSpec, backend: str, chip_rng, recorder: Any
) -> NeuralRecordingChip:
    """Build and calibrate one recording chip on ``backend``, carrying
    ``recorder``.  The vectorized chip is a subclass with the object
    chip's constructor, so pixel planes and channel draws are
    bit-identical across backends."""
    chip_type = VectorizedNeuroChip if backend == "vectorized" else NeuralRecordingChip
    chip = chip_type(
        geometry=ArrayGeometry(spec.rows, spec.cols, spec.pitch_m),
        rng=chip_rng,
        recorder=recorder,
    )
    chip.calibrate()
    return chip


_NEURAL_COLUMN_NAMES = (
    "neuron",
    "diameter_m",
    "best_row",
    "best_col",
    "peak_v",
    "true_spikes",
    "detected_spikes",
    "precision",
    "recall",
    "snr",
)


def _neural_offgrid_row(columns: dict, neuron, truth) -> None:
    # Off-grid soma (possible at array edges): no trace to score.
    columns["best_row"].append(-1)
    columns["best_col"].append(-1)
    columns["peak_v"].append(0.0)
    columns["true_spikes"].append(len(truth))
    columns["detected_spikes"].append(0)
    columns["precision"].append(0.0)
    columns["recall"].append(0.0)
    columns["snr"].append(float("nan"))


def _score_neurons_vectorized(spec: NeuralRecordingSpec, recording, culture) -> dict:
    """Array-wide scoring: best pixels from one peak plane, every
    best-pixel trace detected in one matrix pass
    (:func:`repro.engine.neuro_kernels.detect_spikes_matrix`)."""
    columns: dict[str, list] = {name: [] for name in _NEURAL_COLUMN_NAMES}
    frames = recording.electrode_movie.frames
    peak_plane = np.max(np.abs(frames), axis=0) if culture.neurons else None
    active: list[tuple[int, int, int]] = []  # (neuron position, row, col)
    for position, neuron in enumerate(culture.neurons):
        truth = recording.ground_truth[neuron.index]
        columns["neuron"].append(neuron.index)
        columns["diameter_m"].append(neuron.diameter)
        covered = culture.pixels_for_neuron(neuron)
        if not covered:
            _neural_offgrid_row(columns, neuron, truth)
            continue
        peaks = np.asarray([peak_plane[r, c] for r, c in covered])
        row, col = covered[int(np.argmax(peaks))]
        active.append((position, row, col))
        columns["best_row"].append(row)
        columns["best_col"].append(col)
        columns["true_spikes"].append(len(truth))
        # peak_v / detection filled from the matrix pass below.
        columns["peak_v"].append(None)
        columns["detected_spikes"].append(None)
        columns["precision"].append(None)
        columns["recall"].append(None)
        columns["snr"].append(None)
    if active:
        dt = 1.0 / recording.electrode_movie.frame_rate_hz
        traces = frames[:, [r for _, r, _ in active], [c for _, _, c in active]].T
        detected_all = neuro_kernels.detect_spikes_matrix(
            traces, dt, threshold_sigma=spec.threshold_sigma
        )
        peak_values = np.max(np.abs(traces), axis=1)
        # Columns hold one entry per neuron in position order, so each
        # active neuron's placeholder sits at its culture position.
        for (position, _, _), trace_row, detected, peak in zip(
            active, traces, detected_all, peak_values
        ):
            neuron = culture.neurons[position]
            truth = recording.ground_truth[neuron.index]
            score = score_detection(detected, truth, tolerance_s=spec.tolerance_s)
            columns["peak_v"][position] = float(peak)
            columns["detected_spikes"][position] = len(detected)
            columns["precision"][position] = score.precision
            columns["recall"][position] = score.recall
            columns["snr"][position] = (
                spike_snr(Trace(trace_row, dt), truth) if len(truth) else float("nan")
            )
    return columns


def neural_records_and_metrics(
    spec: NeuralRecordingSpec, chip, culture, recording, backend: str
) -> tuple[dict, dict]:
    """Fold a recording into the workload's records/metrics — shared by
    the Runner path (either backend) and the batched campaign fast
    path."""
    columns = _score_neurons_vectorized(spec, recording, culture)
    records = {
        "neuron": np.asarray(columns["neuron"], dtype=int),
        "diameter_m": np.asarray(columns["diameter_m"], dtype=float),
        "best_row": np.asarray(columns["best_row"], dtype=int),
        "best_col": np.asarray(columns["best_col"], dtype=int),
        "peak_v": np.asarray(columns["peak_v"], dtype=float),
        "true_spikes": np.asarray(columns["true_spikes"], dtype=int),
        "detected_spikes": np.asarray(columns["detected_spikes"], dtype=int),
        "precision": np.asarray(columns["precision"], dtype=float),
        "recall": np.asarray(columns["recall"], dtype=float),
        "snr": np.asarray(columns["snr"], dtype=float),
    }
    # Precision is defined over neurons that detected something,
    # recall over neurons that actually fired — matching the per-neuron
    # DetectionScore denominators.
    detected = records["detected_spikes"] > 0
    fired = records["true_spikes"] > 0
    metrics = {
        "backend": backend,
        "n_neurons": len(culture.neurons),
        # An empty culture covers nothing (coverage_fraction() rejects
        # the 0/0 case; the workload reports 0.0).
        "coverage_fraction": float(culture.coverage_fraction()) if culture.neurons else 0.0,
        "noise_floor_v": float(chip.input_referred_noise_v()),
        "frame_rate_hz": float(chip.scan.frame_rate_hz),
        "channel_pixel_rate_hz": float(chip.scan.channel_pixel_rate_hz),
        "aggregate_pixel_rate_hz": float(chip.scan.aggregate_pixel_rate_hz),
        "total_true_spikes": int(records["true_spikes"].sum()),
        "total_detected_spikes": int(records["detected_spikes"].sum()),
        "mean_precision": float(records["precision"][detected].mean()) if detected.any() else 0.0,
        "mean_recall": float(records["recall"][fired].mean()) if fired.any() else 0.0,
    }
    return records, metrics


def _execute_neural(runner: "Runner", spec: NeuralRecordingSpec, rngs: dict) -> ResultSet:
    backend = runner.backend
    chip = runner._provision(
        f"neuro_chip_{backend}",
        spec.facet("chip"),
        lambda: _build_neuro_chip(spec, backend, rngs["chip"], runner.recorder),
    )
    culture = Culture.random(
        spec.n_neurons,
        chip.geometry,
        diameter_range=spec.diameter_range_m,
        rng=rngs["culture"],
    )
    recording = chip.record_culture(
        culture,
        duration_s=spec.duration_s,
        firing_rate_hz=spec.firing_rate_hz,
        rng=rngs["record"],
        use_hh=spec.use_hh,
    )
    records, metrics = neural_records_and_metrics(spec, chip, culture, recording, backend)
    return runner._result(
        spec,
        record_name="neuron",
        records=records,
        metrics=metrics,
        artifacts={"chip": chip, "culture": culture, "recording": recording},
    )


# ---------------------------------------------------------------------------
# Drug-screening funnel
# ---------------------------------------------------------------------------
def _execute_screening(runner: "Runner", spec: ScreeningSpec, rngs: dict) -> ResultSet:
    from ..screening.funnel import ScreeningFunnel

    library = runner._provision(
        "library",
        spec.facet("library"),
        lambda: CompoundLibrary.generate(
            size=spec.library_size, viable_rate=spec.viable_rate, rng=rngs["library"]
        ),
        counter="libraries",
    )
    funnel = ScreeningFunnel(default_funnel_stages(cmos=spec.cmos))
    result = funnel.run(library, rng=rngs["funnel"])

    outcomes = result.outcomes
    records = {
        "stage": np.asarray([o.stage_name for o in outcomes], dtype=object),
        "candidates_in": np.asarray([o.candidates_in for o in outcomes], dtype=int),
        "candidates_out": np.asarray([o.candidates_out for o in outcomes], dtype=int),
        "viable_in": np.asarray([o.viable_in for o in outcomes], dtype=int),
        "viable_out": np.asarray([o.viable_out for o in outcomes], dtype=int),
        "cost": np.asarray([o.cost for o in outcomes]),
        "days": np.asarray([o.days for o in outcomes]),
        "cost_per_datapoint": np.asarray([o.cost_per_datapoint for o in outcomes]),
        "datapoints_per_day": np.asarray([o.datapoints_per_day for o in outcomes]),
    }
    metrics = {
        "library_size": library.size,
        "library_viable": library.viable_count(),
        "survivors": result.survivors,
        "surviving_viable": result.surviving_viable,
        "total_cost": float(result.total_cost),
        "total_days": float(result.total_days),
        "monotone_cost_increase": bool(result.monotone_cost_increase()),
        "monotone_throughput_decrease": bool(result.monotone_throughput_decrease()),
    }
    return runner._result(
        spec,
        record_name="stage",
        records=records,
        metrics=metrics,
        artifacts={"funnel": result, "library": library},
    )


# ---------------------------------------------------------------------------
# ADC transfer sweep
# ---------------------------------------------------------------------------
def _execute_adc(runner: "Runner", spec: AdcTransferSpec, rngs: dict) -> ResultSet:
    adc = SawtoothAdc()
    analysis = characterize_adc(
        adc,
        i_low=spec.i_low_a,
        i_high=spec.i_high_a,
        points_per_decade=spec.points_per_decade,
        frame_s=spec.frame_s,
        rng=rngs["measure"],
        max_rel_error=spec.max_rel_error,
    )
    records = {
        "current_a": np.asarray([r.current_a for r in analysis.rows]),
        "frequency_hz": np.asarray([r.frequency_hz for r in analysis.rows]),
        "ideal_frequency_hz": np.asarray([r.ideal_frequency_hz for r in analysis.rows]),
        "count": np.asarray([r.count for r in analysis.rows], dtype=int),
        "measured_frequency_hz": np.asarray([r.measured_frequency_hz for r in analysis.rows]),
        "relative_error": np.asarray([r.relative_error for r in analysis.rows]),
    }
    metrics = {
        "loglog_slope": float(analysis.loglog_slope),
        "usable_low_a": float(analysis.usable_low_a),
        "usable_high_a": float(analysis.usable_high_a),
        "usable_decades": float(analysis.usable_decades),
        "max_frequency_hz": float(adc.max_frequency()),
    }
    return runner._result(
        spec,
        record_name="sweep_point",
        records=records,
        metrics=metrics,
        artifacts={"adc": adc, "analysis": analysis},
    )


# ---------------------------------------------------------------------------
# Array-scale sweep (the repro.engine workload)
# ---------------------------------------------------------------------------
def _build_array_scale_chips(spec: ArrayScaleSpec, chip_rng, calibration_rng, recorder: Any):
    """The object backend's ``spec.n_chips`` chips (which carry
    ``recorder``), each calibrated when the spec asks."""
    from ..core.rng import ensure_rng, spawn_children

    generator = ensure_rng(chip_rng)
    chip_rngs = [generator] if spec.n_chips == 1 else spawn_children(generator, spec.n_chips)
    calibration = ensure_rng(calibration_rng)
    chip_specs = ChipSpecs(rows=spec.rows, cols=spec.cols)
    chips = []
    for rng in chip_rngs:
        chip = DnaMicroarrayChip(chip_specs, rng=rng, recorder=recorder)
        if spec.calibrate:
            chip.auto_calibrate(frame_s=spec.calibration_frame_s, rng=calibration)
        chips.append(chip)
    return chips


def _draw_array_scale_stack(spec: ArrayScaleSpec, rngs: dict):
    """The vectorized backend's chip stack, drawn and (when the spec
    asks) calibrated by the engine's stacked evaluator as one unit:
    ``(params, gain corrections or None)``."""
    params, peripheries = draw_array_scale(spec, [rngs])
    return params, calibrate_array_scale(spec, params, peripheries, [rngs])


def array_scale_records_and_metrics(
    spec: ArrayScaleSpec,
    backend: str,
    counts: np.ndarray,
    dead: np.ndarray,
    counter_bits: int,
    cint_nominal: float,
    swing_nominal: float,
    currents: np.ndarray,
) -> tuple[dict, dict]:
    """Fold a ``(n_chips, rows, cols)`` count stack into the workload's
    records/metrics — shared by the Runner path and the batched
    campaign fast path."""
    full_scale = (1 << counter_bits) - 1
    flat = counts.reshape(spec.n_chips, -1)
    records = {
        "chip": np.arange(spec.n_chips, dtype=int),
        "mean_count": flat.mean(axis=1),
        "median_count": np.median(flat, axis=1),
        "min_count": flat.min(axis=1).astype(int),
        "max_count": flat.max(axis=1).astype(int),
        "zero_sites": (flat == 0).sum(axis=1).astype(int),
        "saturated_sites": (flat >= full_scale).sum(axis=1).astype(int),
        "dead_pixels": dead.astype(int),
    }
    ideal = kernels.ideal_frequency(currents, cint_nominal, swing_nominal) * spec.frame_s
    # Dead-time compression at the highest-current site (the top of the
    # logspan decade; the shared midpoint for pattern="uniform").
    top_site = int(np.argmax(currents.reshape(-1)))
    metrics = {
        "backend": backend,
        "rows": spec.rows,
        "cols": spec.cols,
        "n_chips": spec.n_chips,
        "sites_total": int(spec.n_chips * spec.rows * spec.cols),
        "mean_count": float(flat.mean()),
        "total_counts": int(flat.sum()),
        "zero_site_fraction": float((flat == 0).mean()),
        "top_site_compression": float(flat[:, top_site].mean() / ideal.reshape(-1)[top_site]),
    }
    return records, metrics


def array_scale_unit_results(
    spec: ArrayScaleSpec, params, peripheries: list, unit_streams: list[dict]
) -> list[tuple[dict, dict]]:
    """Calibrate (when the spec asks) and count chips drawn by
    ``engine.draw_array_scale``, then fold each unit's ``spec.n_chips``
    chips into its records and metrics, units in stack order — the
    batched executor's and the wafer tiler's shared tail, bit-identical
    per unit to a Runner run on the unit's streams."""
    calibrate_array_scale(spec, params, peripheries, unit_streams)
    counts, dead = count_array_scale(spec, params, unit_streams)
    currents = spec.site_currents()
    n = spec.n_chips
    return [
        array_scale_records_and_metrics(
            spec,
            "vectorized",
            counts[lo : lo + n],
            dead[lo : lo + n],
            params.counter_bits,
            params.cint_nominal_f,
            params.swing_nominal_v,
            currents,
        )
        for lo in range(0, params.n_chips, n)
    ]


def _execute_array_scale(runner: "Runner", spec: ArrayScaleSpec, rngs: dict) -> ResultSet:
    # run() already resolved the spec's backend field vs its override.
    backend = runner.backend
    currents = spec.site_currents()
    if backend == "vectorized":
        params, corrections = runner._provision(
            f"array_scale_chip_{backend}",
            spec.facet("chip"),
            lambda: _draw_array_scale_stack(spec, rngs),
        )
        counts, dead = count_array_scale(spec, params, [rngs])
        counter_bits = params.counter_bits
        cint_nominal = params.cint_nominal_f
        swing_nominal = params.swing_nominal_v
        artifacts = {"params": params, "gain_correction": corrections}
    else:
        chips = runner._provision(
            f"array_scale_chip_{backend}",
            spec.facet("chip"),
            lambda: _build_array_scale_chips(
                spec, rngs["chip"], rngs["calibration"], runner.recorder
            ),
        )
        measure_rng = rngs["measure"]
        counts = np.stack(
            [
                chip.measure_currents(currents, frame_s=spec.frame_s, rng=measure_rng)
                for chip in chips
            ]
        )
        dead = np.asarray([int(chip.dead_pixel_map().sum()) for chip in chips])
        counter_bits = chips[0].specs.counter_bits
        cint_nominal = float(chips[0].cint_host_nominal_f[0])
        swing_nominal = chips[0].adcs[0].comparator.threshold_v
        artifacts = {"chip": chips}

    records, metrics = array_scale_records_and_metrics(
        spec, backend, counts, dead, counter_bits, cint_nominal, swing_nominal, currents
    )
    return runner._result(
        spec,
        record_name="chip",
        records=records,
        metrics=metrics,
        artifacts={**artifacts, "counts": counts, "currents": currents},
    )


register_workload("dna_assay", _execute_dna, backends=("object", "vectorized"))
register_workload("neural_recording", _execute_neural, backends=("object", "vectorized"))
register_workload("screening", _execute_screening)
register_workload("adc_transfer", _execute_adc)
register_workload("array_scale", _execute_array_scale, backends=("object", "vectorized"))
