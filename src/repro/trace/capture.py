"""Replay a spec's digital readout sequence under a trace recorder.

:func:`replay_readout` rebuilds the exact chip a workload would build —
same :class:`~repro.core.rng.SeedTree` stream paths, same construction
order — but with a :class:`~repro.trace.recorder.TraceRecorder`
attached, runs the spec through the Runner, then drives the serial
counter readout (optionally with injected bit corruption).  Because
streams depend only on ``(root, path)``, the replayed chip is
bit-identical to the one the plain workload builds, and the captured
trace is a pure function of ``(spec, seed)``.

This module imports the chip and experiment layers, so it loads lazily
behind ``repro.trace.__getattr__`` — the trace core never depends on
the model stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..chip.dna_chip import ChipSpecs, DnaMicroarrayChip
from ..chip.sequencer import NEURO_SCAN, ScanTiming
from ..chip.serial_interface import Command, Frame, FrameError
from ..experiments.runner import Runner
from ..experiments.specs import ArrayScaleSpec, DnaAssaySpec, ExperimentSpec
from ..experiments.workloads import workload_for
from .recorder import TraceRecorder
from .table import TraceTable


@dataclass
class ReplayResult:
    """Outcome of one traced replay."""

    trace: TraceTable
    counters: Optional[list] = None
    #: The FrameError text when injected corruption killed the readout.
    readout_error: Optional[str] = None
    #: Response-chunk index whose decode failed (None when ok — or when
    #: the failing frame could not be attributed, e.g. the request).
    failed_frame: Optional[int] = None
    result: Any = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.readout_error is None


def _traced_dna_chip(
    spec: "DnaAssaySpec | ArrayScaleSpec", runner: Runner, recorder: TraceRecorder
) -> DnaMicroarrayChip:
    """Build-and-configure the DNA chip exactly as the workload's
    ``_build_dna_chip``/``_build_array_scale_chips`` would (same stream
    paths, same call order), with the recorder attached."""
    paths = workload_for(spec.kind).streams(spec)
    chip_rng = runner.seed_tree.generator(*paths["chip"])
    calibration_rng = runner.seed_tree.generator(*paths["calibration"])
    chip = DnaMicroarrayChip(
        ChipSpecs(rows=spec.rows, cols=spec.cols), rng=chip_rng, recorder=recorder
    )
    if isinstance(spec, DnaAssaySpec):
        chip.bias_ok = chip.configure_bias(spec.v_generator, spec.v_collector)
    if spec.calibrate:
        chip.auto_calibrate(frame_s=spec.calibration_frame_s, rng=calibration_rng)
    return chip


def replay_readout(
    spec: Optional[ExperimentSpec] = None,
    seed: int = 0,
    recorder: Optional[TraceRecorder] = None,
    flip_frames: Optional[dict[int, list[int]]] = None,
) -> ReplayResult:
    """Run ``spec``'s full measurement under a trace recorder and return
    the capture.

    Sequence: register configuration and calibration over the serial
    link, a RUN_FRAME trigger, the workload's measurement (through the
    Runner, so records/metrics match a plain run), then the serial
    counter shift-out.  ``flip_frames`` (a chunk-index → bit-positions
    mapping) corrupts those response chunks of the shift-out; a chunk
    index the shift-out does not have raises ``ValueError``.  The first
    checksum failure is recorded as a corrupt serial-frame event and
    reported as ``readout_error`` — naming the failing chunk, also
    exposed as ``failed_frame`` — instead of raising.

    Supports the DNA-chip kinds (``dna_assay``, ``array_scale`` with
    ``n_chips=1``).
    """
    spec = spec if spec is not None else DnaAssaySpec()
    if not isinstance(spec, (DnaAssaySpec, ArrayScaleSpec)):
        raise ValueError(
            f"replay_readout supports dna_assay and array_scale specs, not {spec.kind!r}"
        )
    if isinstance(spec, ArrayScaleSpec) and spec.n_chips != 1:
        raise ValueError("replay_readout traces a single chip; use n_chips=1")
    if recorder is None:
        recorder = TraceRecorder()
    runner = Runner(seed=seed)
    chip = _traced_dna_chip(spec, runner, recorder)
    # The host triggers the counting frame over the wire.
    chip.link.transfer(Frame(Command.RUN_FRAME, 0x00))
    inputs = {"chip": chip if isinstance(spec, DnaAssaySpec) else [chip]}
    result = runner.run(spec, backend="object", inputs=inputs)
    counters: Optional[list] = None
    readout_error: Optional[str] = None
    failed_frame: Optional[int] = None
    try:
        counters = chip.read_counters_serial(flip_frames=flip_frames)
    except FrameError as exc:
        # The corrupt frame is already in the trace; surface the error
        # as data rather than an exception so callers can render it.
        failed_frame = getattr(exc, "frame_index", None)
        prefix = "" if failed_frame is None else f"response chunk {failed_frame}: "
        readout_error = f"{prefix}{exc}"
    return ReplayResult(
        trace=recorder.trace(),
        counters=counters,
        readout_error=readout_error,
        failed_frame=failed_frame,
        result=result,
    )


def record_scan_frame(
    recorder: TraceRecorder,
    scan: Optional[ScanTiming] = None,
    rows: Optional[int] = None,
) -> TraceTable:
    """Capture one frame of a :class:`ScanTiming` schedule as sample
    slots: every pixel's mux slot at its in-frame time, then the clock
    advanced by one frame.  ``rows`` limits the capture to the first
    rows (a full 128x128 frame is 16384 events)."""
    scan = scan if scan is not None else NEURO_SCAN
    n_rows = scan.rows if rows is None else min(rows, scan.rows)
    recorder.seq_state(
        "frame",
        detail=f"{scan.rows}x{scan.cols} @ {scan.frame_rate_hz:g} Hz, "
        f"{scan.channels} channels",
    )
    base = recorder.now
    for row, col in scan.pixel_order():
        if row >= n_rows:
            break
        recorder.seq_sample(
            row,
            col,
            time_s=base + scan.sample_time_s(row, col),
            slot_s=scan.slot_time_s,
            channel_index=col // scan.mux_depth,
            slot=col % scan.mux_depth,
        )
    recorder.advance(scan.frame_time_s)
    return recorder.trace()
