"""Replay a spec's digital readout sequence under a trace recorder.

:func:`replay_readout` is the normal run under a Runner recorder:
``Runner(seed, recorder=...).run(spec, backend="object")`` builds the
workload's own chip with the :class:`~repro.trace.recorder.TraceRecorder`
attached, so the capture covers its configuration, calibration, the
RUN_FRAME that opens the counting frame and the measurement.  It then
drives the serial counter readout of that chip (optionally with
injected bit corruption).  Streams depend only on ``(root, path)``, so
the captured trace is a pure function of ``(spec, seed)``.

This module imports the chip and experiment layers, so it loads lazily
behind ``repro.trace.__getattr__`` — the trace core never depends on
the model stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..chip.sequencer import NEURO_SCAN, ScanTiming
from ..chip.serial_interface import FrameError
from ..experiments.runner import Runner
from ..experiments.specs import ArrayScaleSpec, DnaAssaySpec, ExperimentSpec
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


def replay_readout(
    spec: Optional[ExperimentSpec] = None,
    seed: int = 0,
    recorder: Optional[TraceRecorder] = None,
    flip_frames: Optional[dict[int, list[int]]] = None,
) -> ReplayResult:
    """Run ``spec``'s full measurement under a trace recorder and return
    the capture.

    Sequence: the workload's run on the object backend — register
    configuration and calibration over the serial link, the RUN_FRAME
    trigger and the measurement, so records/metrics match a plain run —
    then the serial counter shift-out of the chip it measured.
    ``flip_frames`` (a chunk-index → bit-positions mapping) corrupts
    those response chunks of the shift-out; a chunk index the shift-out
    does not have raises ``ValueError``.  The first
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
    result = Runner(seed=seed, recorder=recorder).run(spec, backend="object")
    chip = result.artifacts["chip"]
    if isinstance(chip, list):  # array_scale keeps its n_chips=1 chip in a list
        (chip,) = chip
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
