"""The 128x128 neural-recording chip (Section 3, Figs. 5-6).

"chips with 128x128 positions within a total sensor area of 1mm x 1mm
are presented in [19] ... the chosen pitch of 7.8 um ... Full frame rate
is 2k samples/s."

The chip model combines:
  * the vectorised :class:`~repro.neuro.array.NeuralArrayModel` (M1/M2
    calibration physics),
  * 16 parallel :class:`~repro.neuro.readout_chain.ReadoutChannel`
    cascades (x100, x7 @ 4 MHz, 8:1 mux, driver @ 32 MHz, off-chip x4
    and x2),
  * the :class:`~repro.chip.sequencer.ScanTiming` arithmetic that locks
    frame rate, mux depth and bandwidths together,
  * registers + serial configuration like the DNA chip.

It is the one neural host: a recording is drawn stimuli
(:meth:`~NeuralRecordingChip.draw_spike_trains`), junction-voltage
tables (:meth:`~NeuralRecordingChip.activity_tables`), noisy electrode
frames (:meth:`~NeuralRecordingChip.movie_from_tables`) and the chain
transfer (:meth:`~NeuralRecordingChip.output_movie`).
:class:`~repro.engine.VectorizedNeuroChip` overrides only the activity
and frame steps with batched kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.rng import RngLike, ensure_rng, spawn_children
from ..core.signals import Trace
from ..neuro.action_potential import (
    HodgkinHuxleyNeuron,
    StimulusProtocol,
    template_action_potential,
)
from ..neuro.array import NeuralArrayModel, RecordedMovie
from ..neuro.culture import ArrayGeometry, Culture, NEURO_GEOMETRY
from ..neuro.readout_chain import ReadoutChannel, TOTAL_GAIN
from ..neuro.sensor_pixel import NeuralPixelDesign
from .registers import RegisterFile, neuro_chip_registers
from .sequencer import ScanTiming
from .serial_interface import Command, Frame, SerialLink


@dataclass
class RecordingResult:
    """Output of one recording run.

    ``electrode_movie`` is sensor-referred volts; ``output_movie`` is
    after the full x5600 chain (what the off-chip converter sees).
    ``ground_truth`` maps neuron index -> true spike times.
    """

    electrode_movie: RecordedMovie
    output_movie: RecordedMovie
    ground_truth: dict[int, np.ndarray]
    culture: Culture

    def best_pixel_for(self, neuron_index: int) -> tuple[int, int]:
        """The covered pixel with the largest recorded peak signal."""
        neuron = self.culture.neurons[neuron_index]
        covered = self.culture.pixels_for_neuron(neuron)
        if not covered:
            raise ValueError(f"neuron {neuron_index} covers no pixel")
        peaks = [
            float(np.max(np.abs(self.electrode_movie.frames[:, r, c]))) for r, c in covered
        ]
        return covered[int(np.argmax(peaks))]


class NeuralRecordingChip:
    """Behavioural model of the full 128x128 device."""

    def __init__(
        self,
        geometry: ArrayGeometry | None = None,
        design: NeuralPixelDesign | None = None,
        scan: ScanTiming | None = None,
        rng: RngLike = None,
        recorder: object = None,
    ) -> None:
        generator = ensure_rng(rng)
        # A trace recorder (duck-typed; see repro.trace) observing the
        # digital path: register traffic, serial frames, scan states.
        self.recorder = recorder
        self.geometry = geometry or NEURO_GEOMETRY
        self.scan = scan or ScanTiming(
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            channels=16 if self.geometry.cols % 16 == 0 else 1,
            frame_rate_hz=2000.0,
        )
        self.array = NeuralArrayModel(self.geometry, design, rng=generator)
        channel_rngs = spawn_children(generator, self.scan.channels)
        self.channels = [ReadoutChannel.sample(r) for r in channel_rngs]
        self.registers: RegisterFile = neuro_chip_registers(recorder=recorder)
        self.link = SerialLink(recorder=recorder)
        self.calibrated = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def calibrate(self, include_imperfections: bool = True) -> None:
        """Pixel calibration (rows in parallel, columns in sequence, per
        the paper) plus the gain-stage offset calibration."""
        if self.recorder is not None:
            self.recorder.seq_state("calibrate", detail="row-parallel pixel calibration")
        self.array.calibrate(include_imperfections=include_imperfections)
        for channel in self.channels:
            channel.calibrate()
        frame = Frame(Command.CALIBRATE, 0x00)
        self.link.transfer(frame)
        # Status is read-only to the host; the chip's own hardware
        # latches the calibrated flag.
        self.registers.hw_write("status", 0x01)
        if self.recorder is not None:
            self.recorder.advance(self.calibration_sweep_time_s())
        self.calibrated = True

    def calibration_sweep_time_s(self) -> float:
        """Time for one full calibration pass: rows in parallel, columns
        in sequence — ``cols`` settle periods of the pixel loop."""
        settle_per_column = 5e-6
        return self.geometry.cols * settle_per_column

    # ------------------------------------------------------------------
    # Noise
    # ------------------------------------------------------------------
    def input_referred_noise_v(self) -> float:
        """Chain noise referred to the sensor electrode (per sample)."""
        chain_noise = self.channels[0].chain.input_referred_noise_rms()
        # gm * R_ti = 1 by design, so chain input volts == coupled
        # electrode volts; refer through the coupling factor.
        return chain_noise / self.array.design.coupling_factor

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_culture(
        self,
        culture: Culture,
        duration_s: float = 0.05,
        firing_rate_hz: float = 20.0,
        rng: RngLike = None,
        use_hh: bool = True,
    ) -> RecordingResult:
        """Simulate spontaneous activity and record it.

        Each neuron gets a Poisson stimulus train, an HH trajectory (or
        the fast template for large cultures), a junction transform and
        its pixels sampled at the scan timing.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if not self.calibrated:
            raise RuntimeError("calibrate() the chip before recording")
        generator = ensure_rng(rng)
        stimuli = self.draw_spike_trains(culture, duration_s, firing_rate_hz, generator)
        activity = self.activity_tables(culture, stimuli, duration_s, use_hh)
        return self.recording_from_tables(culture, activity, duration_s, generator)

    def draw_spike_trains(
        self, culture: Culture, duration_s: float, firing_rate_hz: float, generator
    ) -> list[StimulusProtocol]:
        """One Poisson stimulus per neuron, each from its own spawned
        child of the record stream (at least one child even for an
        empty culture)."""
        neuron_rngs = spawn_children(generator, max(1, len(culture.neurons)))
        return [
            StimulusProtocol.spike_train(firing_rate_hz, duration_s, rng=neuron_rng)
            for _, neuron_rng in zip(culture.neurons, neuron_rngs)
        ]

    def activity_tables(
        self, culture: Culture, stimuli: list[StimulusProtocol], duration_s: float, use_hh: bool
    ) -> tuple[list[np.ndarray], float, dict]:
        """Junction-voltage waveform tables + ground truth for a set of
        stimulated neurons, ``(tables, table_dt_s, ground_truth)``: one
        table row per neuron, integrated neuron by neuron."""
        dt_s = 20e-6
        tables: list[np.ndarray] = []
        ground_truth: dict[int, np.ndarray] = {}
        for neuron, stimulus in zip(culture.neurons, stimuli):
            if use_hh:
                hh = HodgkinHuxleyNeuron().simulate(duration_s, dt_s=dt_s, stimulus=stimulus)
                vj = neuron.junction.junction_voltage(hh)
                ground_truth[neuron.index] = hh.spike_times
            else:
                vj = Trace.zeros(duration_s, dt_s)
                spike_times = np.asarray([p[0] for p in stimulus.pulses])
                for t_spike in spike_times:
                    ap = template_action_potential(
                        duration_s=min(6e-3, duration_s), dt_s=dt_s, t_spike_s=1e-3
                    )
                    vj_one = neuron.junction.junction_voltage_from_template(ap)
                    offset = int((t_spike) / vj.dt)
                    end = min(vj.n, offset + vj_one.n)
                    if end > offset:
                        vj.samples[offset:end] += vj_one.samples[: end - offset]
                ground_truth[neuron.index] = spike_times + 1e-3
            tables.append(vj.samples)
        return tables, dt_s, ground_truth

    def movie_from_tables(
        self,
        culture: Culture,
        tables,
        table_dt_s: float,
        n_frames: int,
        generator,
    ) -> RecordedMovie:
        """Sample the waveform tables onto electrode-referred frames
        (one ``np.interp`` per covered pixel, via
        :meth:`NeuralArrayModel.record`) plus the chain's noise."""
        junction_traces = {
            neuron.index: Trace(table, table_dt_s)
            for neuron, table in zip(culture.neurons, tables)
        }
        movie = self.array.record(
            culture, junction_traces, n_frames, frame_rate_hz=self.scan.frame_rate_hz
        )
        return self._add_noise(movie.frames, generator)

    def _add_noise(self, frames: np.ndarray, generator) -> RecordedMovie:
        """Add the chain's input-referred noise to noiseless electrode
        frames, in place, as one draw from the record stream."""
        noise_rms_v = self.input_referred_noise_v()
        if noise_rms_v > 0:
            frames += ensure_rng(generator).normal(0.0, noise_rms_v, size=frames.shape)
        return RecordedMovie(frames=frames, frame_rate_hz=self.scan.frame_rate_hz)

    def output_movie(self, electrode_movie: RecordedMovie) -> RecordedMovie:
        """The off-chip view after the full x5600 chain: each column's
        channel gain and rail clipping, as one broadcast."""
        from ..engine import neuro_kernels

        coupling = self.array.design.coupling_factor
        gains = [channel.chain.actual_gain * coupling for channel in self.channels]
        rails = [channel.chain.stages[-1].rail_high for channel in self.channels]
        return RecordedMovie(
            frames=neuro_kernels.apply_chain_transfer(
                electrode_movie.frames, gains, rails, self.scan.mux_depth
            ),
            frame_rate_hz=self.scan.frame_rate_hz,
        )

    def recording_from_tables(
        self,
        culture: Culture,
        activity: tuple,
        duration_s: float,
        generator,
    ) -> RecordingResult:
        """Record precomputed activity — ``(tables, table_dt_s,
        ground_truth)`` from :meth:`activity_tables` — as electrode
        frames plus noise and the off-chip output movie."""
        tables, table_dt_s, ground_truth = activity
        n_frames = int(duration_s * self.scan.frame_rate_hz)
        electrode_movie = self.movie_from_tables(
            culture, tables, table_dt_s, n_frames, generator
        )
        return RecordingResult(
            electrode_movie=electrode_movie,
            output_movie=self.output_movie(electrode_movie),
            ground_truth=ground_truth,
            culture=culture,
        )

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def timing_report(self) -> dict[str, float]:
        """The locked-together numbers of Section 3 / Fig. 6."""
        return {
            "frame_rate_hz": self.scan.frame_rate_hz,
            "row_time_s": self.scan.row_time_s,
            "slot_time_s": self.scan.slot_time_s,
            "channel_pixel_rate_hz": self.scan.channel_pixel_rate_hz,
            "aggregate_pixel_rate_hz": self.scan.aggregate_pixel_rate_hz,
            "readout_amp_settles": float(self.scan.settling_ok(4e6)),
            "driver_settles": float(self.scan.settling_ok(32e6)),
            "total_gain": TOTAL_GAIN,
        }
