"""Array-scale neural-recording chip on the vectorized backend.

:class:`VectorizedNeuroChip` reproduces the recording semantics of
:class:`~repro.chip.neuro_chip.NeuralRecordingChip` — Pelgrom-mismatched
M1/M2 pixel planes with the Fig. 6 calibration cycle, sixteen parallel
readout channels, the scan-timing arithmetic, registers + serial
configuration — but evaluates the hot path (per-neuron Hodgkin-Huxley
trajectories, junction transforms, frame sampling, chain transfer)
through :mod:`repro.engine.neuro_kernels` batched operations instead of
per-neuron / per-pixel Python loops.

Parity with the object chip (see
``tests/test_experiments_neuro_backend_parity.py``):

* Construction consumes the generator exactly as the object chip does
  (plane draws, then one spawned child per readout channel), so pixel
  planes, channel gains and the input-referred noise floor are
  bit-identical.
* The template-AP path (``use_hh=False``) is bit-identical end to end:
  waveforms, frames, noise realisation and output movie.
* The Hodgkin-Huxley path batches the RK4 integration over neurons
  (``np.exp`` vs ``math.exp``); trajectories agree to floating-point
  accumulation error, ground-truth spike times exactly in practice,
  and frames to the documented tolerance.
"""

from __future__ import annotations

import numpy as np

from ..chip.registers import RegisterFile, neuro_chip_registers
from ..chip.sequencer import ScanTiming
from ..chip.serial_interface import Command, Frame, SerialLink
from ..core.rng import RngLike, ensure_rng, spawn_children
from ..neuro.action_potential import StimulusProtocol
from ..neuro.array import RecordedMovie
from ..neuro.culture import ArrayGeometry, Culture, NEURO_GEOMETRY
from ..neuro.readout_chain import ReadoutChannel, TOTAL_GAIN
from ..neuro.sensor_pixel import NeuralPixelDesign
from . import neuro_kernels
from .neuro_params import NeuroArrayParams


class VectorizedNeuroChip:
    """Behavioural model of the 128x128 device on the engine backend.

    Drop-in for :class:`NeuralRecordingChip` in the experiment layer:
    same constructor signature, same ``calibrate`` /
    ``record_culture`` / ``input_referred_noise_v`` /
    ``timing_report`` API, same
    :class:`~repro.chip.neuro_chip.RecordingResult` output.
    """

    def __init__(
        self,
        geometry: ArrayGeometry | None = None,
        design: NeuralPixelDesign | None = None,
        scan: ScanTiming | None = None,
        rng: RngLike = None,
    ) -> None:
        generator = ensure_rng(rng)
        self.geometry = geometry or NEURO_GEOMETRY
        self.scan = scan or ScanTiming(
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            channels=16 if self.geometry.cols % 16 == 0 else 1,
            frame_rate_hz=2000.0,
        )
        # Same consumption order as the object chip: array planes first,
        # then one spawned child per channel.
        self.params = NeuroArrayParams.draw(
            self.geometry.rows, self.geometry.cols, design=design, rng=generator
        )
        channel_rngs = spawn_children(generator, self.scan.channels)
        self.channels = [ReadoutChannel.sample(r) for r in channel_rngs]
        self.registers: RegisterFile = neuro_chip_registers()
        self.link = SerialLink()
        self.calibrated = False

    @property
    def design(self) -> NeuralPixelDesign:
        return self.params.design

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def calibrate(self, include_imperfections: bool = True) -> None:
        """Pixel calibration plus the gain-stage offset calibration —
        the object chip's sequence on the batched parameter planes."""
        self.params.calibrate(include_imperfections=include_imperfections)
        for channel in self.channels:
            channel.calibrate()
        frame = Frame(Command.CALIBRATE, 0x00)
        self.link.transfer(frame)
        self.registers.hw_write("status", 0x01)
        self.calibrated = True

    def calibration_sweep_time_s(self) -> float:
        settle_per_column = 5e-6
        return self.geometry.cols * settle_per_column

    # ------------------------------------------------------------------
    # Noise
    # ------------------------------------------------------------------
    def input_referred_noise_v(self) -> float:
        chain_noise = self.channels[0].chain.input_referred_noise_rms()
        return chain_noise / self.design.coupling_factor

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def draw_spike_trains(
        self, culture: Culture, duration_s: float, firing_rate_hz: float, generator
    ) -> list:
        """One Poisson stimulus per neuron, consuming the record stream
        exactly as the object chip does (one spawned child per neuron,
        at least one even for an empty culture)."""
        neuron_rngs = spawn_children(generator, max(1, len(culture.neurons)))
        return [
            StimulusProtocol.spike_train(firing_rate_hz, duration_s, rng=neuron_rng)
            for _, neuron_rng in zip(culture.neurons, neuron_rngs)
        ]

    def activity_tables(
        self, culture: Culture, stimuli, duration_s: float, use_hh: bool
    ) -> tuple[np.ndarray, float, dict]:
        """Junction-voltage waveform tables + ground truth for a set of
        stimulated neurons: ``(tables, table_dt_s, ground_truth)``."""
        dt_s = 20e-6
        if use_hh:
            hh = neuro_kernels.hh_batch(stimuli, duration_s, dt_s=dt_s)
            return self._hh_tables(culture, hh)
        junctions = [neuron.junction for neuron in culture.neurons]
        tables, truths = neuro_kernels.template_tables(
            stimuli,
            [j.junction_area for j in junctions],
            [j.seal_resistance for j in junctions],
            duration_s,
            dt_s=dt_s,
        )
        ground_truth = {
            neuron.index: truths[i] for i, neuron in enumerate(culture.neurons)
        }
        return tables, dt_s, ground_truth

    def _hh_tables(
        self, culture: Culture, hh: neuro_kernels.BatchedHH
    ) -> tuple[np.ndarray, float, dict]:
        """Junction tables + ground truth from a (possibly shared)
        batched HH integration whose rows follow ``culture.neurons``."""
        junctions = [neuron.junction for neuron in culture.neurons]
        tables = neuro_kernels.junction_tables(
            hh,
            [j.junction_area for j in junctions],
            [j.seal_resistance for j in junctions],
            [j.ion_channel_factor for j in junctions],
        )
        ground_truth = {
            neuron.index: hh.spike_times[i] for i, neuron in enumerate(culture.neurons)
        }
        return tables, hh.dt_s, ground_truth

    def movie_from_tables(
        self,
        culture: Culture,
        tables: np.ndarray,
        table_dt_s: float,
        n_frames: int,
        generator,
    ) -> RecordedMovie:
        """Sample the waveform tables onto electrode-referred frames and
        add the chain's input-referred noise — the batched twin of
        :meth:`NeuralArrayModel.record` (same noise draw)."""
        if n_frames <= 0:
            raise ValueError("need at least one frame")
        pair_rows, pair_cols, pair_waves = neuro_kernels.coverage_pairs(culture)
        frames = neuro_kernels.synthesize_frames(
            tables,
            table_dt_s,
            pair_rows,
            pair_cols,
            pair_waves,
            n_frames,
            self.scan.frame_rate_hz,
            self.geometry.rows,
            self.geometry.cols,
        )
        noise_rms_v = self.input_referred_noise_v()
        if noise_rms_v > 0:
            frames += ensure_rng(generator).normal(0.0, noise_rms_v, size=frames.shape)
        return RecordedMovie(frames=frames, frame_rate_hz=self.scan.frame_rate_hz)

    def output_movie(self, electrode_movie: RecordedMovie) -> RecordedMovie:
        """The off-chip view after the full x5600 chain, as one
        broadcast (bit-identical to the object chip's channel loop)."""
        coupling = self.design.coupling_factor
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
        activity: tuple[np.ndarray, float, dict],
        duration_s: float,
        generator,
    ):
        """Record precomputed activity — ``(tables, table_dt_s,
        ground_truth)`` from :meth:`activity_tables` — as electrode
        frames plus noise and the off-chip output movie: the tail every
        recording path shares."""
        from ..chip.neuro_chip import RecordingResult

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

    def record_culture(
        self,
        culture: Culture,
        duration_s: float = 0.05,
        firing_rate_hz: float = 20.0,
        rng: RngLike = None,
        use_hh: bool = True,
    ):
        """Simulate spontaneous activity and record it — the batched
        twin of :meth:`NeuralRecordingChip.record_culture`."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if not self.calibrated:
            raise RuntimeError("calibrate() the chip before recording")
        generator = ensure_rng(rng)
        stimuli = self.draw_spike_trains(culture, duration_s, firing_rate_hz, generator)
        activity = self.activity_tables(culture, stimuli, duration_s, use_hh)
        return self.recording_from_tables(culture, activity, duration_s, generator)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def timing_report(self) -> dict[str, float]:
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
