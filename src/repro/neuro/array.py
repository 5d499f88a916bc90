"""Vectorised 128x128 sensor-array model.

16384 pixels as numpy parameter planes instead of 16384 objects: Pelgrom
threshold/beta mismatch, per-pixel M2 current error, storage-node
imperfections — the full :class:`~repro.neuro.sensor_pixel.NeuralSensorPixel`
physics, evaluated array-wide.  This is what makes whole-chip recording
and the calibration Monte Carlo (Fig. 6 benchmark) tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.noise import kt_over_c_noise
from ..core.rng import RngLike, ensure_rng
from ..core.signals import Trace
from ..devices.mosfet import Mosfet
from ..devices.switches import MosSwitch
from .culture import ArrayGeometry, Culture, NEURO_GEOMETRY
from .sensor_pixel import (
    NeuralPixelDesign,
    ekv_ids_array,
    ekv_vgs_for_current_array,
)


@dataclass
class RecordedMovie:
    """Frames of electrode-referred pixel signals.

    ``frames`` has shape (n_frames, rows, cols); values are volts at the
    sensor electrode (divide by nothing — the chain budget is applied by
    the chip model).  ``frame_rate_hz`` fixes the time axis.
    """

    frames: np.ndarray
    frame_rate_hz: float

    def __post_init__(self) -> None:
        if self.frames.ndim != 3:
            raise ValueError("frames must be (n_frames, rows, cols)")
        if self.frame_rate_hz <= 0:
            raise ValueError("frame rate must be positive")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.frame_rate_hz

    def pixel_trace(self, row: int, col: int) -> Trace:
        """One pixel's sampled waveform across frames."""
        if not (0 <= row < self.frames.shape[1] and 0 <= col < self.frames.shape[2]):
            raise IndexError(f"pixel ({row}, {col}) outside movie")
        return Trace(
            self.frames[:, row, col].copy(),
            dt=1.0 / self.frame_rate_hz,
            label=f"pixel ({row},{col})",
        )


class NeuralArrayModel:
    """Parameter-plane model of the sensor matrix.

    Parameters
    ----------
    geometry:
        Grid dimensions and pitch.
    design:
        Shared pixel design values.
    rng:
        Seeds all mismatch planes.
    """

    def __init__(
        self,
        geometry: ArrayGeometry | None = None,
        design: NeuralPixelDesign | None = None,
        rng: RngLike = None,
    ) -> None:
        self.geometry = geometry or NEURO_GEOMETRY
        self.design = design or NeuralPixelDesign()
        generator = ensure_rng(rng)
        rows, cols = self.geometry.rows, self.geometry.cols
        process = self.design.process
        sigma_vth = process.sigma_vth(self.design.m1_width, self.design.m1_length)
        sigma_beta = process.sigma_beta(self.design.m1_width, self.design.m1_length)
        beta_nominal = process.mu_n_cox * self.design.m1_width / self.design.m1_length
        self.vth = process.vth_n + generator.normal(0.0, sigma_vth, size=(rows, cols))
        self.beta = beta_nominal * (1.0 + generator.normal(0.0, sigma_beta, size=(rows, cols)))
        # M2 current plane: beta + threshold mismatch of the source.
        m2_sigma = process.sigma_beta(2 * self.design.m1_width, self.design.m1_length)
        m2_vth_sigma = process.sigma_vth(2 * self.design.m1_width, self.design.m1_length)
        self.i_m2 = self.design.calibration_current * (
            1.0 + generator.normal(0.0, m2_sigma, size=(rows, cols))
        ) * (1.0 - 3.0 * generator.normal(0.0, m2_vth_sigma, size=(rows, cols)))
        self._ktc_draws = generator.normal(0.0, 1.0, size=(rows, cols))
        self._injection_draws = generator.normal(0.0, 1.0, size=(rows, cols))
        self._switch = MosSwitch(self.design.s1_width, self.design.s1_length, process)
        self.stored_vgs: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def nominal_gate_voltage(self) -> float:
        """The single gate voltage an uncalibrated design would broadcast."""
        nominal = Mosfet(
            self.design.m1_width, self.design.m1_length, "n", self.design.process
        )
        return nominal.vgs_for_current(self.design.calibration_current)

    def calibrate(self, include_imperfections: bool = True) -> np.ndarray:
        """Array-parallel calibration cycle; returns the stored plane."""
        stored = ekv_vgs_for_current_array(
            self.i_m2, self.vth, self.beta, self.design.process
        )
        if include_imperfections:
            node_c = self.design.storage_capacitance
            v_typical = float(np.mean(stored))
            gross = self._switch.injection_step(v_typical, node_c) + self._switch.clock_feedthrough(node_c)
            stored = stored + gross * (1.0 - self.design.dummy_compensation)
            stored = stored + abs(gross) * self.design.injection_residual_sigma * self._injection_draws
            stored = stored + kt_over_c_noise(node_c) * self._ktc_draws
        self.stored_vgs = stored
        return stored

    def droop(self, hold_time_s: float) -> None:
        if self.stored_vgs is None:
            raise RuntimeError("array has not been calibrated")
        if hold_time_s < 0:
            raise ValueError("hold time must be non-negative")
        rate = self._switch.droop_rate(self.design.storage_capacitance)
        self.stored_vgs = self.stored_vgs - rate * hold_time_s

    # ------------------------------------------------------------------
    # Currents
    # ------------------------------------------------------------------
    def pixel_currents(self, sensor_voltages: np.ndarray | float = 0.0) -> np.ndarray:
        """M1 current plane for a plane (or scalar) of cleft voltages."""
        if self.stored_vgs is None:
            raise RuntimeError("array has not been calibrated")
        vgs = self.stored_vgs + self.design.coupling_factor * np.asarray(sensor_voltages)
        return ekv_ids_array(vgs, self.vth, self.beta, self.design.process)

    def uncalibrated_currents(self) -> np.ndarray:
        """Current plane when every gate sits at the nominal voltage."""
        v_nominal = self.nominal_gate_voltage()
        return ekv_ids_array(
            np.full_like(self.vth, v_nominal), self.vth, self.beta, self.design.process
        )

    def offset_currents(self) -> np.ndarray:
        """Residual I(M1) - I(M2) plane after calibration."""
        return self.pixel_currents(0.0) - self.i_m2

    def uncalibrated_offset_currents(self) -> np.ndarray:
        return self.uncalibrated_currents() - self.i_m2

    def transconductance_plane(self, delta_v: float = 1e-5) -> np.ndarray:
        """dI/dV_J plane (includes the coupling factor)."""
        if self.stored_vgs is None:
            raise RuntimeError("array has not been calibrated")
        up = self.pixel_currents(delta_v)
        down = self.pixel_currents(-delta_v)
        return (up - down) / (2.0 * delta_v)

    def input_referred_offsets(self) -> np.ndarray:
        """Offset plane expressed in sensor-voltage units."""
        gm = self.transconductance_plane()
        return self.offset_currents() / gm

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        culture: Culture,
        junction_traces: dict[int, Trace],
        n_frames: int,
        frame_rate_hz: float = 2000.0,
    ) -> RecordedMovie:
        """Sample the array at the full frame rate.

        ``junction_traces`` maps neuron index -> V_J(t); each covered
        pixel samples its neuron's trace at the frame instants (the
        sub-frame mux offsets are < 0.5 us and negligible against ms-
        scale action potentials, but are applied anyway for fidelity).
        Values are noiseless electrode-referred volts: the chip adds the
        chain's input-referred floor (``NeuralRecordingChip._add_noise``).
        """
        if n_frames <= 0:
            raise ValueError("need at least one frame")
        if frame_rate_hz <= 0:
            raise ValueError("frame rate must be positive")
        rows, cols = self.geometry.rows, self.geometry.cols
        frames = np.zeros((n_frames, rows, cols))
        frame_times = np.arange(n_frames) / frame_rate_hz
        row_time = 1.0 / (frame_rate_hz * rows)
        for neuron in culture.neurons:
            if neuron.index not in junction_traces:
                continue
            vj = junction_traces[neuron.index]
            covered = culture.pixels_for_neuron(neuron)
            for row, col in covered:
                sample_offset = row * row_time
                sample_times = frame_times + sample_offset
                frames[:, row, col] += np.interp(
                    sample_times, vj.times, vj.samples, left=0.0, right=0.0
                )
        return RecordedMovie(frames=frames, frame_rate_hz=frame_rate_hz)
