"""Uniformly sampled waveforms (traces) and basic DSP helpers.

A :class:`Trace` is the lingua franca between the biophysics models
(action potentials, junction voltages), the circuit models (amplifier
chains, ADC waveforms) and the analysis layer (spike detection, SNR).
It wraps a numpy array with an explicit sample interval and provides the
small set of operations the reproduction needs: arithmetic, slicing by
time, resampling, RMS/peak metrics and single-pole filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass
class Trace:
    """A uniformly sampled real-valued waveform.

    Parameters
    ----------
    samples:
        1-D array of sample values.
    dt:
        Sample interval in seconds (must be positive).
    t0:
        Time of the first sample in seconds.
    label:
        Free-form description used by reports.
    """

    samples: np.ndarray
    dt: float
    t0: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError(f"Trace requires a 1-D array, got shape {self.samples.shape}")
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ValueError(f"dt must be a positive finite float, got {self.dt}")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_function(
        cls,
        func: Callable[[np.ndarray], np.ndarray],
        duration: float,
        dt: float,
        t0: float = 0.0,
        label: str = "",
    ) -> "Trace":
        """Sample ``func(t)`` on a uniform grid covering ``duration`` seconds."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        times = np.arange(t0, t0 + duration, dt)
        return cls(np.asarray(func(times), dtype=float), dt=dt, t0=t0, label=label)

    @classmethod
    def zeros(cls, duration: float, dt: float, t0: float = 0.0, label: str = "") -> "Trace":
        count = max(1, int(round(duration / dt)))
        return cls(np.zeros(count), dt=dt, t0=t0, label=label)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return self.n * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n) * self.dt

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # Arithmetic (returns new traces; dt/t0 must agree for binary ops)
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "Trace") -> None:
        if abs(other.dt - self.dt) > 1e-15 * max(self.dt, other.dt):
            raise ValueError(f"dt mismatch: {self.dt} vs {other.dt}")
        if len(other) != len(self):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")

    def __add__(self, other: "Trace | float") -> "Trace":
        if isinstance(other, Trace):
            self._check_compatible(other)
            return Trace(self.samples + other.samples, self.dt, self.t0, self.label)
        return Trace(self.samples + float(other), self.dt, self.t0, self.label)

    def __sub__(self, other: "Trace | float") -> "Trace":
        if isinstance(other, Trace):
            self._check_compatible(other)
            return Trace(self.samples - other.samples, self.dt, self.t0, self.label)
        return Trace(self.samples - float(other), self.dt, self.t0, self.label)

    def __mul__(self, scale: float) -> "Trace":
        return Trace(self.samples * float(scale), self.dt, self.t0, self.label)

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def rms(self) -> float:
        """Root-mean-square value of the samples."""
        return float(np.sqrt(np.mean(np.square(self.samples))))

    def peak_to_peak(self) -> float:
        return float(np.max(self.samples) - np.min(self.samples))

    def peak_abs(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def std(self) -> float:
        return float(np.std(self.samples))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def slice_time(self, t_start: float, t_stop: float) -> "Trace":
        """Return the sub-trace with t_start <= t < t_stop."""
        if t_stop <= t_start:
            raise ValueError(f"empty time window [{t_start}, {t_stop})")
        i0 = max(0, int(np.ceil((t_start - self.t0) / self.dt - 1e-9)))
        i1 = min(self.n, int(np.ceil((t_stop - self.t0) / self.dt - 1e-9)))
        if i1 <= i0:
            raise ValueError(f"window [{t_start}, {t_stop}) contains no samples")
        return Trace(self.samples[i0:i1].copy(), self.dt, self.t0 + i0 * self.dt, self.label)

    def resample(self, new_dt: float) -> "Trace":
        """Linear-interpolation resampling onto a new uniform grid."""
        if new_dt <= 0:
            raise ValueError(f"new_dt must be positive, got {new_dt}")
        if abs(new_dt - self.dt) < 1e-18:
            return Trace(self.samples.copy(), self.dt, self.t0, self.label)
        new_times = np.arange(self.t0, self.t0 + self.duration - 0.5 * self.dt, new_dt)
        if len(new_times) == 0:
            new_times = np.array([self.t0])
        new_samples = np.interp(new_times, self.times, self.samples)
        return Trace(new_samples, new_dt, self.t0, self.label)

    def decimate(self, factor: int) -> "Trace":
        """Keep every ``factor``-th sample (no anti-alias filter)."""
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        return Trace(self.samples[::factor].copy(), self.dt * factor, self.t0, self.label)

    def clipped(self, low: float, high: float) -> "Trace":
        """Return a copy with samples clipped to [low, high] (rail limiting)."""
        if high < low:
            raise ValueError(f"invalid clip range [{low}, {high}]")
        return Trace(np.clip(self.samples, low, high), self.dt, self.t0, self.label)

    def lowpass(self, cutoff_hz: float) -> "Trace":
        """Single-pole IIR low-pass, the behavioural bandwidth model.

        Used for amplifier bandwidth limiting (the paper's 4 MHz readout
        amplifier and 32 MHz output driver); matches a one-pole RC
        response with f_3dB = ``cutoff_hz``.
        """
        if cutoff_hz <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff_hz}")
        alpha = 1.0 - np.exp(-2.0 * np.pi * cutoff_hz * self.dt)
        out = np.empty_like(self.samples)
        state = self.samples[0]
        for i, x in enumerate(self.samples):
            state += alpha * (x - state)
            out[i] = state
        return Trace(out, self.dt, self.t0, self.label)

    def lowpass_fast(self, cutoff_hz: float) -> "Trace":
        """Vectorised equivalent of :meth:`lowpass` via scipy lfilter."""
        from scipy.signal import lfilter

        if cutoff_hz <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff_hz}")
        alpha = 1.0 - np.exp(-2.0 * np.pi * cutoff_hz * self.dt)
        out = lfilter([alpha], [1.0, alpha - 1.0], self.samples, zi=[(1 - alpha) * self.samples[0]])[0]
        return Trace(np.asarray(out), self.dt, self.t0, self.label)

    def highpass(self, cutoff_hz: float) -> "Trace":
        """Single-pole high-pass (AC coupling, e.g. the pixel electrode cap)."""
        low = self.lowpass_fast(cutoff_hz)
        return Trace(self.samples - low.samples, self.dt, self.t0, self.label)

    def derivative(self) -> "Trace":
        """Central-difference time derivative (same length, edges one-sided)."""
        out = np.gradient(self.samples, self.dt)
        return Trace(out, self.dt, self.t0, self.label)

    def delayed(self, delay_s: float) -> "Trace":
        """Shift the waveform right by ``delay_s`` (zero-padded, same grid)."""
        if delay_s < 0:
            raise ValueError("delayed() only supports non-negative delays")
        shift = int(round(delay_s / self.dt))
        if shift == 0:
            return Trace(self.samples.copy(), self.dt, self.t0, self.label)
        out = np.zeros_like(self.samples)
        if shift < self.n:
            out[shift:] = self.samples[: self.n - shift]
        return Trace(out, self.dt, self.t0, self.label)


def concatenate(traces: Sequence[Trace]) -> Trace:
    """Concatenate traces that share a sample interval; times re-based at
    the first trace's ``t0``."""
    if not traces:
        raise ValueError("need at least one trace")
    dt = traces[0].dt
    for trace in traces[1:]:
        if abs(trace.dt - dt) > 1e-15 * dt:
            raise ValueError("all traces must share dt")
    samples = np.concatenate([trace.samples for trace in traces])
    return Trace(samples, dt, traces[0].t0, traces[0].label)


def time_axis(duration: float, dt: float, t0: float = 0.0) -> np.ndarray:
    """Uniform time grid covering [t0, t0+duration)."""
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    return t0 + np.arange(int(round(duration / dt))) * dt
