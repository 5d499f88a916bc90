"""Behavioural operational amplifier.

Used twice in the paper: the regulation loop holding the DNA sensor
electrode at its electrochemical potential (Fig. 3) and the neural pixel
loop A/M3/M4 (Fig. 6).  The model captures finite DC gain, input offset,
a single-pole bandwidth, and output saturation — the nonidealities those
loops must tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.signals import Trace


@dataclass
class OpAmp:
    """Single-pole op-amp with offset and rail limits.

    Parameters
    ----------
    dc_gain:
        Open-loop DC gain (V/V).
    gbw_hz:
        Gain-bandwidth product; the open-loop pole sits at gbw/dc_gain.
    offset_v:
        Input-referred offset voltage.
    rail_low, rail_high:
        Output saturation limits.
    slew_rate:
        Maximum output slope in V/s (0 disables slew limiting).
    """

    dc_gain: float = 10_000.0
    gbw_hz: float = 10e6
    offset_v: float = 0.0
    rail_low: float = 0.0
    rail_high: float = 5.0
    slew_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.dc_gain <= 0 or self.gbw_hz <= 0:
            raise ValueError("dc_gain and gbw must be positive")
        if self.rail_high <= self.rail_low:
            raise ValueError("rail_high must exceed rail_low")

    # ------------------------------------------------------------------
    # Static (settled) behaviour
    # ------------------------------------------------------------------
    def output_static(self, v_plus: float, v_minus: float) -> float:
        """Settled open-loop output with saturation."""
        out = self.dc_gain * (v_plus - v_minus + self.offset_v)
        return float(np.clip(out, self.rail_low, self.rail_high))

    def closed_loop_gain(self, feedback_fraction: float) -> float:
        """A / (1 + A*beta) for a resistive feedback fraction beta."""
        if not 0.0 < feedback_fraction <= 1.0:
            raise ValueError("feedback fraction must lie in (0, 1]")
        return self.dc_gain / (1.0 + self.dc_gain * feedback_fraction)

    def closed_loop_bandwidth(self, feedback_fraction: float) -> float:
        """Closed-loop -3 dB bandwidth ~ GBW * beta."""
        if not 0.0 < feedback_fraction <= 1.0:
            raise ValueError("feedback fraction must lie in (0, 1]")
        return self.gbw_hz * feedback_fraction

    # ------------------------------------------------------------------
    # Dynamic behaviour
    # ------------------------------------------------------------------
    def follower_response(self, target: Trace) -> Trace:
        """Unity-gain buffer response: single pole at GBW plus slew limit.

        Processes the target waveform sample by sample; used to model the
        electrode-regulation settling after a reset pulse.
        """
        pole_hz = self.closed_loop_bandwidth(1.0)
        alpha = 1.0 - np.exp(-2.0 * np.pi * pole_hz * target.dt)
        out = np.empty_like(target.samples)
        state = float(np.clip(target.samples[0] + self.offset_v, self.rail_low, self.rail_high))
        max_step = self.slew_rate * target.dt if self.slew_rate > 0 else np.inf
        for i, x in enumerate(target.samples):
            desired = x + self.offset_v
            step = alpha * (desired - state)
            step = float(np.clip(step, -max_step, max_step))
            state = float(np.clip(state + step, self.rail_low, self.rail_high))
            out[i] = state
        return Trace(out, target.dt, target.t0, label=f"{target.label} (buffered)")

    def settling_time(self, step_v: float, tolerance: float = 1e-3) -> float:
        """Time for a unity-feedback step to settle within ``tolerance``
        (relative).  Includes the slew-limited phase when applicable."""
        if step_v == 0:
            return 0.0
        if tolerance <= 0 or tolerance >= 1:
            raise ValueError("tolerance must lie in (0, 1)")
        pole_hz = self.closed_loop_bandwidth(1.0)
        tau = 1.0 / (2.0 * np.pi * pole_hz)
        linear_time = tau * np.log(1.0 / tolerance)
        if self.slew_rate <= 0:
            return float(linear_time)
        # Slew phase until the exponential slope falls below the slew rate.
        slew_boundary = self.slew_rate * tau
        step_abs = abs(step_v)
        if step_abs <= slew_boundary:
            return float(linear_time)
        slew_time = (step_abs - slew_boundary) / self.slew_rate
        return float(slew_time + tau * np.log(slew_boundary / (tolerance * step_abs)) + tau)
