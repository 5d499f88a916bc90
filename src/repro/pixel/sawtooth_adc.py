"""In-pixel current-to-frequency A/D conversion (Fig. 3).

"An integrating capacitor Cint is charged by the sensor current.  When
the switching level of the comparator is reached, a reset pulse is
generated.  The measured frequency is approximately proportional to the
sensor current.  For A/D conversion, the number of reset pulses is
counted with a digital counter within a given time frame."

The cycle period decomposes exactly as the Fig. 3 waveform sketch:

    tau1      ramp: Cint charges from V_reset to the switching threshold
    tau_cmp   comparator propagation delay (ramp continues)
    tau_delay delay-stage pulse width: Mres discharges Cint
    tau2 = tau1 + tau_cmp + tau_delay   (full period)

With nominal values (Cint = 100 fF, 1 V swing) the frequency runs from
10 Hz at 1 pA to ~1 MHz at 100 nA; the fixed dead time compresses the
top decade and counting quantisation dominates the bottom decade —
which is why the chip counts over an adjustable time frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.rng import RngLike, ensure_rng
from ..core.signals import Trace
from ..core.units import fF, ns
from ..devices.capacitor import Capacitor
from ..devices.comparator import Comparator


@dataclass
class SawtoothAdc:
    """One pixel's current-to-frequency converter.

    Parameters
    ----------
    cint:
        Integration capacitor (leakage included).
    comparator:
        Switching-threshold comparator; its ``threshold_v`` is the level
        above the reset baseline.
    v_reset:
        Voltage Cint is discharged to during the reset pulse.
    tau_delay_s:
        Delay-stage pulse width (reset duration).
    leakage_a:
        Constant parasitic discharge current at the integration node
        (junction leakage of Mres and the follower).
    """

    cint: Capacitor = field(default_factory=lambda: Capacitor(100 * fF))
    comparator: Comparator = field(
        default_factory=lambda: Comparator(threshold_v=1.0, delay_s=50 * ns)
    )
    v_reset: float = 0.0
    tau_delay_s: float = 100 * ns
    leakage_a: float = 0.0

    def __post_init__(self) -> None:
        if self.tau_delay_s <= 0:
            raise ValueError("delay-stage pulse width must be positive")
        if self.leakage_a < 0:
            raise ValueError("leakage must be non-negative")
        if self.comparator.effective_threshold <= self.v_reset:
            raise ValueError("comparator threshold must sit above the reset level")

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    @property
    def swing_v(self) -> float:
        """Integration swing from reset level to nominal threshold."""
        return self.comparator.effective_threshold - self.v_reset

    def net_current(self, i_sensor: float) -> float:
        """Charging current after subtracting node leakage."""
        return i_sensor - self.leakage_a

    def ramp_time(self, i_sensor: float, swing: float | None = None) -> float:
        """tau1: time to slew Cint across the swing at ``i_sensor``.

        Raises ``ValueError`` when the current cannot reach the
        threshold (below the leakage floor) — the pixel then never
        fires, which callers map to a zero count.
        """
        net = self.net_current(i_sensor)
        if net <= 0:
            raise ValueError(
                f"sensor current {i_sensor} A at or below leakage floor {self.leakage_a} A"
            )
        swing = self.swing_v if swing is None else swing
        return self.cint.charge_time(net, swing, start_v=self.v_reset)

    def dead_time(self) -> float:
        """Per-cycle fixed time: comparator delay + reset pulse."""
        return self.comparator.delay_s + self.tau_delay_s

    def cycle_period(self, i_sensor: float) -> float:
        """tau2 of Fig. 3: one full sawtooth period."""
        return self.ramp_time(i_sensor) + self.dead_time()

    def frequency(self, i_sensor: float) -> float:
        """Reset-pulse frequency; 0 if the pixel cannot fire."""
        try:
            return 1.0 / self.cycle_period(i_sensor)
        except ValueError:
            return 0.0

    def ideal_frequency(self, i_sensor: float) -> float:
        """The textbook I/(Cint*swing) line the paper's 'approximately
        proportional' refers to."""
        return max(0.0, i_sensor) / (self.cint.capacitance_f * self.swing_v)

    def current_from_frequency(self, frequency_hz: float) -> float:
        """Controller-side inverse transfer (dead-time corrected).

        I = C*dV / (1/f - dead) — what the chip's host software applies
        to convert counted frequency back into sensor current.
        """
        if frequency_hz <= 0:
            return 0.0
        period = 1.0 / frequency_hz
        ramp = period - self.dead_time()
        if ramp <= 0:
            raise ValueError(f"frequency {frequency_hz} Hz exceeds the dead-time limit")
        return self.cint.capacitance_f * self.swing_v / ramp + self.leakage_a

    def max_frequency(self) -> float:
        """Dead-time-limited ceiling 1/(tau_cmp + tau_delay)."""
        return 1.0 / self.dead_time()

    # ------------------------------------------------------------------
    # Counting (the A/D conversion)
    # ------------------------------------------------------------------
    def count_in_frame(
        self,
        i_sensor: float,
        frame_s: float,
        rng: RngLike = None,
        start_phase: float | None = None,
    ) -> int:
        """Number of reset pulses within a counting frame.

        Includes the random starting phase of the sawtooth relative to
        the frame window and the comparator threshold noise (cycle-to-
        cycle period jitter).  This *is* the digital pixel output.
        """
        if frame_s <= 0:
            raise ValueError("frame must be positive")
        if i_sensor != i_sensor:
            raise ValueError("sensor current is NaN")
        if start_phase is not None and not 0.0 <= start_phase <= 1.0:
            raise ValueError("start_phase must lie in [0, 1]")
        generator = ensure_rng(rng)
        # The frame's invariants, read straight off the parts once.
        comparator = self.comparator
        v_reset = self.v_reset
        swing_v = comparator.threshold_v + comparator.offset_v - v_reset
        net = i_sensor - self.leakage_a
        if net <= 0 or swing_v <= 0:
            return 0  # at or below the leakage floor or the reset level: never fires
        cint = self.cint
        if cint.leakage_conductance_s == 0 and cint.voltage_coefficient == 0:
            cap = cint.capacitance_f
            # charge_time's own arithmetic for a leak-free linear Cint (its
            # capacitance factor is exactly 1.0), without its checks.
            def ramp_time(swing: float) -> float:
                return cap * swing / net
        else:
            def ramp_time(swing: float) -> float:
                return cint.charge_time(net, swing, start_v=v_reset)
        try:
            base_ramp = ramp_time(swing_v)
        except ValueError:
            return 0
        dead = comparator.delay_s + self.tau_delay_s
        noise_sigma = comparator.noise_rms_v
        if start_phase is None:
            # The same draw and state as uniform(0.0, 1.0), without its dispatch.
            start_phase = generator.random()
        period = base_ramp + dead
        # Fast path: noiseless comparator -> closed-form count.
        if noise_sigma == 0:
            return int((frame_s / period) + start_phase) if period > 0 else 0
        expected = frame_s / period
        if expected > 2000.0:
            # Gaussian limit of the per-cycle jitter: each cycle's ramp
            # varies by sigma_T = ramp * (sigma_V / swing); the frame
            # accumulates sqrt(N) of them.  Exact enough above ~2k
            # counts (jitter << quantisation there anyway).
            sigma_cycle = base_ramp * (noise_sigma / swing_v)
            sigma_count = math.sqrt(expected) * (sigma_cycle / period)
            # NumPy's normal(0, s) is 0.0 + s * z: these sums get its bits.
            jitter = sigma_count * generator.standard_normal()
            return max(0, int(expected + start_phase + jitter))
        # Event-driven: each cycle's swing is perturbed by threshold noise,
        # one scalar draw per cycle from the shared stream.
        elapsed = -start_phase * period
        count = 0
        max_cycles = int(frame_s / period) + 16
        swing_floor = 0.05 * swing_v
        standard_normal = generator.standard_normal
        for _ in range(max_cycles):
            swing = max(swing_v + noise_sigma * standard_normal(), swing_floor)
            try:
                ramp = ramp_time(swing)
            except ValueError:
                break
            elapsed += ramp + dead
            if elapsed > frame_s:
                break
            count += 1
        return count

    def measured_frequency(
        self, i_sensor: float, frame_s: float, rng: RngLike = None
    ) -> float:
        """count / frame — the quantised frequency estimate."""
        return self.count_in_frame(i_sensor, frame_s, rng=rng) / frame_s

    # ------------------------------------------------------------------
    # Waveform generation (the Fig. 3 sketch)
    # ------------------------------------------------------------------
    def waveform(self, i_sensor: float, duration: float, dt: float) -> Trace:
        """Integration-node voltage over time: ramps, crossing, reset.

        Used by the Fig. 3 benchmark to regenerate the sawtooth sketch
        with its tau1 / tau2 / tau_delay annotations.
        """
        if duration <= 0 or dt <= 0:
            raise ValueError("duration and dt must be positive")
        samples = np.empty(int(round(duration / dt)))
        v = self.v_reset
        state = "ramp"
        timer = 0.0
        net = self.net_current(i_sensor)
        threshold = self.comparator.effective_threshold
        g_leak = self.cint.leakage_conductance_s
        for i in range(len(samples)):
            if state == "ramp":
                dv = (net - g_leak * v) / self.cint.capacitance_f * dt if net > 0 else 0.0
                v = v + dv
                if v >= threshold:
                    state = "delay"
                    timer = self.comparator.delay_s + self.tau_delay_s
            elif state == "delay":
                # Comparator delay: keep ramping; reset pulse: discharge.
                if timer > self.tau_delay_s:
                    dv = (net - g_leak * v) / self.cint.capacitance_f * dt
                    v = v + dv
                else:
                    v = self.v_reset + (v - self.v_reset) * math.exp(-dt / (0.05 * self.tau_delay_s))
                timer -= dt
                if timer <= 0:
                    v = self.v_reset
                    state = "ramp"
            samples[i] = v
        return Trace(samples, dt=dt, label=f"sawtooth @ {i_sensor:.3g} A")

    def reset_pulse_times(self, i_sensor: float, duration: float) -> np.ndarray:
        """Event times of reset pulses within [0, duration) (noiseless)."""
        try:
            period = self.cycle_period(i_sensor)
        except ValueError:
            return np.empty(0)
        first = self.ramp_time(i_sensor) + self.comparator.delay_s
        times = np.arange(first, duration, period)
        return times
