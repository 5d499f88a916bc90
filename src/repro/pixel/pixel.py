"""A complete DNA sensor pixel: electrode + regulation loop + ADC + counter.

This is the full Fig. 3 block: the potentiostat pins the electrode, the
sensor current charges Cint, the comparator/delay stage generate reset
pulses, the counter accumulates them over the frame.  Pixel-to-pixel
variation (comparator offset, Cint tolerance, leakage) is drawn per
instance; the chip-level auto-calibration measures and corrects it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.rng import RngLike, ensure_rng
from ..core.units import fF, ns
from ..devices.capacitor import Capacitor
from ..devices.comparator import Comparator
from ..electrochem.potentiostat import Potentiostat
from ..electrochem.redox_cycling import RedoxCyclingSensor
from .counter import PixelCounter
from .sawtooth_adc import SawtoothAdc

#: Leakage level above which a pixel counts as dead — it exceeds the
#: smallest measurable sensor current, so the ADC can never fire.
#: Shared with the vectorized backend (repro.engine.kernels).
DEAD_PIXEL_LEAKAGE_A = 1e-12


@dataclass
class PixelVariation:
    """Per-pixel manufacturing spread, drawn once per instance."""

    comparator_offset_v: float = 0.0
    cint_relative_error: float = 0.0
    leakage_a: float = 0.0

    @classmethod
    def draw(
        cls,
        rng: RngLike = None,
        sigma_offset_v: float = 0.008,
        sigma_cint_rel: float = 0.015,
        leakage_mean_a: float = 2.0e-15,
    ) -> "PixelVariation":
        generator = ensure_rng(rng)
        return cls(
            comparator_offset_v=float(generator.normal(0.0, sigma_offset_v)),
            cint_relative_error=float(generator.normal(0.0, sigma_cint_rel)),
            leakage_a=float(abs(generator.normal(leakage_mean_a, 0.5 * leakage_mean_a))),
        )


class DnaSensorPixel:
    """One of the 16x8 sensor sites.

    Parameters
    ----------
    variation:
        This pixel's parameter deviations.
    cint_nominal:
        Design value of the integration capacitor.
    swing_v:
        Nominal comparator threshold above the reset level.
    frame_s:
        Default counting frame.
    """

    def __init__(
        self,
        variation: PixelVariation | None = None,
        cint_nominal: float = 100 * fF,
        swing_v: float = 1.0,
        tau_delay_s: float = 100 * ns,
        comparator_delay_s: float = 50 * ns,
        counter_bits: int = 24,
        sensor: RedoxCyclingSensor | None = None,
        potentiostat: Potentiostat | None = None,
    ) -> None:
        self.variation = variation or PixelVariation()
        cint = Capacitor(cint_nominal * (1.0 + self.variation.cint_relative_error))
        comparator = Comparator(
            threshold_v=swing_v,
            offset_v=self.variation.comparator_offset_v,
            delay_s=comparator_delay_s,
            noise_rms_v=0.002,
        )
        self.adc = SawtoothAdc(
            cint=cint,
            comparator=comparator,
            v_reset=0.0,
            tau_delay_s=tau_delay_s,
            leakage_a=self.variation.leakage_a,
        )
        self.counter = PixelCounter(bits=counter_bits)
        self.sensor = sensor or RedoxCyclingSensor()
        self.potentiostat = potentiostat or Potentiostat()
        self.gain_correction = 1.0  # set by chip auto-calibration

    # ------------------------------------------------------------------
    @property
    def conversion_gain(self) -> float:
        """Nominal counts-per-ampere-second: 1/(Cint*swing)."""
        return 1.0 / (self.adc.cint.capacitance_f * self.adc.swing_v)

    def convert_current(self, i_sensor: float, frame_s: float, rng: RngLike = None) -> int:
        """Digitise a sensor current: count reset pulses over the frame."""
        self.counter.reset()
        pulses = self.adc.count_in_frame(i_sensor, frame_s, rng=rng)
        self.counter.clock(pulses)
        return self.counter.value

    def measure_concentration(
        self, surface_concentration: float, frame_s: float, rng: RngLike = None
    ) -> int:
        """Full transduction: concentration -> current -> count."""
        current = self.sensor.current(surface_concentration)
        return self.convert_current(current, frame_s, rng=rng)

    def current_estimate(self, count: int, frame_s: float) -> float:
        """Host-side conversion of a count back to amperes, using the
        nominal gain and this pixel's stored calibration factor."""
        if frame_s <= 0:
            raise ValueError("frame must be positive")
        if count < 0:
            raise ValueError("count must be non-negative")
        frequency = count / frame_s
        nominal_cint = self.adc.cint.capacitance_f / (1.0 + self.variation.cint_relative_error)
        raw = frequency * nominal_cint * 1.0  # nominal swing is 1 V by design
        return raw * self.gain_correction

    # ------------------------------------------------------------------
    # Auto-calibration ("auto-calibration circuits" in the paper's
    # periphery list): inject a known reference current, compare the
    # count with the expected one, store the correction.
    # ------------------------------------------------------------------
    def calibrate(self, i_reference: float, frame_s: float, rng: RngLike = None) -> float:
        """Run the calibration cycle; returns (and stores) the gain
        correction factor."""
        if i_reference <= 0:
            raise ValueError("reference current must be positive")
        count = self.convert_current(i_reference, frame_s, rng=rng)
        if count == 0:
            raise ValueError("reference current produced no counts; cannot calibrate")
        measured = count / frame_s
        # Dead-time-corrected expected frequency with nominal parameters.
        nominal_period = (100 * fF * 1.0) / i_reference + self.adc.dead_time()
        expected = 1.0 / nominal_period
        self.gain_correction = expected / measured
        return self.gain_correction

    def is_dead(self) -> bool:
        """Failure-injection hook: a pixel whose leakage exceeds the
        smallest measurable current can never fire."""
        return self.adc.leakage_a >= DEAD_PIXEL_LEAKAGE_A
