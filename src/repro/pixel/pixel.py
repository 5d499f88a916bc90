"""A complete DNA sensor pixel: redox-cycling sensor + ADC + counter.

This is the Fig. 3 block as the chip counts it: the sensor current
charges Cint, the comparator/delay stage generate reset pulses, the
counter accumulates them over the frame.  The electrode regulation loop
is modelled on its own (:class:`repro.electrochem.Potentiostat`); the
pixel only needs the sensor's bias check, which the chip's DACs drive.
Pixel-to-pixel variation (comparator offset, Cint tolerance, leakage) is
drawn per instance; the chip-level auto-calibration measures and
corrects it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.rng import RngLike, child_streams, ensure_rng
from ..core.units import fF, ns
from ..devices.capacitor import Capacitor
from ..devices.comparator import Comparator
from ..electrochem.redox_cycling import RedoxCyclingSensor
from .counter import PixelCounter
from .sawtooth_adc import SawtoothAdc

#: Leakage level above which a pixel counts as dead — it exceeds the
#: smallest measurable sensor current, so the ADC can never fire.
#: Shared with the vectorized backend (repro.engine.kernels).
DEAD_PIXEL_LEAKAGE_A = 1e-12

#: Process-mismatch sigmas, the defaults of every pixel draw (here and in
#: ``PixelArrayParams.draw``).  The wafer layer (:mod:`repro.wafer`)
#: decomposes exactly these totals into radial / reticle / white parts.
DEFAULT_SIGMA_OFFSET_V = 0.008
DEFAULT_SIGMA_CINT_REL = 0.015
DEFAULT_LEAKAGE_MEAN_A = 2.0e-15


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
        sigma_offset_v: float = DEFAULT_SIGMA_OFFSET_V,
        sigma_cint_rel: float = DEFAULT_SIGMA_CINT_REL,
        leakage_mean_a: float = DEFAULT_LEAKAGE_MEAN_A,
    ) -> "PixelVariation":
        generator = ensure_rng(rng)
        return cls(
            comparator_offset_v=float(generator.normal(0.0, sigma_offset_v)),
            cint_relative_error=float(generator.normal(0.0, sigma_cint_rel)),
            leakage_a=float(abs(generator.normal(leakage_mean_a, 0.5 * leakage_mean_a))),
        )


def draw_variations(
    rng: RngLike,
    count: int,
    sigma_offset_v: float = DEFAULT_SIGMA_OFFSET_V,
    sigma_cint_rel: float = DEFAULT_SIGMA_CINT_REL,
    leakage_mean_a: float = DEFAULT_LEAKAGE_MEAN_A,
) -> np.ndarray:
    """The paired per-pixel draw: row *k* holds :class:`PixelVariation`'s
    three fields for pixel *k*, drawn from child stream *k* of ``rng``
    (:func:`~repro.core.rng.child_streams`) with the bits of
    :meth:`PixelVariation.draw`, so one pixel never shifts another's."""
    normals = np.empty((count, 3))
    for index, child in enumerate(child_streams(rng, count)):
        child.standard_normal(out=normals[index])
    loc = np.array([0.0, 0.0, leakage_mean_a])
    scale = np.array([sigma_offset_v, sigma_cint_rel, 0.5 * leakage_mean_a])
    variations = loc + scale * normals
    np.abs(variations[:, 2], out=variations[:, 2])
    return variations


def pixel_adc(
    comparator_offset_v: float, cint_relative_error: float, leakage_a: float
) -> SawtoothAdc:
    """One site's Fig. 3 converter (100 fF Cint, 1 V swing, 50 ns
    comparator delay, 100 ns reset pulse) with its drawn mismatch."""
    return SawtoothAdc(
        cint=Capacitor(100 * fF * (1.0 + cint_relative_error)),
        comparator=Comparator(
            threshold_v=1.0, offset_v=comparator_offset_v, delay_s=50 * ns, noise_rms_v=0.002
        ),
        v_reset=0.0,
        tau_delay_s=100 * ns,
        leakage_a=leakage_a,
    )


class DnaSensorPixel:
    """One of the 16x8 sensor sites: a :func:`pixel_adc` converter, its
    counter and a redox-cycling sensor.

    Parameters
    ----------
    variation:
        This pixel's parameter deviations.
    counter_bits:
        Counter width; the counter saturates at full scale.
    """

    def __init__(
        self,
        variation: PixelVariation | None = None,
        counter_bits: int = 24,
        sensor: RedoxCyclingSensor | None = None,
    ) -> None:
        self.variation = variation or PixelVariation()
        self.adc = pixel_adc(
            self.variation.comparator_offset_v,
            self.variation.cint_relative_error,
            self.variation.leakage_a,
        )
        self.counter = PixelCounter(bits=counter_bits)
        self.sensor = sensor or RedoxCyclingSensor()
        self.gain_correction = 1.0  # set by chip auto-calibration

    # ------------------------------------------------------------------
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
