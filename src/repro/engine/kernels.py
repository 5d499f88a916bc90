"""Closed-form array kernels for the Fig. 3 sawtooth-ADC physics.

Every function here is the vectorised twin of a scalar method on
:class:`~repro.pixel.sawtooth_adc.SawtoothAdc` /
:class:`~repro.pixel.pixel.DnaSensorPixel`, evaluated over arbitrary
ndarray shapes (typically ``(n_chips, rows, cols)``) with NumPy
broadcasting instead of one Python object per pixel.

Parity contract with the object model (enforced by
``tests/test_engine_kernels.py`` / ``tests/test_engine_parity_edges.py``):

* **Deterministic quantities** — ramp time, cycle period, frequency,
  inverse transfer, host-side current estimates, calibration
  corrections — are the *same formulas in the same operation order* and
  match the object model bit for bit (including the dead-time-compressed
  top decade at 100 nA, the quantisation-dominated bottom decade at
  1 pA, and the never-fires regime where leakage >= signal).
* **Noiseless counting** (``noise_rms_v == 0``) matches
  :meth:`SawtoothAdc.count_in_frame` exactly for matching start phases.
  With noise an explicit ``start_phase`` only removes the phase draw —
  counts can still differ by the jitter realisation (below).
* **Noisy counting** uses the same Gaussian accumulation the object
  model applies above ~2000 expected counts, but applies it for *all*
  expected counts and draws its random variates as whole-array vectors
  (one uniform array for start phases, one normal array for jitter)
  instead of per-pixel interleaved scalars.  Counts therefore agree
  with the object model only in distribution: per site the difference
  is bounded by 1 count of start-phase quantisation plus the cycle
  jitter (sigma from :func:`count_noise_sigma`, typically << 1 count).

The kernels never allocate per-pixel Python objects, so a 128x128 array
(or a batch of them) costs a handful of vector operations.
"""

from __future__ import annotations

import numpy as np

from ..core.rng import RngLike, ensure_rng
from ..core.units import fF
from ..pixel.pixel import DEAD_PIXEL_LEAKAGE_A  # single source, shared with is_dead()


def net_current(i_sensor, leakage_a):
    """Charging current after subtracting node leakage."""
    return np.asarray(i_sensor, dtype=float) - leakage_a


def dead_time(comparator_delay_s, tau_delay_s):
    """Per-cycle fixed time: comparator delay + reset pulse."""
    return np.asarray(comparator_delay_s, dtype=float) + tau_delay_s


def ramp_time(i_sensor, cint_f, swing_v, leakage_a=0.0):
    """tau1: time to slew Cint across the swing; ``inf`` where the pixel
    never fires (current at or below the leakage floor).

    The object model raises ``ValueError`` there; callers of the kernel
    map the infinite ramp to a zero count instead.
    """
    net = net_current(i_sensor, leakage_a)
    fires = net > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ramp = np.where(
            fires,
            np.asarray(cint_f, dtype=float) * swing_v / np.where(fires, net, 1.0),
            np.inf,
        )
    return ramp


def cycle_period(i_sensor, cint_f, swing_v, leakage_a, comparator_delay_s, tau_delay_s):
    """tau2 of Fig. 3: one full sawtooth period (``inf`` if never firing)."""
    return ramp_time(i_sensor, cint_f, swing_v, leakage_a) + dead_time(
        comparator_delay_s, tau_delay_s
    )


def frequency(i_sensor, cint_f, swing_v, leakage_a, comparator_delay_s, tau_delay_s):
    """Reset-pulse frequency; 0 where the pixel cannot fire."""
    period = cycle_period(i_sensor, cint_f, swing_v, leakage_a, comparator_delay_s, tau_delay_s)
    with np.errstate(divide="ignore"):
        return np.where(np.isfinite(period), 1.0 / period, 0.0)


def ideal_frequency(i_sensor, cint_f, swing_v):
    """The textbook I/(Cint*swing) line (no dead time, no leakage)."""
    i = np.asarray(i_sensor, dtype=float)
    return np.maximum(0.0, i) / (np.asarray(cint_f, dtype=float) * swing_v)


def max_frequency(comparator_delay_s, tau_delay_s):
    """Dead-time-limited ceiling 1/(tau_cmp + tau_delay)."""
    return 1.0 / dead_time(comparator_delay_s, tau_delay_s)


def current_from_frequency(
    frequency_hz, cint_f, swing_v, leakage_a, comparator_delay_s, tau_delay_s
):
    """Controller-side inverse transfer (dead-time corrected), vectorised.

    I = C*dV / (1/f - dead) + leakage.  Zero where f <= 0; raises where a
    frequency exceeds the dead-time ceiling (same as the object model).
    """
    f = np.asarray(frequency_hz, dtype=float)
    dead = dead_time(comparator_delay_s, tau_delay_s)
    positive = f > 0
    with np.errstate(divide="ignore"):
        period = np.where(positive, 1.0 / np.where(positive, f, 1.0), np.inf)
    ramp = period - dead
    if np.any(positive & (ramp <= 0)):
        bad = np.max(np.where(positive & (ramp <= 0), f, 0.0))
        raise ValueError(f"frequency {bad} Hz exceeds the dead-time limit")
    with np.errstate(divide="ignore"):
        current = np.asarray(cint_f, dtype=float) * swing_v / ramp + leakage_a
    return np.where(positive, current, 0.0)


def count_noise_sigma(
    i_sensor,
    frame_s,
    cint_f,
    swing_v,
    leakage_a,
    comparator_delay_s,
    tau_delay_s,
    noise_rms_v,
):
    """Standard deviation of the frame count from comparator noise.

    Each cycle's ramp varies by ``sigma_T = ramp * (sigma_V / swing)``;
    the frame accumulates ``sqrt(N)`` of them.  Used both by
    :func:`count_in_frame` and by parity tests to budget tolerances.
    """
    ramp = ramp_time(i_sensor, cint_f, swing_v, leakage_a)
    fires = np.isfinite(ramp)
    period = ramp + dead_time(comparator_delay_s, tau_delay_s)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = np.where(fires, frame_s / period, 0.0)
        sigma_cycle = np.where(fires, ramp, 0.0) * (noise_rms_v / np.asarray(swing_v, dtype=float))
        sigma = np.sqrt(expected) * np.where(fires, sigma_cycle / period, 0.0)
    return np.where(fires, sigma, 0.0)


def saturate_counts(counts, counter_bits):
    """Clip counts at the n-bit counter's full scale (saturating mode,
    as :class:`~repro.pixel.counter.PixelCounter` does).

    Accepts the same [1, 64] width range as PixelCounter; at >= 63 bits
    the full scale is at or above the int64 ceiling, so non-negative
    kernel counts can never overflow and no clipping is needed.
    """
    if not 1 <= counter_bits <= 64:
        raise ValueError("counter width must lie in [1, 64]")
    if counter_bits >= 63:
        return counts
    full_scale = (1 << counter_bits) - 1
    return np.minimum(counts, full_scale)


def count_in_frame(
    i_sensor,
    frame_s: float,
    *,
    cint_f,
    swing_v,
    leakage_a=0.0,
    comparator_delay_s=0.0,
    tau_delay_s=100e-9,
    noise_rms_v=0.0,
    rng: RngLike = None,
    start_phase=None,
    jitter_z=None,
    counter_bits: int | None = None,
) -> np.ndarray:
    """Number of reset pulses per pixel within a counting frame.

    The vectorised A/D conversion: count = floor(expected + phase +
    jitter), clipped at zero and (optionally) at the counter full scale;
    pixels whose current sits at or below the leakage floor read 0.

    Stream discipline (differs from the per-object model, see module
    docstring): when ``start_phase`` is ``None`` one uniform array is
    drawn for all pixels, then — if ``noise_rms_v > 0`` — one standard
    normal array for the accumulated cycle jitter.  ``jitter_z``
    supplies that standard-normal array explicitly
    (``vchip.count_chips`` replays each stacked unit's own stream
    draws); with
    both ``start_phase`` and ``jitter_z`` given the conversion is fully
    deterministic and ``rng`` is never consulted.
    """
    if frame_s <= 0:
        raise ValueError("frame must be positive")
    i = np.asarray(i_sensor, dtype=float)
    shape = np.broadcast_shapes(
        i.shape,
        np.shape(cint_f),
        np.shape(swing_v),
        np.shape(leakage_a),
        np.shape(noise_rms_v),
        () if start_phase is None else np.shape(start_phase),
    )
    ramp = np.broadcast_to(ramp_time(i, cint_f, swing_v, leakage_a), shape)
    fires = np.isfinite(ramp)
    period = ramp + dead_time(comparator_delay_s, tau_delay_s)
    with np.errstate(invalid="ignore"):
        expected = np.where(fires, frame_s / period, 0.0)

    generator: np.random.Generator | None = None
    if start_phase is None:
        generator = ensure_rng(rng)
        phase = generator.uniform(0.0, 1.0, size=shape)
    else:
        phase = np.broadcast_to(np.asarray(start_phase, dtype=float), shape)
        if np.any((phase < 0.0) | (phase > 1.0)):
            raise ValueError("start_phase must lie in [0, 1]")

    value = expected + phase
    if np.any(np.asarray(noise_rms_v, dtype=float) > 0):
        # The same envelope parity tests budget their tolerances with.
        sigma = count_noise_sigma(
            i, frame_s, cint_f, swing_v, leakage_a, comparator_delay_s, tau_delay_s, noise_rms_v
        )
        if jitter_z is None:
            if generator is None:
                generator = ensure_rng(rng)
            jitter_z = generator.normal(0.0, 1.0, size=shape)
        else:
            jitter_z = np.broadcast_to(np.asarray(jitter_z, dtype=float), shape)
        value = value + jitter_z * sigma

    counts = np.floor(value).astype(np.int64)
    counts = np.where(fires, np.maximum(counts, 0), np.int64(0))
    if counter_bits is not None:
        counts = saturate_counts(counts, counter_bits)
    return counts


def measured_frequency(counts, frame_s):
    """count / frame — the quantised frequency estimate."""
    if frame_s <= 0:
        raise ValueError("frame must be positive")
    return np.asarray(counts, dtype=float) / frame_s


def host_current_estimate(
    counts,
    frame_s: float,
    cint_nominal_f,
    gain_correction=1.0,
    swing_nominal_v: float = 1.0,
) -> np.ndarray:
    """Host-side conversion of counts back to amperes.

    Mirrors :meth:`DnaSensorPixel.current_estimate` operation for
    operation (``frequency * nominal_cint * nominal_swing * gain``) so
    object-model numbers are reproduced bit for bit.
    """
    if frame_s <= 0:
        raise ValueError("frame must be positive")
    counts = np.asarray(counts)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    return counts / frame_s * cint_nominal_f * swing_nominal_v * gain_correction


def calibration_corrections(
    counts,
    i_reference,
    frame_s: float,
    dead_time_s: float,
    cint_nominal_f: float = 100 * fF,
    swing_nominal_v: float = 1.0,
) -> np.ndarray:
    """Gain corrections from a calibration conversion, vectorised.

    expected = 1/(Cnom*swing/i_ref + dead); correction = expected /
    (count/frame) — the formula of :meth:`DnaSensorPixel.calibrate`.
    Raises when any pixel produced no counts (cannot calibrate), as the
    object model does.
    """
    counts = np.asarray(counts)
    i_ref = np.asarray(i_reference, dtype=float)
    if np.any(i_ref <= 0):
        raise ValueError("reference current must be positive")
    zeros = int(np.count_nonzero(counts == 0))
    if zeros:
        raise ValueError(
            f"reference current produced no counts at {zeros} site(s); cannot calibrate"
        )
    measured = counts / frame_s
    nominal_period = (cint_nominal_f * swing_nominal_v) / i_ref + dead_time_s
    expected = 1.0 / nominal_period
    return expected / measured


def sensor_currents(
    surface_concentration,
    diffusion_coefficient_term: float,
    geometry_factor: float,
    background_current_a: float,
    bias_ok=True,
) -> np.ndarray:
    """Redox-cycling transduction, vectorised over sites.

    ``diffusion_coefficient_term`` is ``electrons * FARADAY * D`` so the
    multiplication order matches
    :meth:`RedoxCyclingSensor.current` exactly (bit parity); mis-biased
    chips read background only.
    """
    conc = np.asarray(surface_concentration, dtype=float)
    if np.any(conc < 0):
        raise ValueError("concentration must be non-negative")
    diffusive = diffusion_coefficient_term * conc * geometry_factor
    current = background_current_a + diffusive
    return np.where(bias_ok, current, background_current_a)


def dead_pixel_mask(leakage_a, floor_a: float = DEAD_PIXEL_LEAKAGE_A) -> np.ndarray:
    """Pixels whose leakage exceeds the smallest measurable current."""
    return np.asarray(leakage_a, dtype=float) >= floor_a
