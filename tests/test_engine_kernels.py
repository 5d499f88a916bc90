"""repro.engine.kernels vs the per-object Fig. 3 ADC — parity contract.

Deterministic quantities must match :class:`SawtoothAdc` bit for bit;
noiseless counting must match exactly; noisy counting is checked in
distribution (see test_engine_parity_edges.py for the edge decades).
"""

import numpy as np
import pytest

from repro.core.units import fF, ns
from repro.devices.comparator import Comparator
from repro.engine import kernels
from repro.pixel.pixel import DnaSensorPixel, PixelVariation
from repro.pixel.sawtooth_adc import SawtoothAdc

CURRENTS = np.logspace(-12.3, -6.8, 45)  # straddles the 1 pA - 100 nA window


@pytest.fixture
def adc():
    """Noiseless reference ADC with a realistic leakage floor."""
    return SawtoothAdc(leakage_a=2e-15)


def kernel_kwargs(adc):
    return {
        "cint_f": adc.cint.capacitance_f,
        "swing_v": adc.swing_v,
        "leakage_a": adc.leakage_a,
        "comparator_delay_s": adc.comparator.delay_s,
        "tau_delay_s": adc.tau_delay_s,
    }


class TestDeterministicParity:
    def test_ramp_time_bitwise(self, adc):
        ramp = kernels.ramp_time(CURRENTS, adc.cint.capacitance_f, adc.swing_v, adc.leakage_a)
        expected = [adc.ramp_time(float(i)) for i in CURRENTS]
        np.testing.assert_array_equal(ramp, expected)

    def test_cycle_period_and_frequency_bitwise(self, adc):
        kw = kernel_kwargs(adc)
        period = kernels.cycle_period(CURRENTS, *kw.values())
        freq = kernels.frequency(CURRENTS, *kw.values())
        np.testing.assert_array_equal(period, [adc.cycle_period(float(i)) for i in CURRENTS])
        np.testing.assert_array_equal(freq, [adc.frequency(float(i)) for i in CURRENTS])

    def test_ideal_frequency_bitwise(self, adc):
        ideal = kernels.ideal_frequency(CURRENTS, adc.cint.capacitance_f, adc.swing_v)
        np.testing.assert_array_equal(ideal, [adc.ideal_frequency(float(i)) for i in CURRENTS])

    def test_max_frequency(self, adc):
        assert kernels.max_frequency(adc.comparator.delay_s, adc.tau_delay_s) == adc.max_frequency()

    def test_inverse_transfer_bitwise(self, adc):
        frequencies = np.array([0.0, 10.0, 1e3, 1e5, 1e6])
        kw = kernel_kwargs(adc)
        estimate = kernels.current_from_frequency(frequencies, *kw.values())
        np.testing.assert_array_equal(
            estimate, [adc.current_from_frequency(float(f)) for f in frequencies]
        )

    def test_inverse_transfer_rejects_over_ceiling(self, adc):
        kw = kernel_kwargs(adc)
        over = 1.01 * adc.max_frequency()
        with pytest.raises(ValueError):
            kernels.current_from_frequency(np.array([10.0, over]), *kw.values())

    def test_never_firing_pixel_maps_to_inf_and_zero(self, adc):
        kw = kernel_kwargs(adc)
        ramp = kernels.ramp_time(1e-15, adc.cint.capacitance_f, adc.swing_v, adc.leakage_a)
        assert np.isinf(ramp)
        assert kernels.frequency(1e-15, *kw.values()) == 0.0
        # The object model raises instead; frequency() maps it to 0 too.
        assert adc.frequency(1e-15) == 0.0


class TestNoiselessCounting:
    @pytest.mark.parametrize("phase", [0.0, 0.25, 0.999, 1.0])
    def test_counts_bitwise_across_window(self, adc, phase):
        counts = kernels.count_in_frame(
            CURRENTS, 2.0, start_phase=phase, **kernel_kwargs(adc)
        )
        expected = [adc.count_in_frame(float(i), 2.0, start_phase=phase) for i in CURRENTS]
        assert counts.tolist() == expected

    def test_drawn_phase_is_reproducible(self, adc):
        kw = kernel_kwargs(adc)
        a = kernels.count_in_frame(CURRENTS, 1.0, rng=5, **kw)
        b = kernels.count_in_frame(CURRENTS, 1.0, rng=5, **kw)
        np.testing.assert_array_equal(a, b)

    def test_phase_array_broadcasts_against_scalar_parameters(self, adc):
        """A per-pixel start_phase array sets the output shape even when
        every ADC parameter is scalar."""
        phases = np.array([[0.0, 0.25], [0.5, 0.75]])
        counts = kernels.count_in_frame(1e-9, 1.0, start_phase=phases, **kernel_kwargs(adc))
        assert counts.shape == (2, 2)
        expected = [adc.count_in_frame(1e-9, 1.0, start_phase=float(p)) for p in phases.reshape(-1)]
        assert counts.reshape(-1).tolist() == expected

    def test_invalid_arguments(self, adc):
        kw = kernel_kwargs(adc)
        with pytest.raises(ValueError):
            kernels.count_in_frame(CURRENTS, 0.0, **kw)
        with pytest.raises(ValueError):
            kernels.count_in_frame(CURRENTS, 1.0, start_phase=1.5, **kw)

    def test_counter_saturation_matches_pixel_counter(self):
        """A deliberately narrow counter saturates identically in both
        models (PixelCounter holds at full scale)."""
        pixel = DnaSensorPixel(PixelVariation(), counter_bits=8)
        pixel.adc.comparator.noise_rms_v = 0.0
        counts = kernels.count_in_frame(
            np.array([50e-9]),
            1.0,
            start_phase=0.5,
            counter_bits=8,
            cint_f=pixel.adc.cint.capacitance_f,
            swing_v=pixel.adc.swing_v,
            leakage_a=pixel.adc.leakage_a,
            comparator_delay_s=pixel.adc.comparator.delay_s,
            tau_delay_s=pixel.adc.tau_delay_s,
        )
        assert counts[0] == 255 == pixel.convert_current(50e-9, 1.0, rng=1)

    def test_saturate_counts_validation(self):
        with pytest.raises(ValueError):
            kernels.saturate_counts(np.array([1]), 65)
        with pytest.raises(ValueError):
            kernels.saturate_counts(np.array([1]), 0)

    def test_wide_counters_accept_pixel_counter_range(self):
        """Widths up to PixelCounter's 64-bit limit pass through: an
        int64 count can never reach a >= 63-bit full scale."""
        big = np.array([np.iinfo(np.int64).max])
        np.testing.assert_array_equal(kernels.saturate_counts(big, 64), big)
        np.testing.assert_array_equal(kernels.saturate_counts(big, 63), big)
        np.testing.assert_array_equal(kernels.saturate_counts(big, 62), [(1 << 62) - 1])


class TestHostSideKernels:
    def test_host_current_estimate_bitwise(self):
        variation = PixelVariation(comparator_offset_v=0.004, cint_relative_error=-0.02,
                                   leakage_a=1e-15)
        pixel = DnaSensorPixel(variation)
        pixel.gain_correction = 1.0173
        counts = np.arange(0, 5000, 37)
        nominal = pixel.adc.cint.capacitance_f / (1.0 + variation.cint_relative_error)
        estimate = kernels.host_current_estimate(
            counts, 0.5, nominal, pixel.gain_correction
        )
        expected = [pixel.current_estimate(int(c), 0.5) for c in counts]
        np.testing.assert_array_equal(estimate, expected)

    def test_host_current_estimate_validation(self):
        with pytest.raises(ValueError):
            kernels.host_current_estimate(np.array([1]), 0.0, 100 * fF)
        with pytest.raises(ValueError):
            kernels.host_current_estimate(np.array([-1]), 1.0, 100 * fF)

    def test_calibration_corrections_match_pixel_calibrate(self):
        variation = PixelVariation(comparator_offset_v=-0.006, cint_relative_error=0.03)
        i_ref = 8e-9
        frame = 0.05
        probe = DnaSensorPixel(variation)
        count = probe.convert_current(i_ref, frame, rng=5)
        fresh = DnaSensorPixel(variation)
        fresh.calibrate(i_ref, frame, rng=5)
        correction = kernels.calibration_corrections(
            np.array([count]), i_ref, frame, fresh.adc.dead_time()
        )
        assert correction[0] == fresh.gain_correction

    def test_calibration_rejects_zero_counts_and_bad_reference(self):
        with pytest.raises(ValueError, match="no counts"):
            kernels.calibration_corrections(np.array([10, 0]), 1e-9, 0.05, 150 * ns)
        with pytest.raises(ValueError, match="positive"):
            kernels.calibration_corrections(np.array([10]), 0.0, 0.05, 150 * ns)

    def test_dead_pixel_mask_matches_is_dead(self):
        leakages = np.array([0.0, 2e-15, 0.99e-12, 1e-12, 10e-12])
        mask = kernels.dead_pixel_mask(leakages)
        expected = []
        for leak in leakages:
            pixel = DnaSensorPixel(PixelVariation(leakage_a=float(leak)))
            expected.append(pixel.is_dead())
        assert mask.tolist() == expected

    def test_sensor_currents_bitwise(self):
        from repro.electrochem.redox_cycling import RedoxCyclingSensor

        sensor = RedoxCyclingSensor()
        conc = np.array([0.0, 1e-6, 5e-4, 2e-3])
        currents = kernels.sensor_currents(sensor, conc)
        np.testing.assert_array_equal(currents, [sensor.current(float(c)) for c in conc])
        # Mis-biased chips read background only.
        misbiased = kernels.sensor_currents(sensor, conc, bias_ok=False)
        np.testing.assert_array_equal(misbiased, np.full_like(conc, sensor.background_current))


class TestNoisyCountingDistribution:
    def test_gaussian_jitter_stays_within_budget(self):
        """Noisy counts sit within the accumulated-jitter envelope of
        the noiseless count (the documented cross-backend tolerance)."""
        comparator = Comparator(threshold_v=1.0, delay_s=50 * ns, noise_rms_v=0.002)
        adc = SawtoothAdc(comparator=comparator, leakage_a=2e-15)
        kw = kernel_kwargs(adc)
        currents = np.logspace(-11, -7, 30)
        sigma = kernels.count_noise_sigma(currents, 1.0, **kw, noise_rms_v=0.002)
        noiseless = kernels.count_in_frame(currents, 1.0, start_phase=0.5, **kw)
        noisy = kernels.count_in_frame(
            currents, 1.0, start_phase=0.5, noise_rms_v=0.002, rng=9, **kw
        )
        budget = 1 + np.ceil(8 * sigma)
        assert np.all(np.abs(noisy - noiseless) <= budget)

    def test_object_model_within_same_budget(self):
        comparator = Comparator(threshold_v=1.0, delay_s=50 * ns, noise_rms_v=0.002)
        adc = SawtoothAdc(comparator=comparator, leakage_a=2e-15)
        kw = kernel_kwargs(adc)
        currents = np.logspace(-11, -7, 12)
        sigma = kernels.count_noise_sigma(currents, 1.0, **kw, noise_rms_v=0.002)
        noiseless = kernels.count_in_frame(currents, 1.0, start_phase=0.5, **kw)
        budget = 1 + np.ceil(8 * sigma)
        rng = np.random.default_rng(3)
        counts = [adc.count_in_frame(float(i), 1.0, rng=rng) for i in currents]
        assert np.all(np.abs(np.asarray(counts) - noiseless) <= budget)
