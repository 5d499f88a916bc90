"""The Fig. 3 sawtooth current-to-frequency ADC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.capacitor import Capacitor
from repro.devices.comparator import Comparator
from repro.pixel.sawtooth_adc import SawtoothAdc


@pytest.fixture
def adc():
    return SawtoothAdc()


class TestTiming:
    def test_ramp_time_inverse_in_current(self, adc):
        assert adc.ramp_time(2e-9) == pytest.approx(adc.ramp_time(1e-9) / 2)

    def test_cycle_decomposition(self, adc):
        # tau2 = tau1 + comparator delay + tau_delay (Fig. 3 labels).
        i = 1e-9
        assert adc.cycle_period(i) == pytest.approx(
            adc.ramp_time(i) + adc.comparator.delay_s + adc.tau_delay_s
        )

    def test_dead_time(self, adc):
        assert adc.dead_time() == pytest.approx(150e-9)

    def test_nominal_design_frequencies(self, adc):
        # Cint = 100 fF, 1 V swing: 10 Hz at 1 pA, ~1 MHz at 100 nA.
        assert adc.frequency(1e-12) == pytest.approx(10.0, rel=1e-3)
        assert adc.frequency(100e-9) == pytest.approx(870e3, rel=0.02)

    def test_max_frequency_dead_time_limited(self, adc):
        assert adc.max_frequency() == pytest.approx(1 / 150e-9)

    def test_frequency_zero_below_leakage(self):
        adc = SawtoothAdc(leakage_a=2e-12)
        assert adc.frequency(1e-12) == 0.0
        assert adc.frequency(3e-12) > 0.0

    def test_threshold_above_reset_required(self):
        with pytest.raises(ValueError):
            SawtoothAdc(comparator=Comparator(threshold_v=-0.5))


class TestTransfer:
    def test_approximately_proportional(self, adc):
        # The paper's claim, mid-range: within 2% of proportional.
        f1 = adc.frequency(1e-10)
        f2 = adc.frequency(1e-9)
        assert f2 / f1 == pytest.approx(10.0, rel=0.02)

    def test_compression_at_high_current(self, adc):
        # Dead time compresses the top decade.
        ratio = adc.frequency(100e-9) / adc.frequency(10e-9)
        assert ratio < 9.5

    def test_inverse_transfer_roundtrip(self, adc):
        for i in (1e-12, 1e-10, 1e-8, 1e-7):
            f = adc.frequency(i)
            assert adc.current_from_frequency(f) == pytest.approx(i, rel=1e-6)

    def test_inverse_transfer_rejects_impossible_frequency(self, adc):
        with pytest.raises(ValueError):
            adc.current_from_frequency(2 * adc.max_frequency())

    def test_inverse_transfer_zero(self, adc):
        assert adc.current_from_frequency(0.0) == 0.0

    @given(exp=st.floats(min_value=-12, max_value=-7))
    @settings(max_examples=40, deadline=None)
    def test_frequency_monotone_in_current(self, exp):
        adc = SawtoothAdc()
        i = 10.0**exp
        assert adc.frequency(i * 1.1) > adc.frequency(i)


class TestCounting:
    def test_count_matches_frequency(self, adc):
        count = adc.count_in_frame(1e-9, 1.0, start_phase=0.0)
        assert count == pytest.approx(adc.frequency(1e-9), abs=1.5)

    def test_count_scales_with_frame(self, adc):
        c1 = adc.count_in_frame(1e-9, 0.5, start_phase=0.0)
        c2 = adc.count_in_frame(1e-9, 2.0, start_phase=0.0)
        assert c2 == pytest.approx(4 * c1, rel=0.01)

    def test_count_zero_below_floor(self):
        adc = SawtoothAdc(leakage_a=5e-12)
        assert adc.count_in_frame(1e-12, 1.0) == 0

    def test_quantisation_at_low_current(self, adc):
        # 1 pA at 0.1 s frame: expected count 1 -> severe quantisation.
        counts = {adc.count_in_frame(1e-12, 0.1, rng=i) for i in range(20)}
        assert counts <= {0, 1, 2}

    def test_gaussian_fast_path_consistent(self):
        # Same current through event loop (short frame) and Gaussian
        # path (long frame) must give consistent rates.
        adc = SawtoothAdc(comparator=Comparator(threshold_v=1.0, delay_s=50e-9, noise_rms_v=0.002))
        i = 1e-9
        slow = np.mean([adc.count_in_frame(i, 0.05, rng=s) / 0.05 for s in range(10)])
        fast = np.mean([adc.count_in_frame(i, 2.0, rng=s) / 2.0 for s in range(10)])
        assert fast == pytest.approx(slow, rel=0.05)

    def test_invalid_frame(self, adc):
        with pytest.raises(ValueError):
            adc.count_in_frame(1e-9, 0.0)

    def test_invalid_phase(self, adc):
        with pytest.raises(ValueError):
            adc.count_in_frame(1e-9, 1.0, start_phase=2.0)

    @pytest.mark.parametrize("noise_rms_v", [0.0, 0.002])
    def test_nan_current_is_rejected_before_any_draw(self, noise_rms_v):
        # It used to fail in int(frame / period) when noisy and count 0
        # when noiseless.
        adc = SawtoothAdc(comparator=Comparator(threshold_v=1.0, noise_rms_v=noise_rms_v))
        generator = np.random.default_rng(3)
        state = generator.bit_generator.state
        with pytest.raises(ValueError, match="sensor current is NaN"):
            adc.count_in_frame(float("nan"), 1.0, rng=generator)
        assert generator.bit_generator.state == state

    @pytest.mark.parametrize("phase", [5.0, -0.1, float("nan")])
    def test_out_of_range_phase_is_rejected_below_the_floor_too(self, phase):
        # Below the leakage floor a bad phase used to count 0 silently.
        adc = SawtoothAdc(leakage_a=5e-12)
        with pytest.raises(ValueError, match="start_phase"):
            adc.count_in_frame(1e-12, 1.0, start_phase=phase)

    def test_infinite_current_counts_at_the_dead_time_limit(self, adc):
        frame = 1e-3
        count = adc.count_in_frame(float("inf"), frame, rng=0, start_phase=0.0)
        assert count == int(frame / adc.dead_time())

    def test_measured_frequency(self, adc):
        f = adc.measured_frequency(1e-9, 1.0, rng=1)
        assert f == pytest.approx(adc.frequency(1e-9), rel=0.01)

    @given(
        exp=st.floats(min_value=-11, max_value=-8),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_count_monotone_in_current_statistically(self, exp, seed):
        adc = SawtoothAdc()
        i = 10.0**exp
        low = adc.count_in_frame(i, 1.0, rng=seed)
        high = adc.count_in_frame(i * 3, 1.0, rng=seed)
        assert high >= low


class TestWaveform:
    def test_waveform_reaches_threshold(self, adc):
        period = adc.cycle_period(1e-9)
        wave = adc.waveform(1e-9, 3 * period, period / 500)
        assert wave.peak_abs() == pytest.approx(adc.swing_v, rel=0.05)

    def test_waveform_resets(self, adc):
        period = adc.cycle_period(1e-9)
        wave = adc.waveform(1e-9, 3 * period, period / 500)
        # After a reset the waveform returns near v_reset.
        late = wave.samples[int(1.1 * 500):int(1.2 * 500)]
        assert late.min() < 0.3 * adc.swing_v

    def test_reset_pulse_times_spacing(self, adc):
        times = adc.reset_pulse_times(1e-9, 1e-3)
        spacing = np.diff(times)
        assert np.allclose(spacing, adc.cycle_period(1e-9), rtol=1e-9)

    def test_reset_pulse_times_empty_below_floor(self):
        adc = SawtoothAdc(leakage_a=5e-12)
        assert len(adc.reset_pulse_times(1e-12, 1.0)) == 0

    def test_waveform_invalid_args(self, adc):
        with pytest.raises(ValueError):
            adc.waveform(1e-9, 0.0, 1e-9)


class TestLeakageFloor:
    def test_leakage_biases_low_currents(self):
        leaky = SawtoothAdc(leakage_a=0.5e-12)
        clean = SawtoothAdc()
        # At 1 pA, half the current is eaten by leakage.
        assert leaky.frequency(1e-12) == pytest.approx(0.5 * clean.frequency(1e-12), rel=0.01)

    def test_leakage_negligible_at_high_current(self):
        leaky = SawtoothAdc(leakage_a=0.5e-12)
        clean = SawtoothAdc()
        assert leaky.frequency(10e-9) == pytest.approx(clean.frequency(10e-9), rel=1e-3)

    def test_cint_leak_also_floors(self):
        adc = SawtoothAdc(cint=Capacitor(100e-15, leakage_conductance_s=1e-11))
        # G*V at threshold = 10 pA: a 1 pA source can never cross.
        assert adc.frequency(1e-12) == 0.0
