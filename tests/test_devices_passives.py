"""Switches, capacitors, mirrors, bandgap and DAC models."""

import numpy as np
import pytest

from repro.devices.bandgap import BandgapReference
from repro.devices.capacitor import Capacitor
from repro.devices.current_mirror import CurrentMirror, ReferenceCurrentFanout
from repro.devices.dac import ResistorStringDac
from repro.devices.source_follower import default_follower
from repro.devices.switches import MosSwitch


class TestMosSwitch:
    def test_on_resistance_increases_with_signal(self):
        sw = MosSwitch(1e-6, 0.5e-6)
        assert sw.on_resistance(2.0) > sw.on_resistance(0.5)

    def test_on_resistance_clamped_near_cutoff(self):
        sw = MosSwitch(1e-6, 0.5e-6)
        assert np.isfinite(sw.on_resistance(4.5))

    def test_channel_charge_scales_with_area(self):
        small = MosSwitch(1e-6, 0.5e-6)
        big = MosSwitch(2e-6, 1e-6)
        assert big.channel_charge(1.0) == pytest.approx(4 * small.channel_charge(1.0))

    def test_injection_step_negative(self):
        sw = MosSwitch(1e-6, 0.5e-6)
        assert sw.injection_step(1.0, 100e-15) < 0

    def test_injection_smaller_on_bigger_cap(self):
        sw = MosSwitch(1e-6, 0.5e-6)
        assert abs(sw.injection_step(1.0, 1e-12)) < abs(sw.injection_step(1.0, 100e-15))

    def test_injection_split_bounds(self):
        sw = MosSwitch(1e-6, 0.5e-6)
        with pytest.raises(ValueError):
            sw.injection_step(1.0, 1e-13, split=1.5)

    def test_clock_feedthrough_negative(self):
        sw = MosSwitch(1e-6, 0.5e-6)
        assert sw.clock_feedthrough(100e-15) < 0

    def test_droop_rate(self):
        sw = MosSwitch(1e-6, 0.5e-6)
        assert sw.droop_rate(100e-15) == pytest.approx(sw.off_leakage() / 100e-15)

    def test_settling_time_constant(self):
        sw = MosSwitch(1e-6, 0.5e-6)
        tau = sw.settling_time_constant(1.0, 1e-12)
        assert tau == pytest.approx(sw.on_resistance(1.0) * 1e-12)


class TestCapacitor:
    def test_charge_time_ideal(self):
        cap = Capacitor(100e-15)
        assert cap.charge_time(1e-9, 1.0) == pytest.approx(1e-4)

    def test_charge_time_with_leak_longer(self):
        ideal = Capacitor(100e-15)
        leaky = Capacitor(100e-15, leakage_conductance_s=1e-13)
        assert leaky.charge_time(1e-12, 1.0) > ideal.charge_time(1e-12, 1.0)

    def test_leak_limited_plateau_raises(self):
        leaky = Capacitor(100e-15, leakage_conductance_s=1e-12)
        # I/G = 0.5 V plateau < 1 V target.
        with pytest.raises(ValueError):
            leaky.charge_time(0.5e-12, 1.0)

    def test_droop(self):
        leaky = Capacitor(100e-15, leakage_conductance_s=1e-12)
        droop = leaky.droop(1.0, 1e-3)
        assert 0 < droop < 1.0

    def test_droop_zero_without_leak(self):
        assert Capacitor(100e-15).droop(1.0, 1.0) == 0.0

    def test_voltage_coefficient(self):
        cap = Capacitor(100e-15, voltage_coefficient=0.01)
        assert cap.effective_capacitance(1.0) == pytest.approx(101e-15)

    def test_invalid_capacitance(self):
        with pytest.raises(ValueError):
            Capacitor(0.0)


class TestCurrentMirror:
    def test_unity_gain_small_error(self):
        mirror = CurrentMirror.matched_pair(8e-6, 4e-6, rng=1)
        error = mirror.gain_error(1e-6)
        assert abs(error) < 0.1

    def test_gain_ratio(self):
        mirror = CurrentMirror.matched_pair(4e-6, 2e-6, gain=4.0, rng=2)
        assert mirror.nominal_gain == pytest.approx(4.0)
        assert mirror.transfer(1e-6) == pytest.approx(4e-6, rel=0.15)

    def test_larger_devices_match_better(self):
        errors_small, errors_big = [], []
        for seed in range(12):
            errors_small.append(abs(CurrentMirror.matched_pair(1e-6, 0.5e-6, rng=seed).gain_error(1e-6)))
            errors_big.append(abs(CurrentMirror.matched_pair(16e-6, 8e-6, rng=seed).gain_error(1e-6)))
        assert np.median(errors_big) < np.median(errors_small)

    def test_rejects_nonpositive_input(self):
        mirror = CurrentMirror.matched_pair(4e-6, 2e-6, rng=3)
        with pytest.raises(ValueError):
            mirror.transfer(0.0)

    @pytest.mark.parametrize("i_in", [1.0, 1e-30])
    def test_rejects_unreachable_input(self, i_in):
        # No gate voltage in [-1, vdd + 2] V carries this current at
        # vds = vdd/2: one amp is above the strong-inversion ceiling,
        # 1e-30 A below the subthreshold floor.
        mirror = CurrentMirror.matched_pair(4e-6, 2e-6, rng=3)
        with pytest.raises(ValueError, match="out of range"):
            mirror.transfer(i_in)

    def test_fanout_spread(self):
        fanout = ReferenceCurrentFanout.build(1e-6, count=16, rng=4)
        currents = fanout.branch_currents()
        assert len(currents) == 16
        assert fanout.spread() < 0.2
        assert np.mean(currents) == pytest.approx(1e-6, rel=0.1)

    def test_fanout_invalid(self):
        with pytest.raises(ValueError):
            ReferenceCurrentFanout.build(0.0, 4)


class TestSourceFollower:
    def test_gain_below_unity(self):
        follower = default_follower()
        assert 0.7 < follower.small_signal_gain() < 1.0

    def test_level_shift_positive(self):
        follower = default_follower()
        assert follower.level_shift() > 0.5  # above Vth

    def test_output_resistance(self):
        follower = default_follower()
        assert 100 < follower.output_resistance() < 1e6

    def test_output_for_input(self):
        follower = default_follower()
        assert follower.output_for_input(3.0) == pytest.approx(3.0 - follower.level_shift())


class TestBandgap:
    def test_nominal_voltage(self):
        bg = BandgapReference()
        assert bg.voltage(320.0) == pytest.approx(1.205)

    def test_curvature_peak(self):
        bg = BandgapReference()
        assert bg.voltage(320.0) > bg.voltage(273.0)
        assert bg.voltage(320.0) > bg.voltage(360.0)

    def test_tempco_reasonable(self):
        # First-order compensated bandgaps: tens of ppm/K.
        assert BandgapReference().tempco_ppm_per_k() < 100

    def test_sampled_parts_differ(self):
        a = BandgapReference.sample(rng=1)
        b = BandgapReference.sample(rng=2)
        assert a.voltage() != b.voltage()

    def test_trim_converges(self):
        bg = BandgapReference.sample(rng=3)
        bg.trim()
        assert abs(bg.voltage() - 1.205) < 0.002  # within one trim step

    def test_reference_current(self):
        bg = BandgapReference()
        assert bg.reference_current(1.2e6, 320.0) == pytest.approx(1.205 / 1.2e6)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            BandgapReference().voltage(0.0)


class TestDac:
    def test_endpoints(self):
        dac = ResistorStringDac(bits=8, v_low=0.0, v_high=5.0, resistor_sigma=0.0)
        assert dac.output(0) == pytest.approx(0.0)
        assert dac.output(255) == pytest.approx(5.0 * 255 / 256, rel=1e-6)

    def test_monotonic(self):
        dac = ResistorStringDac.sample(rng=1, bits=8)
        outputs = [dac.output(code) for code in range(256)]
        assert all(b > a for a, b in zip(outputs, outputs[1:]))

    def test_code_for_voltage_roundtrip(self):
        dac = ResistorStringDac.sample(rng=2, bits=8, v_low=0.0, v_high=2.0)
        code = dac.code_for_voltage(0.45)
        assert abs(dac.output(code) - 0.45) < 2 * dac.lsb

    def test_inl_dnl_small_for_good_resistors(self):
        dac = ResistorStringDac.sample(rng=3, bits=8, resistor_sigma=0.001)
        assert dac.worst_inl() < 0.5
        assert dac.worst_dnl() < 0.1

    def test_inl_grows_with_sigma(self):
        good = ResistorStringDac.sample(rng=4, bits=8, resistor_sigma=0.001)
        bad = ResistorStringDac.sample(rng=4, bits=8, resistor_sigma=0.05)
        assert bad.worst_inl() > good.worst_inl()

    def test_out_of_range_code(self):
        dac = ResistorStringDac(bits=8)
        with pytest.raises(ValueError):
            dac.output(256)

    def test_out_of_range_voltage(self):
        dac = ResistorStringDac(bits=8, v_low=0.0, v_high=5.0)
        with pytest.raises(ValueError):
            dac.code_for_voltage(6.0)

    def test_ideal_string_zero_inl(self):
        dac = ResistorStringDac(bits=6, resistor_sigma=0.0)
        assert dac.worst_inl() == pytest.approx(0.0, abs=1e-9)
