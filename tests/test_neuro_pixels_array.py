"""The calibrated neural pixel (M1/M2/S1) and the vectorised array."""

import numpy as np
import pytest

from repro.chip.neuro_chip import NeuralRecordingChip
from repro.core.signals import Trace
from repro.neuro.array import NeuralArrayModel, RecordedMovie
from repro.neuro.culture import ArrayGeometry, Culture
from repro.neuro.sensor_pixel import (
    NeuralPixelDesign,
    NeuralSensorPixel,
    ekv_ids_array,
    ekv_vgs_for_current_array,
)


class TestSinglePixel:
    def test_calibration_stores_voltage(self):
        pixel = NeuralSensorPixel(rng=1)
        stored = pixel.calibrate()
        assert 0.5 < stored < 3.0

    def test_readout_before_calibration_raises(self):
        pixel = NeuralSensorPixel(rng=2)
        with pytest.raises(RuntimeError):
            pixel.readout_current()

    def test_calibration_cancels_mismatch(self):
        offsets_cal, offsets_unc = [], []
        for seed in range(10):
            pixel = NeuralSensorPixel(rng=seed)
            unc = pixel.uncalibrated_current() - pixel.i_m2
            pixel.calibrate()
            offsets_unc.append(abs(unc))
            offsets_cal.append(abs(pixel.offset_current()))
        assert np.median(offsets_cal) < 0.2 * np.median(offsets_unc)

    def test_perfect_calibration_zero_offset(self):
        pixel = NeuralSensorPixel(rng=3)
        pixel.calibrate(include_imperfections=False)
        assert abs(pixel.input_referred_offset()) < 1e-4

    def test_signal_produces_difference_current(self):
        pixel = NeuralSensorPixel(rng=4)
        pixel.calibrate(include_imperfections=False)
        di = pixel.difference_current(1e-3) - pixel.difference_current(0.0)
        gm_eff = pixel.transconductance()
        assert di == pytest.approx(gm_eff * 1e-3, rel=0.05)

    def test_transconductance_positive(self):
        pixel = NeuralSensorPixel(rng=5)
        pixel.calibrate()
        assert pixel.transconductance() > 1e-6

    def test_droop_moves_offset(self):
        pixel = NeuralSensorPixel(rng=6)
        pixel.calibrate(include_imperfections=False)
        before = pixel.offset_current()
        pixel.droop(3600.0)  # an hour without recalibration
        after = pixel.offset_current()
        assert after != before

    def test_droop_requires_calibration(self):
        with pytest.raises(RuntimeError):
            NeuralSensorPixel(rng=7).droop(1.0)

    def test_design_validation(self):
        with pytest.raises(ValueError):
            NeuralPixelDesign(coupling_factor=0.0)
        with pytest.raises(ValueError):
            NeuralPixelDesign(calibration_current=-1.0)


class TestVectorisedEkv:
    def test_matches_object_model(self):
        from repro.core.process import C5_PROCESS
        from repro.devices.mosfet import Mosfet

        device = Mosfet(2e-6, 1e-6)
        beta = np.array([C5_PROCESS.mu_n_cox * 2.0])
        vth = np.array([C5_PROCESS.vth_n])
        for target in (1e-9, 1e-7, 1e-5):
            v_vec = ekv_vgs_for_current_array(np.array([target]), vth, beta, C5_PROCESS)[0]
            v_obj = device.vgs_for_current(target, vds=2.5)
            assert v_vec == pytest.approx(v_obj, abs=0.02)

    def test_ids_inverse_consistency(self):
        from repro.core.process import C5_PROCESS

        vth = np.full(100, C5_PROCESS.vth_n) + np.random.default_rng(1).normal(0, 0.01, 100)
        beta = np.full(100, C5_PROCESS.mu_n_cox * 2.0)
        targets = np.full(100, 5e-6)
        vgs = ekv_vgs_for_current_array(targets, vth, beta, C5_PROCESS)
        currents = ekv_ids_array(vgs, vth, beta, C5_PROCESS)
        assert np.allclose(currents, targets, rtol=1e-9)


class TestArrayModel:
    def test_calibration_reduces_spread(self, small_array):
        unc = small_array.uncalibrated_offset_currents()
        cal = small_array.offset_currents()
        assert np.std(cal) < 0.5 * np.std(unc)

    def test_input_referred_spread_below_signal_max(self, small_array):
        # Residual offsets must sit below the 5 mV maximum signal.
        sigma = np.std(small_array.input_referred_offsets())
        assert sigma < 5e-3

    def test_uncalibrated_spread_above_signal_min(self, small_array):
        # Uncalibrated spread dwarfs the 100 uV minimum signal — the
        # reason the calibration scheme exists.
        sigma = np.std(small_array.uncalibrated_offset_currents() / small_array.transconductance_plane())
        assert sigma > 100e-6 * 10

    def test_perfect_calibration_tiny_offsets(self):
        array = NeuralArrayModel(ArrayGeometry(8, 8, 7.8e-6), rng=1)
        array.calibrate(include_imperfections=False)
        assert np.max(np.abs(array.input_referred_offsets())) < 1e-6

    def test_pixel_currents_respond_to_signal(self, small_array):
        baseline = small_array.pixel_currents(0.0)
        driven = small_array.pixel_currents(1e-3)
        assert np.all(driven > baseline)

    def test_droop_shifts_stored_plane(self):
        array = NeuralArrayModel(ArrayGeometry(8, 8, 7.8e-6), rng=2)
        array.calibrate()
        before = array.stored_vgs.copy()
        array.droop(100.0)
        assert np.all(array.stored_vgs <= before)

    def test_uncalibrated_access_guarded(self):
        array = NeuralArrayModel(ArrayGeometry(8, 8, 7.8e-6), rng=3)
        with pytest.raises(RuntimeError):
            array.pixel_currents(0.0)

    def test_transconductance_plane_positive(self, small_array):
        assert np.all(small_array.transconductance_plane() > 0)


class TestRecording:
    def test_record_places_signal_on_covered_pixels(self):
        geometry = ArrayGeometry(16, 16, 7.8e-6)
        array = NeuralArrayModel(geometry, rng=4)
        array.calibrate()
        culture = Culture.random(1, geometry, diameter_range=(40e-6, 40e-6), rng=5)
        vj = Trace(1e-3 * np.ones(1000), dt=1e-4)
        movie = array.record(culture, {0: vj}, n_frames=50, frame_rate_hz=2000.0)
        neuron = culture.neurons[0]
        covered = culture.pixels_for_neuron(neuron)
        assert covered
        row, col = covered[0]
        assert movie.frames[10, row, col] == pytest.approx(1e-3, rel=0.01)
        # A far corner pixel sees nothing.
        far = (0, 0) if (0, 0) not in covered else (15, 15)
        assert abs(movie.frames[10, far[0], far[1]]) < 1e-9

    def test_noise_added_when_requested(self):
        # The array samples noiselessly; the chip adds its chain's
        # input-referred floor to the frames as one draw.
        geometry = ArrayGeometry(8, 8, 7.8e-6)
        chip = NeuralRecordingChip(geometry=geometry, rng=6)
        chip.calibrate()
        culture = Culture.random(0, geometry, rng=7)
        movie = chip.array.record(culture, {}, n_frames=100, frame_rate_hz=2000.0)
        assert not movie.frames.any()
        noisy = chip._add_noise(movie.frames, np.random.default_rng(8))
        assert noisy.frames.std() == pytest.approx(chip.input_referred_noise_v(), rel=0.1)

    def test_movie_pixel_trace(self):
        movie = RecordedMovie(frames=np.zeros((10, 4, 4)), frame_rate_hz=2000.0)
        trace = movie.pixel_trace(1, 1)
        assert trace.n == 10
        assert trace.dt == pytest.approx(1 / 2000.0)

    def test_movie_validation(self):
        with pytest.raises(ValueError):
            RecordedMovie(frames=np.zeros((10, 4)), frame_rate_hz=2000.0)
        movie = RecordedMovie(frames=np.zeros((10, 4, 4)), frame_rate_hz=2000.0)
        with pytest.raises(IndexError):
            movie.pixel_trace(9, 9)

    def test_record_validation(self):
        geometry = ArrayGeometry(8, 8, 7.8e-6)
        array = NeuralArrayModel(geometry, rng=9)
        array.calibrate()
        culture = Culture.random(0, geometry, rng=10)
        with pytest.raises(ValueError):
            array.record(culture, {}, n_frames=0)
