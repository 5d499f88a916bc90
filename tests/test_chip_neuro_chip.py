"""The integrated 128x128 neural-recording chip."""

import pytest

from repro.chip.neuro_chip import NeuralRecordingChip
from repro.neuro.culture import ArrayGeometry, Culture


@pytest.fixture(scope="module")
def small_chip():
    chip = NeuralRecordingChip(geometry=ArrayGeometry(32, 32, 7.8e-6), rng=31)
    chip.calibrate()
    return chip


class TestSetup:
    def test_default_geometry_is_paper(self):
        chip = NeuralRecordingChip(rng=1)
        assert chip.geometry.rows == 128
        assert chip.geometry.cols == 128
        assert chip.geometry.pitch == pytest.approx(7.8e-6)
        assert chip.scan.channels == 16

    def test_recording_requires_calibration(self):
        chip = NeuralRecordingChip(geometry=ArrayGeometry(16, 16, 7.8e-6), rng=2)
        culture = Culture.random(1, chip.geometry, diameter_range=(40e-6, 40e-6), rng=3)
        with pytest.raises(RuntimeError):
            chip.record_culture(culture, duration_s=0.01)

    def test_calibrate_sets_status(self, small_chip):
        assert small_chip.calibrated
        assert small_chip.registers.read("status") == 1

    def test_noise_floor_below_max_signal(self, small_chip):
        assert small_chip.input_referred_noise_v() < 5e-3

    def test_calibration_sweep_time(self, small_chip):
        assert small_chip.calibration_sweep_time_s() > 0


class TestTimingReport:
    def test_paper_timing_report(self):
        chip = NeuralRecordingChip(rng=4)
        report = chip.timing_report()
        assert report["frame_rate_hz"] == 2000.0
        assert report["channel_pixel_rate_hz"] == pytest.approx(2.048e6)
        assert report["aggregate_pixel_rate_hz"] == pytest.approx(32.768e6)
        assert report["readout_amp_settles"] == 1.0
        assert report["driver_settles"] == 1.0
        assert report["total_gain"] == 5600.0


class TestRecording:
    def test_record_produces_frames(self, small_chip):
        culture = Culture.random(2, small_chip.geometry, diameter_range=(40e-6, 60e-6), rng=5)
        result = small_chip.record_culture(culture, duration_s=0.05, firing_rate_hz=50.0,
                                           rng=6)
        assert result.electrode_movie.n_frames == 100
        assert result.output_movie.n_frames == 100
        assert set(result.ground_truth) == {0, 1}

    def test_output_is_amplified_electrode_signal(self, small_chip):
        culture = Culture.random(1, small_chip.geometry, diameter_range=(60e-6, 60e-6), rng=7)
        result = small_chip.record_culture(culture, duration_s=0.03, firing_rate_hz=60.0,
                                           rng=8)
        row, col = result.best_pixel_for(0)
        electrode = result.electrode_movie.pixel_trace(row, col)
        output = result.output_movie.pixel_trace(row, col)
        if electrode.peak_abs() > 0:
            gain = output.peak_abs() / electrode.peak_abs()
            # Chain gain x coupling (0.55): a few thousand, unless clipped.
            assert 1000 < gain < 6000

    def test_template_path_faster_recording(self, small_chip):
        culture = Culture.random(2, small_chip.geometry, diameter_range=(40e-6, 60e-6), rng=9)
        result = small_chip.record_culture(culture, duration_s=0.05, firing_rate_hz=40.0,
                                           rng=10, use_hh=False)
        assert result.electrode_movie.n_frames == 100
        assert all(len(v) >= 0 for v in result.ground_truth.values())

    def test_best_pixel_requires_coverage(self, small_chip):
        culture = Culture.random(1, small_chip.geometry, diameter_range=(40e-6, 40e-6), rng=11)
        result = small_chip.record_culture(culture, duration_s=0.02, rng=12)
        row, col = result.best_pixel_for(0)
        assert 0 <= row < 32 and 0 <= col < 32

    def test_invalid_duration(self, small_chip):
        culture = Culture.random(1, small_chip.geometry, diameter_range=(40e-6, 40e-6), rng=13)
        with pytest.raises(ValueError):
            small_chip.record_culture(culture, duration_s=0.0)
