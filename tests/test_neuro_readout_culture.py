"""Readout chain (Fig. 6), cultures/coverage (T2) and spike detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signals import Trace
from repro.neuro.culture import ArrayGeometry, Culture, coverage_vs_pitch
from repro.neuro.readout_chain import ChannelFrontEnd, ReadoutChannel, TOTAL_GAIN
from repro.neuro.spike_detection import (
    detect_spikes,
    mad_noise_estimate,
    score_detection,
    spike_snr,
)


class TestReadoutChannel:
    def test_total_gain_budget(self):
        assert TOTAL_GAIN == 5600.0

    def test_channel_calibration_zeroes_offsets(self):
        channel = ReadoutChannel.sample(rng=1)
        out_uncal = channel.dc_output(0.0)
        channel.calibrate(residual_v=0.0)
        out_cal = channel.dc_output(0.0)
        assert abs(out_cal) < abs(out_uncal) or out_uncal == out_cal == 0.0

    def test_uncalibrated_offsets_eat_headroom(self):
        # With x5600 gain, mV-scale stage offsets push the output to the
        # rails in at least some channel instances.
        used = [ReadoutChannel.sample(rng=i).output_headroom_used(0.0) for i in range(20)]
        assert max(used) > 0.5

    def test_dc_transfer_scales_current(self):
        channel = ReadoutChannel.sample(rng=2)
        channel.calibrate(residual_v=0.0)
        out = channel.dc_output(10e-9)  # 10 nA * 20k = 0.2 mV at input
        expected = 10e-9 * channel.front_end.transimpedance_ohm * channel.chain.actual_gain
        assert out == pytest.approx(np.clip(expected, -2.5, 2.5), rel=1e-6)

    def test_process_current_trace(self):
        channel = ReadoutChannel.sample(rng=3)
        channel.calibrate()
        current = Trace(1e-9 * np.sin(2 * np.pi * 1e3 * np.arange(0, 5e-3, 1e-6)), 1e-6)
        out = channel.process_current(current, rng=4, include_noise=False)
        assert out.peak_abs() > 1e-3

    def test_front_end_validation(self):
        with pytest.raises(ValueError):
            ChannelFrontEnd(transimpedance_ohm=0.0)


class TestCulture:
    def test_random_culture_places_all(self):
        culture = Culture.random(10, ArrayGeometry(128, 128, 7.8e-6), rng=1)
        assert len(culture.neurons) == 10

    def test_full_coverage_at_paper_pitch(self):
        # 7.8 um pitch, 10-100 um cells: every cell lands on >= 1 pixel.
        culture = Culture.random(100, ArrayGeometry(128, 128, 7.8e-6), rng=2)
        assert culture.coverage_fraction() == 1.0

    def test_bigger_cells_cover_more_pixels(self):
        geometry = ArrayGeometry(128, 128, 7.8e-6)
        small = Culture.random(20, geometry, diameter_range=(10e-6, 12e-6), rng=3)
        large = Culture.random(20, geometry, diameter_range=(80e-6, 100e-6), rng=4)
        assert large.pixels_per_neuron().mean() > 10 * small.pixels_per_neuron().mean()

    def test_coverage_vs_pitch_monotone(self):
        results = coverage_vs_pitch([5e-6, 7.8e-6, 20e-6, 50e-6], cell_count=80, rng=5)
        coverage = [r[1] for r in results]
        assert all(b <= a + 1e-9 for a, b in zip(coverage, coverage[1:]))
        # Paper pitch keeps full coverage; 50 um pitch loses cells.
        assert coverage[1] == 1.0
        assert coverage[-1] < 1.0

    def test_occupancy_image_counts(self):
        geometry = ArrayGeometry(32, 32, 7.8e-6)
        culture = Culture.random(3, geometry, diameter_range=(30e-6, 50e-6), rng=6)
        image = culture.occupancy_image()
        assert image.sum() == culture.pixels_per_neuron().sum()

    def test_pixels_under_disk_bounds(self):
        geometry = ArrayGeometry(16, 16, 7.8e-6)
        pixels = geometry.pixels_under_disk(50e-6, 50e-6, 20e-6)
        assert pixels
        for row, col in pixels:
            assert 0 <= row < 16 and 0 <= col < 16

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        # A unit pitch with half-pitch centres and radii puts pixel
        # centres exactly on the disk's rim.
        pitch=st.one_of(st.floats(1e-6, 20e-6), st.just(1.0)),
        # Centre and radius in pitches: on, at the edge of, and off the array.
        x_pitches=st.one_of(st.floats(-6.0, 18.0), st.integers(-12, 36).map(lambda k: k / 2)),
        y_pitches=st.one_of(st.floats(-6.0, 18.0), st.integers(-12, 36).map(lambda k: k / 2)),
        r_pitches=st.one_of(st.floats(1e-3, 8.0), st.integers(1, 16).map(lambda k: k / 2)),
    )
    def test_pixels_under_disk_matches_full_grid_scan(
        self, rows, cols, pitch, x_pitches, y_pitches, r_pitches
    ):
        geometry = ArrayGeometry(rows, cols, pitch)
        x, y, radius = x_pitches * pitch, y_pitches * pitch, r_pitches * pitch
        expected = []
        for row in range(rows):
            for col in range(cols):
                cx, cy = geometry.pixel_center(row, col)
                if (cx - x) ** 2 + (cy - y) ** 2 <= radius**2:
                    expected.append((row, col))
        assert geometry.pixels_under_disk(x, y, radius) == expected

    def test_overcrowded_culture_raises(self):
        with pytest.raises(RuntimeError):
            Culture.random(500, ArrayGeometry(16, 16, 7.8e-6),
                           diameter_range=(80e-6, 100e-6), rng=7, max_attempts=10)

    def test_empty_culture_coverage_raises(self):
        culture = Culture(ArrayGeometry(16, 16, 7.8e-6), [])
        with pytest.raises(ValueError):
            culture.coverage_fraction()


class TestSpikeDetection:
    def make_trace_with_spikes(self, spike_times, amplitude=1e-3, noise=50e-6, seed=0):
        rng = np.random.default_rng(seed)
        dt = 5e-4  # 2 kframe/s
        n = 2000
        samples = rng.normal(0, noise, n)
        for t in spike_times:
            idx = int(t / dt)
            if 0 <= idx < n - 3:
                samples[idx] += amplitude
                samples[idx + 1] += 0.4 * amplitude
                samples[idx + 2] -= 0.3 * amplitude
        return Trace(samples, dt)

    def test_mad_estimate_matches_sigma(self):
        rng = np.random.default_rng(1)
        trace = Trace(rng.normal(0, 1e-4, 5000), 1e-4)
        assert mad_noise_estimate(trace) == pytest.approx(1e-4, rel=0.05)

    def test_detects_clear_spikes(self):
        truth = [0.1, 0.3, 0.5, 0.7, 0.9]
        trace = self.make_trace_with_spikes(truth)
        detected = detect_spikes(trace, threshold_sigma=5.0)
        score = score_detection(detected, np.asarray(truth), tolerance_s=3e-3)
        assert score.recall == 1.0
        assert score.precision == 1.0

    def test_no_false_positives_on_noise(self):
        trace = self.make_trace_with_spikes([], noise=50e-6, seed=2)
        detected = detect_spikes(trace, threshold_sigma=6.0)
        assert len(detected) <= 1

    def test_polarity_selection(self):
        truth = [0.25, 0.75]
        trace = self.make_trace_with_spikes(truth, amplitude=-1e-3, seed=3)
        pos_only = detect_spikes(trace, polarity="pos")
        neg_only = detect_spikes(trace, polarity="neg")
        assert len(neg_only) >= len(pos_only)

    def test_refractory_suppresses_double_counts(self):
        trace = self.make_trace_with_spikes([0.5, 0.5005], seed=4)
        detected = detect_spikes(trace, refractory_s=5e-3)
        assert len(detected) == 1

    def test_score_counts(self):
        score = score_detection(np.array([1.0, 2.0, 9.0]), np.array([1.0, 2.0, 3.0]),
                                tolerance_s=0.1)
        assert score.true_positives == 2
        assert score.false_positives == 1
        assert score.false_negatives == 1
        assert score.f1 == pytest.approx(2 * (2 / 3) * (2 / 3) / (4 / 3))

    def test_score_empty_cases(self):
        score = score_detection(np.array([]), np.array([]))
        assert score.precision == 0.0 and score.recall == 0.0

    def test_snr_computation(self):
        truth = [0.5]
        trace = self.make_trace_with_spikes(truth, amplitude=2e-3, noise=1e-4, seed=5)
        snr = spike_snr(trace, np.asarray(truth))
        assert snr > 10

    def test_detect_invalid_args(self):
        trace = Trace(np.zeros(100), 1e-3)
        with pytest.raises(ValueError):
            detect_spikes(trace, threshold_sigma=0.0)
        with pytest.raises(ValueError):
            detect_spikes(trace, polarity="sideways")
