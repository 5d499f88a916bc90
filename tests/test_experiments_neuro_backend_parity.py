"""Runner.run(NeuralRecordingSpec, backend="vectorized") vs the object
backend — the neural-recording acceptance-criterion parity tests.

Documented tolerance (see repro.engine.vneuro): the chip stream,
culture, stimuli and noise realisation are shared bit-identically; the
template-AP path is bit-identical end to end; the Hodgkin-Huxley path
matches to floating-point accumulation error (frames within an
electrode-voltage epsilon, ground truth and detection columns equal).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.experiments import NeuralRecordingSpec, ResultSet, Runner
from repro.experiments.workloads import (
    _build_neuro_chip,
    neural_records_and_metrics,
)
from repro.neuro.culture import ArrayGeometry, Culture, PlacedNeuron
from repro.neuro.junction import CellChipJunction
from repro.trace import TraceRecorder

FIG5_TEMPLATE_SPEC = NeuralRecordingSpec(
    rows=32, cols=32, n_neurons=8, duration_s=0.1, use_hh=False
)
FIG5_HH_SPEC = NeuralRecordingSpec(rows=32, cols=32, n_neurons=4, duration_s=0.05)

INT_COLUMNS = ("neuron", "best_row", "best_col", "true_spikes", "detected_spikes")
FLOAT_COLUMNS = ("diameter_m", "peak_v", "precision", "recall", "snr")


def _digest(result):
    return hashlib.sha256(result.without_artifacts().to_json().encode("utf-8")).hexdigest()


def run_pair(spec, seed=17):
    result_obj = Runner(seed=seed).run(spec)
    result_vec = Runner(seed=seed).run(spec, backend="vectorized")
    return result_obj, result_vec


def record_culture_pair(spec, culture, seed=17):
    """A hand-placed culture (one no spec draws) recorded and scored on
    each backend the way the workload does, on the chip and record
    streams of ``(spec, seed)``: ``(object, vectorized)`` results."""
    plan = spec.stream_plan()
    results = []
    for backend in ("object", "vectorized"):
        rngs = plan.generators(seed)
        chip = _build_neuro_chip(spec, backend, rngs["chip"], None)
        recording = chip.record_culture(
            culture,
            duration_s=spec.duration_s,
            firing_rate_hz=spec.firing_rate_hz,
            rng=rngs["record"],
            use_hh=spec.use_hh,
        )
        records, metrics = neural_records_and_metrics(spec, chip, culture, recording, backend)
        results.append(
            ResultSet(
                kind=spec.kind, spec=spec.to_dict(), seeds={}, version="0",
                records=records, metrics=metrics, artifacts={"recording": recording},
            )
        )
    return tuple(results)


def assert_columns_match(result_obj, result_vec, float_atol=0.0):
    for column in INT_COLUMNS:
        np.testing.assert_array_equal(
            result_obj.column(column), result_vec.column(column), err_msg=column
        )
    for column in FLOAT_COLUMNS:
        np.testing.assert_allclose(
            result_obj.column(column),
            result_vec.column(column),
            rtol=0,
            atol=float_atol,
            equal_nan=True,
            err_msg=column,
        )


class TestTemplatePathBitIdentical:
    @pytest.fixture(scope="class")
    def pair(self):
        return run_pair(FIG5_TEMPLATE_SPEC)

    def test_backend_stamped(self, pair):
        result_obj, result_vec = pair
        assert result_obj.metrics["backend"] == "object"
        assert result_vec.metrics["backend"] == "vectorized"

    def test_frames_bitwise(self, pair):
        result_obj, result_vec = pair
        np.testing.assert_array_equal(
            result_obj.artifacts["recording"].electrode_movie.frames,
            result_vec.artifacts["recording"].electrode_movie.frames,
        )
        np.testing.assert_array_equal(
            result_obj.artifacts["recording"].output_movie.frames,
            result_vec.artifacts["recording"].output_movie.frames,
        )

    def test_records_bitwise(self, pair):
        assert_columns_match(*pair, float_atol=0.0)

    def test_metrics_match(self, pair):
        result_obj, result_vec = pair
        for name, value in result_obj.metrics.items():
            if name == "backend":
                continue
            assert result_vec.metrics[name] == value, name

    def test_ground_truth_bitwise(self, pair):
        result_obj, result_vec = pair
        truth_obj = result_obj.artifacts["recording"].ground_truth
        truth_vec = result_vec.artifacts["recording"].ground_truth
        assert truth_obj.keys() == truth_vec.keys()
        for key in truth_obj:
            np.testing.assert_array_equal(truth_obj[key], truth_vec[key])


class TestHodgkinHuxleyPathTolerance:
    @pytest.fixture(scope="class")
    def pair(self):
        return run_pair(FIG5_HH_SPEC)

    def test_frames_within_documented_tolerance(self, pair):
        result_obj, result_vec = pair
        frames_obj = result_obj.artifacts["recording"].electrode_movie.frames
        frames_vec = result_vec.artifacts["recording"].electrode_movie.frames
        # Documented budget: floating-point accumulation over the RK4
        # sweep — sub-nano-volt against a >=100 uV signal window.
        assert np.max(np.abs(frames_obj - frames_vec)) < 1e-9

    def test_ground_truth_equal(self, pair):
        result_obj, result_vec = pair
        truth_obj = result_obj.artifacts["recording"].ground_truth
        truth_vec = result_vec.artifacts["recording"].ground_truth
        for key in truth_obj:
            np.testing.assert_array_equal(truth_obj[key], truth_vec[key])

    def test_detection_columns_equal(self, pair):
        assert_columns_match(*pair, float_atol=1e-6)

    def test_vectorized_rerun_is_bit_identical(self):
        a = Runner(seed=4).run(FIG5_HH_SPEC, backend="vectorized")
        b = Runner(seed=4).run(FIG5_HH_SPEC, backend="vectorized")
        np.testing.assert_array_equal(
            a.artifacts["recording"].electrode_movie.frames,
            b.artifacts["recording"].electrode_movie.frames,
        )
        for column in a.records:
            np.testing.assert_array_equal(
                a.column(column), b.column(column), err_msg=column
            )


class TestRunnerMechanics:
    def test_backend_caches_are_separate(self):
        runner = Runner(seed=3)
        spec = FIG5_HH_SPEC.replace(duration_s=0.01)
        runner.run(spec)
        runner.run(spec, backend="vectorized")
        assert runner.stats.chips_built == 2

    def test_chip_reused_across_analysis_sweep(self):
        runner = Runner(seed=3)
        spec = FIG5_HH_SPEC.replace(duration_s=0.01)
        runner.run(spec, backend="vectorized")
        runner.run(spec.replace(threshold_sigma=8.0), backend="vectorized")
        assert runner.stats.chips_built == 1
        assert runner.stats.chips_reused == 1

    def test_recorder_rides_on_both_backends(self):
        """Both backends build the same host, so a Runner's recorder
        sees the same events on each, and tracing leaves the result's
        bytes alone."""
        spec = NeuralRecordingSpec(rows=16, cols=16, n_neurons=3, duration_s=0.02, use_hh=False)
        traces = []
        for backend in ("object", "vectorized"):
            traced = Runner(seed=3, recorder=TraceRecorder()).run(spec, backend=backend)
            plain = Runner(seed=3).run(spec, backend=backend)
            assert len(traced.trace) > 0
            assert _digest(dataclasses.replace(traced, trace=None)) == _digest(plain)
            traces.append(traced.trace)
        assert traces[0] == traces[1]


# ---------------------------------------------------------------------------
# Edge-case parity (satellite: zero-neuron, off-array, clipped, 1-frame)
# ---------------------------------------------------------------------------
def _edge_geometry(spec):
    return ArrayGeometry(spec.rows, spec.cols, spec.pitch_m)


class TestParityEdges:
    def test_zero_neuron_culture(self):
        spec = FIG5_TEMPLATE_SPEC.replace(duration_s=0.01)
        culture = Culture(geometry=_edge_geometry(spec), neurons=[])
        result_obj, result_vec = record_culture_pair(spec, culture)
        for result in (result_obj, result_vec):
            assert result.n_records == 0
            assert result.metrics["n_neurons"] == 0
            assert result.metrics["coverage_fraction"] == 0.0
            assert result.metrics["total_detected_spikes"] == 0
        np.testing.assert_array_equal(
            result_obj.artifacts["recording"].electrode_movie.frames,
            result_vec.artifacts["recording"].electrode_movie.frames,
        )

    def test_neuron_fully_off_array(self):
        spec = FIG5_TEMPLATE_SPEC.replace(duration_s=0.01)
        geometry = _edge_geometry(spec)
        on_chip = PlacedNeuron(
            index=0,
            x=geometry.width / 2,
            y=geometry.height / 2,
            diameter=40e-6,
            junction=CellChipJunction(cell_diameter=40e-6),
        )
        off_chip = PlacedNeuron(
            index=1,
            x=geometry.width * 3,
            y=geometry.height * 3,
            diameter=40e-6,
            junction=CellChipJunction(cell_diameter=40e-6),
        )
        culture = Culture(geometry=geometry, neurons=[on_chip, off_chip])
        result_obj, result_vec = record_culture_pair(spec, culture)
        for result in (result_obj, result_vec):
            assert list(result.column("best_row")) == [
                result.column("best_row")[0],
                -1,
            ]
            assert result.column("peak_v")[1] == 0.0
            assert np.isnan(result.column("snr")[1])
        assert_columns_match(result_obj, result_vec)

    def test_single_frame_recording(self):
        # One frame at 2 kframes/s: duration just above a frame time.
        spec = FIG5_TEMPLATE_SPEC.replace(duration_s=0.75e-3, n_neurons=2)
        result_obj, result_vec = run_pair(spec)
        movie = result_vec.artifacts["recording"].electrode_movie
        assert movie.n_frames == 1
        np.testing.assert_array_equal(
            result_obj.artifacts["recording"].electrode_movie.frames, movie.frames
        )
        assert_columns_match(result_obj, result_vec)

    def test_clipped_output_pixels(self):
        """mV-scale junction signals x5600 exceed the output rails: the
        clipped (dead-at-rail) pixels must clip identically."""
        result_obj, result_vec = run_pair(FIG5_TEMPLATE_SPEC)
        out_obj = result_obj.artifacts["recording"].output_movie.frames
        out_vec = result_vec.artifacts["recording"].output_movie.frames
        rail = np.max(np.abs(out_obj))
        clipped_obj = np.abs(out_obj) >= rail
        assert clipped_obj.any()  # the edge is actually exercised
        np.testing.assert_array_equal(out_obj, out_vec)
        np.testing.assert_array_equal(clipped_obj, np.abs(out_vec) >= rail)
