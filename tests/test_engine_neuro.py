"""repro.engine neuro kernels/params/chip vs the object models.

Parity contract (see repro.engine.neuro_kernels): construction draws
and the template-AP recording path are bit-identical; the batched HH
integration is bit-identical to the frozen pre-fusion loop kept below
as an oracle, and matches the scalar object model to floating-point
accumulation error with exact spike times; detection kernels are
bit-identical on equal traces.
"""

import sys
import threading

import numpy as np
import pytest

from repro.chip.neuro_chip import NeuralRecordingChip
from repro.core.rng import spawn_children
from repro.core.signals import Trace
from repro.engine import NeuroArrayParams, VectorizedNeuroChip, neuro_kernels
from repro.neuro.action_potential import (
    HHParameters,
    HodgkinHuxleyNeuron,
    StimulusProtocol,
)
from repro.neuro.array import NeuralArrayModel
from repro.neuro.culture import ArrayGeometry, Culture
from repro.neuro.spike_detection import detect_spikes, mad_noise_estimate


GEOMETRY = ArrayGeometry(16, 16, 7.8e-6)


class TestNeuroArrayParams:
    def test_single_chip_draw_is_bit_identical_to_object_model(self):
        model = NeuralArrayModel(GEOMETRY, rng=np.random.default_rng(5))
        params = NeuroArrayParams.draw(16, 16, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(params.vth[0], model.vth)
        np.testing.assert_array_equal(params.beta[0], model.beta)
        np.testing.assert_array_equal(params.i_m2[0], model.i_m2)
        np.testing.assert_array_equal(params.ktc_draws[0], model._ktc_draws)
        np.testing.assert_array_equal(params.injection_draws[0], model._injection_draws)

    def test_calibrate_droop_and_currents_match_object_model(self):
        model = NeuralArrayModel(GEOMETRY, rng=np.random.default_rng(7))
        params = NeuroArrayParams.draw(16, 16, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(params.calibrate()[0], model.calibrate())
        model.droop(1e-3)
        params.droop(1e-3)
        np.testing.assert_array_equal(params.stored_vgs[0], model.stored_vgs)
        np.testing.assert_array_equal(
            params.pixel_currents(2e-4)[0], model.pixel_currents(2e-4)
        )
        np.testing.assert_array_equal(params.offset_currents()[0], model.offset_currents())
        np.testing.assert_array_equal(
            params.uncalibrated_offset_currents()[0], model.uncalibrated_offset_currents()
        )
        np.testing.assert_array_equal(
            params.input_referred_offsets()[0], model.input_referred_offsets()
        )

    def test_batch_draw_matches_object_models_built_from_children(self):
        params = NeuroArrayParams.draw(8, 8, rng=np.random.default_rng(3), n_chips=3)
        children = spawn_children(np.random.default_rng(3), 3)
        for chip, child in enumerate(children):
            model = NeuralArrayModel(ArrayGeometry(8, 8, 7.8e-6), rng=child)
            np.testing.assert_array_equal(params.vth[chip], model.vth)
            np.testing.assert_array_equal(params.i_m2[chip], model.i_m2)

    def test_batched_calibration_uses_each_chips_own_typical_voltage(self):
        params = NeuroArrayParams.draw(8, 8, rng=np.random.default_rng(4), n_chips=2)
        stored = params.calibrate()
        children = spawn_children(np.random.default_rng(4), 2)
        for chip, child in enumerate(children):
            model = NeuralArrayModel(ArrayGeometry(8, 8, 7.8e-6), rng=child)
            np.testing.assert_array_equal(stored[chip], model.calibrate())

    def test_stack_and_from_array_model(self):
        a = NeuroArrayParams.draw(8, 8, rng=1)
        b = NeuroArrayParams.draw(8, 8, rng=2)
        stacked = NeuroArrayParams.stack([a, b])
        assert stacked.shape == (2, 8, 8)
        np.testing.assert_array_equal(stacked.vth[1], b.vth[0])
        model = NeuralArrayModel(ArrayGeometry(8, 8, 7.8e-6), rng=9)
        model.calibrate()
        wrapped = NeuroArrayParams.from_array_model(model)
        np.testing.assert_array_equal(wrapped.stored_vgs[0], model.stored_vgs)
        wrapped.droop(1.0)  # copies: must not touch the source model
        assert not np.array_equal(wrapped.stored_vgs[0], model.stored_vgs)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="n_chips, rows, cols"):
            NeuroArrayParams(
                vth=np.zeros((4, 4)),
                beta=np.ones((4, 4)),
                i_m2=np.ones((4, 4)),
                ktc_draws=np.zeros((4, 4)),
                injection_draws=np.zeros((4, 4)),
            )
        with pytest.raises(RuntimeError, match="calibrated"):
            NeuroArrayParams.draw(4, 4, rng=1).droop(1.0)


class TestHHBatch:
    def test_matches_object_integration_per_neuron(self):
        stimuli = [
            StimulusProtocol.single_pulse(),
            StimulusProtocol(pulses=[(1e-3, 0.5e-3, 40.0), (12e-3, 0.5e-3, 40.0)]),
        ]
        batch = neuro_kernels.hh_batch(stimuli, duration_s=0.03, dt_s=20e-6)
        for index, stimulus in enumerate(stimuli):
            reference = HodgkinHuxleyNeuron().simulate(0.03, dt_s=20e-6, stimulus=stimulus)
            np.testing.assert_allclose(
                batch.membrane_v[index],
                reference.membrane_voltage.samples,
                rtol=0,
                atol=1e-9,
            )
            np.testing.assert_allclose(
                batch.ionic_a_m2[index],
                reference.ionic_current_density.samples,
                rtol=0,
                atol=1e-8,
            )
            np.testing.assert_allclose(
                batch.capacitive_a_m2[index],
                reference.capacitive_current_density.samples,
                rtol=0,
                atol=1e-8,
            )
            np.testing.assert_array_equal(batch.spike_times[index], reference.spike_times)

    def test_batch_size_invariance(self):
        """Rows of a large batch equal a one-neuron batch bitwise — the
        property the campaign fast path's union batching rests on."""
        stimuli = [
            StimulusProtocol.spike_train(30.0, 0.02, rng=np.random.default_rng(i))
            for i in range(5)
        ]
        union = neuro_kernels.hh_batch(stimuli, duration_s=0.02, dt_s=20e-6)
        alone = neuro_kernels.hh_batch([stimuli[3]], duration_s=0.02, dt_s=20e-6)
        np.testing.assert_array_equal(union.membrane_v[3], alone.membrane_v[0])
        np.testing.assert_array_equal(union.ionic_a_m2[3], alone.ionic_a_m2[0])
        sub = union.subset(np.asarray([3]))
        np.testing.assert_array_equal(sub.membrane_v[0], alone.membrane_v[0])
        np.testing.assert_array_equal(sub.spike_times[0], alone.spike_times[0])

    def test_empty_batch(self):
        batch = neuro_kernels.hh_batch([], duration_s=0.01, dt_s=20e-6)
        assert batch.n_neurons == 0
        assert batch.membrane_v.shape == (0, 500)
        assert batch.spike_times == []

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            neuro_kernels.hh_batch([], duration_s=0.0)


# ---------------------------------------------------------------------------
# Frozen oracle: the unfused batched RK4 loop, verbatim, before the
# gating blocks, stage states and post-step currents were fused.  The
# production kernel must reproduce it bit for bit.
# ---------------------------------------------------------------------------
def _reference_derivatives(state, i_stim, p, out):
    v, n, m, h = state
    x_n = v + 55.0
    x_m = v + 40.0
    x_65 = v + 65.0
    e = np.empty((6, v.shape[0]))
    np.divide(x_n, -10.0, out=e[0])
    np.divide(x_m, -10.0, out=e[1])
    np.divide(x_65, -80.0, out=e[2])
    np.divide(x_65, -18.0, out=e[3])
    np.divide(x_65, -20.0, out=e[4])
    np.divide(v + 35.0, -10.0, out=e[5])
    np.exp(e, out=e)
    alpha_n = np.where(np.abs(x_n) < 1e-7, 0.1, 0.01 * x_n / (1.0 - e[0]))
    alpha_m = np.where(np.abs(x_m) < 1e-7, 1.0, 0.1 * x_m / (1.0 - e[1]))
    beta_n = 0.125 * e[2]
    beta_m = 4.0 * e[3]
    alpha_h = 0.07 * e[4]
    beta_h = 1.0 / (1.0 + e[5])
    i_na = p.g_na * m**3 * h * (v - p.e_na)
    i_k = p.g_k * n**4 * (v - p.e_k)
    i_leak = p.g_leak * (v - p.e_leak)
    out[0] = (i_stim - i_na - i_k - i_leak) / p.c_m
    out[1] = alpha_n * (1.0 - n) - beta_n * n
    out[2] = alpha_m * (1.0 - m) - beta_m * m
    out[3] = alpha_h * (1.0 - h) - beta_h * h
    return out


def _reference_hh_batch(stimuli, duration_s, dt_s=10e-6, params=None):
    p = params or HHParameters()
    count = len(stimuli)
    steps = int(round(duration_s / dt_s))
    dt_ms = dt_s * 1e3
    n0, m0, h0 = HodgkinHuxleyNeuron(p).steady_state(p.v_rest)
    state = np.empty((4, count))
    state[0] = float(p.v_rest)
    state[1] = float(n0)
    state[2] = float(m0)
    state[3] = float(h0)

    stim = neuro_kernels.stimulus_matrix(stimuli, steps, dt_s)
    v_out = np.empty((steps, count))
    i_ion = np.empty((steps, count))
    half = 0.5 * dt_ms
    sixth = dt_ms / 6.0
    k1 = np.empty((4, count))
    k2 = np.empty((4, count))
    k3 = np.empty((4, count))
    k4 = np.empty((4, count))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(steps):
            i_stim = stim[step]
            _reference_derivatives(state, i_stim, p, k1)
            _reference_derivatives(state + half * k1, i_stim, p, k2)
            _reference_derivatives(state + half * k2, i_stim, p, k3)
            _reference_derivatives(state + dt_ms * k3, i_stim, p, k4)
            state = state + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            v, n, m, h = state
            i_na = p.g_na * m**3 * h * (v - p.e_na)
            i_k = p.g_k * n**4 * (v - p.e_k)
            i_leak = p.g_leak * (v - p.e_leak)
            v_out[step] = v
            i_ion[step] = i_na + i_k + i_leak

    v_volts = v_out.T * 1e-3
    ionic = i_ion.T * 0.01
    capacitive = np.gradient(v_volts, dt_s, axis=1) * (p.c_m * 0.01)

    spike_times = []
    for row in v_volts:
        above = row > 0.0
        crossings = np.nonzero(above[1:] & ~above[:-1])[0] + 1
        spike_times.append(
            neuro_kernels.refractory_prune(crossings * dt_s, neuro_kernels.HH_REFRACTORY_S)
        )
    return neuro_kernels.BatchedHH(v_volts, ionic, capacitive, dt_s, spike_times)


# Every conductance, reversal potential, capacitance and the resting
# potential moved off the defaults: a kernel that reads any of them
# from module-level constants instead of ``p`` diverges from the oracle.
ALT_PARAMS = HHParameters(
    c_m=1.1, g_na=110.0, g_k=40.0, g_leak=0.25, e_na=52.0, e_k=-75.0, e_leak=-54.0, v_rest=-64.0
)


def _spike_trains(count, seed, duration_s=0.03):
    return [
        StimulusProtocol.spike_train(40.0, duration_s, rng=np.random.default_rng([seed, index]))
        for index in range(count)
    ]


def _assert_batches_identical(actual, expected):
    np.testing.assert_array_equal(actual.membrane_v, expected.membrane_v)
    np.testing.assert_array_equal(actual.ionic_a_m2, expected.ionic_a_m2)
    np.testing.assert_array_equal(actual.capacitive_a_m2, expected.capacitive_a_m2)
    assert len(actual.spike_times) == len(expected.spike_times)
    for got, want in zip(actual.spike_times, expected.spike_times):
        np.testing.assert_array_equal(got, want)


class TestHHBatchOracle:
    @pytest.mark.parametrize("dt_s", [10e-6, 20e-6])
    @pytest.mark.parametrize("count", [1, 7, 40])
    def test_bit_identical_to_unfused_loop(self, count, dt_s):
        stimuli = _spike_trains(count, seed=count)
        expected = _reference_hh_batch(stimuli, 0.03, dt_s)
        actual = neuro_kernels.hh_batch(stimuli, 0.03, dt_s)
        _assert_batches_identical(actual, expected)
        # The last ionic column comes from the post-loop evaluation.
        np.testing.assert_array_equal(actual.ionic_a_m2[:, -1], expected.ionic_a_m2[:, -1])
        if count > 1:
            assert sum(len(times) for times in expected.spike_times) > 0

    @pytest.mark.parametrize("dt_s", [10e-6, 20e-6])
    def test_bit_identical_with_non_default_parameters(self, dt_s):
        stimuli = _spike_trains(7, seed=11)
        expected = _reference_hh_batch(stimuli, 0.03, dt_s, ALT_PARAMS)
        actual = neuro_kernels.hh_batch(stimuli, 0.03, dt_s, ALT_PARAMS)
        _assert_batches_identical(actual, expected)
        default = neuro_kernels.hh_batch(stimuli, 0.03, dt_s)
        assert not np.array_equal(actual.membrane_v, default.membrane_v)


class TestHHBatchDivergence:
    def test_non_finite_trajectory_raises_naming_the_neuron(self):
        stimuli = [
            StimulusProtocol.single_pulse(),
            StimulusProtocol.single_pulse(1e-3, 0.5e-3, 1e5),
            StimulusProtocol.single_pulse(),
        ]
        with pytest.raises(FloatingPointError, match="neuron 1 "):
            neuro_kernels.hh_batch(stimuli, 0.01, dt_s=20e-6)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scalar_model_also_fails_on_the_same_input(self):
        with pytest.raises(OverflowError):
            HodgkinHuxleyNeuron().simulate(
                0.01, dt_s=20e-6, stimulus=StimulusProtocol.single_pulse(1e-3, 0.5e-3, 1e5)
            )

    def test_strong_but_stable_pulse_still_integrates(self):
        batch = neuro_kernels.hh_batch(
            [StimulusProtocol.single_pulse(1e-3, 0.5e-3, 1e5)], 0.01, dt_s=10e-6
        )
        assert np.isfinite(batch.membrane_v).all()
        assert np.isfinite(batch.ionic_a_m2).all()


class TestHHBatchThreads:
    def test_concurrent_calls_match_sequential_bitwise(self):
        """Scratch buffers are per call: four threads interleaving at a
        shortened switch interval reproduce the sequential results."""
        # Equal batch sizes, so any buffer shared across calls would
        # be written by more than one thread.
        jobs = [(_spike_trains(16, seed=seed), (10e-6, 20e-6)[seed % 2]) for seed in range(4)]
        sequential = [neuro_kernels.hh_batch(stimuli, 0.02, dt_s) for stimuli, dt_s in jobs]
        results: list = [None] * len(jobs)
        errors: list = []

        def work(slot, stimuli, dt_s):
            try:
                results[slot] = neuro_kernels.hh_batch(stimuli, 0.02, dt_s)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(slot, stimuli, dt_s), daemon=True)
                for slot, (stimuli, dt_s) in enumerate(jobs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads), "hh_batch thread hung"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        for actual, expected in zip(results, sequential):
            _assert_batches_identical(actual, expected)


class TestWaveformSampling:
    def test_gather_reproduces_np_interp_bitwise(self):
        rng = np.random.default_rng(11)
        dt = 20e-6
        waveforms = rng.normal(size=(3, 400))
        grid = np.arange(400) * dt
        # Random offsets including exact grid hits and out-of-range times.
        times = np.concatenate(
            [
                rng.uniform(-2 * dt, 400 * dt * 1.1, size=96),
                grid[:3],
                [grid[-1], grid[-1] + dt],
            ]
        )[None, :].repeat(3, axis=0)
        values = neuro_kernels.sample_waveform_tables(
            waveforms, dt, np.arange(3), times
        )
        for row in range(3):
            expected = np.interp(times[row], grid, waveforms[row], left=0.0, right=0.0)
            np.testing.assert_array_equal(values[row], expected)

    def test_single_sample_waveform(self):
        values = neuro_kernels.sample_waveform_tables(
            np.asarray([[2.5]]), 1e-3, np.asarray([0]), np.asarray([[0.0, 1e-3]])
        )
        np.testing.assert_array_equal(values, [[2.5, 0.0]])

    def test_synthesize_matches_object_record_bitwise(self):
        culture = Culture.random(4, GEOMETRY, diameter_range=(20e-6, 60e-6), rng=3)
        model = NeuralArrayModel(GEOMETRY, rng=1)
        model.calibrate()
        dt = 20e-6
        rng = np.random.default_rng(8)
        traces = {
            neuron.index: Trace(rng.normal(scale=1e-4, size=2500), dt)
            for neuron in culture.neurons
        }
        movie = model.record(culture, traces, n_frames=100, frame_rate_hz=2000.0)
        tables = np.stack([traces[n.index].samples for n in culture.neurons])
        pair_rows, pair_cols, pair_waves = neuro_kernels.coverage_pairs(culture)
        frames = neuro_kernels.synthesize_frames(
            tables, dt, pair_rows, pair_cols, pair_waves, 100, 2000.0, 16, 16
        )
        np.testing.assert_array_equal(frames, movie.frames)

    def test_synthesize_empty_culture(self):
        frames = neuro_kernels.synthesize_frames(
            np.zeros((0, 10)), 1e-3, [], [], [], 5, 2000.0, 4, 4
        )
        np.testing.assert_array_equal(frames, np.zeros((5, 4, 4)))


class TestTemplateTables:
    def test_matches_object_template_branch_bitwise(self):
        geometry = ArrayGeometry(16, 16, 7.8e-6)
        chip = NeuralRecordingChip(geometry=geometry, rng=1)
        chip.calibrate()
        culture = Culture.random(3, geometry, diameter_range=(30e-6, 60e-6), rng=2)
        recording = chip.record_culture(
            culture, duration_s=0.05, firing_rate_hz=40.0, rng=3, use_hh=False
        )
        vchip = VectorizedNeuroChip(geometry=geometry, rng=1)
        vchip.calibrate()
        vrec = vchip.record_culture(
            culture, duration_s=0.05, firing_rate_hz=40.0, rng=3, use_hh=False
        )
        np.testing.assert_array_equal(
            vrec.electrode_movie.frames, recording.electrode_movie.frames
        )
        np.testing.assert_array_equal(
            vrec.output_movie.frames, recording.output_movie.frames
        )
        for index, truth in recording.ground_truth.items():
            np.testing.assert_array_equal(vrec.ground_truth[index], truth)


class TestChainAndDetection:
    def test_chain_transfer_matches_object_chip(self):
        chip = NeuralRecordingChip(geometry=GEOMETRY, rng=6)
        chip.calibrate()
        frames = np.random.default_rng(1).normal(scale=2e-3, size=(20, 16, 16))
        expected = chip._apply_chain_gain(frames)
        coupling = chip.array.design.coupling_factor
        gains = [c.chain.actual_gain * coupling for c in chip.channels]
        rails = [c.chain.stages[-1].rail_high for c in chip.channels]
        out = neuro_kernels.apply_chain_transfer(frames, gains, rails, chip.scan.mux_depth)
        np.testing.assert_array_equal(out, expected)
        assert np.any(np.abs(out) == rails[0])  # mV-scale inputs do clip

    def test_chain_transfer_rejects_mismatched_columns(self):
        with pytest.raises(ValueError, match="columns"):
            neuro_kernels.apply_chain_transfer(np.zeros((2, 4, 6)), [1.0], [1.0], 4)

    def test_detect_spikes_matrix_matches_scalar_detector(self):
        rng = np.random.default_rng(9)
        dt = 5e-4
        traces = rng.normal(scale=1e-5, size=(6, 400))
        spikes = np.zeros(400)
        spikes[[50, 51, 200]] = 4e-4
        traces[2] += spikes
        traces[4] -= spikes
        matrix = neuro_kernels.detect_spikes_matrix(traces, dt, threshold_sigma=4.5)
        sigmas = neuro_kernels.mad_sigma_matrix(traces)
        for row in range(6):
            trace = Trace(traces[row], dt)
            np.testing.assert_array_equal(
                matrix[row], detect_spikes(trace, threshold_sigma=4.5)
            )
            assert sigmas[row] == mad_noise_estimate(trace)

    def test_detect_spikes_matrix_polarities_and_validation(self):
        traces = np.zeros((1, 50))
        traces[0, 20] = 1.0
        assert len(neuro_kernels.detect_spikes_matrix(traces, 1e-3, polarity="pos")[0]) == 1
        assert len(neuro_kernels.detect_spikes_matrix(traces, 1e-3, polarity="neg")[0]) == 0
        with pytest.raises(ValueError, match="polarity"):
            neuro_kernels.detect_spikes_matrix(traces, 1e-3, polarity="up")
        with pytest.raises(ValueError, match="threshold"):
            neuro_kernels.detect_spikes_matrix(traces, 1e-3, threshold_sigma=0.0)


class TestVectorizedNeuroChip:
    def test_construction_parity_with_object_chip(self):
        chip = NeuralRecordingChip(geometry=GEOMETRY, rng=21)
        vchip = VectorizedNeuroChip(geometry=GEOMETRY, rng=21)
        np.testing.assert_array_equal(vchip.params.vth[0], chip.array.vth)
        np.testing.assert_array_equal(vchip.params.beta[0], chip.array.beta)
        assert vchip.input_referred_noise_v() == chip.input_referred_noise_v()
        assert [c.chain.actual_gain for c in vchip.channels] == [
            c.chain.actual_gain for c in chip.channels
        ]
        assert vchip.timing_report() == chip.timing_report()
        chip.calibrate()
        vchip.calibrate()
        np.testing.assert_array_equal(vchip.params.stored_vgs[0], chip.array.stored_vgs)

    def test_record_requires_calibration_and_positive_duration(self):
        vchip = VectorizedNeuroChip(geometry=GEOMETRY, rng=1)
        culture = Culture.random(1, GEOMETRY, rng=2)
        with pytest.raises(RuntimeError, match="calibrate"):
            vchip.record_culture(culture, duration_s=0.01)
        vchip.calibrate()
        with pytest.raises(ValueError, match="duration"):
            vchip.record_culture(culture, duration_s=0.0)
