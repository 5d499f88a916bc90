"""Frozen-oracle parity for the DNA chip's provisioning hot path.

The oracles below are verbatim copies of the earlier ``Mosfet.ids``
(every derived parameter recomputed per call), ``CurrentMirror.transfer``
(with its discarded 100-step ``vgs_for_current`` solve),
``SawtoothAdc.count_in_frame`` (loop invariants re-read per cycle) and the
chip's per-pixel loops (one ``PCG64`` built per pixel stream, 2-D count
item writes).  The library versions must return ``==`` results and leave
a shared generator in the same state, so the chip's output bits cannot
drift.  ``child_streams`` is checked against ``spawn_children``, which
NumPy seeds itself.  The work counts pin how many ``Mosfet.ids``
evaluations provisioning costs, how many ADC frames a Fig. 4 point
counts, and that the point builds no per-pixel objects.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip import ChipSpecs, DnaMicroarrayChip, dna_chip
from repro.core.mismatch import MismatchSample
from repro.core.process import C5_PROCESS
from repro.core.rng import _pcg64_states, child_streams, ensure_rng, spawn_children
from repro.core.units import thermal_voltage
from repro.devices.capacitor import Capacitor
from repro.devices.comparator import Comparator
from repro.devices.current_mirror import CurrentMirror, ReferenceCurrentFanout
from repro.devices.mosfet import Mosfet
from repro.dna import MicroarrayAssay, ProbeLayout, Sample, SiteResult, Target
from repro.engine import VectorizedDnaChip
from repro.engine.params import PixelArrayParams
from repro.experiments import Runner
from repro.experiments.specs import spec_from_dict
from repro.pixel.counter import PixelCounter
from repro.pixel.pixel import DnaSensorPixel, PixelVariation, draw_variations
from repro.pixel.sawtooth_adc import SawtoothAdc


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def _oracle_vth(device):
    nominal = device.process.vth_n if device.polarity == "n" else device.process.vth_p
    delta = device.mismatch.delta_vth if device.mismatch else 0.0
    return nominal + delta


def _oracle_specific_current(device):
    mu_cox = device.process.mu_n_cox if device.polarity == "n" else device.process.mu_p_cox
    rel = 1.0 + (device.mismatch.delta_beta_rel if device.mismatch else 0.0)
    beta = mu_cox * (device.width / device.length) * rel
    vt = thermal_voltage(device.temperature_k)
    return 2.0 * device.process.subthreshold_slope_n * beta * vt * vt


def _oracle_inversion_charge(device, v_pinch_minus_vchannel):
    vt = thermal_voltage(device.temperature_k)
    x = v_pinch_minus_vchannel / vt
    half = 0.5 * x
    if half > 40.0:
        log_term = half
    else:
        log_term = math.log1p(math.exp(half))
    return log_term * log_term


def oracle_ids(device, vgs, vds, vsb=0.0):
    if vds < 0:
        return -oracle_ids(device, vgs - vds, -vds, vsb)
    vp = (vgs - _oracle_vth(device) - 0.2 * vsb) / device.process.subthreshold_slope_n
    i_f = _oracle_inversion_charge(device, vp - 0.0)
    i_r = _oracle_inversion_charge(device, vp - vds)
    current = _oracle_specific_current(device) * (i_f - i_r)
    lam = device.process.lambda_chl * (device.process.l_min / device.length)
    current *= 1.0 + lam * vds
    return current


def _oracle_vgs_for_current(device, target_ids, vds=None):
    if target_ids <= 0:
        raise ValueError(f"target current must be positive, got {target_ids}")
    if vds is None:
        vds = device.process.vdd / 2.0
    lo, hi = -1.0, device.process.vdd + 2.0
    f_lo = oracle_ids(device, lo, vds) - target_ids
    f_hi = oracle_ids(device, hi, vds) - target_ids
    if f_lo > 0 or f_hi < 0:
        raise ValueError(f"target {target_ids} A out of range")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if oracle_ids(device, mid, vds) < target_ids:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_transfer(mirror, i_in, v_out=None):
    if i_in <= 0:
        raise ValueError("mirror input current must be positive")
    v_gate = _oracle_vgs_for_current(mirror.reference, i_in, vds=None)
    lo, hi = -1.0, mirror.reference.process.vdd + 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if oracle_ids(mirror.reference, mid, mid) < i_in:
            lo = mid
        else:
            hi = mid
    v_gate = 0.5 * (lo + hi)
    if v_out is None:
        v_out = mirror.reference.process.vdd / 2.0
    return oracle_ids(mirror.output, v_gate, v_out)


def oracle_count_in_frame(adc, i_sensor, frame_s, rng=None, start_phase=None):
    if frame_s <= 0:
        raise ValueError("frame must be positive")
    generator = ensure_rng(rng)
    try:
        base_ramp = adc.ramp_time(i_sensor)
    except ValueError:
        return 0
    dead = adc.dead_time()
    noise_sigma = adc.comparator.noise_rms_v
    if start_phase is None:
        start_phase = float(generator.uniform(0.0, 1.0))
    elif not 0.0 <= start_phase <= 1.0:
        raise ValueError("start_phase must lie in [0, 1]")
    if noise_sigma == 0:
        period = base_ramp + dead
        return int((frame_s / period) + start_phase) if period > 0 else 0
    period = base_ramp + dead
    expected = frame_s / period
    if expected > 2000.0:
        sigma_cycle = base_ramp * (noise_sigma / adc.swing_v)
        sigma_count = math.sqrt(expected) * (sigma_cycle / period)
        jitter = float(generator.normal(0.0, sigma_count))
        return max(0, int(expected + start_phase + jitter))
    elapsed = -start_phase * (base_ramp + dead)
    count = 0
    net = adc.net_current(i_sensor)
    max_cycles = int(frame_s / (base_ramp + dead)) + 16
    for _ in range(max_cycles):
        swing = adc.swing_v + float(generator.normal(0.0, noise_sigma))
        swing = max(swing, 0.05 * adc.swing_v)
        try:
            ramp = adc.cint.charge_time(net, swing, start_v=adc.v_reset)
        except ValueError:
            break
        elapsed += ramp + dead
        if elapsed > frame_s:
            break
        count += 1
    return count


def oracle_draw_variations(rng, count):
    return [PixelVariation.draw(child) for child in spawn_children(rng, count)]


def oracle_paired_planes(rng, sites):
    offsets, cint_rel, leakage = np.empty(sites), np.empty(sites), np.empty(sites)
    for index, child in enumerate(spawn_children(ensure_rng(rng), sites)):
        variation = PixelVariation.draw(child)
        offsets[index] = variation.comparator_offset_v
        cint_rel[index] = variation.cint_relative_error
        leakage[index] = variation.leakage_a
    return offsets, cint_rel, leakage


def oracle_auto_calibrate(chip, pixels, frame_s, rng):
    generator = ensure_rng(rng)
    branch_currents = chip.reference_tree.branch_currents() / 100.0
    corrections = np.empty(chip.specs.sites)
    for index, pixel in enumerate(pixels):
        i_ref = float(branch_currents[index % len(branch_currents)])
        corrections[index] = pixel.calibrate(i_ref, frame_s, rng=generator)
    chip._write_register("calibration_enable", 1)
    return corrections


def oracle_measure_assay(chip, pixels, assay, frame_s, rng):
    generator = ensure_rng(rng)
    counts = np.zeros((chip.specs.rows, chip.specs.cols), dtype=int)
    for row in range(chip.specs.rows):
        for col in range(chip.specs.cols):
            pixel = pixels[row * chip.specs.cols + col]
            counts[row, col] = pixel.measure_concentration(
                assay.site_at(row, col).surface_concentration, frame_s, rng=generator
            )
    chip._last_counts = counts.reshape(-1).astype(np.int64)
    return counts


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
mismatches = st.one_of(
    st.none(),
    st.builds(
        MismatchSample,
        delta_vth=st.floats(-0.05, 0.05),
        delta_beta_rel=st.floats(-0.1, 0.1),
    ),
)

devices = st.builds(
    Mosfet,
    width=st.floats(0.5e-6, 50e-6),
    length=st.floats(0.5e-6, 10e-6),
    polarity=st.sampled_from(["n", "p"]),
    process=st.sampled_from([C5_PROCESS, C5_PROCESS.scaled(0.7)]),
    mismatch=mismatches,
    temperature_k=st.floats(230.0, 420.0),
)


class TestMosfetOracle:
    @given(
        device=devices,
        vgs=st.floats(-1.0, 7.0),
        vds=st.floats(-5.0, 5.0),
        vsb=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    )
    @settings(max_examples=400, deadline=None)
    def test_ids_matches_oracle(self, device, vgs, vds, vsb):
        assert device.ids(vgs, vds, vsb) == oracle_ids(device, vgs, vds, vsb)

    @given(device=devices)
    @settings(max_examples=100, deadline=None)
    def test_derived_parameters_match_oracle(self, device):
        assert device.vth == _oracle_vth(device)
        assert device.n_factor == device.process.subthreshold_slope_n
        assert device.specific_current == _oracle_specific_current(device)

    @given(device=devices, exponent=st.floats(-11.0, -4.0))
    @settings(max_examples=60, deadline=None)
    def test_vgs_for_current_matches_oracle(self, device, exponent):
        target = 10.0**exponent
        try:
            expected = _oracle_vgs_for_current(device, target)
        except ValueError:
            with pytest.raises(ValueError, match="out of range"):
                device.vgs_for_current(target)
            return
        assert device.vgs_for_current(target) == expected


class TestCurrentMirrorOracle:
    @given(
        width=st.floats(1e-6, 20e-6),
        length=st.floats(0.5e-6, 8e-6),
        gain=st.floats(0.25, 8.0),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-10.0, -4.0),
        v_out=st.one_of(st.none(), st.floats(0.1, 5.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_transfer_matches_oracle(self, width, length, gain, seed, exponent, v_out):
        mirror = CurrentMirror.matched_pair(width, length, gain, rng=seed)
        i_in = 10.0**exponent
        assert mirror.transfer(i_in, v_out) == oracle_transfer(mirror, i_in, v_out)

    @pytest.mark.parametrize("seed", range(50))
    def test_branch_currents_match_oracle(self, seed):
        fanout = ReferenceCurrentFanout.build(1.0e-6, count=8, rng=seed)
        expected = np.asarray([oracle_transfer(m, fanout.master_current) for m in fanout.branches])
        np.testing.assert_array_equal(fanout.branch_currents(), expected)


def _adc(noise_rms_v=0.002, leakage_conductance_s=0.0, offset_v=0.0, leakage_a=2e-15):
    return SawtoothAdc(
        cint=Capacitor(100e-15, leakage_conductance_s=leakage_conductance_s),
        comparator=Comparator(
            threshold_v=1.0, offset_v=offset_v, delay_s=50e-9, noise_rms_v=noise_rms_v
        ),
        tau_delay_s=100e-9,
        leakage_a=leakage_a,
    )


def _assert_counts_match(adc, i_sensor, frame_s, seed, start_phase):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = adc.count_in_frame(i_sensor, frame_s, rng=ours, start_phase=start_phase)
    want = oracle_count_in_frame(adc, i_sensor, frame_s, rng=theirs, start_phase=start_phase)
    assert got == want
    # The shared measure stream must be consumed identically.
    assert ours.random() == theirs.random()
    return got


phases = st.one_of(st.none(), st.floats(0.0, 1.0))


class TestCountInFrameOracle:
    @given(
        exponent=st.floats(-13.0, -6.5),
        frame_s=st.floats(1e-3, 0.1),
        seed=st.integers(0, 2**32 - 1),
        start_phase=phases,
        offset_v=st.floats(-0.02, 0.02),
    )
    @settings(max_examples=120, deadline=None)
    def test_noisy_matches_oracle(self, exponent, frame_s, seed, start_phase, offset_v):
        # Spans below the leakage floor, the event loop (<= 2000 expected
        # cycles) and the Gaussian limit (> 2000).
        _assert_counts_match(_adc(offset_v=offset_v), 10.0**exponent, frame_s, seed, start_phase)

    @given(
        exponent=st.floats(-12.0, -6.5),
        frame_s=st.floats(1e-3, 0.1),
        seed=st.integers(0, 2**32 - 1),
        start_phase=phases,
    )
    @settings(max_examples=60, deadline=None)
    def test_noiseless_matches_oracle(self, exponent, frame_s, seed, start_phase):
        _assert_counts_match(_adc(noise_rms_v=0.0), 10.0**exponent, frame_s, seed, start_phase)

    @given(
        margin=st.floats(1e-4, 0.01),
        seed=st.integers(0, 2**32 - 1),
        start_phase=phases,
    )
    @settings(max_examples=60, deadline=None)
    def test_leak_limited_break_matches_oracle(self, margin, seed, start_phase):
        # The charge plateau sits a few noise sigmas above the 1 V swing,
        # so noisy cycles whose threshold lands above it end the frame
        # through charge_time's ValueError.
        g = 1e-12
        adc = _adc(leakage_conductance_s=g, leakage_a=0.0)
        i_sensor = g * (1.0 + margin)
        _assert_counts_match(adc, i_sensor, 0.05, seed, start_phase)

    def test_branches_are_reached(self):
        frame = 0.05
        noisy = _adc()
        assert _assert_counts_match(noisy, 1e-13, frame, 1, None) == 0
        event = _assert_counts_match(noisy, 1e-10, frame, 2, None)
        assert 0 < event <= 2000
        assert _assert_counts_match(noisy, 1e-8, frame, 3, None) > 2000
        assert _assert_counts_match(_adc(noise_rms_v=0.0), 1e-10, frame, 4, 0.5) > 0
        leaky = _adc(leakage_conductance_s=1e-12, leakage_a=0.0)
        full = oracle_count_in_frame(leaky, 1.0004e-12, frame, rng=5, start_phase=0.0)
        assert full < frame / leaky.cycle_period(1.0004e-12)
        assert _assert_counts_match(leaky, 1.0004e-12, frame, 5, 0.0) == full


def test_spawn_children_matches_default_rng_streams():
    children = spawn_children(42, 16)
    seeds = np.random.default_rng(42).integers(0, 2**63 - 1, size=16)
    for child, seed in zip(children, seeds):
        assert child.random(4).tolist() == np.random.default_rng(int(seed)).random(4).tolist()


# ----------------------------------------------------------------------
# Child streams and the chip's pixel loops
# ----------------------------------------------------------------------
class TestChildStreams:
    @given(
        seed=st.integers(0, 2**64 - 1),
        count=st.sampled_from([0, 1, 2, 128, 1000]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_spawn_children(self, seed, count):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        streams = child_streams(ours, count)
        children = spawn_children(theirs, count)
        # The parent is consumed at the call, before any child is used.
        assert ours.bit_generator.state == theirs.bit_generator.state
        seen = 0
        for index, (stream, child) in enumerate(zip(streams, children)):
            assert stream.bit_generator.state == child.bit_generator.state
            # Uneven draws per child: each one must still start fresh.
            size = index % 4
            assert stream.random(size).tolist() == child.random(size).tolist()
            assert stream.normal() == child.normal()
            seen += 1
        assert seen == count
        assert next(streams, None) is None
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 2])
    def test_seeding_hash_matches_pcg64(self, seed):
        # A seed below 2**32 has a one-word entropy array in NumPy.
        state = np.random.PCG64(seed).state["state"]
        assert _pcg64_states(np.array([seed], dtype=np.int64)) == [
            (state["state"], state["inc"])
        ]

    def test_negative_count_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            child_streams(0, -1)

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_draw_variations_match_spawned_children(self, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert draw_variations(ours, 128).tolist() == [
            list(dataclasses.astuple(v)) for v in oracle_draw_variations(theirs, 128)
        ]
        assert ours.bit_generator.state == theirs.bit_generator.state


def _variations(chip):
    return [pixel.variation for pixel in chip.pixels]


def _oracle_chip(monkeypatch, specs, rng):
    """A chip drawn through the frozen variation draw, and the frozen
    model's pixels: one ``DnaSensorPixel`` per drawn variation."""
    drawn = []

    def draw(rng, count):
        drawn.extend(oracle_draw_variations(rng, count))
        return np.array([dataclasses.astuple(v) for v in drawn])

    with monkeypatch.context() as patch:
        patch.setattr(dna_chip, "draw_variations", draw)
        chip = DnaMicroarrayChip(specs, rng=rng)
    return chip, [DnaSensorPixel(v, counter_bits=specs.counter_bits) for v in drawn]


def _assay(specs, seed):
    layout = ProbeLayout.random_panel(4, rows=specs.rows, cols=specs.cols, rng=seed)
    return MicroarrayAssay(layout).run(Sample.for_probes(layout.probes(), 1e-6))


class TestChipLoopsOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(16, 8), (3, 5)])
    def test_object_chip_matches_frozen_loops(self, monkeypatch, seed, shape):
        specs = ChipSpecs(rows=shape[0], cols=shape[1])
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        chip = DnaMicroarrayChip(specs, rng=ours)
        oracle, oracle_pixels = _oracle_chip(monkeypatch, specs, theirs)
        assert _variations(chip) == [pixel.variation for pixel in oracle_pixels]
        assert ours.bit_generator.state == theirs.bit_generator.state

        calibration = [np.random.default_rng(seed + 10) for _ in range(2)]
        corrections = chip.auto_calibrate(rng=calibration[0])
        expected = oracle_auto_calibrate(oracle, oracle_pixels, 0.05, calibration[1])
        assert corrections.dtype == expected.dtype
        assert corrections.tolist() == expected.tolist()
        assert [p.gain_correction for p in chip.pixels] == [
            p.gain_correction for p in oracle_pixels
        ]
        assert calibration[0].bit_generator.state == calibration[1].bit_generator.state

        assay = _assay(specs, seed)
        measure = [np.random.default_rng(seed + 20) for _ in range(2)]
        counts = chip.measure_assay(assay, rng=measure[0])
        expected = oracle_measure_assay(oracle, oracle_pixels, assay, 1.0, measure[1])
        assert counts.dtype == expected.dtype and counts.shape == expected.shape
        assert counts.tolist() == expected.tolist()
        assert chip._last_counts.dtype == oracle._last_counts.dtype
        assert chip._last_counts.tolist() == oracle._last_counts.tolist()
        assert measure[0].bit_generator.state == measure[1].bit_generator.state
        # The returned matrix is the caller's: writing it leaves the
        # counts the serial readout shifts out alone.
        counts[0, 0] += 1
        assert chip._last_counts.tolist() == oracle._last_counts.tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_paired_planes_match_frozen_loop(self, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        params = PixelArrayParams.draw(16, 8, rng=ours, mode="paired")
        offsets, cint_rel, leakage = oracle_paired_planes(theirs, 128)
        assert params.comparator_offset_v.ravel().tolist() == offsets.tolist()
        assert params.cint_relative_error.ravel().tolist() == cint_rel.tolist()
        assert params.leakage_a.ravel().tolist() == leakage.tolist()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 3])
    def test_vectorized_paired_chip_matches_frozen_object_chip(self, monkeypatch, seed):
        specs = ChipSpecs()
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        chip = VectorizedDnaChip(specs, rng=ours)
        _, oracle_pixels = _oracle_chip(monkeypatch, specs, theirs)
        variations = [pixel.variation for pixel in oracle_pixels]
        assert chip.params.comparator_offset_v.ravel().tolist() == [
            v.comparator_offset_v for v in variations
        ]
        assert chip.params.leakage_a.ravel().tolist() == [v.leakage_a for v in variations]
        assert ours.bit_generator.state == theirs.bit_generator.state


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
@pytest.fixture
def ids_calls(monkeypatch):
    calls = [0]
    ids = Mosfet.ids

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return ids(self, *args, **kwargs)

    monkeypatch.setattr(Mosfet, "ids", counted)
    return calls


@pytest.fixture
def adc_frames(monkeypatch):
    """Counts ``SawtoothAdc.count_in_frame`` calls, wrapped on the class
    as the end-to-end benchmark's ``pixel.adc_frames`` counter is."""
    calls = [0]
    count_in_frame = SawtoothAdc.count_in_frame

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return count_in_frame(self, *args, **kwargs)

    monkeypatch.setattr(SawtoothAdc, "count_in_frame", counted)
    return calls


#: The Fig. 4 chip experiment the end-to-end benchmark sweeps, and the
#: fault schedule of its faulted service workload.
FIG4_FAULTS = (
    {"kind": "serial_bitflip", "rate": 0.3, "n_flips": 2},
    {"kind": "stuck_pixel", "rate": 0.02},
)


#: The readout accounting of one faulted Fig. 4 point at seed 0.
PINNED_FAULT_COUNTS = {"fault_retries": 4, "fault_frames_corrupted": 2, "fault_sites_dead": 0}


def _fig4_point(concentration, faults=()):
    spec = {"kind": "dna_assay", "probe_count": 4, "replicates": 4, "target_subset": [0, 1]}
    return spec_from_dict({**spec, "concentration": concentration, "faults": list(faults)})


class TestWorkCounts:
    def test_transfer_makes_83_ids_calls(self, ids_calls):
        mirror = CurrentMirror.matched_pair(4e-6, 2e-6, rng=3)
        mirror.transfer(1e-6)
        # 2 range endpoints + 80 diode bisection steps + 1 output device.
        assert ids_calls[0] == 83

    def test_chip_build_and_calibrate_makes_664_ids_calls(self, ids_calls):
        chip = DnaMicroarrayChip(rng=7)
        chip.auto_calibrate(rng=8)
        # 8 reference-tree branches x 83 (it was 8 x 183 = 1,464).
        assert ids_calls[0] == 664

    @pytest.mark.parametrize("faults", [(), FIG4_FAULTS])
    def test_a_fig4_point_counts_one_adc_frame_per_pixel_per_frame(
        self, adc_frames, faults
    ):
        runner = Runner(seed=0)
        runner.run(_fig4_point(1e-7, faults))
        # 128 calibration frames + 128 measurement frames.
        assert adc_frames[0] == 256
        runner.run(_fig4_point(1e-6, faults))
        # The second point reuses the runner's cached, calibrated chip.
        assert adc_frames[0] == 256 + 128

    @pytest.mark.parametrize("faults", [(), FIG4_FAULTS])
    def test_a_fig4_point_builds_no_per_pixel_objects(self, monkeypatch, faults):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built on the Fig. 4 path")

        for cls in (DnaSensorPixel, PixelCounter, PixelVariation):
            monkeypatch.setattr(cls, "__init__", refuse)
        result = Runner(seed=0).run(_fig4_point(1e-7, faults))
        assert result.metrics

    def test_a_fig4_point_runs_the_chemistry_once_per_distinct_spot(self, monkeypatch):
        calls = {"_run_site": 0, "mismatches_with": 0}

        def counting(cls, name):
            method = getattr(cls, name)

            def counted(self, *args, **kwargs):
                calls[name] += 1
                return method(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        counting(MicroarrayAssay, "_run_site")
        counting(Target, "mismatches_with")
        Runner(seed=0).run(_fig4_point(1e-7))
        # 4 probes x 4 replicates + 112 bare controls: 5 distinct spots,
        # and 4 probes x 2 targets scored (it was 128 and 16 x 2 = 32).
        assert calls == {"_run_site": 5, "mismatches_with": 8}

    def test_a_fig4_point_builds_one_site_result_per_distinct_spot(self, monkeypatch):
        built = []
        init = SiteResult.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SiteResult, "__init__", counted)
        result = Runner(seed=0).run(_fig4_point(1e-7))
        # The 5 spot outcomes and no per-position copy (it was 5 + 128).
        assert len(built) == 5
        assert result.artifacts["assay"].spots == tuple(built)

    def test_a_faulted_fig4_point_reads_out_with_pinned_recovery_counts(self):
        metrics = Runner(seed=0).run(_fig4_point(1e-7, FIG4_FAULTS)).metrics
        counts = {key: metrics[key] for key in PINNED_FAULT_COUNTS}
        assert counts == PINNED_FAULT_COUNTS

    def test_mosfet_is_frozen(self):
        device = Mosfet(2e-6, 1e-6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            device.temperature_k = 310.0
