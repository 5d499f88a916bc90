"""VectorizedDnaChip vs DnaMicroarrayChip — the backend parity contract.

The vectorized chip is a single-chip subclass of the object chip: paired
construction must be bit-identical; deterministic host-side math
bit-identical; stochastic counting within the start-phase + jitter
budget documented in repro.engine.  Batches of chips exist only in the
stacked evaluator (``draw_chips`` / ``calibrate_chips`` /
``count_chips``), tested here against spawned object chips.
"""

import inspect

import numpy as np
import pytest

from repro.chip.dna_chip import ChipSpecs, DnaMicroarrayChip
from repro.core.rng import spawn_children
from repro.dna import MicroarrayAssay, ProbeLayout, Sample
from repro.engine import PixelArrayParams, VectorizedDnaChip, kernels
from repro.engine.vchip import calibrate_chips, count_chips, draw_chips
from repro.experiments import ArrayScaleSpec


def count_budget(chip, currents, frame_s):
    """Documented cross-backend tolerance: 1 count of start-phase
    quantisation + the accumulated cycle jitter envelope."""
    sigma = kernels.count_noise_sigma(
        currents,
        frame_s,
        chip.params.cint_f,
        chip.params.swing_v,
        chip.params.leakage_a,
        chip.params.comparator_delay_s,
        chip.params.tau_delay_s,
        chip.params.noise_rms_v,
    )
    return 1 + np.ceil(8 * np.squeeze(sigma))


class TestPairedConstruction:
    def test_pixel_parameters_bitwise(self):
        obj = DnaMicroarrayChip(rng=42)
        vec = VectorizedDnaChip(rng=42)
        np.testing.assert_array_equal(
            vec.params.cint_f.reshape(-1), [p.adc.cint.capacitance_f for p in obj.pixels]
        )
        np.testing.assert_array_equal(
            vec.params.comparator_offset_v.reshape(-1),
            [p.adc.comparator.offset_v for p in obj.pixels],
        )
        np.testing.assert_array_equal(
            vec.params.leakage_a.reshape(-1), [p.adc.leakage_a for p in obj.pixels]
        )
        np.testing.assert_array_equal(
            vec.params.swing_v.reshape(-1), [p.adc.swing_v for p in obj.pixels]
        )

    def test_periphery_bitwise(self):
        obj = DnaMicroarrayChip(rng=43)
        vec = VectorizedDnaChip(rng=43)
        np.testing.assert_array_equal(
            vec.reference_tree.branch_currents(), obj.reference_tree.branch_currents()
        )
        assert vec.generator_dac.code_for_voltage(0.45) == obj.generator_dac.code_for_voltage(0.45)
        assert vec.collector_dac.code_for_voltage(-0.25) == obj.collector_dac.code_for_voltage(-0.25)

    def test_batch_pairs_with_spawned_object_chips(self):
        """A stacked draw of three chips from one stream pairs chip for
        chip with object chips built from the spawned children."""
        specs = ChipSpecs(rows=8, cols=4)
        root = 77
        params, peripheries = draw_chips(specs, [root], 3, "paired", periphery=True)
        assert params.shape == (3, 8, 4)
        children = spawn_children(np.random.default_rng(root), 3)
        for index, child in enumerate(children):
            obj = DnaMicroarrayChip(specs, rng=child)
            np.testing.assert_array_equal(
                params.cint_f[index].reshape(-1),
                [p.adc.cint.capacitance_f for p in obj.pixels],
            )
            np.testing.assert_array_equal(
                peripheries[index].reference_tree.branch_currents(),
                obj.reference_tree.branch_currents(),
            )

    def test_fast_mode_deterministic_with_spread(self):
        a, _ = draw_chips(ChipSpecs(rows=32, cols=32), [5], 1, "fast", periphery=False)
        b, _ = draw_chips(ChipSpecs(rows=32, cols=32), [5], 1, "fast", periphery=False)
        np.testing.assert_array_equal(a.cint_f, b.cint_f)
        rel = a.cint_relative_error
        assert 0.010 < rel.std() < 0.020  # sigma_cint_rel = 0.015
        assert np.all(a.leakage_a >= 0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            draw_chips(ChipSpecs(), [1], 0, "paired", periphery=False)
        with pytest.raises(ValueError):
            ArrayScaleSpec(n_chips=0)
        with pytest.raises(ValueError):
            PixelArrayParams.draw(8, 8, rng=1, mode="psychic")
        with pytest.raises(ValueError):
            PixelArrayParams.draw(0, 8, rng=1)

    def test_single_chip_subclass_of_the_object_chip(self):
        """One host half: the vectorized chip takes the object chip's
        constructor and overrides only its pixel side."""
        assert issubclass(VectorizedDnaChip, DnaMicroarrayChip)
        assert inspect.signature(VectorizedDnaChip) == inspect.signature(DnaMicroarrayChip)
        overrides = {name for name in vars(VectorizedDnaChip) if not name.startswith("__")}
        assert overrides == {
            "_draw_pixels",
            "_count_frame",
            "cint_host_nominal_f",
            "dead_time_s",
            "dead_pixel_map",
            "inject_dead_pixel",
            "pixel_at",
        }
        chip = VectorizedDnaChip(rng=1)
        assert chip.params.shape == (1, 16, 8)

    def test_pixel_views_are_object_only(self):
        chip = VectorizedDnaChip(rng=1)
        with pytest.raises(NotImplementedError, match='backend="object"'):
            chip.pixel_at(0, 0)
        with pytest.raises(NotImplementedError, match="pixel views"):
            chip.pixels


class TestConfigurationAndCalibration:
    def test_bias_configuration_parity(self):
        obj = DnaMicroarrayChip(rng=5)
        vec = VectorizedDnaChip(rng=5)
        assert obj.configure_bias(0.45, -0.25) == vec.configure_bias(0.45, -0.25) is True
        # Collector above the redox potential: cycling impossible.
        assert obj.configure_bias(0.45, 0.45) == vec.configure_bias(0.45, 0.45) is False
        assert vec.registers.read("generator_dac") > 0

    def test_auto_calibrate_matches_within_quantisation(self):
        obj = DnaMicroarrayChip(rng=21)
        vec = VectorizedDnaChip(rng=21)
        obj.configure_bias(0.45, -0.25)
        vec.configure_bias(0.45, -0.25)
        corr_obj = obj.auto_calibrate(frame_s=0.05, rng=2)
        corr_vec = vec.auto_calibrate(frame_s=0.05, rng=2)
        assert corr_vec.shape == corr_obj.shape
        np.testing.assert_allclose(corr_vec, corr_obj, rtol=2e-3)

    def test_calibration_improves_estimates_vectorized(self):
        """The object-model acceptance test, replayed on the engine."""
        chip = VectorizedDnaChip(rng=21)
        chip.configure_bias(0.45, -0.25)
        currents = np.full((16, 8), 2e-9)
        est_raw = chip.current_estimates(chip.measure_currents(currents, 1.0, rng=1), 1.0)
        err_raw = np.abs(est_raw - 2e-9) / 2e-9
        chip.auto_calibrate(frame_s=0.1, rng=2)
        est_cal = chip.current_estimates(chip.measure_currents(currents, 1.0, rng=3), 1.0)
        err_cal = np.abs(est_cal - 2e-9) / 2e-9
        assert np.median(err_cal) < np.median(err_raw)
        assert np.median(err_cal) < 0.01


class TestMeasurement:
    def test_counts_within_documented_budget(self):
        obj = DnaMicroarrayChip(rng=42)
        vec = VectorizedDnaChip(rng=42)
        currents = np.logspace(-12, -7, 128).reshape(16, 8)
        counts_obj = obj.measure_currents(currents, frame_s=0.5, rng=7)
        counts_vec = vec.measure_currents(currents, frame_s=0.5, rng=7)
        budget = count_budget(vec, currents, 0.5)
        assert np.all(np.abs(counts_obj - counts_vec) <= budget)

    def test_counts_monotone_in_current(self):
        chip = VectorizedDnaChip(rng=22)
        lo = chip.measure_currents(np.full((16, 8), 1e-10), frame_s=0.5, rng=4)
        hi = chip.measure_currents(np.full((16, 8), 1e-9), frame_s=0.5, rng=5)
        assert np.all(hi > lo)

    def test_shape_validation(self):
        chip = VectorizedDnaChip(rng=1)
        with pytest.raises(ValueError):
            chip.measure_currents(np.zeros((4, 4)))
        layout = ProbeLayout.random_panel(4, rows=4, cols=4, rng=1)
        sample = Sample.for_probes(layout.probes(), 1e-6)
        assay = MicroarrayAssay(layout).run(sample)
        with pytest.raises(ValueError):
            chip.measure_assay(assay)
        with pytest.raises(ValueError):
            chip.current_estimates(np.zeros((4, 4)), 1.0)

    def test_batched_measurement_shapes(self):
        """A stack of chips counts in one call, each chip with its own
        mismatch; calibration corrections come back shaped like it."""
        params, peripheries = draw_chips(ChipSpecs(rows=8, cols=4), [9], 3, "fast", True)
        currents = np.full((8, 4), 1e-9)
        counts = count_chips(params, currents, 0.2, [1])
        assert counts.shape == (3, 8, 4)
        assert np.all(counts > 0)
        trees = [periphery.reference_tree for periphery in peripheries]
        corrections = calibrate_chips(params, trees, 0.05, [2])
        assert corrections.shape == (3, 8, 4)
        # Chip instances differ (independent mismatch), so their counts do.
        assert not np.array_equal(counts[0], counts[1])

    def test_misbiased_chip_reads_background_only(self):
        layout = ProbeLayout.random_panel(4, rows=16, cols=8, rng=1)
        assay = MicroarrayAssay(layout).run(Sample.for_probes(layout.probes(), 1e-3))
        biased = VectorizedDnaChip(rng=6)
        biased.configure_bias(0.45, -0.25)
        assert biased.measure_assay(assay, frame_s=1.0, rng=2).max() > 100
        chip = VectorizedDnaChip(rng=6)
        chip.configure_bias(0.45, 0.45)  # invalid bias
        counts = chip.measure_assay(assay, frame_s=1.0, rng=2)
        # Background (~0.5 pA) over 1 s: a handful of counts at most.
        assert counts.max() <= 10

    def test_arbitrary_geometry_128x128(self):
        chip = VectorizedDnaChip(ChipSpecs(rows=128, cols=128), rng=3)
        currents = np.logspace(-12, -7, 128 * 128).reshape(128, 128)
        counts = chip.measure_currents(currents, frame_s=0.05, rng=4)
        assert counts.shape == (128, 128)
        assert counts.max() > 0
        assert counts.dtype == np.int64


class TestHostSideParity:
    def test_current_estimates_bitwise_paired(self):
        """Same drawn Cint and stored calibration, same estimates bit for
        bit: the vectorized chip's nominal-Cint read is the object's."""
        obj = DnaMicroarrayChip(rng=30)
        vec = VectorizedDnaChip(rng=30)
        obj.configure_bias(0.45, -0.25)
        obj.auto_calibrate(frame_s=0.05, rng=1)
        vec.gain_correction = obj.gain_correction.copy()
        counts = obj.measure_currents(np.full((16, 8), 1e-9), frame_s=0.5, rng=2)
        np.testing.assert_array_equal(vec.cint_host_nominal_f, obj.cint_host_nominal_f)
        np.testing.assert_array_equal(
            vec.current_estimates(counts, 0.5), obj.current_estimates(counts, 0.5)
        )

    def test_current_estimates_truncate_fractional_counts(self):
        """Counts are whole pulses: float inputs truncate exactly as the
        seed-era per-pixel loop's int() did."""
        obj = DnaMicroarrayChip(rng=33)
        vec = VectorizedDnaChip(rng=33)
        fractional = np.full((16, 8), 3.7)
        whole = np.full((16, 8), 3.0)
        np.testing.assert_array_equal(
            obj.current_estimates(fractional, 0.1), obj.current_estimates(whole, 0.1)
        )
        np.testing.assert_array_equal(
            vec.current_estimates(fractional, 0.1), vec.current_estimates(whole, 0.1)
        )

    def test_dead_pixel_state_paired(self):
        obj = DnaMicroarrayChip(rng=31)
        vec = VectorizedDnaChip(rng=31)
        for chip in (obj, vec):
            chip.inject_dead_pixel(2, 5)
            with pytest.raises(IndexError):
                chip.inject_dead_pixel(16, 0)
        np.testing.assert_array_equal(vec.dead_pixel_map(), obj.dead_pixel_map())
        assert vec.dead_pixel_map()[2, 5]

    def test_serial_roundtrip_single_chip(self):
        chip = VectorizedDnaChip(rng=23)
        counts = chip.measure_currents(np.full((16, 8), 1e-9), frame_s=0.2, rng=6)
        host = chip.read_counters_serial()
        assert host == [int(c) for c in counts.reshape(-1)]
        assert len(host) == 128

    def test_sub_byte_counter_width_raises_cleanly(self):
        from repro.chip.dna_chip import counter_chunk_bytes

        for bits in (4, 12):
            with pytest.raises(ValueError, match="byte multiple"):
                counter_chunk_bytes(bits)
        chip = VectorizedDnaChip(ChipSpecs(rows=2, cols=2, counter_bits=4), rng=1)
        with pytest.raises(ValueError, match="byte multiple"):
            chip.read_counters_serial()

    def test_counter_saturation_with_narrow_counter(self):
        specs = ChipSpecs(counter_bits=8)
        chip = VectorizedDnaChip(specs, rng=2)
        counts = chip.measure_currents(np.full((16, 8), 50e-9), frame_s=1.0, rng=3)
        assert counts.max() == 255
        # Saturated counts still cross the serial link intact.
        assert chip.read_counters_serial() == [int(c) for c in counts.reshape(-1)]
