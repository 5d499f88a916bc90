"""The integrated 16x8 DNA microarray chip (Fig. 4)."""

import dataclasses

import numpy as np
import pytest

from repro.chip.dna_chip import ChipSpecs, DnaMicroarrayChip
from repro.chip.serial_interface import HOST_TO_CHIP, Command, Frame, decode_frame
from repro.dna import MicroarrayAssay, ProbeLayout, Sample
from repro.engine import VectorizedDnaChip


class TestSpecs:
    def test_defaults_match_paper(self):
        specs = ChipSpecs()
        assert specs.rows * specs.cols == 128
        assert specs.process.vdd == 5.0
        assert specs.process.l_min == pytest.approx(0.5e-6)
        assert specs.process.t_ox == pytest.approx(15e-9)
        assert specs.pin_count == 6

    def test_as_rows_renders(self):
        rows = ChipSpecs().as_rows()
        assert any("16 x 8" in value for _, value in rows)


class TestConfiguration:
    def test_bias_configuration_good(self, dna_chip):
        assert dna_chip.configure_bias(0.45, -0.25)
        assert dna_chip.registers.read("generator_dac") > 0

    def test_bias_misconfiguration_detected(self):
        chip = DnaMicroarrayChip(rng=5)
        # Collector above the redox potential: cycling impossible.
        assert not chip.configure_bias(0.45, 0.45)

    def test_misbiased_chip_reads_background_only(self):
        chip = DnaMicroarrayChip(rng=6)
        chip.configure_bias(0.45, 0.45)
        currents = np.full((16, 8), 1e-9)
        # Pixels still convert raw currents (test mode bypasses chemistry).
        counts = chip.measure_currents(currents, frame_s=0.1, rng=1)
        assert counts.max() > 0

    def test_pixel_indexing(self, dna_chip):
        # Pixels are views built on demand around each site's converter.
        assert dna_chip.pixel_at(0, 0).adc is dna_chip.pixels[0].adc is dna_chip.adcs[0]
        assert dna_chip.pixel_at(15, 7).adc is dna_chip.pixels[127].adc is dna_chip.adcs[127]
        with pytest.raises(IndexError):
            dna_chip.pixel_at(16, 0)


class TestCalibrationAndMeasurement:
    def test_calibration_improves_estimates(self):
        chip = DnaMicroarrayChip(rng=21)
        chip.configure_bias(0.45, -0.25)
        currents = np.full((16, 8), 2e-9)
        counts_raw = chip.measure_currents(currents, frame_s=1.0, rng=1)
        est_raw = chip.current_estimates(counts_raw, 1.0)
        err_raw = np.abs(est_raw - 2e-9) / 2e-9
        chip.auto_calibrate(frame_s=0.1, rng=2)
        counts_cal = chip.measure_currents(currents, frame_s=1.0, rng=3)
        est_cal = chip.current_estimates(counts_cal, 1.0)
        err_cal = np.abs(est_cal - 2e-9) / 2e-9
        assert np.median(err_cal) < np.median(err_raw)
        assert np.median(err_cal) < 0.01

    def test_measure_currents_shape_checked(self, dna_chip):
        with pytest.raises(ValueError):
            dna_chip.measure_currents(np.zeros((4, 4)))

    def test_nan_site_current_is_rejected(self):
        currents = np.full((16, 8), 1e-9)
        currents[3, 5] = np.nan
        with pytest.raises(ValueError, match="sensor current is NaN"):
            DnaMicroarrayChip(rng=1).measure_currents(currents, frame_s=0.1, rng=2)

    def test_count_matrix_monotone_in_current(self):
        chip = DnaMicroarrayChip(rng=22)
        chip.configure_bias(0.45, -0.25)
        lo = chip.measure_currents(np.full((16, 8), 1e-10), frame_s=0.5, rng=4)
        hi = chip.measure_currents(np.full((16, 8), 1e-9), frame_s=0.5, rng=5)
        assert np.all(hi > lo)

    def test_assay_grid_mismatch_rejected(self, dna_chip):
        layout = ProbeLayout.random_panel(4, rows=4, cols=4, rng=1)
        sample = Sample.for_probes(layout.probes(), 1e-6)
        result = MicroarrayAssay(layout).run(sample)
        with pytest.raises(ValueError):
            dna_chip.measure_assay(result)

    def test_assay_transduction_matches_the_scalar_sensor(self):
        chip = DnaMicroarrayChip(rng=24)
        layout = ProbeLayout.random_panel(4, rows=16, cols=8, rng=2)
        result = MicroarrayAssay(layout).run(Sample.for_probes(layout.probes(), 1e-6))
        currents = np.zeros((16, 8))
        for row in range(16):
            for col in range(8):
                site = result.site_at(row, col)
                currents[row, col] = chip.sensor.current(site.surface_concentration)
        for bias_ok in (True, False):
            chip.sensor.bias_ok = bias_ok
            expected = chip.measure_currents(currents, frame_s=0.5, rng=7)
            assert chip.measure_assay(result, frame_s=0.5, rng=7).tolist() == expected.tolist()
            currents[:] = chip.sensor.background_current

    @pytest.mark.parametrize(
        "concentration, message",
        [(-1e-9, "concentration must be non-negative"), (np.nan, "sensor current is NaN")],
    )
    def test_bad_site_concentration_is_rejected(self, concentration, message):
        layout = ProbeLayout.random_panel(4, rows=16, cols=8, rng=3)
        result = MicroarrayAssay(layout).run(Sample.for_probes(layout.probes(), 1e-6))
        spots = list(result.spots)
        group = result.groups[9]
        spots[group] = dataclasses.replace(spots[group], surface_concentration=concentration)
        result = dataclasses.replace(result, spots=tuple(spots))
        with pytest.raises(ValueError, match=message):
            DnaMicroarrayChip(rng=25).measure_assay(result, frame_s=0.1, rng=4)

    @pytest.mark.parametrize("chip_type", [DnaMicroarrayChip, VectorizedDnaChip])
    def test_a_nan_spot_is_refused_on_both_backends(self, chip_type):
        layout = ProbeLayout.random_panel(4, rows=16, cols=8, rng=3)
        result = MicroarrayAssay(layout).run(Sample.for_probes(layout.probes(), 1e-6))
        spots = list(result.spots)
        spots[0] = dataclasses.replace(spots[0], surface_concentration=np.nan)
        result = dataclasses.replace(result, spots=tuple(spots))
        with pytest.raises(ValueError, match="sensor current is NaN"):
            chip_type(rng=25).measure_assay(result, frame_s=0.1, rng=4)


class TestSerialReadout:
    def test_counts_roundtrip_through_link(self):
        chip = DnaMicroarrayChip(rng=23)
        chip.configure_bias(0.45, -0.25)
        counts = chip.measure_currents(np.full((16, 8), 1e-9), frame_s=0.2, rng=6)
        host = chip.read_counters_serial()
        assert host == [int(c) for c in counts.reshape(-1)]
        assert len(host) == 128

    def test_transcript_records_traffic(self):
        chip = DnaMicroarrayChip(rng=24)
        chip.configure_bias(0.45, -0.25)
        n_before = len(chip.link.transcript)
        chip.measure_currents(np.full((16, 8), 1e-10), frame_s=0.1, rng=7)
        chip.read_counters_serial()
        assert len(chip.link.transcript) > n_before

    @pytest.mark.parametrize("chip_type", [DnaMicroarrayChip, VectorizedDnaChip])
    def test_each_measurement_opens_one_run_frame(self, chip_type):
        """Every counting frame is started by the host: each measure call
        puts exactly one host->chip RUN_FRAME on the link, traced or not."""
        chip = chip_type(rng=26)
        layout = ProbeLayout.random_panel(4, rows=16, cols=8, rng=2)
        assay = MicroarrayAssay(layout).run(Sample.for_probes(layout.probes(), 1e-6))
        measurements = (
            lambda: chip.measure_currents(np.full((16, 8), 1e-9), frame_s=0.1, rng=1),
            lambda: chip.measure_assay(assay, frame_s=0.1, rng=2),
        )
        for measure in measurements * 2:
            before = len(chip.link.transcript)
            measure()
            added = chip.link.transcript[before:]
            assert [(d, stage) for d, stage, _ in added] == [
                (HOST_TO_CHIP, "sent"),
                (HOST_TO_CHIP, "received"),
            ]
            assert {decode_frame(raw) for _, _, raw in added} == {
                Frame(Command.RUN_FRAME, 0x00)
            }


class TestFailureInjection:
    def test_dead_pixel_never_fires(self):
        chip = DnaMicroarrayChip(rng=25)
        chip.configure_bias(0.45, -0.25)
        chip.inject_dead_pixel(3, 3)
        counts = chip.measure_currents(np.full((16, 8), 5e-12), frame_s=1.0, rng=8)
        assert counts[3, 3] == 0
        assert counts[0, 0] > 0

    def test_dead_pixel_map(self):
        chip = DnaMicroarrayChip(rng=26)
        chip.inject_dead_pixel(1, 2)
        flags = chip.dead_pixel_map()
        assert flags[1, 2]
        assert flags.sum() >= 1
