"""Samples, probe layouts and the end-to-end assay integration."""

import numpy as np
import pytest

from repro.dna import (
    AssayProtocol,
    DnaSequence,
    MicroarrayAssay,
    Probe,
    ProbeLayout,
    Sample,
    Target,
    perfect_target_for,
)


@pytest.fixture
def probes(rng):
    return [Probe(f"p{i}", DnaSequence.random(20, rng)) for i in range(4)]


class TestSample:
    def test_add_and_query(self, probes):
        sample = Sample()
        target = perfect_target_for(probes[0])
        sample.add(target, 1e-6)
        assert sample.concentration_of(target) == 1e-6
        assert len(sample) == 1

    def test_add_accumulates(self, probes):
        sample = Sample()
        target = perfect_target_for(probes[0])
        sample.add(target, 1e-6)
        sample.add(target, 1e-6)
        assert sample.concentration_of(target) == pytest.approx(2e-6)

    def test_rejects_negative(self, probes):
        with pytest.raises(ValueError):
            Sample().add(perfect_target_for(probes[0]), -1.0)

    def test_diluted(self, probes):
        sample = Sample({perfect_target_for(probes[0]): 1e-6})
        assert sample.diluted(10).total_concentration() == pytest.approx(1e-7)

    def test_for_probes_subset(self, probes):
        sample = Sample.for_probes(probes, 1e-6, subset=[0, 2])
        assert len(sample) == 2

    def test_for_probes_bad_index(self, probes):
        with pytest.raises(IndexError):
            Sample.for_probes(probes, 1e-6, subset=[99])

    def test_random_background(self):
        sample = Sample.random_background(5, 1e-7, rng=1)
        assert len(sample) == 5
        assert sample.total_concentration() == pytest.approx(5e-7)

    def test_merged(self, probes):
        a = Sample({perfect_target_for(probes[0]): 1e-6})
        b = Sample({perfect_target_for(probes[1]): 2e-6})
        merged = a.merged_with(b)
        assert len(merged) == 2
        assert merged.total_concentration() == pytest.approx(3e-6)


class TestProbeLayout:
    def test_tiled_fills_row_major(self, probes):
        layout = ProbeLayout.tiled(probes, rows=4, cols=4, replicates=4)
        assert layout.spot(0, 0).probe == probes[0]
        assert layout.spot(0, 3).probe == probes[0]
        assert layout.spot(1, 0).probe == probes[1]

    def test_replicate_count(self, probes):
        layout = ProbeLayout.tiled(probes, rows=4, cols=4, replicates=4)
        assert layout.replicate_count(probes[0]) == 4

    def test_control_spots(self, probes):
        layout = ProbeLayout.tiled(probes, rows=4, cols=4, replicates=4, control_every=4)
        controls = [p for p in layout.all_positions() if layout.spot(*p).probe is None]
        assert len(controls) == 4

    def test_unassigned_is_bare(self):
        layout = ProbeLayout(rows=2, cols=2)
        spot = layout.spot(1, 1)
        assert spot.probe is None
        assert spot.probe_density == 0.0

    def test_out_of_bounds(self, probes):
        layout = ProbeLayout(rows=2, cols=2)
        with pytest.raises(IndexError):
            layout.assign(5, 0, probes[0])
        with pytest.raises(IndexError):
            layout.spot(0, 9)

    def test_probes_unique_in_order(self, probes):
        layout = ProbeLayout.tiled(probes, rows=4, cols=4, replicates=2)
        assert layout.probes() == probes

    def test_random_panel_dimensions(self):
        layout = ProbeLayout.random_panel(8, rows=16, cols=8, rng=1)
        assert layout.rows == 16
        assert layout.cols == 8
        assert len(layout.probes()) == 8

    def test_occupancy_map(self, probes):
        layout = ProbeLayout(rows=2, cols=2)
        image = layout.occupancy_map({(0, 0): 1.5})
        assert image[0, 0] == 1.5
        assert np.isnan(image[1, 1])

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            ProbeLayout(rows=0, cols=4)


class TestAssayIntegration:
    def test_match_sites_light_up(self, probes):
        layout = ProbeLayout.tiled(probes, rows=4, cols=4, replicates=4)
        sample = Sample.for_probes(probes, 1e-5, subset=[0])
        result = MicroarrayAssay(layout).run(sample)
        match = result.match_sites()
        assert len(match) == 4
        others = result.mismatch_sites()
        assert min(s.sensor_current for s in match) > 10 * max(
            s.sensor_current for s in others
        )

    def test_bare_controls_stay_dark(self, probes):
        layout = ProbeLayout.tiled(probes, rows=4, cols=4, replicates=3, control_every=4)
        sample = Sample.for_probes(probes, 1e-5)
        result = MicroarrayAssay(layout).run(sample)
        bare = [s for s in result.sites if not s.probe_name]
        assert bare
        for site in bare:
            assert site.sensor_current < 1e-11

    def test_discrimination_ratio(self, probes):
        layout = ProbeLayout.tiled(probes, rows=4, cols=4, replicates=4)
        sample = Sample.for_probes(probes, 1e-5, subset=[0, 1])
        result = MicroarrayAssay(layout).run(sample)
        assert result.discrimination_ratio() > 100

    def test_dose_monotone(self, probes):
        layout = ProbeLayout.tiled(probes[:1], rows=2, cols=2, replicates=4)
        assay = MicroarrayAssay(layout)
        currents = []
        for conc in (1e-8, 1e-6, 1e-4):
            result = assay.run(Sample.for_probes(probes[:1], conc))
            currents.append(np.median([s.sensor_current for s in result.match_sites()]))
        assert currents[0] < currents[1] < currents[2]

    def test_current_map_shape(self, probes):
        layout = ProbeLayout.tiled(probes, rows=4, cols=4, replicates=4)
        result = MicroarrayAssay(layout).run(Sample.for_probes(probes, 1e-6))
        assert result.current_map().shape == (4, 4)

    def test_dynamic_range_reported(self, probes):
        layout = ProbeLayout.tiled(probes, rows=4, cols=4, replicates=3, control_every=4)
        result = MicroarrayAssay(layout).run(Sample.for_probes(probes, 1e-4))
        assert result.dynamic_range_decades() > 2

    def test_competition_shares_site(self, rng):
        # Two targets matching the same probe: occupancy must not exceed 1.
        probe = Probe("p", DnaSequence.random(20, rng))
        t1 = perfect_target_for(probe, name="t1")
        t2 = Target("t2", probe.sequence.reverse_complement().with_mismatches(1, rng))
        layout = ProbeLayout.tiled([probe], rows=2, cols=2, replicates=4)
        sample = Sample({t1: 1.0, t2: 1.0})  # saturating levels
        result = MicroarrayAssay(layout).run(sample)
        for site in result.sites:
            if site.probe_name:
                assert site.occupancy_after_hybridization <= 1.0 + 1e-9

    def test_wrong_grid_protocol(self, probes):
        with pytest.raises(ValueError):
            AssayProtocol(hybridization_s=-1.0)

    def test_site_lookup(self, probes):
        layout = ProbeLayout.tiled(probes, rows=4, cols=4, replicates=4)
        result = MicroarrayAssay(layout).run(Sample.for_probes(probes, 1e-6))
        site = result.site_at(0, 0)
        assert site.row == 0 and site.col == 0
        with pytest.raises(KeyError):
            result.site_at(99, 0)
