"""Samples, probe layouts and the end-to-end assay integration."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dna import (
    AssayProtocol,
    AssayResult,
    DnaSequence,
    MicroarrayAssay,
    Probe,
    ProbeLayout,
    Sample,
    SiteResult,
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
        bare = result.column("probe_name") == ""
        assert bare.any()
        assert np.all(result.column("sensor_current")[bare] < 1e-11)

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
        assert np.all(result.column("occupancy_after_hybridization") <= 1.0 + 1e-9)

    def test_wrong_grid_protocol(self, probes):
        with pytest.raises(ValueError):
            AssayProtocol(hybridization_s=-1.0)

    def test_site_lookup(self, probes):
        layout = ProbeLayout.tiled(probes, rows=4, cols=4, replicates=4)
        result = MicroarrayAssay(layout).run(Sample.for_probes(probes, 1e-6))
        assert result.site_at(0, 0) == result.spots[result.groups[0]]
        assert result.site_at(3, 2) == result.spots[result.groups[3 * 4 + 2]]
        for row, col in [(99, 0), (4, 0), (0, 4), (-1, 0), (0, -1)]:
            with pytest.raises(KeyError):
                result.site_at(row, col)

    @pytest.mark.parametrize(
        "groups, message",
        [
            ([0] * 15, r"shape \(15,\) for a 4x4"),
            ([0] * 17, r"shape \(17,\) for a 4x4"),
            ([[0] * 4] * 4, r"shape \(4, 4\) for a 4x4"),
            ([0] * 15 + [2], "points at none of the 2 spots"),
            ([0] * 15 + [-1], "points at none of the 2 spots"),
        ],
    )
    def test_a_result_rejects_groups_off_its_array_or_spots(self, probes, groups, message):
        layout = ProbeLayout.tiled(probes[:1], rows=4, cols=4, replicates=4)
        result = MicroarrayAssay(layout).run(Sample.for_probes(probes[:1], 1e-6))
        assert len(result.spots) == 2
        AssayResult(result.spots, list(result.groups), 4, 4)
        with pytest.raises(ValueError, match=message):
            AssayResult(result.spots, groups, 4, 4)


#: What one position of a drawn layout holds: a gap (never assigned), an
#: assigned bare spot, or a probe of the pool at the layout's default
#: density (``None``), a custom one or zero.
_SPOT = st.one_of(
    st.just("gap"),
    st.just(None),
    st.tuples(st.integers(0, 4), st.sampled_from([None, 3.0e16, 1.0e15, 0.0])),
)


@st.composite
def _layouts(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return rows, cols, draw(st.lists(_SPOT, min_size=rows * cols, max_size=rows * cols))


class TestGroupedAssay:
    """``MicroarrayAssay.run`` evaluates each distinct spot once; every
    position must still read exactly what evaluating it alone gives."""

    @staticmethod
    def _assert_per_position(result, assay, sample, protocol):
        """Every position reads what evaluating its spot alone gives,
        through ``site_at`` and through each ``column``."""
        layout = assay.layout
        names = [field.name for field in dataclasses.fields(SiteResult)]
        columns = {name: result.column(name) for name in names}
        for row, col in layout.all_positions():
            alone = assay._run_site(layout.spot(row, col), sample, protocol)
            assert result.site_at(row, col) == alone
            for name in names:
                assert columns[name][row * layout.cols + col] == getattr(alone, name)

    @settings(max_examples=60, deadline=None)
    @given(drawn=_layouts(), seed=st.integers(0, 2**16), reassign=_SPOT)
    def test_grouped_run_equals_per_position_evaluation(self, drawn, seed, reassign):
        rows, cols, contents = drawn
        rng = np.random.default_rng(seed)
        pool = [Probe(f"p{i}", DnaSequence.random(20, rng)) for i in range(3)]
        # Equal to pool[0] but a distinct object, so it shares pool[0]'s
        # group; and pool[0]'s sequence under another name, which must not.
        pool += [Probe("p0", pool[0].sequence), Probe("p0-twin", pool[0].sequence)]
        layout = ProbeLayout(rows, cols)
        for (row, col), content in zip(layout.all_positions(), contents):
            if content is None:
                layout.assign(row, col, None)
            elif content != "gap":
                index, density = content
                layout.assign(row, col, pool[index], density=density)
        near = Target("near", pool[1].sequence.reverse_complement().with_mismatches(2, rng))
        sample = Sample({perfect_target_for(pool[0]): 1e-6, near: 1e-5})
        protocol = AssayProtocol(hybridization_s=1800.0)
        assay = MicroarrayAssay(layout)
        result = assay.run(sample, protocol)
        self._assert_per_position(result, assay, sample, protocol)
        # A later assignment regroups the layout.
        if reassign not in ("gap", None):
            index, density = reassign
            layout.assign(rows - 1, cols - 1, pool[index], density=density)
            regrouped = assay.run(sample, protocol)
            self._assert_per_position(regrouped, assay, sample, protocol)

    def test_groups_of_a_fig4_layout(self, probes):
        layout = ProbeLayout.tiled(probes, rows=16, cols=8, replicates=4)
        spots, groups = layout.spot_groups()
        # The four probes in layout order, then one group of bare controls.
        assert [spot.probe for spot in spots] == [*probes, None]
        assert list(groups) == [index for index in range(4) for _ in range(4)] + [4] * 112
