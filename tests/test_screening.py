"""The drug-screening funnel (Fig. 1)."""

import numpy as np
import pytest

from repro.experiments import Runner, ScreeningSpec
from repro.screening import (
    CompoundLibrary,
    ScreeningFunnel,
    animal_stage,
    cell_based_stage,
    clinical_stage,
    default_funnel_stages,
    molecular_stage,
)


@pytest.fixture(scope="module")
def library():
    return CompoundLibrary.generate(size=30_000, viable_rate=3e-4, rng=11)


class TestLibrary:
    def test_size_and_rate(self, library):
        assert library.size == 30_000
        # ~9 viable expected; allow broad band.
        assert 1 <= library.viable_count() <= 30

    def test_viable_score_higher(self, library):
        viable_scores = library.binding_score[library.is_viable]
        dud_scores = library.binding_score[~library.is_viable]
        assert viable_scores.mean() > dud_scores.mean() + 0.2

    def test_at_least_one_viable_guaranteed(self):
        tiny = CompoundLibrary.generate(size=50, viable_rate=1e-6, rng=1)
        assert tiny.viable_count() >= 1

    def test_zero_rate_allowed(self):
        lib = CompoundLibrary.generate(size=50, viable_rate=0.0, rng=2)
        assert lib.viable_count() == 0

    def test_subset(self, library):
        mask = library.binding_score > 0.5
        sub = library.subset(mask)
        assert sub.size == int(mask.sum())

    def test_subset_shape_check(self, library):
        with pytest.raises(ValueError):
            library.subset(np.ones(10, dtype=bool))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CompoundLibrary.generate(size=0)
        with pytest.raises(ValueError):
            CompoundLibrary.generate(size=10, viable_rate=2.0)


class TestStages:
    def test_fig1_cost_ordering(self):
        stages = default_funnel_stages()
        costs = [s.cost_per_datapoint for s in stages]
        assert costs == sorted(costs)
        assert costs[-1] / costs[0] > 1e4  # orders of magnitude, as drawn

    def test_fig1_throughput_ordering(self):
        stages = default_funnel_stages()
        rates = [s.datapoints_per_day for s in stages]
        assert rates == sorted(rates, reverse=True)

    def test_cmos_variant_cheaper_and_faster(self):
        assert molecular_stage(True).cost_per_datapoint < molecular_stage(False).cost_per_datapoint
        assert molecular_stage(True).datapoints_per_day > molecular_stage(False).datapoints_per_day
        assert cell_based_stage(True).cost_per_datapoint < cell_based_stage(False).cost_per_datapoint

    def test_screen_returns_mask(self, library):
        mask = molecular_stage().screen(library, rng=1)
        assert mask.shape == (library.size,)
        assert 0 < mask.sum() < library.size

    def test_sensitivity_high(self, library):
        sens = molecular_stage().sensitivity_estimate(library, rng=2)
        assert sens > 0.7

    def test_cost_and_days(self):
        stage = animal_stage()
        assert stage.stage_cost(10) == pytest.approx(1e5)
        assert stage.stage_days(10) == pytest.approx(1.0)

    def test_invalid_stage(self):
        with pytest.raises(ValueError):
            clinical_stage().stage_cost(-1)


class TestFunnel:
    def test_attrition_shape(self, library):
        result = ScreeningFunnel().run(library, rng=3)
        sizes = [o.candidates_in for o in result.outcomes] + [result.survivors]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))
        assert result.survivors < 0.01 * library.size

    def test_monotone_series(self, library):
        result = ScreeningFunnel().run(library, rng=4)
        assert result.monotone_cost_increase()
        assert result.monotone_throughput_decrease()

    def test_viable_enrichment(self, library):
        result = ScreeningFunnel().run(library, rng=5)
        initial_rate = library.viable_count() / library.size
        if result.survivors:
            final_rate = result.surviving_viable / result.survivors
            assert final_rate > 100 * initial_rate

    def test_cost_dominated_by_late_stages(self, library):
        result = ScreeningFunnel().run(library, rng=6)
        late = sum(o.cost for o in result.outcomes[2:])
        early = sum(o.cost for o in result.outcomes[:2])
        assert late > early

    def test_as_rows_aligned(self, library):
        result = ScreeningFunnel().run(library, rng=7)
        rows = result.as_rows()
        assert len(rows) == len(result.outcomes)
        assert rows[0][0].startswith("molecular")

    def test_empty_funnel_rejected(self):
        with pytest.raises(ValueError):
            ScreeningFunnel(stages=[])

    def test_comparison_cmos_cheaper_early(self):
        runner = Runner()
        results = {
            cmos: runner.run(
                ScreeningSpec(library_size=30_000, viable_rate=3e-4, cmos=cmos)
            ).artifacts["funnel"]
            for cmos in (True, False)
        }
        # One library, built once: the two funnels screen the same compounds.
        assert runner.stats.libraries_built == 1 and runner.stats.libraries_reused == 1
        early_cmos = sum(o.cost for o in results[True].outcomes[:2])
        early_conv = sum(o.cost for o in results[False].outcomes[:2])
        assert early_cmos < early_conv

    def test_stage_outcome_rates(self, library):
        result = ScreeningFunnel().run(library, rng=9)
        for outcome in result.outcomes:
            assert 0.0 <= outcome.pass_rate <= 1.0
            assert 0.0 <= outcome.viable_retention <= 1.0
