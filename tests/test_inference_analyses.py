"""Analysis specs: registry, end-to-end reports, bit-reproducibility.

The acceptance bar for the inference subsystem: analysing a Fig. 4
concentration campaign must emit a dose–response fit with LoD and
bootstrap CIs that are **byte-identical** across repeated runs, across
serial- and process-executed campaigns, and across memory vs reloaded
JSONL stores.
"""

import json

import pytest

from repro.campaigns import CampaignSpec, run_campaign
from repro.experiments import ArrayScaleSpec, DnaAssaySpec
from repro.inference import (
    DetectionAnalysis,
    DoseResponseAnalysis,
    YieldAnalysis,
    analysis_kinds,
    analysis_type,
    analyze,
    default_analysis_for,
)

FIG4_CAMPAIGN = CampaignSpec(
    base=DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1)),
    grid={"concentration": (1e-7, 1e-6, 1e-5)},
    replicates=2,
    name="fig4-mini",
)


@pytest.fixture(scope="module")
def fig4_result():
    return run_campaign(FIG4_CAMPAIGN, seed=1)


class TestRegistry:
    def test_kinds(self):
        assert analysis_kinds() == [
            "detection", "dose_response", "fault_tolerance", "wafer_yield", "yield"
        ]
        assert analysis_type("yield") is YieldAnalysis

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="model"):
            DoseResponseAnalysis(model="spline")
        with pytest.raises(ValueError, match="target_fpr"):
            DetectionAnalysis(target_fpr=1.5)
        with pytest.raises(ValueError, match="criterion"):
            YieldAnalysis(op="==")


class TestDoseResponseEndToEnd:
    def test_report_contents(self, fig4_result):
        report = fig4_result.analyze("dose_response")
        scalars = report.scalars
        assert scalars["model"] == "loglog"
        assert scalars["lod"] > 0
        assert scalars["lod_ci_low"] <= scalars["lod"] <= scalars["lod_ci_high"]
        assert scalars["dynamic_range_decades"] > 0
        assert scalars["blank_source"] == "blank"
        assert 0.8 < scalars["slope"] < 1.2  # counts ~ concentration
        assert report.tables[0].headers[0] == "concentration"
        assert len(report.tables[0].rows) == 3  # one per dose

    def test_repeated_runs_bit_identical(self, fig4_result):
        first = fig4_result.analyze("dose_response").to_json()
        second = fig4_result.analyze("dose_response").to_json()
        assert first == second

    def test_hill_model_variant(self, fig4_result):
        report = fig4_result.analyze("dose_response", model="hill")
        assert "hill_ec50" in report.scalars
        assert report.notes  # explains the missing bootstrap CI

    def test_missing_metric_is_a_clean_error(self, fig4_result):
        with pytest.raises(KeyError, match="metrics shared"):
            fig4_result.analyze("dose_response", response="nope")


class TestReproducibilityAcrossExecution:
    """The acceptance criterion: one campaign, many execution paths,
    one byte sequence out."""

    def test_serial_vs_process_vs_store(self, fig4_result, tmp_path):
        from repro.campaigns import JsonlResultStore

        reference = fig4_result.analyze("dose_response").to_json()
        process = run_campaign(
            FIG4_CAMPAIGN,
            seed=1,
            executor="process",
            workers=2,
            store="jsonl",
            out=tmp_path / "campaign",
        )
        assert process.analyze("dose_response").to_json() == reference
        reloaded = JsonlResultStore.load(tmp_path / "campaign")
        assert analyze(reloaded, "dose_response").to_json() == reference
        # And straight from the directory path (the CLI's route).
        assert analyze(tmp_path / "campaign", "dose_response").to_json() == reference

    def test_detection_identical_across_stores(self, fig4_result, tmp_path):
        reference = fig4_result.analyze("detection").to_json()
        stored = run_campaign(
            FIG4_CAMPAIGN, seed=1, store="jsonl", out=tmp_path / "det"
        )
        assert stored.analyze("detection").to_json() == reference


class TestDetectionEndToEnd:
    def test_report_contents(self, fig4_result):
        report = fig4_result.analyze("detection", target_fpr=0.05)
        scalars = report.scalars
        assert scalars["n_match_spots"] > 0 and scalars["n_mismatch_spots"] > 0
        assert 0.5 < scalars["auc"] <= 1.0
        assert scalars["auc_ci_low"] <= scalars["auc_ci_high"]
        assert scalars["threshold_fpr"] <= 0.05
        assert len(report.tables[0].rows) == len(fig4_result.plan)


class TestYieldEndToEnd:
    def test_metric_criterion(self, fig4_result):
        report = fig4_result.analyze("yield", metric="discrimination_ratio", threshold=2.0)
        scalars = report.scalars
        assert scalars["n_chips"] == 6
        assert 0.0 <= scalars["yield_ci_low"] <= scalars["yield"] <= scalars["yield_ci_high"] <= 1.0
        assert scalars["metric_cv"] >= 0
        # dna_assay records carry no dead-pixel column.
        assert "dead_pixel_rate" not in scalars

    def test_array_scale_dead_pixels(self):
        campaign = CampaignSpec(
            base=ArrayScaleSpec(rows=16, cols=8, n_chips=4, calibrate=True),
            replicates=2,
            name="fig6-mini",
        )
        result = run_campaign(campaign, seed=3)
        report = result.analyze("yield", metric="zero_site_fraction", op="<=", threshold=0.5)
        assert report.scalars["dead_pixel_chips"] == 8  # 4 chips x 2 points
        assert 0.0 <= report.scalars["dead_pixel_rate"] <= 1.0
        assert report.scalars["dead_pixel_ci_low"] <= report.scalars["dead_pixel_rate"]


class TestFrontDoor:
    def test_default_analysis_inference(self, fig4_result):
        assert isinstance(default_analysis_for(fig4_result), DoseResponseAnalysis)
        no_axis = run_campaign(
            CampaignSpec(
                base=DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1)),
                replicates=2,
            ),
            seed=1,
        )
        assert isinstance(default_analysis_for(no_axis), DetectionAnalysis)
        scale = run_campaign(
            CampaignSpec(base=ArrayScaleSpec(rows=8, cols=8), replicates=2), seed=1
        )
        assert isinstance(default_analysis_for(scale), YieldAnalysis)

    def test_analyze_resolves_all_spellings(self, fig4_result):
        spec = DoseResponseAnalysis(n_resamples=100)
        by_instance = analyze(fig4_result, spec)
        by_dict = analyze(fig4_result, spec.to_dict())
        by_name = analyze(fig4_result, "dose_response", n_resamples=100)
        assert by_instance.to_json() == by_dict.to_json() == by_name.to_json()

    def test_analyze_rejects_bad_analysis(self, fig4_result):
        with pytest.raises(TypeError, match="cannot resolve"):
            analyze(fig4_result, 42)

    def test_empty_store_is_a_clean_error(self):
        from repro.campaigns import MemoryResultStore

        with pytest.raises(ValueError, match="no results"):
            analyze(MemoryResultStore(), "detection")

    def test_report_renderings(self, fig4_result):
        report = fig4_result.analyze("dose_response")
        payload = json.loads(report.to_json())
        assert payload["schema"] == "repro-analysis/1"
        assert payload["scalars"]["lod"] > 0
        markdown = report.to_markdown()
        assert "## Analysis: dose_response" in markdown
        assert "| quantity | value |" in markdown
        text = report.to_text()
        assert "analysis: dose_response" in text and "lod" in text
        assert "wall" not in report.to_json()  # reports carry no timings
