"""campaigns/report.py: tables, delegation to inference, edge cases."""

import pytest

from repro.campaigns import (
    CampaignSpec,
    JsonlResultStore,
    MemoryResultStore,
    manifest_summary,
    metrics_table,
    report_rows,
    run_campaign,
)
from repro.experiments import DnaAssaySpec
from repro.inference.tabulate import CampaignFrame
from repro.inference.tabulate import report_rows as frame_report_rows

CAMPAIGN = CampaignSpec(
    base=DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1)),
    grid={"concentration": (1e-7, 1e-6)},
    replicates=2,
    name="report-test",
)


@pytest.fixture(scope="module")
def result():
    return run_campaign(CAMPAIGN, seed=5)


class TestReportRows:
    def test_column_layout(self, result):
        headers, rows = report_rows(result)
        assert headers[:2] == ["point", "replicate"]
        assert "concentration" in headers
        assert "wall_s" in headers
        assert "discrimination_ratio" in headers  # shared scalar metric
        assert len(rows) == 4
        assert [row[0] for row in rows] == [0, 1, 2, 3]

    def test_requested_metrics_only(self, result):
        headers, rows = report_rows(result, metrics=["n_sites"])
        assert headers[-1] == "n_sites"
        assert all(row[-1] == 128 for row in rows)

    def test_missing_metric_renders_blank(self, result):
        headers, rows = report_rows(result, metrics=["not_a_metric"])
        assert all(row[-1] == "" for row in rows)

    def test_delegates_to_inference(self, result):
        """The campaign facade and the inference implementation must be
        the same function — tables can never drift from the frames the
        analyses read."""
        assert report_rows(result) == frame_report_rows(result)

    def test_live_and_reloaded_tables_identical(self, tmp_path):
        stored = run_campaign(CAMPAIGN, seed=5, store="jsonl", out=tmp_path / "c")
        live = metrics_table(stored)
        reloaded = metrics_table(JsonlResultStore.load(tmp_path / "c"))
        assert live == reloaded

    def test_store_and_campaign_result_interchangeable(self, result):
        assert report_rows(result) == report_rows(result.store)


class TestEdgeCases:
    def test_empty_store(self):
        store = MemoryResultStore()
        assert report_rows(store) == (["point"], [])
        assert metrics_table(store) == "(no stored results)"
        assert metrics_table(store, title="t") == "t"

    def test_partial_store_without_manifest(self, tmp_path):
        """A crashed run (results.jsonl, no manifest) still reports."""
        out = tmp_path / "partial"
        run_campaign(CAMPAIGN, seed=5, store="jsonl", out=out)
        (out / "manifest.json").unlink()
        store = JsonlResultStore.load(out)
        assert store.manifest is None
        headers, rows = report_rows(store)
        assert len(rows) == 4
        assert "discrimination_ratio" in headers

    def test_rows_sorted_even_from_completion_order(self, tmp_path):
        run_campaign(
            CAMPAIGN, seed=5, executor="process", workers=2, store="jsonl",
            out=tmp_path / "p",
        )
        _, rows = report_rows(JsonlResultStore.load(tmp_path / "p"))
        assert [row[0] for row in rows] == [0, 1, 2, 3]


class TestCampaignFrame:
    def test_columns(self, result):
        frame = CampaignFrame.from_store(result)
        assert frame.n_points == 4
        assert frame.axis_names == ["concentration"]
        assert frame.kinds() == ["dna_assay"]
        assert frame.points().tolist() == [0, 1, 2, 3]
        assert frame.replicates().tolist() == [0, 1, 0, 1]
        assert frame.axis("concentration").tolist() == [1e-7, 1e-7, 1e-6, 1e-6]
        assert frame.metric("n_sites").tolist() == [128.0] * 4
        assert frame.has_metric("discrimination_ratio")
        assert not frame.has_metric("nope")

    def test_group_indices(self, result):
        frame = CampaignFrame.from_store(result)
        groups = frame.group_indices("concentration")
        assert [value for value, _ in groups] == [1e-7, 1e-6]
        assert [indices.tolist() for _, indices in groups] == [[0, 1], [2, 3]]

    def test_errors(self, result):
        frame = CampaignFrame.from_store(result)
        with pytest.raises(KeyError, match="axis"):
            frame.axis("voltage")
        with pytest.raises(KeyError, match="metric"):
            frame.metric("voltage")
        with pytest.raises(TypeError, match="ResultStore"):
            CampaignFrame.from_store(42)


class TestManifestSummary:
    def test_contents(self, result):
        text = manifest_summary(result.manifest)
        assert "report-test" in text
        assert "dna_assay" in text
        assert "serial" in text

    def test_tolerates_sparse_manifest(self):
        assert "(unnamed)" in manifest_summary({})
