"""The batched campaign fast path vs serial per-point dispatch.

Contract (repro.campaigns.batched): per-point results are bit-identical
to the serial executor (artifact-free, like the process executor);
non-batchable points fall back to serial inside the same stream; the
streaming stores are unchanged.
"""

import numpy as np
import pytest

from repro.campaigns import (
    EXECUTORS,
    BatchedExecutor,
    CampaignSpec,
    JsonlResultStore,
    make_executor,
    run_campaign,
)
from repro.campaigns.batched import BATCH_COMPILERS
from repro.experiments import (
    ArrayScaleSpec,
    NeuralRecordingSpec,
    Runner,
    ScreeningSpec,
)


def assert_results_identical(serial_result, batched_result):
    """Bit-identical per point, NaN-aware (snr is NaN for silent
    neurons; NaN != NaN under plain dict equality)."""
    assert len(serial_result.plan) == len(batched_result.plan)
    for a, b in zip(serial_result.results(), batched_result.results()):
        a = a.without_artifacts()
        b = b.without_artifacts()
        assert a.kind == b.kind
        assert a.spec == b.spec
        assert a.seeds == b.seeds
        assert a.version == b.version
        assert a.record_name == b.record_name
        assert set(a.records) == set(b.records)
        for column in a.records:
            left, right = a.records[column], b.records[column]
            assert left.dtype == right.dtype, column
            # assert_array_equal treats same-position NaNs as equal.
            np.testing.assert_array_equal(left, right, err_msg=column)
        assert set(a.metrics) == set(b.metrics)
        for name in a.metrics:
            left, right = a.metrics[name], b.metrics[name]
            if isinstance(left, float) and np.isnan(left):
                assert np.isnan(right), name
            else:
                assert left == right, name


ARRAY_CAMPAIGN = CampaignSpec(
    base=ArrayScaleSpec(rows=16, cols=8, frame_s=0.05), replicates=12
)


class TestArrayScaleBatch:
    def test_bit_identical_to_serial(self):
        serial = run_campaign(ARRAY_CAMPAIGN, seed=5)
        batched = run_campaign(ARRAY_CAMPAIGN, seed=5, executor="batched")
        assert_results_identical(serial, batched)
        assert batched.manifest["executor"] == "batched"

    def test_bit_identical_with_calibration_and_chip_batch(self):
        # "paired" draws one child stream per site, "fast" whole planes.
        for mismatch in ("fast", "paired"):
            campaign = CampaignSpec(
                base=ArrayScaleSpec(
                    rows=8, cols=8, n_chips=2, frame_s=0.05, calibrate=True, mismatch=mismatch
                ),
                replicates=4,
            )
            serial = run_campaign(campaign, seed=9)
            batched = run_campaign(campaign, seed=9, executor="batched")
            assert_results_identical(serial, batched)

    def test_grid_axis_forms_independent_groups(self):
        campaign = CampaignSpec(
            base=ArrayScaleSpec(rows=8, cols=8, frame_s=0.05),
            grid={"pattern": ("logspan", "uniform")},
            replicates=3,
        )
        serial = run_campaign(campaign, seed=2)
        batched = run_campaign(campaign, seed=2, executor="batched")
        assert_results_identical(serial, batched)

    def test_chunked_groups_stay_bit_identical(self, monkeypatch):
        from repro.engine import vchip

        monkeypatch.setattr(vchip, "STACK_SITES", 16 * 8 * 3)
        serial = run_campaign(ARRAY_CAMPAIGN, seed=5)
        chunked = run_campaign(ARRAY_CAMPAIGN, seed=5, executor="batched")
        assert_results_identical(serial, chunked)

    def test_matches_runner_single_point(self):
        """Point seeds resolve exactly as Runner(point.seed).run(spec)."""
        batched = run_campaign(ARRAY_CAMPAIGN, seed=5, executor="batched")
        point = batched.plan[7]
        reference = Runner(seed=point.seed).run(point.spec).without_artifacts()
        stored = batched.result_for(7)
        assert stored.seeds == reference.seeds
        for column in reference.records:
            np.testing.assert_array_equal(
                stored.records[column], reference.records[column]
            )
        assert stored.metrics == reference.metrics

    def test_object_backend_campaign_falls_back(self):
        campaign = CampaignSpec(
            base=ArrayScaleSpec(rows=8, cols=8, frame_s=0.05, backend="object"),
            replicates=3,
        )
        serial = run_campaign(campaign, seed=4)
        batched = run_campaign(campaign, seed=4, executor="batched")
        assert_results_identical(serial, batched)


NEURAL_CAMPAIGN = CampaignSpec(
    base=NeuralRecordingSpec(rows=16, cols=16, n_neurons=3, duration_s=0.03),
    replicates=5,
    backend="vectorized",
)


class TestNeuralBatch:
    def test_bit_identical_to_serial_hh(self):
        serial = run_campaign(NEURAL_CAMPAIGN, seed=11)
        batched = run_campaign(NEURAL_CAMPAIGN, seed=11, executor="batched")
        assert_results_identical(serial, batched)

    def test_bit_identical_to_serial_template(self):
        campaign = CampaignSpec(
            base=NeuralRecordingSpec(
                rows=16, cols=16, n_neurons=4, duration_s=0.02, use_hh=False
            ),
            replicates=4,
            backend="vectorized",
        )
        serial = run_campaign(campaign, seed=13)
        batched = run_campaign(campaign, seed=13, executor="batched")
        assert_results_identical(serial, batched)

    def test_union_hh_chunking_is_invariant(self, monkeypatch):
        from repro.campaigns import batched as batched_module

        monkeypatch.setattr(batched_module, "NEURAL_CHUNK_NEURONS", 3)
        serial = run_campaign(NEURAL_CAMPAIGN, seed=11)
        chunked = run_campaign(NEURAL_CAMPAIGN, seed=11, executor="batched")
        assert_results_identical(serial, chunked)

    def test_without_backend_flag_neural_falls_back_to_object(self):
        campaign = CampaignSpec(
            base=NeuralRecordingSpec(
                rows=16, cols=16, n_neurons=2, duration_s=0.02, use_hh=False
            ),
            replicates=2,
        )
        serial = run_campaign(campaign, seed=3)
        batched = run_campaign(campaign, seed=3, executor="batched")
        assert_results_identical(serial, batched)
        assert batched.results()[0].metrics["backend"] == "object"


class TestExecutorMechanics:
    def test_registered_in_executor_registry(self):
        assert "batched" in EXECUTORS
        assert isinstance(make_executor("batched"), BatchedExecutor)
        assert sorted(BATCH_COMPILERS) == ["array_scale", "neural_recording"]

    def test_single_worker_only(self):
        assert make_executor("batched", workers=1).workers == 1
        with pytest.raises(ValueError, match="calling thread"):
            BatchedExecutor(workers=4)

    def test_non_batchable_kind_falls_back_serially(self):
        campaign = CampaignSpec(base=ScreeningSpec(library_size=500), replicates=3)
        serial = run_campaign(campaign, seed=6)
        batched = run_campaign(campaign, seed=6, executor="batched")
        assert_results_identical(serial, batched)

    def test_streaming_store_unchanged(self, tmp_path):
        serial_dir = tmp_path / "serial"
        batched_dir = tmp_path / "batched"
        run_campaign(ARRAY_CAMPAIGN, seed=5, store="jsonl", out=str(serial_dir))
        run_campaign(
            ARRAY_CAMPAIGN, seed=5, executor="batched", store="jsonl", out=str(batched_dir)
        )
        serial_store = JsonlResultStore.load(serial_dir)
        batched_store = JsonlResultStore.load(batched_dir)
        for (meta_s, result_s), (meta_b, result_b) in zip(
            serial_store.iter_results(), batched_store.iter_results()
        ):
            assert meta_s["point"] == meta_b["point"]
            assert meta_s["metrics"] == meta_b["metrics"]
            assert result_s.to_dict() == result_b.to_dict()

    def test_outcome_wall_times_amortised(self):
        executor = BatchedExecutor()
        plan = ARRAY_CAMPAIGN.compile(5)
        outcomes = list(executor.run(plan))
        assert len(outcomes) == len(plan)
        walls = {outcome.wall_s for outcome in outcomes}
        assert all(wall > 0 for wall in walls)

    def test_cli_accepts_batched_executor(self, tmp_path, capsys):
        import json

        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(ArrayScaleSpec(rows=8, cols=8, frame_s=0.05).to_dict())
        )
        out_dir = tmp_path / "campaign"
        code = main(
            [
                "sweep",
                "--spec",
                str(spec_path),
                "--replicates",
                "4",
                "--executor",
                "batched",
                "--store",
                "jsonl",
                "--out",
                str(out_dir),
                "--flush-every",
                "2",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        assert (out_dir / "manifest.json").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["executor"] == "batched"
        reference = run_campaign(
            CampaignSpec(base=ArrayScaleSpec(rows=8, cols=8, frame_s=0.05), replicates=4),
            seed=5,
        )
        stored = JsonlResultStore.load(out_dir)
        for (meta, result), expected in zip(
            stored.iter_results(), reference.results()
        ):
            assert result.to_dict() == expected.without_artifacts().to_dict()
