"""Runner.run(spec, backend="vectorized") vs the object backend on the
Fig. 4 assay — the acceptance-criterion parity test.

Documented tolerance (see repro.engine): the assay chemistry is shared
(bit-identical records), pixel parameters are paired (bit-identical),
and the digitised counts differ per site by at most 1 count of
start-phase quantisation plus the accumulated comparator jitter.
"""

import numpy as np
import pytest

from repro.engine import kernels
from repro.experiments import DnaAssaySpec, Runner

FIG4_SPEC = DnaAssaySpec(
    probe_count=16,
    replicates=7,
    control_every=16,
    target_subset=(0, 1, 2, 3),
    concentration=5e-5,
    calibration_frame_s=0.05,
)


@pytest.fixture(scope="module")
def both_backends():
    result_obj = Runner(seed=11).run(FIG4_SPEC)
    result_vec = Runner(seed=11).run(FIG4_SPEC, backend="vectorized")
    return result_obj, result_vec


class TestFig4Parity:
    def test_backend_stamped_in_metrics(self, both_backends):
        result_obj, result_vec = both_backends
        assert result_obj.metrics["backend"] == "object"
        assert result_vec.metrics["backend"] == "vectorized"
        assert result_obj.metrics["bias_ok"] and result_vec.metrics["bias_ok"]

    def test_chemistry_records_bitwise(self, both_backends):
        """Layout, sample and assay ride the same streams — everything
        upstream of the chip must be bit-identical."""
        result_obj, result_vec = both_backends
        for column in (
            "row",
            "col",
            "probe",
            "mismatches",
            "is_match",
            "occupancy_hyb",
            "occupancy_wash",
            "sensor_current_a",
        ):
            np.testing.assert_array_equal(
                result_obj.column(column), result_vec.column(column), err_msg=column
            )

    def test_counts_within_documented_budget(self, both_backends):
        result_obj, result_vec = both_backends
        chip_vec = result_vec.artifacts["chip"]
        currents = np.zeros((FIG4_SPEC.rows, FIG4_SPEC.cols))
        rows = result_obj.column("row")
        cols = result_obj.column("col")
        currents[rows, cols] = result_obj.column("sensor_current_a")
        sigma = kernels.count_noise_sigma(
            currents,
            FIG4_SPEC.frame_s,
            chip_vec.params.cint_f[0],
            chip_vec.params.swing_v[0],
            chip_vec.params.leakage_a[0],
            chip_vec.params.comparator_delay_s,
            chip_vec.params.tau_delay_s,
            chip_vec.params.noise_rms_v,
        )
        budget = 1 + np.ceil(8 * sigma)
        delta = np.abs(result_obj.artifacts["counts"] - result_vec.artifacts["counts"])
        assert np.all(delta <= budget)

    def test_current_estimates_close(self, both_backends):
        result_obj, result_vec = both_backends
        est_obj = result_obj.column("current_estimate_a")
        est_vec = result_vec.column("current_estimate_a")
        busy = est_obj > 1e-11  # above the quantisation-dominated floor
        rel = np.abs(est_vec[busy] - est_obj[busy]) / est_obj[busy]
        assert np.median(rel) < 1e-3
        assert rel.max() < 0.02

    def test_headline_metrics_close(self, both_backends):
        result_obj, result_vec = both_backends
        assert result_vec.metrics["discrimination_ratio"] == pytest.approx(
            result_obj.metrics["discrimination_ratio"], rel=0.02
        )
        assert result_vec.metrics["n_sites"] == result_obj.metrics["n_sites"]

    def test_serial_readout_exact_on_vectorized_chip(self, both_backends):
        _, result_vec = both_backends
        chip = result_vec.artifacts["chip"]
        counts = result_vec.artifacts["counts"]
        assert chip.read_counters_serial() == [int(c) for c in counts.reshape(-1)]


class TestRunnerMechanics:
    def test_backend_caches_are_separate(self):
        runner = Runner(seed=11)
        runner.run(FIG4_SPEC)
        runner.run(FIG4_SPEC, backend="vectorized")
        assert runner.stats.chips_built == 2
        assert runner.stats.layouts_built == 1
        assert runner.stats.layouts_reused == 1

    def test_vectorized_rerun_is_bit_identical(self):
        a = Runner(seed=12).run(FIG4_SPEC, backend="vectorized")
        b = Runner(seed=12).run(FIG4_SPEC, backend="vectorized")
        np.testing.assert_array_equal(a.artifacts["counts"], b.artifacts["counts"])
        np.testing.assert_array_equal(
            a.column("current_estimate_a"), b.column("current_estimate_a")
        )

    def test_specs_without_backend_field_default_to_object(self):
        result = Runner(seed=13).run(
            DnaAssaySpec(probe_count=2, replicates=2, calibrate=False)
        )
        assert result.metrics["backend"] == "object"

    def test_backend_outside_run_is_object(self):
        runner = Runner(seed=1)
        assert runner.backend == "object"

    def test_reentrant_run_restores_outer_backend(self):
        """A workload that re-enters run() must get its own backend back
        after the inner run finishes."""
        from repro.experiments import ArrayScaleSpec
        from repro.experiments.workloads import WORKLOADS, register_workload

        observed = []

        def execute(runner, spec, rngs):
            inner = ArrayScaleSpec(rows=4, cols=4, frame_s=0.01)
            runner.run(inner, backend="object")
            observed.append(runner.backend)
            return runner._result(spec, "probe", {}, {}, {})

        from repro.experiments.specs import ExperimentSpec, register_experiment
        import dataclasses

        @register_experiment("reentrant_probe")
        @dataclasses.dataclass(frozen=True)
        class ReentrantProbeSpec(ExperimentSpec):
            pass

        register_workload("reentrant_probe", execute, backends=("object", "vectorized"))
        try:
            Runner(seed=1).run(ReentrantProbeSpec(), backend="vectorized")
            assert observed == ["vectorized"]
        finally:
            WORKLOADS.pop("reentrant_probe", None)
            from repro.experiments.specs import EXPERIMENTS

            EXPERIMENTS.types.pop("reentrant_probe", None)

    def test_vectorized_rejected_for_object_only_workloads(self):
        """A workload that never dispatches on the backend must refuse
        "vectorized" rather than silently run object-model code."""
        from repro.experiments import AdcTransferSpec, ScreeningSpec

        for spec in (AdcTransferSpec(), ScreeningSpec(library_size=10)):
            with pytest.raises(ValueError, match="does not support backend"):
                Runner(seed=1).run(spec, backend="vectorized")
