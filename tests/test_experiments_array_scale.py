"""ArrayScaleSpec + the array_scale workload on both backends."""

import numpy as np
import pytest

from repro.chip import ChipSpecs
from repro.engine import VectorizedDnaChip
from repro.experiments import ArrayScaleSpec, Runner, spec_from_dict
from repro.experiments.workloads import workload_for


class TestSpec:
    def test_defaults_and_roundtrip(self):
        spec = ArrayScaleSpec()
        assert spec.kind == "array_scale"
        assert spec.backend == "vectorized"
        clone = spec_from_dict(spec.to_dict())
        assert clone == spec

    @pytest.mark.parametrize(
        "changes",
        [
            {"rows": 0},
            {"n_chips": 0},
            {"i_low_a": 0.0},
            {"i_low_a": 1e-9, "i_high_a": 1e-12},
            {"pattern": "chess"},
            {"frame_s": 0.0},
            {"backend": "fpga"},
            {"mismatch": "psychic"},
        ],
    )
    def test_validation(self, changes):
        with pytest.raises(ValueError):
            ArrayScaleSpec(**changes)

    def test_site_currents_logspan(self):
        spec = ArrayScaleSpec(rows=4, cols=4, i_low_a=1e-12, i_high_a=1e-8)
        currents = spec.site_currents()
        assert currents.shape == (4, 4)
        flat = currents.reshape(-1)
        assert flat[0] == pytest.approx(1e-12)
        assert flat[-1] == pytest.approx(1e-8)
        assert np.all(np.diff(flat) > 0)

    def test_site_currents_uniform(self):
        spec = ArrayScaleSpec(rows=4, cols=4, i_low_a=1e-12, i_high_a=1e-8, pattern="uniform")
        currents = spec.site_currents()
        assert np.all(currents == pytest.approx(1e-10))

    def test_chip_key_separates_backends_only_by_facet(self):
        a = ArrayScaleSpec(rows=16, cols=8)
        b = a.replace(frame_s=0.5)  # measurement knob: same chip facet
        c = a.replace(rows=32)
        assert a.chip_key() == b.chip_key()
        assert a.chip_key() != c.chip_key()


class TestWorkload:
    SPEC = ArrayScaleSpec(rows=16, cols=8, n_chips=2, frame_s=0.05)

    def test_vectorized_run_shape_and_records(self):
        result = Runner(seed=3).run(self.SPEC)
        assert result.metrics["backend"] == "vectorized"
        assert result.metrics["sites_total"] == 2 * 16 * 8
        assert result.n_records == 2
        assert result.column("mean_count").shape == (2,)
        assert result.artifacts["counts"].shape == (2, 16, 8)
        assert result.metrics["total_counts"] > 0

    def test_object_backend_override(self):
        result = Runner(seed=3).run(self.SPEC, backend="object")
        assert result.metrics["backend"] == "object"
        assert result.artifacts["counts"].shape == (2, 16, 8)
        chips = result.artifacts["chip"]
        assert isinstance(chips, list) and len(chips) == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            Runner(seed=3).run(self.SPEC, backend="quantum")

    def test_deterministic_given_seed(self):
        a = Runner(seed=3).run(self.SPEC)
        b = Runner(seed=3).run(self.SPEC)
        np.testing.assert_array_equal(a.artifacts["counts"], b.artifacts["counts"])

    def test_backends_agree_statistically(self):
        """The two backends digitise the same deterministic pattern with
        different chip realisations; their array-mean counts must agree
        to well under a percent."""
        vec = Runner(seed=5).run(self.SPEC)
        obj = Runner(seed=5).run(self.SPEC, backend="object")
        assert vec.metrics["mean_count"] == pytest.approx(obj.metrics["mean_count"], rel=0.01)
        assert vec.metrics["top_site_compression"] == pytest.approx(
            obj.metrics["top_site_compression"], rel=0.01
        )

    def test_top_site_compression_shows_dead_time(self):
        result = Runner(seed=3).run(self.SPEC)
        assert 0.5 < result.metrics["top_site_compression"] < 0.92

    def test_chips_cached_per_backend(self):
        runner = Runner(seed=9)
        runner.run(self.SPEC)
        runner.run(self.SPEC)
        assert runner.stats.chips_built == 1
        assert runner.stats.chips_reused == 1
        runner.run(self.SPEC, backend="object")
        assert runner.stats.chips_built == 2  # separate cache slot

    def test_calibrated_run(self):
        """The stacked draw calibrates on the calibration stream, bit for
        bit as a paired single chip built and calibrated on the same
        streams; an uncalibrated run stores no corrections."""
        spec = ArrayScaleSpec(rows=8, cols=8, calibrate=True, frame_s=0.05, mismatch="paired")
        result = Runner(seed=4).run(spec)
        corrections = result.artifacts["gain_correction"]
        assert corrections.shape == (1, 8, 8)
        assert not np.all(corrections == 1.0)
        rngs = workload_for(spec.kind).stream_plan(spec).generators(4)
        chip = VectorizedDnaChip(ChipSpecs(rows=8, cols=8), rng=rngs["chip"])
        expected = chip.auto_calibrate(frame_s=spec.calibration_frame_s, rng=rngs["calibration"])
        np.testing.assert_array_equal(corrections.reshape(-1), expected)
        uncalibrated = Runner(seed=4).run(spec.replace(calibrate=False))
        assert uncalibrated.artifacts["gain_correction"] is None

    def test_run_batch_backend_parameter(self):
        runner = Runner(seed=6)
        results = runner.run_batch(
            [self.SPEC, self.SPEC.replace(frame_s=0.02)], backend="vectorized"
        )
        assert [r.metrics["backend"] for r in results] == ["vectorized", "vectorized"]
        assert runner.stats.chips_built == 1  # same chip facet shared
