"""Runner determinism, batching/caching, and ResultSet exports."""

import numpy as np
import pytest

from repro.core.rng import SeedTree, stable_entropy
from repro.experiments import (
    AdcTransferSpec,
    DnaAssaySpec,
    NeuralRecordingSpec,
    ResultSet,
    Runner,
    ScreeningSpec,
)

SMALL_DNA = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))
SMALL_NEURAL = NeuralRecordingSpec(
    rows=16, cols=16, n_neurons=2, diameter_range_m=(40e-6, 70e-6),
    duration_s=0.05, use_hh=False,
)
SMALL_SCREEN = ScreeningSpec(library_size=2000)


# ---------------------------------------------------------------------------
# Seed tree
# ---------------------------------------------------------------------------
def test_stable_entropy_is_order_and_content_sensitive():
    assert stable_entropy("a", "b") == stable_entropy("a", "b")
    assert stable_entropy("a", "b") != stable_entropy("b", "a")
    assert stable_entropy("ab") != stable_entropy("a", "b")
    assert all(0 <= word < 2**32 for word in stable_entropy("x", 17))


def test_seed_tree_streams_independent_of_request_order():
    one = SeedTree(5)
    two = SeedTree(5)
    first = one.generator("chip").standard_normal(4)
    _ = one.generator("other").standard_normal(100)  # extra draws elsewhere
    again = two.generator("chip").standard_normal(4)
    np.testing.assert_array_equal(first, again)
    assert not np.array_equal(
        SeedTree(5).generator("chip").standard_normal(4),
        SeedTree(6).generator("chip").standard_normal(4),
    )


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec", [SMALL_DNA, SMALL_NEURAL, SMALL_SCREEN, AdcTransferSpec(points_per_decade=2)],
    ids=lambda s: s.kind,
)
def test_same_spec_same_seed_bit_identical(spec):
    result_a = Runner(seed=3).run(spec)
    result_b = Runner(seed=3).run(spec)
    assert result_a.records.keys() == result_b.records.keys()
    for name in result_a.records:
        np.testing.assert_array_equal(result_a.records[name], result_b.records[name])
    assert result_a.metrics == result_b.metrics
    assert result_a.to_json() == result_b.to_json()


def test_different_seed_changes_results():
    counts_a = Runner(seed=3).run(SMALL_DNA).column("count")
    counts_b = Runner(seed=4).run(SMALL_DNA).column("count")
    assert not np.array_equal(counts_a, counts_b)


def test_run_alone_equals_run_inside_batch():
    alone = Runner(seed=9).run(SMALL_DNA)
    sweep = [SMALL_DNA.replace(concentration=1e-7), SMALL_DNA, SMALL_DNA.replace(concentration=1e-4)]
    batched = Runner(seed=9).run_batch(sweep)[1]
    np.testing.assert_array_equal(alone.column("count"), batched.column("count"))


# ---------------------------------------------------------------------------
# Batching / caches
# ---------------------------------------------------------------------------
def test_batch_of_identical_dna_specs_reuses_one_chip():
    runner = Runner(seed=1)
    results = runner.run_batch([SMALL_DNA] * 5)
    assert runner.stats.chips_built == 1
    assert runner.stats.chips_reused == 4
    assert runner.stats.layouts_built == 1
    for result in results[1:]:
        assert result.artifacts["chip"] is results[0].artifacts["chip"]
        np.testing.assert_array_equal(result.column("count"), results[0].column("count"))


def test_concentration_sweep_shares_chip_and_layout():
    runner = Runner(seed=1)
    sweep = [SMALL_DNA.replace(concentration=c) for c in (1e-8, 1e-7, 1e-6, 1e-5)]
    results = runner.run_batch(sweep)
    assert runner.stats.chips_built == 1 and runner.stats.layouts_built == 1
    probes = results[0].column("probe")
    for result in results[1:]:
        assert list(result.column("probe")) == list(probes)
    # Dose response is monotone on match sites (sanity of the shared panel).
    medians = [
        float(np.median(r.select(r.column("is_match"))["count"])) for r in results
    ]
    assert medians == sorted(medians)


def test_screening_pair_shares_library_and_decision_stream():
    runner = Runner(seed=2)
    cmos, conv = runner.run_batch(
        [SMALL_SCREEN.replace(cmos=True), SMALL_SCREEN.replace(cmos=False)]
    )
    assert runner.stats.libraries_built == 1
    assert runner.stats.libraries_reused == 1
    assert cmos.artifacts["library"] is conv.artifacts["library"]
    assert cmos.metrics["library_viable"] == conv.metrics["library_viable"]


def test_neural_analysis_knobs_rescore_the_same_recording():
    """threshold/tolerance sweeps are paired: same culture, same frames."""
    runner = Runner(seed=6)
    base = runner.run(SMALL_NEURAL)
    swept = runner.run(SMALL_NEURAL.replace(threshold_sigma=8.0))
    np.testing.assert_array_equal(base.column("diameter_m"), swept.column("diameter_m"))
    np.testing.assert_array_equal(
        base.artifacts["recording"].electrode_movie.frames,
        swept.artifacts["recording"].electrode_movie.frames,
    )
    # A higher threshold can only detect fewer spikes on the same data.
    assert swept.metrics["total_detected_spikes"] <= base.metrics["total_detected_spikes"]


def test_runner_recorder_traces_the_object_chip_it_builds():
    from repro.trace import TraceRecorder

    recorder = TraceRecorder()
    runner = Runner(seed=1, recorder=recorder)
    result = runner.run(SMALL_DNA)
    assert result.artifacts["chip"].recorder is recorder
    assert result.trace == recorder.trace() and len(result.trace) > 0
    # The vectorized chip carries the same recorder: the capture grows.
    vectorized = runner.run(SMALL_DNA, backend="vectorized")
    assert vectorized.artifacts["chip"].recorder is recorder
    assert len(recorder.trace()) > len(result.trace)


def test_both_dna_backends_record_the_same_events():
    from repro.trace import TraceRecorder

    traces = [
        Runner(seed=3, recorder=TraceRecorder()).run(DnaAssaySpec(), backend=backend).trace
        for backend in ("object", "vectorized")
    ]
    # configure (2 register writes), calibrate (1), measure (RUN_FRAME).
    assert len(traces[0]) == 10
    assert traces[0].kinds() == ["seq.state", "serial.frame", "reg.write"]
    assert traces[1] == traces[0]


def test_different_chip_config_builds_new_chip():
    runner = Runner(seed=1)
    runner.run(SMALL_DNA)
    runner.run(SMALL_DNA.replace(v_generator=0.5))
    assert runner.stats.chips_built == 2


def test_run_by_kind_name_and_bad_inputs():
    runner = Runner(seed=1)
    result = runner.run("screening", library_size=2000)
    assert result.kind == "screening"
    with pytest.raises(TypeError):
        runner.run(SMALL_SCREEN, library_size=2000)
    with pytest.raises(KeyError, match="unknown experiment kind"):
        runner.run("not_a_kind")


# ---------------------------------------------------------------------------
# ResultSet
# ---------------------------------------------------------------------------
def test_resultset_exports_and_provenance():
    runner = Runner(seed=7)
    result = runner.run(SMALL_SCREEN)
    rows = result.to_rows()
    assert len(rows) == result.n_records == len(result.column("stage"))
    assert set(rows[0]) == set(result.records)
    assert all(isinstance(v, (str, int, float, bool)) for v in rows[0].values())

    back = ResultSet.from_json(result.to_json())
    assert back.kind == "screening"
    assert back.spec == result.spec
    assert back.seeds["root"] == 7
    assert back.metrics == result.metrics
    np.testing.assert_array_equal(back.column("cost"), result.column("cost"))

    with pytest.raises(KeyError, match="no column"):
        result.column("nope")
    with pytest.raises(ValueError):
        result.select(np.ones(result.n_records + 1, dtype=bool))


def test_resultset_rejects_ragged_columns():
    with pytest.raises(ValueError, match="unequal lengths"):
        ResultSet(
            kind="x", spec={}, seeds={}, version="0",
            records={"a": np.zeros(3), "b": np.zeros(2)},
        )


# ---------------------------------------------------------------------------
# RunnerStats / clear_caches instrumentation
# ---------------------------------------------------------------------------
def test_runner_stats_count_reuse_across_a_concentration_sweep():
    runner = Runner(seed=1)
    assert runner.stats.as_dict() == {
        "runs": 0, "chips_built": 0, "chips_reused": 0,
        "layouts_built": 0, "layouts_reused": 0,
        "libraries_built": 0, "libraries_reused": 0,
    }
    sweep = [SMALL_DNA.replace(concentration=c) for c in (1e-8, 1e-7, 1e-6, 1e-5)]
    runner.run_batch(sweep)
    assert runner.stats.runs == 4
    assert runner.stats.chips_built == 1 and runner.stats.chips_reused == 3
    assert runner.stats.layouts_built == 1 and runner.stats.layouts_reused == 3
    assert runner.stats.libraries_built == 0
    # as_dict is a live snapshot of the dataclass fields.
    assert runner.stats.as_dict()["chips_reused"] == 3


def test_clear_caches_forces_rebuilds_but_not_different_results():
    runner = Runner(seed=1)
    first = runner.run(SMALL_DNA)
    runner.clear_caches()
    second = runner.run(SMALL_DNA)
    assert runner.stats.chips_built == 2  # cache invalidation really rebuilt
    assert runner.stats.chips_reused == 0
    assert runner.stats.layouts_built == 2
    assert second.artifacts["chip"] is not first.artifacts["chip"]
    # Streams derive from (root, path), so the rebuild is bit-identical.
    np.testing.assert_array_equal(first.column("count"), second.column("count"))
