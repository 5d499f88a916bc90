"""Fault injection: determinism, executor parity, resilient readout.

The acceptance bar for the faults subsystem: a 64-point
``faults.rate`` campaign is **byte-identical** under serial, process
and batched executors and through a service-cache round trip;
zero-fault specs hash and run exactly as before the subsystem existed;
and every occurrence pattern is a pure function of ``(spec, seed)``.
"""

import json

import numpy as np
import pytest

from repro.campaigns import (
    CampaignSpec,
    SerialExecutor,
    run_campaign,
)
from repro.chip.dna_chip import ChipSpecs, DnaMicroarrayChip
from repro.chip.readout import ReadoutPolicy, read_counters_resilient
from repro.chip.serial_interface import CHIP_TO_HOST, HOST_TO_CHIP, TRANSCRIPT_ENTRIES
from repro.experiments import DnaAssaySpec, Runner, spec_from_dict
from repro.faults import (
    FaultInjector,
    RegisterCorruptFault,
    SequencerStallFault,
    SerialBitflipFault,
    StuckPixelFault,
    as_fault,
    fault_from_dict,
    fault_kinds,
    normalize_faults,
)
from repro.inference import FaultToleranceAnalysis
from repro.service import JobManager
from repro.trace import TraceRecorder, replay_readout

FAULTS = (
    {"kind": "serial_bitflip", "rate": 0.3, "n_flips": 2},
    {"kind": "stuck_pixel", "rate": 0.02},
)
BASE = DnaAssaySpec(
    probe_count=4, replicates=4, target_subset=(0, 1), faults=FAULTS
)
# 4 rates × 16 replicates = 64 points (grid × replicates).
CAMPAIGN = CampaignSpec(
    base=BASE,
    grid={"faults.rate": (0.0, 0.1, 0.3, 0.6)},
    replicates=16,
    name="fault-parity-64",
)


def _jsons(result):
    return [r.to_json() for r in result.results()]


@pytest.fixture(scope="module")
def serial_faulted():
    return run_campaign(CAMPAIGN, seed=11, executor="serial")


# ---------------------------------------------------------------------------
# Fault specs: registry, validation, round trips
# ---------------------------------------------------------------------------
class TestFaultSpecs:
    def test_kinds(self):
        assert fault_kinds() == [
            "register_corrupt", "sequencer_stall", "serial_bitflip", "stuck_pixel"
        ]

    def test_round_trip_every_kind(self):
        specs = [
            SerialBitflipFault(rate=0.4, n_flips=3, direction="host_to_chip"),
            SequencerStallFault(rate=0.2, stall_s=1e-3),
            RegisterCorruptFault(rate=0.1, n_bits=2),
            StuckPixelFault(rate=0.05, mode="full"),
        ]
        for spec in specs:
            back = fault_from_dict(json.loads(json.dumps(spec.to_dict())))
            assert back == spec

    def test_numpy_fields_are_stored_plain(self):
        """A NumPy scalar in a fault field (a sweep value, say) is stored
        as its Python value, so the faulted spec still hashes."""
        spec = DnaAssaySpec(faults=(SerialBitflipFault(rate=0.1, n_flips=np.int64(2)),))
        assert type(spec.faults[0]["n_flips"]) is int
        plain = DnaAssaySpec(faults=(SerialBitflipFault(rate=0.1, n_flips=2),))
        assert spec.content_hash() == plain.content_hash()
        assert spec.spec_hash() == plain.spec_hash()

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            SerialBitflipFault(rate=1.5)
        with pytest.raises(ValueError, match="n_flips"):
            SerialBitflipFault(rate=0.1, n_flips=0)
        with pytest.raises(ValueError, match="direction"):
            SerialBitflipFault(rate=0.1, direction="sideways")
        with pytest.raises(ValueError, match="stall_s"):
            SequencerStallFault(rate=0.1, stall_s=0.0)
        with pytest.raises(ValueError, match="n_bits"):
            RegisterCorruptFault(rate=0.1, n_bits=0)
        with pytest.raises(ValueError, match="mode"):
            StuckPixelFault(rate=0.1, mode="half")

    def test_normalize_rejects_non_sequences(self):
        with pytest.raises((TypeError, ValueError)):
            normalize_faults({"kind": "stuck_pixel", "rate": 0.1})
        with pytest.raises((TypeError, ValueError)):
            normalize_faults("stuck_pixel")

    def test_as_fault_accepts_specs_and_mappings(self):
        spec = StuckPixelFault(rate=0.1)
        assert as_fault(spec) == spec
        assert as_fault(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# Zero-fault identity: the subsystem is invisible until used
# ---------------------------------------------------------------------------
class TestZeroFaultIdentity:
    def test_empty_faults_absent_from_dict(self):
        spec = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))
        assert "faults" not in spec.to_dict()
        assert spec.content_hash() == DnaAssaySpec(
            probe_count=4, replicates=4, target_subset=(0, 1), faults=()
        ).content_hash()

    def test_faulted_spec_round_trips(self):
        back = spec_from_dict(json.loads(BASE.to_json()))
        assert back == BASE
        assert back.content_hash() == BASE.content_hash()

    def test_faults_change_the_content_hash(self):
        clean = BASE.replace(faults=())
        assert clean.content_hash() != BASE.content_hash()

    def test_zero_fault_run_identical_to_clean_run(self):
        clean = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))
        explicit = clean.replace(faults=())
        a = Runner(seed=5).run(clean, backend="object").to_json()
        b = Runner(seed=5).run(explicit, backend="object").to_json()
        assert a == b


# ---------------------------------------------------------------------------
# Injector: typed rng, stream purity, direction gating
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_requires_a_generator(self):
        with pytest.raises(TypeError, match="Generator"):
            FaultInjector((StuckPixelFault(rate=0.1),), rng=42)

    def test_same_seed_same_draws(self):
        faults = (
            SerialBitflipFault(rate=0.7, n_flips=2),
            SequencerStallFault(rate=0.5, stall_s=1e-4),
            StuckPixelFault(rate=0.1),
        )
        def draws(seed):
            inj = FaultInjector(faults, rng=np.random.default_rng(seed))
            return (
                [inj.frame_flips(64, CHIP_TO_HOST) for _ in range(8)],
                [inj.stall_s(i) for i in range(8)],
                inj.stuck_sites(128, 65535),
            )
        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_direction_gating(self):
        inj = FaultInjector(
            (SerialBitflipFault(rate=1.0, n_flips=2, direction="host_to_chip"),),
            rng=np.random.default_rng(3),
        )
        assert inj.frame_flips(64, HOST_TO_CHIP)
        assert inj.frame_flips(64, CHIP_TO_HOST) == ()


# ---------------------------------------------------------------------------
# Runner determinism and fault accounting
# ---------------------------------------------------------------------------
class TestFaultedRuns:
    def test_same_spec_seed_byte_identical(self):
        a = Runner(seed=9).run(BASE, backend="object").to_json()
        b = Runner(seed=9).run(BASE, backend="object").to_json()
        assert a == b

    def test_fault_metrics_and_site_columns(self):
        result = Runner(seed=9).run(BASE, backend="object")
        record = result.results()[0] if hasattr(result, "results") else result
        metrics = record.metrics if hasattr(record, "metrics") else result.metrics
        for name in FaultToleranceAnalysis.REQUIRED:
            assert name in metrics, name
        records = record.records if hasattr(record, "records") else result.records
        assert "site_dead" in records and "site_silent" in records

    def test_clean_runs_lack_fault_columns(self):
        clean = BASE.replace(faults=())
        result = Runner(seed=9).run(clean, backend="object")
        record = result.results()[0] if hasattr(result, "results") else result
        metrics = record.metrics if hasattr(record, "metrics") else result.metrics
        assert "fault_detection_rate" not in metrics

    def test_vectorized_backend_runs_faulted_specs(self):
        result = Runner(seed=9).run(BASE, backend="vectorized")
        for name in FaultToleranceAnalysis.REQUIRED:
            assert name in result.metrics, name
        assert "site_dead" in result.records and "site_silent" in result.records
        again = Runner(seed=9).run(BASE, backend="vectorized")
        assert again.to_json() == result.to_json()

    def test_cached_chip_transcript_stays_bounded(self):
        """A cached chip's link lives as long as its Runner: many faulted
        points keep only the latest TRANSCRIPT_ENTRIES wire crossings."""
        runner = Runner(seed=9)
        specs = [BASE.replace(concentration=BASE.concentration * (1 + i)) for i in range(140)]
        results = runner.run_batch(specs, backend="vectorized")
        assert runner.stats.chips_built == 1
        transcript = results[-1].artifacts["chip"].link.transcript
        assert len(transcript) == TRANSCRIPT_ENTRIES
        # The newest entries are kept: the last is the final response
        # chunk of the last point's shift-out, as the host received it.
        assert transcript[-1][:2] == (CHIP_TO_HOST, "received")


# ---------------------------------------------------------------------------
# Campaign axes: dotted keys, 64-point executor parity, cache round trip
# ---------------------------------------------------------------------------
class TestFaultCampaigns:
    def test_dotted_axis_rewrites_every_entry(self):
        plan = CAMPAIGN.compile(seed=11)
        rates = {point.spec.faults[0]["rate"] for point in plan.points}
        assert rates == {0.0, 0.1, 0.3, 0.6}
        for point in plan.points:
            assert point.spec.faults[1]["rate"] == point.spec.faults[0]["rate"]

    def test_dotted_axis_validation(self):
        clean = BASE.replace(faults=())
        with pytest.raises(ValueError, match="non-empty tuple of mappings"):
            CampaignSpec(base=clean, grid={"faults.rate": (0.1,)})
        with pytest.raises(ValueError, match="stall_s"):
            CampaignSpec(base=BASE, grid={"faults.stall_s": (1e-3,)})
        with pytest.raises(ValueError, match="not on DnaAssaySpec"):
            CampaignSpec(base=BASE, grid={"bogus.rate": (0.1,)})

    def test_64_points(self, serial_faulted):
        assert len(serial_faulted) == CAMPAIGN.n_points == 64

    @pytest.mark.parametrize("executor,workers", [("process", 2), ("batched", None)])
    def test_executor_parity(self, serial_faulted, executor, workers):
        other = run_campaign(CAMPAIGN, seed=11, executor=executor, workers=workers)
        assert _jsons(other) == _jsons(serial_faulted)

    def test_cache_round_trip_byte_identical(self, serial_faulted, tmp_path):
        cold = run_campaign(CAMPAIGN, seed=11, cache=tmp_path / "cache")
        assert cold.manifest["cache"]["computed"] == 64
        warm = run_campaign(CAMPAIGN, seed=11, cache=tmp_path / "cache")
        assert warm.manifest["cache"]["hits"] == 64
        assert warm.manifest["cache"]["computed"] == 0
        reference = _jsons(serial_faulted)
        assert _jsons(cold) == reference
        assert _jsons(warm) == reference

    def test_axis_name_flows_into_manifest(self, serial_faulted):
        assert "faults.rate" in serial_faulted.manifest["campaign"]["grid"]
        assignments = [
            entry["assignment"] for entry in serial_faulted.manifest["points"]
        ]
        assert all("faults.rate" in assignment for assignment in assignments)


# ---------------------------------------------------------------------------
# One readout on both backends
# ---------------------------------------------------------------------------
EVERY_KIND = (
    {"kind": "serial_bitflip", "rate": 0.4, "n_flips": 1, "direction": "both"},
    {"kind": "sequencer_stall", "rate": 0.5},
    {"kind": "register_corrupt", "rate": 0.3},
    {"kind": "stuck_pixel", "rate": 0.05, "mode": "full"},
)
VECTORIZED_CAMPAIGN = CampaignSpec(
    base=BASE,
    grid={"faults.rate": (0.0, 0.3, 0.6)},
    replicates=4,
    name="fault-parity-vectorized",
    backend="vectorized",
)


class TestCrossBackendReadout:
    @pytest.mark.parametrize("faults", [FAULTS, EVERY_KIND])
    def test_same_counts_and_fault_stream_same_outcome(self, faults):
        from repro.experiments.workloads import _build_dna_chip, _faulted_readout

        spec = BASE.replace(faults=faults)
        chips = [
            _build_dna_chip(
                spec, backend, np.random.default_rng(21), np.random.default_rng(22), None
            )
            for backend in ("object", "vectorized")
        ]
        assert chips[0].registers.dump() == chips[1].registers.dump()
        # A measurement first, so the transcripts compared below cover
        # build, counting frame and readout.
        currents = np.full((spec.rows, spec.cols), 1e-9)
        for chip in chips:
            chip.measure_currents(currents, frame_s=0.1, rng=np.random.default_rng(25))
        counts = np.random.default_rng(23).integers(0, 5000, size=(spec.rows, spec.cols))
        results = [
            _faulted_readout(spec, chip, counts, np.random.default_rng(24)) for chip in chips
        ]
        (obj_counts, obj_info), (vec_counts, vec_info) = results
        assert obj_info["outcome"] == vec_info["outcome"]
        np.testing.assert_array_equal(obj_counts, vec_counts)
        np.testing.assert_array_equal(obj_info["dead"], vec_info["dead"])
        np.testing.assert_array_equal(obj_info["silent"], vec_info["silent"])
        assert chips[0].link.transcript == chips[1].link.transcript
        assert chips[0].registers.dump() == chips[1].registers.dump()

    @pytest.fixture(scope="class")
    def serial_vectorized(self):
        return run_campaign(VECTORIZED_CAMPAIGN, seed=11, executor="serial")

    def test_vectorized_campaign_reports_faults(self, serial_vectorized):
        metrics = [r.metrics for r in serial_vectorized.results()]
        assert all(m["backend"] == "vectorized" for m in metrics)
        assert sum(m["fault_frames_corrupted"] + m["fault_sites_silent"] for m in metrics)

    @pytest.mark.parametrize("executor,workers", [("process", 2), ("batched", None)])
    def test_vectorized_executor_parity(self, serial_vectorized, executor, workers):
        other = run_campaign(
            VECTORIZED_CAMPAIGN, seed=11, executor=executor, workers=workers
        )
        assert _jsons(other) == _jsons(serial_vectorized)

    def test_vectorized_cache_round_trip(self, serial_vectorized, tmp_path):
        cold = run_campaign(VECTORIZED_CAMPAIGN, seed=11, cache=tmp_path / "cache")
        warm = run_campaign(VECTORIZED_CAMPAIGN, seed=11, cache=tmp_path / "cache")
        assert warm.manifest["cache"]["hits"] == VECTORIZED_CAMPAIGN.n_points
        assert warm.manifest["cache"]["computed"] == 0
        assert _jsons(cold) == _jsons(warm) == _jsons(serial_vectorized)


# ---------------------------------------------------------------------------
# Failure capture: executors, cache, job manager
# ---------------------------------------------------------------------------
# A calibration frame too short to count anything fails every point at
# run time, on either backend.
FAILING = CampaignSpec(
    base=BASE.replace(calibration_frame_s=1e-9), grid={"faults.rate": (0.1, 0.2)},
    replicates=1, name="faults-failing", backend="vectorized",
)


class TestFailureCapture:
    def test_executor_raises_without_capture(self):
        plan = FAILING.compile(seed=1)
        with pytest.raises(ValueError, match="no counts"):
            list(SerialExecutor().run(plan))

    def test_executor_captures_errors(self):
        plan = FAILING.compile(seed=1)
        assert {point.backend for point in plan} == {"vectorized"}
        outcomes = list(SerialExecutor().run(plan, capture_errors=True))
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert not outcome.ok
            assert outcome.result is None
            assert "ValueError" in outcome.error

    def test_job_manager_routes_failures_into_status(self, tmp_path):
        manager = JobManager(
            workers=1, cache=tmp_path / "cache", root=tmp_path / "jobs"
        )
        try:
            job = manager.submit(FAILING, seed=1, backend="vectorized")
            manager.wait(job.id, timeout=60)
            status = manager.status(job.id)
            assert status["status"] == "done"
            assert status["n_failed"] == 2
            assert len(status["failed_points"]) == 2
            for entry in status["failed_points"]:
                assert "ValueError" in entry["error"]
                assert {"point", "seed", "error"} <= set(entry)
            assert status["cache"]["failed"] == 2
            assert status["cache"]["computed"] == 0
        finally:
            manager.shutdown()


# ---------------------------------------------------------------------------
# Resilient readout controller
# ---------------------------------------------------------------------------
def _resilient(chip, policy=None):
    return read_counters_resilient(
        chip._last_counts, chip.registers, chip.link, chip.sequence, chip.specs,
        getattr(chip, "recorder", None), policy,
    )


def _fresh_chip(seed=3, recorder=None):
    chip = DnaMicroarrayChip(
        ChipSpecs(rows=16, cols=8), rng=np.random.default_rng(seed),
        recorder=recorder,
    )
    chip.measure_currents(
        np.full((chip.specs.rows, chip.specs.cols), 1e-9), frame_s=1e-3,
        rng=np.random.default_rng(seed + 1),
    )
    return chip


class TestResilientReadout:
    def test_clean_path_matches_plain_readout(self):
        chip = _fresh_chip()
        outcome = _resilient(chip)
        assert outcome.counters == chip.read_counters_serial()
        assert outcome.dead_sites == ()
        assert outcome.frames_corrupted == outcome.frames_lost == 0

    def test_recovers_from_transient_flips(self):
        chip = _fresh_chip(recorder=TraceRecorder())
        chip.link.injector = FaultInjector(
            (SerialBitflipFault(rate=0.5, n_flips=2),),
            rng=np.random.default_rng(9), recorder=chip.recorder,
        )
        outcome = _resilient(chip, ReadoutPolicy(max_retries=4))
        assert outcome.frames_corrupted > 0
        assert outcome.frames_recovered + outcome.frames_lost == (
            outcome.frames_corrupted
        )
        assert len(outcome.counters) == chip.specs.sites
        kinds = {event.kind for event in chip.recorder.trace()}
        assert "fault.inject" in kinds
        assert "readout.detect" in kinds and "readout.retry" in kinds

    def test_giveup_degrades_to_dead_sites(self):
        chip = _fresh_chip(recorder=TraceRecorder())
        chip.link.injector = FaultInjector(
            (SerialBitflipFault(rate=1.0, n_flips=1),),
            rng=np.random.default_rng(9), recorder=chip.recorder,
        )
        outcome = _resilient(chip, ReadoutPolicy(max_retries=1))
        assert outcome.frames_lost > 0
        assert outcome.dead_sites
        assert all(outcome.counters[i] == 0 for i in outcome.dead_sites)
        kinds = {event.kind for event in chip.recorder.trace()}
        assert "readout.giveup" in kinds

    def test_register_corruption_detected_and_restored(self):
        chip = _fresh_chip(recorder=TraceRecorder())
        chip.link.injector = FaultInjector(
            (RegisterCorruptFault(rate=1.0, n_bits=1),),
            rng=np.random.default_rng(9), recorder=chip.recorder,
        )
        outcome = _resilient(chip)
        assert outcome.registers_checked > 0
        assert outcome.registers_corrupted > 0
        assert outcome.registers_restored <= outcome.registers_corrupted

    def test_trace_is_deterministic(self):
        def capture():
            chip = _fresh_chip(recorder=TraceRecorder())
            chip.link.injector = FaultInjector(
                (SerialBitflipFault(rate=0.5, n_flips=2),),
                rng=np.random.default_rng(9), recorder=chip.recorder,
            )
            _resilient(chip)
            return chip.recorder.trace().to_jsonl()
        assert capture() == capture()


# ---------------------------------------------------------------------------
# Replay: failing-frame attribution, multi-frame corruption
# ---------------------------------------------------------------------------
REPLAY_SPEC = DnaAssaySpec(probe_count=4, replicates=2, target_subset=(0, 1))


class TestReplayAttribution:
    def test_clean_replay(self):
        replay = replay_readout(REPLAY_SPEC, seed=0)
        assert replay.ok and replay.failed_frame is None

    def test_single_frame_failure_is_attributed(self):
        replay = replay_readout(REPLAY_SPEC, seed=0, flip_frames={1: [5, 9]})
        assert not replay.ok
        assert replay.failed_frame == 1
        assert replay.readout_error.startswith("response chunk 1:")

    def test_multi_frame_corruption_reports_first_failure(self):
        replay = replay_readout(REPLAY_SPEC, seed=0, flip_frames={0: [5, 9], 1: [7]})
        assert not replay.ok
        assert replay.failed_frame == 0
        assert replay.readout_error.startswith("response chunk 0:")


# ---------------------------------------------------------------------------
# fault_tolerance analysis
# ---------------------------------------------------------------------------
class TestFaultToleranceAnalysis:
    def test_default_analysis_picks_fault_tolerance(self, serial_faulted):
        report = serial_faulted.analyze()
        assert report.analysis["kind"] == "fault_tolerance"

    def test_report_is_deterministic(self, serial_faulted):
        first = serial_faulted.analyze("fault_tolerance").to_json()
        second = serial_faulted.analyze("fault_tolerance").to_json()
        assert first == second

    def test_scalars_and_table(self, serial_faulted):
        report = serial_faulted.analyze("fault_tolerance")
        scalars = report.scalars
        assert scalars["frames_total"] > 0
        assert scalars["n_points"] == 64
        for name, ci in (
            ("detection_rate", "detection"),
            ("site_survival", "site_survival"),
            ("recovery_yield", "recovery"),
        ):
            assert 0.0 <= scalars[name] <= 1.0
            assert scalars[f"{ci}_ci_low"] <= scalars[name] + 1e-12
            assert scalars[name] <= scalars[f"{ci}_ci_high"] + 1e-12
        table = report.tables[0]
        assert table.headers[0] == "faults.rate"
        assert len(table.rows) == 4

    def test_missing_metrics_rejected(self, tmp_path):
        clean = CampaignSpec(
            base=BASE.replace(faults=()),
            grid={"concentration": (1e-7, 1e-6)}, replicates=1,
        )
        result = run_campaign(clean, seed=1)
        with pytest.raises(ValueError, match="fault_"):
            result.analyze("fault_tolerance")
