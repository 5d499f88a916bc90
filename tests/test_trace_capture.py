"""End-to-end traced replays: determinism, corruption localization,
result attachment."""

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ArrayScaleSpec, DnaAssaySpec, NeuralRecordingSpec, Runner
from repro.trace import (
    SEQ_SAMPLE,
    SERIAL_FRAME,
    TraceAssertionError,
    TraceRecorder,
    assert_trace,
    check_trace,
    readout_invariants,
    record_scan_frame,
    render_frame_bits,
    replay_readout,
)
from repro.chip.sequencer import ScanTiming

SMALL_SPEC = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def clean_replay():
    return replay_readout(SMALL_SPEC, seed=3)


@pytest.fixture(scope="module")
def corrupt_replay():
    return replay_readout(SMALL_SPEC, seed=3, flip_frames={0: [42, 43]})


class TestReplayClean:
    def test_readout_succeeds(self, clean_replay):
        assert clean_replay.ok
        assert clean_replay.readout_error is None
        assert len(clean_replay.counters) == 128

    def test_trace_covers_the_digital_path(self, clean_replay):
        kinds = set(clean_replay.trace.kinds())
        assert {"reg.write", "seq.state", "seq.sample", "serial.frame"} <= kinds

    def test_counters_match_untraced_run(self, clean_replay):
        # The replayed chip is stream-identical to the workload's own,
        # so records agree with a plain run of the same (spec, seed).
        plain = Runner(seed=3).run(SMALL_SPEC)
        for name, column in plain.records.items():
            np.testing.assert_array_equal(
                clean_replay.result.records[name], column, err_msg=name
            )

    def test_invariants_hold(self, clean_replay):
        assert_trace(clean_replay.trace, readout_invariants())

    def test_timestamps_monotonic_per_seq(self, clean_replay):
        times = clean_replay.trace.column("time_s")
        # seq.sample events carry in-stream offsets; the capture-ordered
        # stream itself never goes backwards by more than one readout.
        assert clean_replay.trace.column("seq").tolist() == sorted(
            e.seq for e in clean_replay.trace
        )
        assert times.min() >= 0.0

    def test_run_frame_follows_calibration(self, clean_replay):
        events = clean_replay.trace.events
        cal = next(
            i for i, e in enumerate(events)
            if e.kind == "reg.write"
            and e.channel == "reg.calibration_enable"
            and e.data["value"] == 1
        )
        run = next(
            i for i, e in enumerate(events)
            if e.kind == SERIAL_FRAME and e.data["command"] == "RUN_FRAME"
        )
        assert cal < run


class TestReplayDeterminism:
    @pytest.mark.parametrize(
        "name, spec, seed, flip_frames",
        [
            ("replay_dna_seed3.jsonl", DnaAssaySpec(), 3, None),
            ("replay_dna_seed3_flip0_42_43.jsonl", DnaAssaySpec(), 3, {0: [42, 43]}),
            (
                "replay_array_scale_16x8_seed1.jsonl",
                ArrayScaleSpec(rows=16, cols=8, n_chips=1),
                1,
                None,
            ),
        ],
    )
    def test_matches_golden_capture(self, name, spec, seed, flip_frames):
        """The serialized capture is a fixed reference: these files are
        never regenerated to make a change pass."""
        replay = replay_readout(spec, seed=seed, flip_frames=flip_frames)
        golden = (GOLDEN / name).read_text(encoding="utf-8")
        assert replay.trace.to_jsonl() == golden

    def test_same_spec_seed_is_byte_identical(self, clean_replay):
        again = replay_readout(SMALL_SPEC, seed=3)
        assert again.trace.to_jsonl() == clean_replay.trace.to_jsonl()

    def test_different_seed_differs(self, clean_replay):
        other = replay_readout(SMALL_SPEC, seed=4)
        assert other.trace.to_jsonl() != clean_replay.trace.to_jsonl()

    def test_round_trip_preserves_bytes(self, clean_replay):
        from repro.trace import TraceTable

        text = clean_replay.trace.to_jsonl()
        assert TraceTable.from_jsonl(text).to_jsonl() == text


class TestReplayCorrupt:
    def test_readout_fails_with_recorded_frame(self, corrupt_replay):
        assert not corrupt_replay.ok
        assert "checksum" in corrupt_replay.readout_error
        assert corrupt_replay.counters is None

    def test_corrupt_frame_localizes_flips(self, corrupt_replay):
        bad = [
            e for e in corrupt_replay.trace
            if e.kind == SERIAL_FRAME and not e.data["ok"]
        ]
        assert len(bad) == 1
        event = bad[0]
        assert event.data["flipped"] == [42, 43]
        sent, received = event.data["sent_bits"], event.data["received_bits"]
        assert [i for i, (s, r) in enumerate(zip(sent, received)) if s != r] == [42, 43]
        dump = render_frame_bits(event)
        assert "CORRUPT" in dump and dump.count("^") == 2

    def test_assertion_fails_with_structured_violation(self, corrupt_replay):
        with pytest.raises(TraceAssertionError) as excinfo:
            assert_trace(corrupt_replay.trace, readout_invariants())
        rules = [v.rule for v in excinfo.value.violations]
        assert "frames-intact" in rules
        violation = next(
            v for v in excinfo.value.violations if v.rule == "frames-intact"
        )
        assert violation.data["flipped"] == [42, 43]
        assert violation.channel == "serial.dout"

    def test_events_before_corruption_identical_to_clean(
        self, clean_replay, corrupt_replay
    ):
        # Corruption hits the first readout response chunk; everything
        # recorded before it is bit-for-bit the clean capture.
        clean_lines = clean_replay.trace.to_jsonl().splitlines()[1:]
        corrupt_lines = corrupt_replay.trace.to_jsonl().splitlines()[1:]
        first_diff = next(
            i for i, (a, b) in enumerate(zip(clean_lines, corrupt_lines)) if a != b
        )
        assert first_diff > 0
        assert clean_lines[:first_diff] == corrupt_lines[:first_diff]


class TestReplaySpecs:
    def test_array_scale_single_chip(self):
        spec = ArrayScaleSpec(rows=16, cols=8, backend="object")
        replay = replay_readout(spec, seed=1)
        assert replay.ok and len(replay.counters) == 128
        assert replay.result.kind == "array_scale"

    def test_array_scale_multi_chip_rejected(self):
        with pytest.raises(ValueError, match="n_chips"):
            replay_readout(ArrayScaleSpec(rows=16, cols=8, n_chips=2), seed=1)

    def test_unsupported_kind_rejected(self):
        spec = NeuralRecordingSpec(rows=16, cols=16, n_neurons=1, duration_s=0.01)
        with pytest.raises(ValueError, match="replay_readout supports"):
            replay_readout(spec, seed=1)

    def test_flip_out_of_range_propagates(self):
        with pytest.raises(IndexError):
            replay_readout(SMALL_SPEC, seed=3, flip_frames={0: [10_000_000]})

    def test_flip_chunk_out_of_range_raises(self):
        # The 16x8 chip shifts out in two chunks; chunk 7 does not exist.
        with pytest.raises(ValueError, match="has 2 chunk"):
            replay_readout(SMALL_SPEC, seed=0, flip_frames={7: [5, 9]})


class TestResultAttachment:
    def test_result_carries_trace(self, clean_replay):
        trace = clean_replay.result.trace
        assert trace is not None and len(trace) > 0

    def test_result_round_trips_with_trace(self, clean_replay):
        from repro.experiments import ResultSet

        back = ResultSet.from_json(clean_replay.result.to_json())
        assert back.trace == clean_replay.result.trace
        assert back.to_json() == clean_replay.result.to_json()

    def test_untraced_run_has_no_trace(self):
        result = Runner(seed=3).run(SMALL_SPEC)
        assert result.trace is None
        assert "trace" not in result.to_dict()


class TestScanFrameCapture:
    def test_covers_requested_rows_at_scan_times(self):
        scan = ScanTiming(rows=8, cols=8, channels=4, frame_rate_hz=1000.0)
        rec = TraceRecorder()
        trace = record_scan_frame(rec, scan=scan)
        samples = trace.filter(kinds=[SEQ_SAMPLE])
        assert len(samples) == 64
        # Every pixel exactly once, stamped with its in-frame offset.
        seen = {(e.data["row"], e.data["col"]) for e in samples}
        assert seen == {(r, c) for r in range(8) for c in range(8)}
        for event in samples:
            expected = scan.sample_time_s(event.data["row"], event.data["col"])
            assert event.time_s == pytest.approx(expected)
            assert event.data["slot_s"] == pytest.approx(scan.slot_time_s)
        # The clock advanced by exactly one frame.
        assert rec.now == pytest.approx(scan.frame_time_s)

    def test_row_limit(self):
        scan = ScanTiming(rows=8, cols=8, channels=4, frame_rate_hz=1000.0)
        trace = record_scan_frame(TraceRecorder(), scan=scan, rows=2)
        samples = trace.filter(kinds=[SEQ_SAMPLE])
        assert len(samples) == 16
        assert {e.data["row"] for e in samples} == {0, 1}

    def test_settling_assertion_on_captured_slots(self):
        from repro.trace import SlotSettles

        scan = ScanTiming(rows=128, cols=128, channels=16, frame_rate_hz=2000.0)
        trace = record_scan_frame(TraceRecorder(), scan=scan, rows=1)
        # The paper's 4 MHz amplifier settles the 488 ns slot...
        assert check_trace(trace, [SlotSettles(4e6)]) == []
        # ... but a 100 kHz amplifier cannot.
        slow = check_trace(trace, [SlotSettles(1e5)])
        assert len(slow) == len(trace.filter(kinds=[SEQ_SAMPLE]))
