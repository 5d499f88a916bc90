"""Digital-path tracing: watch a DNA assay cross the 6-pin interface.

Every register write, sequencer phase, sample slot and serial frame of
a readout is capturable as a cycle-accurate trace — timestamps are
simulated time derived from ``ScanTiming``/``SiteSequence`` and serial
wire arithmetic, so the trace is a pure function of (spec, seed) and
serializes byte-identically.  This walkthrough:

1. replays a small assay under a ``TraceRecorder`` and renders the
   capture as an event table and an ASCII waveform,
2. re-runs it with two bits flipped in the counter readout, localizes
   the corruption to exact bit positions, and
3. shows the trace assertion API turning the corruption into a
   structured violation.

Run:  python examples/trace_readout.py
"""

from repro.experiments import DnaAssaySpec
from repro.trace import (
    SERIAL_FRAME,
    TraceAssertionError,
    assert_trace,
    readout_invariants,
    render_events,
    render_frame_bits,
    render_waveform,
    replay_readout,
)

SPEC = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A clean replay: configure -> calibrate -> RUN_FRAME -> measure
    #    -> serial counter shift-out, all captured.
    # ------------------------------------------------------------------
    replay = replay_readout(SPEC, seed=3)
    trace = replay.trace
    print(f"captured {len(trace)} events over {trace.duration_s:.3g} s "
          f"of simulated time\n")
    print(render_events(trace, limit=12))

    print("\nwaveform (register buses, sequencer state, serial wires):\n")
    print(render_waveform(trace, width=72))

    # The readout worked: 128 counters came back over DOUT, and the
    # standard invariants (frames intact, writes accepted, calibration
    # before RUN_FRAME) all hold.
    assert replay.ok and len(replay.counters) == 128
    assert_trace(trace, readout_invariants())
    print("\nclean replay: all readout invariants hold")

    # Same spec + seed => byte-identical serialized trace.
    again = replay_readout(SPEC, seed=3)
    assert again.trace.to_jsonl() == trace.to_jsonl()
    print("replay is deterministic: serialized traces are byte-identical")

    # ------------------------------------------------------------------
    # 2. Inject corruption: flip bits 42 and 43 of the first READ_COUNTERS
    #    response chunk.  The checksum catches it; the trace localizes it.
    # ------------------------------------------------------------------
    corrupt = replay_readout(SPEC, seed=3, flip_frames={0: [42, 43]})
    assert not corrupt.ok
    print(f"\ncorrupted replay failed as it should: {corrupt.readout_error}")

    bad_frame = next(
        e for e in corrupt.trace
        if e.kind == SERIAL_FRAME and not e.data["ok"]
    )
    print("\nbit-level localization of the corrupt frame:\n")
    print(render_frame_bits(bad_frame))

    # ------------------------------------------------------------------
    # 3. The assertion API reports the same failure as structured data.
    # ------------------------------------------------------------------
    try:
        assert_trace(corrupt.trace, readout_invariants())
    except TraceAssertionError as error:
        violation = error.violations[0]
        print(f"\ntrace assertion caught it: {violation.render()}")
        print(f"structured payload: rule={violation.rule!r} "
              f"channel={violation.channel!r} "
              f"flipped={violation.data['flipped']}")
    else:
        raise AssertionError("corruption must violate frames-intact")


if __name__ == "__main__":
    main()
