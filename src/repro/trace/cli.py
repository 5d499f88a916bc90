"""The ``repro trace`` subcommand.

Replays a spec's readout sequence under a
:class:`~repro.trace.recorder.TraceRecorder` and renders the capture::

    repro trace                                   # default DNA assay, event table
    repro trace --render waveform --width 100
    repro trace --spec examples/specs/dna_assay.json --seed 3
    repro trace --flip 42,43 --render bits        # localize injected corruption
    repro trace --assert                          # readout invariants, exit 1 on violation
    repro trace --out trace.jsonl                 # store the canonical capture

Everything printed derives from the captured trace alone, and the trace
is a pure function of ``(spec, seed)`` — two invocations with the same
flags emit identical bytes.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

from .events import SERIAL_FRAME
from .match import SlotSettles, check_trace, readout_invariants
from .render import render_events, render_frame_bits, render_html, render_waveform


def _parse_ints(text: Optional[str], option: str) -> Optional[list[int]]:
    if text is None:
        return None
    try:
        return [int(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise SystemExit(f"repro: {option} expects comma-separated integers, got {text!r}")


def _parse_names(text: Optional[str]) -> Optional[list[str]]:
    if text is None:
        return None
    return [token.strip() for token in text.split(",") if token.strip()]


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..experiments import spec_from_dict
    from .capture import replay_readout

    spec = None
    if args.spec:
        try:
            payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
            spec = spec_from_dict(payload)
        except FileNotFoundError:
            raise SystemExit(f"repro: no such file: {args.spec}")
        except (KeyError, TypeError, ValueError) as error:
            raise SystemExit(f"repro: {error}")
    flips = _parse_ints(args.flip, "--flip")
    frames = _parse_ints(args.flip_frame, "--flip-frame") or [0]
    # Every listed chunk gets the same bit positions.
    flip_frames = {frame: list(flips) for frame in frames} if flips else None
    try:
        replay = replay_readout(spec, seed=args.seed, flip_frames=flip_frames)
    except (IndexError, ValueError) as error:
        raise SystemExit(f"repro: {error}")
    trace = replay.trace

    if args.out:
        Path(args.out).write_text(trace.to_jsonl(), encoding="utf-8")
        print(f"trace written to {args.out} ({len(trace)} events)")

    view = trace.filter(
        kinds=_parse_names(args.kinds), channels=_parse_names(args.channels)
    )
    if args.render == "events":
        print(render_events(view, limit=args.limit))
    elif args.render == "waveform":
        print(render_waveform(view, width=args.width))
    elif args.render == "html":
        print(render_html(view, limit=args.limit))
    elif args.render == "bits":
        frames = [e for e in view if e.kind == SERIAL_FRAME]
        corrupt = [e for e in frames if not e.data.get("ok", True)]
        for event in corrupt or frames[: args.limit or len(frames)]:
            print(render_frame_bits(event))
    elif args.render == "jsonl":
        print(trace.to_jsonl(), end="")

    status = 0
    if replay.readout_error is not None:
        print(f"\nreadout FAILED: {replay.readout_error}")
        status = 1
    if args.check:
        invariants = readout_invariants()
        if args.bw is not None:
            invariants.append(SlotSettles(args.bw))
        violations = check_trace(trace, invariants)
        if violations:
            print(f"\n{len(violations)} trace violation(s):")
            for violation in violations:
                print(f"  {violation.render()}")
            status = 1
        else:
            print("\ntrace assertions: all invariants hold")
    return status


def add_trace_parser(sub: "argparse._SubParsersAction") -> None:
    trace = sub.add_parser(
        "trace",
        help="replay a spec's digital readout under a trace recorder and render it",
    )
    trace.add_argument("--spec", default=None, help="ExperimentSpec JSON (default: DNA assay)")
    trace.add_argument("--seed", type=int, default=0, help="replay root seed (default 0)")
    trace.add_argument(
        "--flip",
        default=None,
        metavar="B1,B2,...",
        help="bit positions to corrupt in one readout response frame",
    )
    trace.add_argument(
        "--flip-frame",
        default="0",
        metavar="N1,N2,...",
        help="which response chunk(s) --flip corrupts (default 0); a "
        "comma list corrupts every listed chunk",
    )
    trace.add_argument(
        "--render",
        choices=("events", "waveform", "html", "bits", "jsonl"),
        default="events",
        help="output view (default: aligned event table)",
    )
    trace.add_argument("--kinds", default=None, help="comma-separated event kinds to keep")
    trace.add_argument(
        "--channels",
        default=None,
        help="comma-separated channels to keep ('reg.' matches as a prefix)",
    )
    trace.add_argument("--width", type=int, default=72, help="waveform width in columns")
    trace.add_argument("--limit", type=int, default=None, help="max events to print")
    trace.add_argument(
        "--check",
        "--assert",
        dest="check",
        action="store_true",
        help="run the readout invariants; exit 1 on any violation",
    )
    trace.add_argument(
        "--bw",
        type=float,
        default=None,
        metavar="HZ",
        help="with --check: also require every sample slot to settle a "
        "single-pole amplifier of this bandwidth",
    )
    trace.add_argument("--out", default=None, help="write the canonical trace JSONL to a file")
    trace.set_defaults(func=_cmd_trace)
